"""The README's examples, run as written.

Each ``python`` fenced block runs in a fresh directory, so an API change
cannot leave the library quick tour stale.  Each fenced block that holds
``$ imdd ...`` lines is replayed through ``cli.main`` in a fresh directory.
A command's output lines must match the block (stderr lines first, then
stdout, then the exit code for a trailing ``; echo $?``) with the elapsed
time masked; a ``$ cat FILE`` line must be followed by the file's lines.
A README line ending in ``...`` (or in ``..."``, an elided quoted field)
matches as a prefix.
"""

import pathlib
import re
import shlex

import pytest

from imdd import cli

README = pathlib.Path(__file__).parents[1] / "README.md"
ELAPSED = re.compile(r"\[\d+\.\d+ s\]$")


def _blocks():
    """(first command, lines) of each fenced block with an imdd prompt."""
    blocks, lines, fenced = [], [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if fenced and any(ln.startswith("$ imdd ") for ln in lines):
                blocks.append(pytest.param(lines, id=lines[0][2:]))
            lines, fenced = [], not fenced
        elif fenced:
            lines.append(line)
    return blocks


def _python_blocks():
    """The source of each ``python`` fenced block."""
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def _sessions(lines):
    """Split a block into (command, expected output lines)."""
    sessions = []
    for line in lines:
        if line.startswith("$ "):
            sessions.append((line[2:], []))
        else:
            sessions[-1][1].append(line)
    return sessions


def _matches(actual, expected):
    actual = [ELAPSED.sub("[T s]", ln) for ln in actual]
    expected = [ELAPSED.sub("[T s]", ln) for ln in expected]
    return len(actual) == len(expected) and all(
        a.startswith(_prefix(e)) if _prefix(e) is not None else a == e
        for a, e in zip(actual, expected))


def _prefix(expected):
    """The text before an elided end (``...`` or a quoted ``..."``), or
    None for a line that must match whole."""
    head = expected.removesuffix('"')
    return head[:-3] if head.endswith("...") else None


def test_readme_has_examples():
    assert len(_blocks()) >= 4
    assert len(_python_blocks()) >= 1


@pytest.mark.parametrize("source", [
    pytest.param(src, id=f"python-{i}")
    for i, src in enumerate(_python_blocks(), 1)])
def test_readme_python_block(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {})


@pytest.mark.parametrize("lines", _blocks())
def test_readme_example(lines, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("IMDD_OUT_DIR", raising=False)
    for command, expected in _sessions(lines):
        echo = command.endswith("; echo $?")
        argv = shlex.split(command.removesuffix("; echo $?"))
        if argv[0] == "cat":
            actual = (tmp_path / argv[1]).read_text("utf-8").splitlines()
        else:
            assert argv[0] == "imdd"
            code = cli.main(argv[1:])
            out = capsys.readouterr()
            actual = out.err.splitlines() + out.out.splitlines()
            actual += [str(code)] if echo else []
        assert _matches(actual, expected), (command, actual)


def test_readme_lists_the_reproduce_command_lines():
    text = README.read_text(encoding="utf-8")
    for fig in cli.FIGURES:
        for argv in cli.reproduce_argv(fig):
            assert f"imdd {shlex.join(argv)}" in text, fig
