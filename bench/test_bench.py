"""Tests of the benchmark itself: tiny workloads, metric names and units,
the correctness checks, and the tracer's wrappers.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

import run

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

import imdd  # noqa: E402
from imdd import bias, cli, link, pulses  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

TINY_GRID = wl.BiasGrid(("rc", "pl", "s2", "rrc"), (0.5, 1.0), parts=2)
TINY_COMMANDS = (
    wl.FIG2,
    wl._eye("rrc", traces=2),
    wl._sweep("gain-equal-ser", wl.EQUAL_SER, "rc", "0.5", 2, "gain"),
    wl._sweep("bias", wl.BIAS, "pl,rrc", "0.5:1.0:0.5", 8),
)
TINY = {name: dataclasses.replace(w, bias_grid=TINY_GRID,
                                  commands=TINY_COMMANDS,
                                  probe_passes=(("link", 1), ("bias", 1),
                                                ("cli", 1)))
        for name, w in wl.WORKLOADS.items()}


def _table(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.fixture
def bench(monkeypatch, tmp_path, capsys):
    """Run ``run.main`` on the tiny workloads; returns the parsed result."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))

    def call(workload, trace=0, table=TINY):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0.01", "--trace", str(trace)],
                        workloads=table)
        assert code == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return call


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(bench, workload):
    result = bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = _table("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


def test_traced_run_prints_every_layer_metric(bench, tmp_path):
    result = bench("bias-grid", trace=1)
    assert result["correct"] is True
    units = _table("per_layer")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in tracing.LAYERS:
        assert values.get(f"{layer.name}.calls", 1) >= 1, layer.name
    assert values["bias._search.hits"] >= 1
    assert values["bias._search.misses"] >= 1
    assert list(tmp_path.glob("*.spans.csv.gz"))


def test_expected_failures_count_but_keep_the_run_correct(bench):
    grid = wl.BiasGrid(("xia", "rc"), (0.01, 0.5))
    table = {"bias-grid": dataclasses.replace(TINY["bias-grid"],
                                              bias_grid=grid)}
    result = bench("bias-grid", table=table)
    assert result["correct"] is True
    # xia at alpha=0.01 fails at M=2 and M=4 in every pass
    assert result["failed"] == 2 * wl.MAIN_MIN_PASSES


def test_an_expected_failure_for_another_reason_is_unexpected():
    ledger = wl.Ledger()
    ledger.op("bias:xia:0.01:M2", "NumericalDivergenceError: K > K_CAP")
    ledger.op("cli:gain-equal-eye:rrc",
              "no receiver supports rrc in equal-eye")
    assert ledger.unexpected() == []
    ledger.op("bias:xia:0.01:M4", "DomainError: alpha out of range")
    ledger.op("cli:gain-equal-eye:rrc", "gain is not finite")
    ledger.op("bias:rc:0.5:M2", "NumericalDivergenceError: K > K_CAP")
    assert [name for name, _ in ledger.unexpected()] == [
        "bias:xia:0.01:M4", "cli:gain-equal-eye:rrc", "bias:rc:0.5:M2"]


# --- each check fails when an output is perturbed ---------------------------

@pytest.fixture
def ctx(tmp_path):
    return wl.Context(5, wl.Ledger(), tracing.Tracer(imdd), str(tmp_path))


def _failed_ops(ctx):
    return [name for name, _ in ctx.ledger.failures]


def test_bias_anchor_check_fails_on_a_perturbed_mu(ctx, monkeypatch):
    orig = bias.required_bias

    def off(pulse, constellation, **kw):
        sol = orig(pulse, constellation, **kw)
        return dataclasses.replace(sol, mu=sol.mu + 1e-7)

    grid = wl.BiasGrid(("pl", "s2", "rrc", "rc"), (0.5, 1.0), (2,))
    wl.BiasStage(grid).unit(ctx, random.Random(0))
    assert ctx.ledger.failures == []
    monkeypatch.setattr(bias, "required_bias", off)
    wl.BiasStage(grid).unit(ctx, random.Random(0))
    assert sorted(_failed_ops(ctx)) == [
        "bias:pl:0.5:M2", "bias:rrc:1:M2", "bias:s2:0.5:M2", "bias:s2:1:M2"]


def test_the_parts_of_a_pass_solve_each_pair_once(ctx):
    stage = wl.BiasStage(TINY_GRID)
    rng = random.Random(0)
    for _ in range(TINY_GRID.parts):
        stage.unit(ctx, rng)
    assert ctx.ledger.attempted == stage.finished == 16
    assert len(stage.cold_s) == 8          # one search per (family, alpha)


def test_monte_carlo_check_fails_on_a_perturbed_estimate(ctx, monkeypatch):
    configs = wl.prepare_link((("rc", "sampling"),))
    wl.LinkStage(configs).unit(ctx, random.Random(0))
    assert ctx.ledger.failures == []
    orig = link.monte_carlo_ser
    monkeypatch.setattr(link, "monte_carlo_ser", lambda cfg, n: (
        lambda est: dataclasses.replace(est, p_hat=est.p_hat + 6 * est.ci95)
    )(orig(cfg, n)))
    wl.LinkStage(configs).unit(ctx, random.Random(0))
    assert len(ctx.ledger.failures) == 1
    assert "3*ci95" in ctx.ledger.failures[0][1]


SMALL = (wl._sweep("bias", wl.BIAS, "rc,s2", "0.5", 4),)


def test_cli_checks_fail_on_exit_code_rows_and_bytes(ctx, monkeypatch):
    wl.CliStage(SMALL).unit(ctx, random.Random(0))
    assert ctx.ledger.failures == [] and "bias.csv" in ctx.ledger.artifacts

    orig_run = cli.run
    monkeypatch.setattr(cli, "run", lambda cfg: orig_run(cfg) or 3)
    wl.CliStage(SMALL).unit(ctx, random.Random(0))
    assert "exit code 3" in ctx.ledger.failures[-1][1]
    monkeypatch.setattr(cli, "run", orig_run)

    orig_write = cli._write_rows
    monkeypatch.setattr(cli, "_write_rows", lambda cfg, header, rows, *a:
                        orig_write(cfg, header, rows[:-1], *a))
    wl.CliStage(SMALL).unit(ctx, random.Random(0))
    assert "wrote 3 rows, expected 4" in ctx.ledger.failures[-1][1]
    monkeypatch.setattr(cli, "_write_rows", orig_write)

    monkeypatch.setattr(cli, "__version__", "0.0.0-perturbed")
    wl.CliStage(SMALL).unit(ctx, random.Random(0))
    assert "differ from an earlier pass" in ctx.ledger.failures[-1][1]
    assert ctx.ledger.unexpected() == ctx.ledger.failures


def test_cli_bias_rows_are_checked_against_the_anchors(ctx, monkeypatch):
    orig_write = cli._write_rows

    def shifted(cfg, header, rows, *a):
        rows = [r[:5] + (r[5] + 1e-6,) + r[6:] for r in rows]
        return orig_write(cfg, header, rows, *a)

    monkeypatch.setattr(cli, "_write_rows", shifted)
    wl.CliStage(SMALL).unit(ctx, random.Random(0))
    assert "closed form" in ctx.ledger.failures[-1][1]


def test_sidecar_rows_are_failed_operations(ctx):
    cmd = wl._sweep("gain-equal-eye", wl.EQUAL_EYE, "rc,rrc", "0.5", 2,
                    "gain")
    wl.CliStage((cmd,)).unit(ctx, random.Random(0))
    assert _failed_ops(ctx) == ["cli:gain-equal-eye:rrc"]
    assert ctx.ledger.unexpected() == []


# --- the tracer -------------------------------------------------------------

def test_tracer_keeps_attributes_and_restores_the_originals():
    originals = {(l.module, l.attr): getattr(getattr(imdd, l.module), l.attr)
                 for l in tracing.LAYERS}
    tracer = tracing.Tracer(imdd)
    with pytest.raises(KeyError), tracer:
        wrapped = bias._search
        assert wrapped is not originals["bias", "_search"]
        assert wrapped.__wrapped__ is originals["bias", "_search"]
        assert wrapped.__name__ == "_search"
        bias.clear_caches()                 # calls _search.cache_clear()
        assert wrapped.cache_info().currsize == 0
        pam = bias.Constellation.pam(2)
        bias.required_bias(pulses.PulseSpec("rc", 0.5), pam)
        bias.required_bias(pulses.PulseSpec("rc", 0.5), pam)
        raise KeyError("leave the block by an exception")
    for (module, attr), orig in originals.items():
        assert getattr(getattr(imdd, module), attr) is orig
    values = tracer.metrics()
    assert values["bias._search.hits"] == 1
    assert values["bias._search.misses"] == 1
    assert values["bias.required_bias.calls"] == 2
    self_s = tracer.self_times()
    total = sum(t1 - t0 for name, t0, t1, _, _ in tracer.spans
                if name == "series.folded_pair")
    assert 0.0 < self_s["series.folded_pair"] < total
    assert all(span[4] == "" for span in tracer.spans)


def test_a_search_that_raises_counts_as_a_miss():
    tracer = tracing.Tracer(imdd)
    bias.clear_caches()
    with tracer, pytest.raises(imdd.errors.NumericalDivergenceError):
        bias.required_bias(pulses.PulseSpec("xia", 0.01),
                           bias.Constellation.pam(2))
    values = tracer.metrics()
    assert values["bias._search.misses"] == 1
    assert values["bias._search.hits"] == 0
    assert values["bias._search.failed"] == 1


def test_exits_without_a_result_when_the_package_is_absent(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
