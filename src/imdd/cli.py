"""Command-line front end: sweep orchestration and CSV/JSON emission.

Every artifact file starts with a version line, uses a fixed column
schema, and is byte-identical across reruns of the same configuration.
Exit codes: 0 success (possibly with per-row warnings), 2 invalid usage
or configuration, 3 numerical divergence.  Per-row sweep failures go to a
``<output stem>.errors.csv`` sidecar instead of poisoning good rows.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import sys
import time
from dataclasses import astuple

import numpy as np

from . import __version__, bias, gains, link, pulses, waveform
from .errors import (DomainError, ImddError, NumericalDivergenceError,
                     require_count, require_real)

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6")
FORMATS = ("csv", "json")

_SER_HEADER = ("pulse", "alpha", "M", "receiver", "A", "N0",
               "p_analytic", "p_hat", "ci95", "n")
_GAIN_HEADER = ("scenario", "receiver", "pulse", "alpha", "m", "b_tb",
                "gain_db", "mu", "q_bar", "q_zero")
_BIAS_HEADER = ("pulse", "alpha", "m", "ts", "mu", "mu_norm",
                "argmax_t", "k_trunc")


def _served(args: argparse.Namespace) -> tuple[str, ...]:
    """``--pulse all``: for ``gain`` and ``ser``, the families that
    ``link.front_end`` pairs with a requested receiver (equal eye takes the
    sampling receiver only); for the other commands, every family."""
    if args.command not in ("gain", "ser"):
        return pulses.FAMILIES
    # ser takes a pair as equal-ser does: by the pair rule alone
    scenario = getattr(args, "scenario", "equal-ser")
    wanted = {args.receiver} if args.receiver else set(link.RECEIVERS)
    served = tuple(f for f in pulses.FAMILIES
                   if wanted.intersection(gains.valid_receivers(f, scenario)))
    if not served:       # only a named receiver can leave none
        raise DomainError(f"--pulse all: no pulse family takes the "
                          f"{args.receiver} receiver in {scenario}")
    return served


def _parse_pulse_list(text: str) -> tuple[str, ...]:
    out = []
    for name in text.split(","):
        name = name.strip().lower()
        if name not in pulses.FAMILIES:
            raise DomainError(
                f"unknown pulse {name!r}; choose from "
                f"{', '.join(pulses.FAMILIES)} or 'all'")
        out.append(name)
    if not out:
        raise DomainError("empty pulse list")
    return tuple(dict.fromkeys(out))


def _parse_alpha_grid(text: str) -> tuple[float, ...]:
    """'0.6' or 'start:stop:step' (inclusive endpoints)."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise DomainError("alpha grid must be value or start:stop:step")
    values = [require_real("--alpha value", p) for p in parts]
    if len(values) == 1:
        return (values[0],)
    start, stop, step = values
    if step <= 0:
        raise DomainError("alpha grid step must be > 0")
    if stop < start:
        raise DomainError("alpha grid needs stop >= start")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(round(start + i * step, 12) for i in range(n))


def _parse_m_list(text: str) -> tuple[int, ...]:
    try:
        out = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad modulation order list {text!r}") from exc
    for m in out:
        require_count("--m", m, 2)
    return tuple(dict.fromkeys(out))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _check_writable(path: str) -> list[str]:
    """Fail early on an unwritable path without creating the artifact, so
    an error found later leaves no file behind.  Returns the directories
    it created, deepest first, for ``_remove_empty``."""
    parent = os.path.dirname(os.path.abspath(path))
    created, d = [], parent
    while not os.path.exists(d):
        created.append(d)
        d = os.path.dirname(d)
    try:
        os.makedirs(parent, exist_ok=True)
        existed = os.path.exists(path)
        open(path, "a", encoding="utf-8").close()
        if not existed:
            os.remove(path)
    except OSError as exc:
        _remove_empty(created)
        raise DomainError(f"output path {path!r} is not writable: {exc}")
    return created


def _remove_empty(dirs):
    """Remove each of ``dirs`` that the run left empty."""
    for d in dirs:
        with contextlib.suppress(OSError):
            os.rmdir(d)


def _write_csv(path: str, header, rows, comments=()):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# imdd {__version__}\n")
        for key, value in comments:
            fh.write(f"# {key}={_fmt(value)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_rows(cfg: argparse.Namespace, header, rows, t0: float,
                comments=(), extra: str = ""):
    """Write the artifact and print the command's summary line."""
    if cfg.format == "json":
        payload = {"version": __version__, "command": cfg.command}
        if comments:
            payload["params"] = dict(comments)
        payload["rows"] = [dict(zip(header, row)) for row in rows]
        with open(cfg.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        _write_csv(cfg.output, header, rows, comments)
    elapsed = time.perf_counter() - t0
    print(f"{cfg.command}: wrote {len(rows)} rows -> {cfg.output}"
          f"{extra} [{elapsed:.2f} s]")


def _finish(cfg: argparse.Namespace, header, results, t0: float,
            extra=lambda rows: "") -> int:
    """Split a grid's (key, row | error) stream into the artifact and the
    ``<stem>.errors.csv`` sidecar, and map failures to the exit code
    contract.  A key holds the leading columns of its point's row."""
    rows, failures = [], []
    for key, res in results:
        if isinstance(res, ImddError):
            failures.append(key + (res,))
        else:
            rows.append(res)
    if failures:
        path = os.path.splitext(cfg.output)[0] + ".errors.csv"
        _write_csv(path, header[:len(failures[0]) - 1] + ("error",),
                   failures)
        print(f"warning: {len(failures)} grid point(s) failed -> {path}",
              file=sys.stderr)
    _write_rows(cfg, header, rows, t0, (), extra(rows) if rows else "")
    if rows:
        return 0
    diverged = any(isinstance(f[-1], NumericalDivergenceError)
                   for f in failures)
    return 3 if diverged else 2


def _keys(cfg: argparse.Namespace, *more):
    return itertools.product(sorted(cfg.pulse_set), cfg.alphas,
                             cfg.m_values, *more)


def _run_bias(cfg: argparse.Namespace, t0: float) -> int:
    def point(family, alpha, m):
        sol = bias.required_bias(pulses.PulseSpec(family, alpha, cfg.ts),
                                 bias.Constellation.pam(m))
        return (family, alpha, m, cfg.ts, sol.mu, sol.mu / (m - 1),
                sol.argmax_t, sol.k_trunc)

    return _finish(cfg, _BIAS_HEADER, gains.grid(point, _keys(cfg)), t0)


def _run_ser(cfg: argparse.Namespace, t0: float) -> int:
    def point(family, alpha, m, receiver):
        lc = link.LinkConfig(
            pulse=pulses.PulseSpec(family, alpha, cfg.ts),
            constellation=bias.Constellation.pam(m), receiver=receiver,
            a=cfg.a, n0=cfg.n0, seed=cfg.seed)
        est = link.monte_carlo_ser(lc, cfg.n_symbols, cfg.target)
        return (family, alpha, m, receiver, cfg.a, cfg.n0, est.p_analytic,
                est.p_hat, est.ci95, est.n_symbols)

    return _finish(cfg, _SER_HEADER,
                   gains.grid(point, _keys(cfg, (cfg.receiver,))), t0)


def _run_gain(cfg: argparse.Namespace, t0: float) -> int:
    def extra(rows):
        db = [row[6] for row in rows]
        return f" (gain min {min(db):.3f} dB, max {max(db):.3f} dB)"

    results = gains.gain_grid(cfg.scenario, sorted(cfg.pulse_set),
                              cfg.alphas, cfg.m_values, cfg.p_err,
                              (cfg.receiver,) if cfg.receiver else None)
    return _finish(cfg, _GAIN_HEADER,
                   ((key, res if isinstance(res, ImddError) else astuple(res))
                    for key, res in results), t0, extra)


def _single_point(cfg: argparse.Namespace, n_block: int):
    """The pulse, constellation and symbol train of ``waveform`` and
    ``eye``, and their common comment lines.  The train comes from
    default_rng(seed): the block first, then the left and right guards."""
    family, alpha, m = cfg.pulse_set[0], cfg.alphas[0], cfg.m_values[0]
    pulse = pulses.PulseSpec(family, alpha, cfg.ts)
    constellation = bias.Constellation.pam(m)
    levels = np.asarray(constellation.levels)
    guard = pulses.effective_guard(pulse)
    rng = np.random.default_rng(cfg.seed)
    block = rng.choice(levels, size=n_block)
    train = np.concatenate([rng.choice(levels, size=guard), block,
                            rng.choice(levels, size=guard)])
    comments = (("pulse", family), ("alpha", alpha), ("m", m),
                ("ts", cfg.ts), ("a", cfg.a), ("rate", cfg.rate),
                ("seed", cfg.seed))
    return pulse, constellation, train, comments


def _run_waveform(cfg: argparse.Namespace, t0: float) -> int:
    pulse, constellation, train, comments = _single_point(cfg, cfg.n_symbols)
    mu = bias.required_bias(pulse, constellation).mu
    grid = waveform.synthesize(pulse, constellation, train, mu=mu, a=cfg.a,
                               rate=cfg.rate)
    # the block by index: t0 + i ts/rate may round across t = n ts
    guard = pulses.effective_guard(pulse)
    keep = slice(guard * cfg.rate, (guard + cfg.n_symbols) * cfg.rate)
    rows = list(zip(grid.t[keep].tolist(), grid.samples[keep].tolist()))
    comments += (("n", cfg.n_symbols), ("mu", mu))
    _write_rows(cfg, ("t", "value"), rows, t0, comments)
    return 0


def _run_eye(cfg: argparse.Namespace, t0: float) -> int:
    pulse, constellation, train, comments = _single_point(
        cfg, cfg.n_traces + 1)
    eye = waveform.eye_diagram(pulse, constellation, train, cfg.receiver,
                               a=cfg.a, rate=cfg.rate)
    rows = [(i, t, v) for i, trace in enumerate(eye.traces.tolist())
            for t, v in zip(eye.t.tolist(), trace)]
    comments += (("receiver", cfg.receiver), ("traces", cfg.n_traces))
    _write_rows(cfg, ("trace", "t", "value"), rows, t0, comments)
    return 0


_RUNNERS = {
    "bias": _run_bias,
    "waveform": _run_waveform,
    "eye": _run_eye,
    "ser": _run_ser,
    "gain": _run_gain,
}


def run(cfg: argparse.Namespace) -> int:
    """Execute a configuration from ``_config_from_args``; returns the
    process exit code."""
    created = _check_writable(cfg.output)
    t0 = time.perf_counter()
    try:
        return _RUNNERS[cfg.command](cfg, t0)
    finally:
        _remove_empty(created)


def reproduce_argv(figure: str, out_dir: str = ".",
                   fmt: str = "csv") -> list[list[str]]:
    """The command lines behind each shipped dataset."""
    if figure not in FIGURES:
        raise DomainError(f"figure must be one of {FIGURES}")
    if fmt not in FORMATS:
        raise DomainError(f"format must be one of {FORMATS}")

    def out(name: str) -> list[str]:
        return ["--format", fmt,
                f"--output={os.path.join(out_dir, f'{name}.{fmt}')}"]

    dense = "0.01:1.0:0.005"
    if figure == "fig2":
        return [["waveform", "--pulse", fam, "--alpha", "0.6",
                 *out(f"fig2_{fam}")] for fam in ("rc", "src")]
    if figure == "fig3":
        return [["eye", "--pulse", fam, "--alpha", "0.6", *out(f"fig3_{fam}")]
                for fam in ("rc", "pl", "btn", "xia")]
    if figure == "fig4":
        return [["bias", "--pulse", "all", "--alpha", dense, *out("fig4")]]
    scenario = "equal-eye" if figure == "fig5" else "equal-ser"
    return [["gain", "--scenario", scenario, "--pulse", "all", "--alpha",
             dense, "--m", "2,4", *out(figure)]]


def reproduce(figure: str, out_dir: str = ".", fmt: str = "csv") -> int:
    """Emit the full dataset behind one shipped figure."""
    parser = _build_parser()
    status = 0
    for argv in reproduce_argv(figure, out_dir, fmt):
        status = max(status, run(_config_from_args(parser.parse_args(argv))))
    return status


def _build_parser() -> argparse.ArgumentParser:
    """The one place the CLI's settings and their defaults are declared."""
    parser = argparse.ArgumentParser(
        prog="imdd",
        description="Bandlimited pulse shaping for IM/DD links with a "
                    "constant DC bias: bias tables, waveforms, eye "
                    "diagrams, SER and optical power gain sweeps.")
    parser.add_argument("--version", action="version",
                        version=f"imdd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--out-dir",
                       default=os.environ.get("IMDD_OUT_DIR", "."),
                       help="default output directory (env IMDD_OUT_DIR)")
    files.add_argument("--format", choices=FORMATS, default="csv")

    common = argparse.ArgumentParser(add_help=False, parents=[files])
    common.add_argument("-o", "--output",
                        help="output file (default <out-dir>/<command>.<format>)")
    common.add_argument("--pulse", required=True, help="comma list or 'all'")
    common.add_argument("--m", default="2", help="comma list of PAM orders")
    alpha_help = "value or start:stop:step"

    # the symbol period and the seed only where they change the artifact
    timed = argparse.ArgumentParser(add_help=False, parents=[common])
    timed.add_argument("--ts", type=float, default=1.0,
                       help="symbol period (default 1.0)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[timed])
    seeded.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bias", parents=[timed],
                       help="minimum DC bias over a pulse/alpha/M grid")
    p.add_argument("--alpha", required=True, help=alpha_help)

    p = sub.add_parser("waveform", parents=[seeded],
                       help="sampled transmit intensity for random symbols")
    p.add_argument("--alpha", required=True, help=alpha_help)
    p.add_argument("--n", type=int, default=16, dest="n_symbols",
                   help="number of interior symbols")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--rate", type=int, default=32)

    p = sub.add_parser("eye", parents=[seeded],
                       help="noise-free receiver eye traces")
    p.add_argument("--alpha", required=True, help=alpha_help)
    p.add_argument("--receiver", choices=link.RECEIVERS, default="sampling")
    p.add_argument("--traces", type=int, default=64, dest="n_traces")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--rate", type=int, default=32)

    p = sub.add_parser("ser", parents=[seeded],
                       help="Monte Carlo symbol error rate")
    p.add_argument("--alpha", default="0.5", help=alpha_help)
    p.add_argument("--receiver", choices=link.RECEIVERS, default="sampling")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--n0", type=float, default=1.0)
    p.add_argument("--n", type=int, default=100_000, dest="n_symbols")
    p.add_argument("--target", type=int, default=None,
                   help="stop once this many symbol errors are seen")

    p = sub.add_parser("gain", parents=[common],
                       help="optical power gain curves")
    p.add_argument("--scenario", required=True, choices=gains.SCENARIOS)
    p.add_argument("--alpha", required=True, help=alpha_help)
    p.add_argument("--receiver", choices=link.RECEIVERS, default=None,
                   help="default: every receiver valid for the pulse")
    p.add_argument("--perr", type=float, default=1e-6, dest="p_err")

    p = sub.add_parser("reproduce", parents=[files],
                       help="emit shipped datasets, in order, in one process")
    p.add_argument("figure", nargs="+", choices=FIGURES)
    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Parse the grids onto ``args``, fill in the default output path, and
    check once the run-wide settings the command has."""
    args.pulse_set = (_served(args) if args.pulse.strip().lower() == "all"
                      else _parse_pulse_list(args.pulse))
    args.alphas = _parse_alpha_grid(args.alpha)
    args.m_values = _parse_m_list(args.m)
    args.output = args.output or os.path.join(
        args.out_dir, f"{args.command}.{args.format}")
    if "ts" in args and not 0.0 < args.ts < math.inf:
        raise DomainError("ts must be positive and finite")
    if "p_err" in args:
        if not 0.0 < args.p_err < 1.0:
            raise DomainError("--perr must lie in (0, 1)")
        if args.p_err >= 0.5:
            raise DomainError("--perr must be below 1/2, the largest SER of "
                              "the OOK reference")
    for name in ("a", "n0"):
        if name in args:
            require_real(f"--{name}", getattr(args, name), nonnegative=True)
    if "seed" in args:
        require_count("--seed", args.seed, 0)
    if "n_symbols" in args:
        require_count("--n", args.n_symbols,
                      link.MC_MIN_SYMBOLS if args.command == "ser" else 1)
    if getattr(args, "target", None) is not None:
        require_count("--target", args.target, 1)
    if "n_traces" in args:
        require_count("--traces", args.n_traces, 1)
    if args.command in ("waveform", "eye") and (
            len(args.pulse_set) > 1 or len(args.alphas) > 1
            or len(args.m_values) > 1):
        raise DomainError(
            f"{args.command} takes exactly one pulse, alpha, and m")
    return args


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            return max([reproduce(figure, args.out_dir, args.format)
                        for figure in args.figure])
        return run(_config_from_args(args))
    except NumericalDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ImddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
