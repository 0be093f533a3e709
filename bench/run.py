"""imdd benchmark: one command that times the library end to end or by layer.

Run from the repository root:

    python3 bench/run.py --workload bias-grid --seed 1 --seconds 10 --trace 0

Workloads, metrics and bounds are listed in ``BENCHMARK.json``; README.md in
this directory maps each metric to its layer and workload.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  A run report with every failure, the
artifacts' sha256 digests and, for traced runs, the spans is written under
``bench/out/``.  The benchmark imports ``imdd`` from ``src/`` of the same
checkout and exits with status 2 if it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# one process, one compute thread: numerical libraries read these at import
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
CHILD_IMPORT = ("import time; t = time.perf_counter(); import imdd; "
                "print(time.perf_counter() - t)")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_times() -> list[float]:
    """Time ``import imdd`` here and in fresh interpreters."""
    t0 = time.perf_counter()
    import imdd
    times = [time.perf_counter() - t0]
    if not os.path.abspath(imdd.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported imdd from {imdd.__file__}, "
                         f"not from {SRC}")
    env = dict(os.environ, PYTHONPATH=SRC)
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.run([sys.executable, "-c", CHILD_IMPORT], env=env,
                               cwd=ROOT, capture_output=True, text=True,
                               timeout=120, check=True)
        times.append(float(child.stdout.split()[-1]))
    return times


def _metric_table(section: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[section]


def _dump(path: str, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")


def main(argv=None, workloads=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "imdd", "__init__.py")):
        print(f"bench: no imdd package under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import_s = _import_times()

    import imdd
    import numpy
    import scipy
    import tracing
    import workloads as wl

    table = wl.WORKLOADS if workloads is None else workloads
    if args.workload not in table:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]

    warmup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        configs = wl.prepare_link()
        warmup_s.append(time.perf_counter() - t0)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}")
    ledger = wl.Ledger()
    tracer = tracing.Tracer(imdd)
    # a traced run times one pass of each stage untraced, then replays it
    # traced: the per-layer figures are counts and shares, not medians
    passes = 1 if args.trace else None
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as work:
        ctx = wl.Context(args.seed, ledger, tracer, work)
        plain = wl.execute(workload, configs, ctx, args.seconds, passes)
        if args.trace:
            with tracer:
                traced = wl.execute(workload, configs, ctx, args.seconds,
                                    passes)

    if args.trace:
        values = tracer.metrics()
        values["bias.anchor_err_max"] = ledger.anchor_err_max
        values["trace.overhead_s"] = traced.wall_s - plain.wall_s
        values["trace.overhead_share"] = traced.wall_s / plain.wall_s - 1.0
        tracer.write(stem + ".spans.csv.gz")
        section = "per_layer"
    else:
        values = plain.metrics()
        values["setup_s"] = (statistics.median(import_s)
                             + statistics.median(warmup_s))
        values["ok_share"] = 1.0 - len(ledger.failures) / ledger.attempted
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        section = "end_to_end"

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in _metric_table(section)}
    unexpected = ledger.unexpected()
    result = {"correct": not unexpected, "attempted": ledger.attempted,
              "failed": len(ledger.failures), "metrics": metrics}
    _dump(stem + ".json", {
        "args": vars(args), "result": result, "units": plain.units,
        "samples": plain.samples(),
        "import_s": import_s, "warmup_s": warmup_s,
        "failures": ledger.failures, "unexpected_failures": unexpected,
        "expected_failures": wl.EXPECTED_FAILURES,
        "artifacts_sha256": ledger.artifacts, "all_values": values,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count()})
    for name, reason in unexpected:
        print(f"bench: FAILED {name}: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
