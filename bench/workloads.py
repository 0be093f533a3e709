"""The benchmark's three stages, its workloads and its correctness checks.

Every workload runs all three stages, so every metric the benchmark defines
is measured on every workload.  The workload's own stage (``Workload.main``)
repeats whole passes (over the bias grid or the command list), at least
``MAIN_MIN_PASSES`` of them and until the measured time is used up; the
other two run a fixed number of passes, their units spread evenly between
the main stage's units.
Inputs come only from the seed: it orders the bias grid, seeds every Monte
Carlo call and is the ``--seed`` of every CLI command that takes one.

Every unit repeats the same operations, and the metrics pool or take the
median of all of a run's repeats.  The host's speed drifts by up to ~1.7x
for seconds to minutes at a time, so a figure from one sample, or from the
fastest of a few, moves with the spell it fell in.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import random
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace

from imdd import bias, cli, link, pulses
from imdd.errors import DomainError, NumericalDivergenceError

IMDD_ERRORS = (DomainError, NumericalDivergenceError)

# --- correctness -----------------------------------------------------------

# mu / a_hat in closed form: (sqrt 2 - 1)/2 for pl and btn at alpha = 0.5,
# 4/pi - 1 for the root-Nyquist pulses at alpha = 1; the solver promises
# them to within tail_tol.  Squared pulses never go negative and need none.
ANCHORS = {
    ("pl", 0.5): (math.sqrt(2.0) - 1.0) / 2.0,
    ("btn", 0.5): (math.sqrt(2.0) - 1.0) / 2.0,
    ("rrc", 1.0): 4.0 / math.pi - 1.0,
    ("xia", 1.0): 4.0 / math.pi - 1.0,
}
NONNEGATIVE = ("s2", "src", "sdj")
ANCHOR_TOL = bias.DEFAULT_TAIL_TOL
ZERO_TOL = 1e-12

# Failures of the program at the commit that defined the benchmark, with
# the start of the reason each fails for.  They count as failed operations,
# but not as regressions; the same operation failing for another reason is
# one.
EXPECTED_FAILURES = {
    # the 1/t^2 tail needs K = 1,009,254 > K_CAP; failed searches are not
    # cached, so the M=4 point repeats the M=2 search
    "bias:xia:0.01:M2": "NumericalDivergenceError",
    "bias:xia:0.01:M4": "NumericalDivergenceError",
    # rrc is not a Nyquist pulse, so equal-eye (sampling only) skips it
    # and writes one sidecar row
    "cli:gain-equal-eye:rrc": "no receiver supports rrc in equal-eye",
}


@dataclass
class Ledger:
    """Operations attempted, the ones that failed and why, and the
    artifacts' sha256 digests."""

    attempted: int = 0
    failures: list = field(default_factory=list)      # (op, reason)
    artifacts: dict = field(default_factory=dict)     # file name -> sha256
    anchor_err_max: float = 0.0

    def op(self, name: str, error: str | None = None):
        self.attempted += 1
        if error:
            self.failures.append((name, error))

    def unexpected(self) -> list:
        return [(name, reason) for name, reason in self.failures
                if not (name in EXPECTED_FAILURES
                        and reason.startswith(EXPECTED_FAILURES[name]))]

    def anchor_error(self, family: str, alpha: float,
                     mu_norm: float) -> str | None:
        """Check a normalized bias against its closed form, if it has one."""
        if family in NONNEGATIVE:
            ref, tol = 0.0, ZERO_TOL
        elif (family, alpha) in ANCHORS:
            ref, tol = ANCHORS[family, alpha], ANCHOR_TOL
        else:
            return None
        err = abs(mu_norm - ref)
        self.anchor_err_max = max(self.anchor_err_max, err)
        if err <= tol:
            return None
        return f"mu/a_hat = {mu_norm!r}, closed form {ref!r} (tol {tol:g})"


def mc_error(est, n_symbols: int) -> str | None:
    if est.n_symbols != n_symbols:
        return f"ran {est.n_symbols} symbols, asked for {n_symbols}"
    if not abs(est.p_hat - est.p_analytic) < 3.0 * est.ci95:
        return (f"p_hat {est.p_hat:.6g} vs analytic {est.p_analytic:.6g} "
                f"outside 3*ci95 = {3.0 * est.ci95:.3g}")
    return None


@dataclass
class Context:
    """What one execution of a workload shares across its stages."""

    seed: int
    ledger: Ledger
    tracer: object           # tracing.Tracer; ``op`` is set per operation
    workdir: str

    def rng(self, stage: str) -> random.Random:
        return random.Random(f"{self.seed}:{stage}")


# --- bias stage ------------------------------------------------------------

@dataclass(frozen=True)
class BiasGrid:
    families: tuple[str, ...]
    alphas: tuple[float, ...]
    orders: tuple[int, ...] = (2, 4)
    parts: int = 1           # units a pass is split into


class BiasStage:
    """Unit: one of ``grid.parts`` parts of a pass over the grid, caches
    cleared first.  A pass deals the (family, alpha) pairs out to its parts
    in seeded order, so each pair's orders share a part: the first order
    to reach a pair runs the search and the others reuse it, because
    uniform PAM orders share one search."""

    def __init__(self, grid: BiasGrid):
        self.grid = grid
        self.parts = grid.parts
        self.spent_s = 0.0       # in required_bias, failed calls included
        self.finished = 0        # points solved, cache hits included
        self.cold_s: list = []   # every solved cache miss
        self._dealt: list = []   # the parts of this pass still to run

    def unit(self, ctx: Context, rng: random.Random):
        if not self._dealt:
            pairs = [(f, a) for f in self.grid.families
                     for a in self.grid.alphas]
            rng.shuffle(pairs)
            self._dealt = [pairs[i::self.parts] for i in range(self.parts)]
        grid = [(f, a, m) for f, a in self._dealt.pop()
                for m in self.grid.orders]
        rng.shuffle(grid)
        bias.clear_caches()
        for family, alpha, m in grid:
            name = f"bias:{family}:{alpha:g}:M{m}"
            ctx.tracer.op = name
            misses = bias._search.cache_info().misses
            t0 = time.perf_counter()
            try:
                sol = bias.required_bias(pulses.PulseSpec(family, alpha),
                                         bias.Constellation.pam(m))
            except IMDD_ERRORS as exc:
                self.spent_s += time.perf_counter() - t0
                ctx.ledger.op(name, f"{type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            self.spent_s += dt
            if bias._search.cache_info().misses > misses:
                self.cold_s.append(dt)
            self.finished += 1
            ctx.ledger.op(name, ctx.ledger.anchor_error(family, alpha,
                                                        sol.mu / (m - 1)))

    def metrics(self) -> dict[str, float]:
        """Points finished per second spent solving (failed points cost
        time but finish nothing), and the distribution of the cold solves
        of every pass."""
        cold_ms = [1e3 * dt for dt in self.cold_s]
        return {"bias_points_per_s": self.finished / self.spent_s,
                "bias_solve_ms.p50": statistics.median(cold_ms),
                "bias_solve_ms.p90": statistics.quantiles(cold_ms, n=10)[8]}


# --- link stage ------------------------------------------------------------

LINK_CASES = (("rc", "sampling"), ("xia", "sampling"),
              ("rrc", "matched"), ("xia", "matched"))
LINK_ALPHA = 0.5
LINK_M = 4
LINK_SER = 1e-2
LINK_SYMBOLS = {"sampling": 1 << 20, "matched": 1 << 14}
# a sampling call takes ~0.1 s, a matched one ~0.4 s: every part of a pass
# runs the sampling cases, so they get LINK_PARTS times the samples
LINK_PARTS = 4


def prepare_link(cases=LINK_CASES) -> list:
    """Warm-up, timed as set-up: clear the caches, then find each case's
    amplitude and solve its bias.  Returns the link configurations."""
    bias.clear_caches()
    pam = bias.Constellation.pam(LINK_M)
    configs = []
    for family, receiver in cases:
        cfg = link.LinkConfig(pulse=pulses.PulseSpec(family, LINK_ALPHA),
                              constellation=pam, receiver=receiver)
        cfg = replace(cfg, a=link.amplitude_for_ser(cfg, LINK_SER))
        bias.required_bias(cfg.pulse, pam)
        configs.append(cfg)
    return configs


class LinkStage:
    """Unit: one of ``LINK_PARTS`` parts of a round of seeded 4-PAM
    ``monte_carlo_ser`` calls.  Every part calls each sampling case once;
    the matched cases are dealt out to the parts, so a round calls each of
    them once.  The biases are solved before the timed calls (a cache hit
    unless another stage cleared the caches)."""

    parts = LINK_PARTS

    def __init__(self, configs: list):
        self.configs = configs
        self.call_s = defaultdict(list)    # (family, receiver): every call
        self._part = 0                     # the part the next unit runs

    def unit(self, ctx: Context, rng: random.Random):
        part, self._part = self._part, (self._part + 1) % self.parts
        matched = [c for c in self.configs if c.receiver == "matched"]
        configs = ([c for c in self.configs if c.receiver != "matched"]
                   + matched[part::self.parts])
        ctx.tracer.op = "link:warm-up"
        for cfg in configs:
            bias.required_bias(cfg.pulse, cfg.constellation)
        for cfg in configs:
            n = LINK_SYMBOLS[cfg.receiver]
            cfg = replace(cfg, seed=rng.randrange(1 << 32))
            name = f"link:{cfg.pulse.family}:{cfg.receiver}:{cfg.seed}"
            ctx.tracer.op = name
            t0 = time.perf_counter()
            try:
                est = link.monte_carlo_ser(cfg, n)
            except IMDD_ERRORS as exc:
                ctx.ledger.op(name, f"{type(exc).__name__}: {exc}")
                continue
            self.call_s[cfg.pulse.family, cfg.receiver].append(
                time.perf_counter() - t0)
            ctx.ledger.op(name, mc_error(est, n))

    def metrics(self) -> dict[str, float]:
        """Symbols per second over every call of a receiver: the host
        switches between a fast and a slow speed in spells, and a median
        of such samples jumps between the two where a pooled sum moves
        with the share of each."""
        out = {}
        for rx, n in LINK_SYMBOLS.items():
            calls = [t for (_, r), v in self.call_s.items() if r == rx
                     for t in v]
            out[f"mc_{rx}_msym_s"] = n * len(calls) / sum(calls) / 1e6
        return out


# --- cli stage -------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    """One ``imdd`` command line.  ``{out}`` and ``{seed}`` in ``argv`` are
    filled in per pass; ``artifacts`` lists (file name, data rows)."""

    cid: str
    argv: tuple[str, ...]
    artifacts: tuple[tuple[str, int], ...]
    kind: str = ""           # "eye-matched" or "gain" feed their metrics


def _eye(family: str, traces: int = 64) -> Command:
    return Command(f"eye-matched-{family}",
                   ("eye", "--receiver", "matched", "--pulse", family,
                    "--alpha", "0.5", "--m", "4", "--traces", str(traces),
                    "--seed", "{seed}", "-o", f"{{out}}/eye_{family}.csv"),
                   ((f"eye_{family}.csv", 64 * traces),), "eye-matched")


def _sweep(cid: str, head: tuple[str, ...], pulse: str, alpha: str,
           rows: int, kind: str = "") -> Command:
    return Command(cid, (*head, "--pulse", pulse, "--alpha", alpha,
                         "--m", "2,4", "-o", f"{{out}}/{cid}.csv"),
                   ((f"{cid}.csv", rows),), kind)


FIG2 = Command("fig2", ("reproduce", "fig2", "--out-dir", "{out}"),
               (("fig2_rc.csv", 512), ("fig2_src.csv", 512)))
FIG3 = Command("fig3", ("reproduce", "fig3", "--out-dir", "{out}"),
               tuple((f"fig3_{f}.csv", 4096)
                     for f in ("rc", "pl", "btn", "xia")))
EQUAL_EYE = ("gain", "--scenario", "equal-eye")
EQUAL_SER = ("gain", "--scenario", "equal-ser")
BIAS = ("bias",)


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(l for l in fh if not l.startswith("#")))


class CliStage:
    """Unit: one pass over the command list through ``cli.main`` in this
    process, caches cleared first, artifacts in a fresh directory."""

    parts = 1

    def __init__(self, commands: tuple[Command, ...]):
        self.commands = commands
        self.command_s = defaultdict(list)  # cid: every run of the command
        self.rows: dict[str, int] = {}      # cid: artifact rows written

    def unit(self, ctx: Context, rng: random.Random):
        # every pass of a run uses the run's seed, so their artifacts must
        # be byte-identical
        seed = str(ctx.seed)
        bias.clear_caches()
        out = tempfile.mkdtemp(prefix="cli-", dir=ctx.workdir)
        try:
            for cmd in self.commands:
                ctx.tracer.op = f"cli:{cmd.cid}"
                argv = [a.format(out=out, seed=seed) for a in cmd.argv]
                sink = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    code = cli.main(argv)
                self.command_s[cmd.cid].append(time.perf_counter() - t0)
                self.rows[cmd.cid] = self._check(ctx, cmd, out, code)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, ctx: Context, cmd: Command, out: str, code: int) -> int:
        """Check each artifact of ``cmd``; every sidecar row is a failed
        operation.  Returns the artifact rows written."""
        written = 0
        for fname, expected in cmd.artifacts:
            path = os.path.join(out, fname)
            name = f"cli:{cmd.cid}:{fname}"
            if code != 0 or not os.path.exists(path):
                state = "present" if os.path.exists(path) else "missing"
                ctx.ledger.op(name, f"exit code {code}, artifact {state}")
                continue
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            rows = _read_rows(path)
            written += len(rows)
            error = None
            if len(rows) != expected:
                error = f"wrote {len(rows)} rows, expected {expected}"
            elif ctx.ledger.artifacts.setdefault(fname, digest) != digest:
                error = "artifact bytes differ from an earlier pass"
            else:
                error = self._check_rows(ctx, cmd, rows)
            ctx.ledger.op(name, error)
            sidecar = os.path.splitext(path)[0] + ".errors.csv"
            if os.path.exists(sidecar):
                for row in _read_rows(sidecar):
                    key = ":".join(row[k] for k in ("pulse", "alpha", "m")
                                   if row.get(k))
                    ctx.ledger.op(f"cli:{cmd.cid}:{key}", row["error"])
        return written

    @staticmethod
    def _check_rows(ctx: Context, cmd: Command, rows: list[dict]):
        if cmd.argv[0] == "bias":
            for row in rows:
                error = ctx.ledger.anchor_error(
                    row["pulse"], float(row["alpha"]), float(row["mu_norm"]))
                if error:
                    return f"{row['pulse']} alpha={row['alpha']}: {error}"
        if cmd.argv[0] == "gain":
            bad = [r for r in rows if not math.isfinite(float(r["gain_db"]))]
            if bad:
                return f"{len(bad)} rows with non-finite gain_db"
        return None

    def metrics(self) -> dict[str, float]:
        """Wall time of the list, matched eye time and gain rows per second,
        each command at the median of its runs."""
        mid = {cid: statistics.median(v) for cid, v in self.command_s.items()}
        eye = [v for c in self.commands if c.kind == "eye-matched"
               for v in self.command_s[c.cid]]
        gain = [c.cid for c in self.commands if c.kind == "gain"]
        return {"cli_wall_s": sum(mid.values()),
                "eye_matched_s": statistics.median(eye),
                "gain_rows_per_s": (sum(self.rows[c] for c in gain)
                                    / sum(mid[c] for c in gain))}


# --- workloads -------------------------------------------------------------

STAGES = ("link", "bias", "cli")
# the main stage's repeats give its metrics a median and its artifacts a
# pass to be compared with
MAIN_MIN_PASSES = 2


@dataclass(frozen=True)
class Workload:
    """``main`` names the stage that runs for the measured time; the other
    two run ``probe_passes`` passes each."""

    main: str
    bias_grid: BiasGrid
    commands: tuple[Command, ...]
    probe_passes: tuple[tuple[str, int], ...]


# the anchors (0.5, 1.0), the divergence (0.01) and the sharp 1/t^2 regime
# (0.1); 53 pairs solve, so two passes put 10 cold solves beyond p90.  Its
# four parts let the probe stages run between them.
FULL_GRID = BiasGrid(pulses.FAMILIES, (0.01, 0.1, 0.25, 0.5, 0.75, 1.0),
                     parts=4)
PROBE_GRID = BiasGrid(pulses.FAMILIES, (0.5, 1.0))

SWEEP = "0.1:1.0:0.1"
FULL_COMMANDS = (
    FIG2, FIG3, _eye("rrc"), _eye("xia"),
    # rrc has no equal-eye receiver: 8 families x 10 alphas x 2 orders
    _sweep("gain-equal-eye", EQUAL_EYE, "all", SWEEP, 160, "gain"),
    # xia adds a matched row per point, rrc has only the matched one
    _sweep("gain-equal-ser", EQUAL_SER, "all", SWEEP, 200, "gain"),
    _sweep("bias", BIAS, "all", SWEEP, 180),
)
PROBE_COMMANDS = (
    FIG2, _eye("rrc"),
    _sweep("gain-equal-ser", EQUAL_SER, "rc,rrc", SWEEP, 40, "gain"),
    _sweep("bias", BIAS, "rc,rrc", SWEEP, 40),
)

WORKLOADS = {
    # Bias search dominates fig4-fig6 and the test suite.  1/t^2 tails
    # need K up to 320k where rc and poly need ~1k; half the points are
    # cache hits; xia at alpha=0.01 is the known divergence.
    "bias-grid": Workload("bias", FULL_GRID, PROBE_COMMANDS,
                          (("link", 6), ("cli", 4))),
    # What users run: ~90% of its bias solves hit the cache, and it is the
    # only full use of autocorrelation, gains and artifact writing.
    "cli-sweep": Workload("cli", PROBE_GRID, FULL_COMMANDS,
                          (("link", 6), ("bias", 3))),
}


@dataclass
class Execution:
    """One run of a workload's three stages."""

    stages: dict
    units: dict
    wall_s: float

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for stage in self.stages.values():
            out.update(stage.metrics())
        return out

    def samples(self) -> dict:
        """Every timed sample behind the metrics, in seconds, for the run
        report."""
        link, bias_, cli_ = (self.stages[n] for n in STAGES)
        return {"link": {":".join(k): v for k, v in link.call_s.items()},
                "bias": {"cold": bias_.cold_s, "spent": bias_.spent_s},
                "cli": dict(cli_.command_s)}


def execute(workload: Workload, link_configs: list, ctx: Context,
            seconds: float, passes: int | None = None) -> Execution:
    """Run the main stage's passes with the probe stages' units spread
    evenly before, between and after its units, then more main passes
    until ``seconds`` have passed.  With ``passes`` given, every stage runs
    exactly that many passes, so a traced execution repeats an untraced
    one.

    Every unit clears or re-solves the bias caches it depends on at its
    start, so units of different stages may follow each other in any
    order."""
    stages = {"link": LinkStage(link_configs),
              "bias": BiasStage(workload.bias_grid),
              "cli": CliStage(workload.commands)}
    rngs = {name: ctx.rng(name) for name in STAGES}
    main = stages[workload.main]
    probe = dict(workload.probe_passes) if passes is None else (
        dict.fromkeys(STAGES, passes))
    probe = {name: n * stages[name].parts for name, n in probe.items()
             if name != workload.main}
    n_main = (MAIN_MIN_PASSES if passes is None else passes) * main.parts
    done = dict.fromkeys(STAGES, 0)

    def run(name: str, n: int = 1):
        for _ in range(n):
            stages[name].unit(ctx, rngs[name])
            done[name] += 1

    t_start = time.perf_counter()
    deadline = t_start + seconds
    for gap in range(n_main + 1):
        if gap:
            run(workload.main)
        for name, n in probe.items():
            # this gap's share of n units over n_main + 1 gaps
            run(name, n * (gap + 1) // (n_main + 1) - n * gap // (n_main + 1))
    while passes is None and time.perf_counter() < deadline:
        run(workload.main, main.parts)
    return Execution(stages, done, time.perf_counter() - t_start)
