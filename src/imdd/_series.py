"""Truncated-series helpers: tail bounds, term budgets, accelerated sums.

The pulse families decay like coef/|t/ts|^p, so symmetric partial sums of
pulse trains converge like K^(1-p).  One Richardson step on partial sums at
K/2 and K removes the leading tail term; the post-step error is modeled as

    err(K) ~ raw_tail(K) * ACCEL_GAIN / K

with ACCEL_GAIN calibrated against brute-force oracles (see the test suite).
For oscillating tails the raw error is already one order better and the
step is harmless, so the model is conservative across resonance (alpha = 1)
and non-resonance alike.

The only pulse-train fold summed numerically is the negative part
N(t) = sum_j max(-q(t - j ts), 0): the signed fold has a closed form by
Poisson summation (see ``bias``), and sum |q| = sum q + 2 N.
``folded_pair`` keeps the name it had when it returned the pair
(sum |q|, sum q), since the benchmark's tracer wraps it by that name.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalDivergenceError

K_CAP = 1_000_000          # hard cap on the fold half-width
# Calibrated against brute-force partial sums over all nine families (see
# test suite): measured post-step errors sit 8-30x below this model, so the
# budget it yields keeps a comfortable safety margin without overpaying.
ACCEL_GAIN = 16.0
# Values per piece of a fold, truncated or exact (``bias`` sums an exact
# fold's P classes for EVAL_CHUNK_ELEMS // P offsets at a time): 64 KiB
# temporaries are reused from the heap instead of being mapped afresh.
EVAL_CHUNK_ELEMS = 1 << 13


def k_for_tol(p: float, coef: float, u0: float, tol: float) -> int:
    """Half-width K whose modeled post-acceleration error is below tol."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    k = (2.0 * coef * ACCEL_GAIN / ((p - 1.0) * tol)) ** (1.0 / p)
    k = max(64, int(math.ceil(u0)) + 8, int(math.ceil(k)))
    if k > K_CAP:
        raise NumericalDivergenceError(
            f"series needs K={k} > cap {K_CAP} terms for tolerance {tol:g}; "
            f"the pulse tail (decay {p:g}, coef {coef:g}) is too slow — "
            f"alpha is likely too small for this accuracy")
    return k


def extrapolate(core, wing, decay: float):
    """Partial sums S_half = core, S_full = core + wing; one Richardson step
    for a tail shrinking like K^(-decay)."""
    return core + wing + wing / (2.0 ** decay - 1.0)


def folded_pair(eval_fn, ts: float, t, k: int, decay: float):
    """Tail-accelerated negative-part fold sum max(-q, 0) over shifts
    t - j*ts, |j| <= k.

    ``eval_fn`` maps time arrays to pulse values.  The shifts are built and
    summed in pieces of at most EVAL_CHUNK_ELEMS values into one running
    sum per t, so the fold's memory does not grow with k.  Returns an
    array shaped like ``t``.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    k = int(k) + int(k) % 2
    half = k // 2
    rows = max(1, EVAL_CHUNK_ELEMS // t.size)

    def fold(j_lo, j_hi):
        acc = np.zeros_like(t)
        for lo in range(j_lo, j_hi + 1, rows):
            j = np.arange(lo, min(lo + rows, j_hi + 1), dtype=float)
            acc += np.maximum(-eval_fn(t - j[:, None] * ts), 0.0).sum(axis=0)
        return acc

    core = fold(-half, half)
    wing = fold(-k, -half - 1) + fold(half + 1, k)
    return extrapolate(core, wing, decay)


def golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal f on [lo, hi] to bracket
    width tol.  Deterministic fixed iteration count; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = invphi * invphi
    a, b = float(lo), float(hi)
    h = b - a
    if h <= tol:
        mid = 0.5 * (a + b)
        return mid, f(mid)
    n = max(1, int(math.ceil(math.log(tol / h) / math.log(invphi))))
    c = a + invphi2 * h
    d = a + invphi * h
    fc, fd = f(c), f(d)
    for _ in range(n):
        if fc >= fd:
            b, d, fd = d, c, fc
            h *= invphi
            c = a + invphi2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h *= invphi
            d = a + invphi * h
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)
