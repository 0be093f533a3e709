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
LATTICE_CAP = 20_000_000   # hard cap on lattice points (memory bound)
# Calibrated against brute-force partial sums over all nine families (see
# test suite): measured post-step errors sit 8-30x below this model, so the
# budget it yields keeps a comfortable safety margin without overpaying.
ACCEL_GAIN = 16.0
# Pulse values evaluated per call in a fold; small enough that the
# evaluation's temporaries stay in cache instead of being paged in afresh.
EVAL_CHUNK_ELEMS = 1 << 16


def raw_tail_bound(p: float, coef: float, k: float) -> float:
    """Upper bound on sum_{|j|>k} coef/j^p (integral bound plus first term)."""
    if k <= 1:
        return math.inf
    return 2.0 * coef * (k ** -p + k ** (1.0 - p) / (p - 1.0))


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


def lattice_cut(p: float, coef: float, tol: float, rate: int) -> float:
    """Truncation range (units of ts) for a lattice integral with the same
    accelerated-error model; the raw tail of the integral beyond u is
    ~ 2 coef u^(1-p)/(p-1), and acceleration divides it by ~(u*rate)."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    u = (2.0 * coef * ACCEL_GAIN / ((p - 1.0) * tol * rate)) ** (1.0 / p)
    return max(u, 8.0)


def check_lattice_size(m_full: int):
    if 2 * m_full + 1 > LATTICE_CAP:
        raise NumericalDivergenceError(
            f"lattice sum needs {2 * m_full + 1} points > cap {LATTICE_CAP}; "
            "tolerance too tight for this pulse tail")


def extrapolate(core, wing, decay: float):
    """Partial sums S_half = core, S_full = core + wing; one Richardson step
    for a tail shrinking like K^(-decay)."""
    return core + wing + wing / (2.0 ** decay - 1.0)


def folded_pair(eval_fn, ts: float, t, k: int, decay: float,
                chunk_elems: int = 8_000_000):
    """Tail-accelerated negative-part fold sum max(-q, 0) over shifts
    t - j*ts, |j| <= k.

    ``eval_fn`` maps time arrays to pulse values.  Shifts are summed in
    blocks of ``chunk_elems`` values, which fixes the rounding of the sum;
    each block is evaluated in cache-sized pieces of ``EVAL_CHUNK_ELEMS``
    into one reused buffer, which changes no value.  Returns an array
    shaped like ``t``.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    k = int(k)
    if k % 2:
        k += 1
    half = k // 2

    core = np.zeros_like(t)
    wing = np.zeros_like(t)

    block = max(1, chunk_elems // max(1, t.size))
    piece = max(1, EVAL_CHUNK_ELEMS // max(1, t.size))
    buf = np.empty((min(block, k + 1), t.size))

    def accumulate(j_lo, j_hi, acc):
        for lo in range(j_lo, j_hi + 1, block):
            hi = min(lo + block - 1, j_hi)
            shifts = np.arange(lo, hi + 1, dtype=float) * ts
            vals = buf[:len(shifts)]
            for p0 in range(0, len(shifts), piece):
                vals[p0:p0 + piece] = eval_fn(
                    t[None, :] - shifts[p0:p0 + piece, None])
            np.negative(vals, out=vals)
            acc += np.maximum(vals, 0.0, out=vals).sum(axis=0)

    accumulate(-half, half, core)
    accumulate(-k, -half - 1, wing)
    accumulate(half + 1, k, wing)
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
