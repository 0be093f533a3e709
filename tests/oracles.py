"""Independent bias oracles shared by the tests; pytest does not collect
this module.

``pl_exact_fold`` sums pl's negative-part fold exactly at rational alpha by
residue classes, and ``pl_exact_bias`` maximizes it.  ``partial_fold`` is a
plain partial sum of max(-q, 0) for any family, a lower bound on the fold
whatever its length, and ``partial_sum_bias`` maximizes it.  None of them
uses ``imdd.bias`` or ``imdd._series``.
"""

from fractions import Fraction

import numpy as np

from imdd import pulses


def pl_exact_fold(alpha, t):
    """N(t) = sum_k max(-q(t - k), 0) for pl, q(u) = sinc(u) sinc(alpha u),
    summed exactly at rational alpha = n/d, independent of imdd.

    q(u - j) = s_j / (u - j)^2 with s_j = (-1)^j sin(pi u) sin(pi alpha
    (u - j)) / (pi^2 alpha), which repeats in j with period P = 2d.  So
    each residue class r < P keeps one sign, and its lattice sum of
    1/(u - r - P m)^2 is pi^2 / (P^2 sin^2(pi (u - r)/P)).
    """
    period = 2 * Fraction(alpha).limit_denominator(1000).denominator
    u = np.asarray(t, dtype=float)[:, None]
    r = np.arange(period)
    s = ((-1.0) ** r * np.sin(np.pi * u) * np.sin(np.pi * alpha * (u - r))
         / (np.pi ** 2 * alpha))
    lattice = np.pi ** 2 / (period * np.sin(np.pi * (u - r) / period)) ** 2
    return (np.maximum(-s, 0.0) * lattice).sum(axis=1)


def pl_exact_bias(alpha):
    """OOK bias max_t N(t) of pl: a fine grid over [0, 1/2] (N is even
    about t = 1/2; t = 0 itself, where N = 0, is left out), then nested
    grid refinement around its five best points."""
    coarse = np.linspace(0.0, 0.5, 2001)[1:]
    best = 0.0
    for t in coarse[np.argsort(pl_exact_fold(alpha, coarse))[-5:]]:
        step = coarse[1] - coarse[0]
        for _ in range(8):
            grid = np.clip(np.linspace(t - step, t + step, 21), step, 0.5)
            vals = pl_exact_fold(alpha, grid)
            t, step = grid[np.argmax(vals)], step / 10.0
        best = max(best, float(vals.max()))
    return best


def partial_fold(pulse, t, k):
    """Plain partial sum of max(-q(t - j ts), 0) over |j| <= k, in slices
    of about 200,000 terms.  Every term is >= 0, so it is a lower bound on
    the fold N(t) whatever k is; it uses neither imdd.bias nor _series."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    total = np.zeros(t.size)
    step = max(1, 200_000 // t.size)
    for lo in range(-k, k + 1, step):
        j = np.arange(lo, min(lo + step, k + 1))
        q = pulses.evaluate(pulse, t[:, None] - j * pulse.ts)
        total += np.maximum(-q, 0.0).sum(axis=1)
    return total


def golden_argmax(f, a, b, tol):
    """Golden-section search for a maximum of f on [a, b]."""
    g = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return c if fc >= fd else d


def partial_sum_bias(pulse, k_final):
    """A lower bound on the OOK bias max_t N(t) of an even pulse: the three
    best local maxima of a 257-point grid over [0, ts/2] at K = 2000, each
    refined by golden section at K = 20,000, and the winner summed once at
    K = k_final."""
    grid = np.linspace(0.0, 0.5 * pulse.ts, 257)
    vals = partial_fold(pulse, grid, 2000)
    padded = np.r_[-np.inf, vals, -np.inf]
    peaks = np.flatnonzero((vals >= padded[:-2]) & (vals >= padded[2:]))
    step = grid[1] - grid[0]

    def fold(t):
        return float(partial_fold(pulse, np.clip(t, grid[0], grid[-1]),
                                   20_000)[0])

    best = max((fold(t), t) for t in (
        golden_argmax(fold, grid[i] - step, grid[i] + step, 1e-6)
        for i in peaks[np.argsort(vals[peaks])[-3:]]))[1]
    return float(partial_fold(pulse, np.clip(best, grid[0], grid[-1]),
                               k_final)[0])
