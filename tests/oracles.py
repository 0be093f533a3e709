"""Independent bias oracles shared by the tests; pytest does not collect
this module.

``pl_exact_fold`` sums pl's negative-part fold exactly at rational alpha by
residue classes, and ``pl_exact_bias`` maximizes it.  ``pl_zeta_fold`` sums
the same classes in mpmath with the Hurwitz zeta function instead of the
csc^2 identity that ``pl_exact_fold`` and ``imdd.bias`` share.
``xia_exact_fold`` and ``xia_exact_bias`` do the same for xia, with the
cotangent class sum less the share of the one shift where q may change
sign, and ``xia_psi_fold`` sums xia's classes in mpmath with digamma
differences over the two half-lines where each class keeps its sign.
``partial_fold`` is a plain partial sum of max(-q, 0) for any family, a
lower bound on the fold whatever its length, and ``partial_sum_bias``
maximizes it.  None of them uses ``imdd.bias`` or ``imdd._series``.
"""

from fractions import Fraction

import numpy as np
from mpmath import mp

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


def _refined_max(fold, coarse):
    """max of fold: the coarse grid, then nested 21-point grid refinement
    around its five best points."""
    best = 0.0
    step = coarse[1] - coarse[0]
    for t in coarse[np.argsort(fold(coarse))[-5:]]:
        s = step
        for _ in range(8):
            grid = np.clip(np.linspace(t - s, t + s, 21), coarse[0],
                           coarse[-1])
            vals = fold(grid)
            t, s = grid[np.argmax(vals)], s / 10.0
        best = max(best, float(vals.max()))
    return best


def pl_exact_bias(alpha):
    """OOK bias max_t N(t) of pl: a fine grid over [0, 1/2] (N is even
    about t = 1/2; t = 0 itself, where N = 0, is left out), then nested
    grid refinement around its five best points."""
    return _refined_max(lambda t: pl_exact_fold(alpha, t),
                        np.linspace(0.0, 0.5, 2001)[1:])


def pl_zeta_fold(alpha, t):
    """pl's N(t) at alpha = n/d in 30-digit mpmath: each class r < P = 2d
    with s_r(t) < 0 adds -s_r / (pi^2 alpha) times its lattice sum
    sum_m 1/(t - r - P m)^2 = (zeta(2, x) + zeta(2, 1 - x)) / P^2, with
    x = (t - r)/P mod 1 and zeta the Hurwitz zeta function."""
    frac = Fraction(alpha).limit_denominator(1000)
    period = 2 * frac.denominator
    with mp.workdps(30):
        a = mp.mpf(frac.numerator) / frac.denominator
        u = mp.mpf(float(t))
        total = mp.mpf(0)
        for r in range(period):
            s = (-1) ** r * mp.sinpi(u) * mp.sinpi(a * (u - r))
            if s < 0:
                x = mp.frac((u - r) / period)
                total += (-s / (mp.pi ** 2 * a) / period ** 2
                          * (mp.zeta(2, x) + mp.zeta(2, 1 - x)))
        return float(total)


def xia_exact_fold(alpha, t):
    """N(t) for xia, q(u) = sinc(u) cos(pi alpha u)/(2 alpha u + 1), summed
    exactly at rational alpha = n/d, independent of imdd.bias.

    q(u - j) = c_j g(u - j) / pi with c_j = (-1)^j sin(pi u) cos(pi alpha
    (u - j)), which repeats in j with period P = 2d, and g(x) = 1/x - 1/(x
    + b), b = 1/(2 alpha).  g < 0 only on (-b, 0), which holds at most one
    point x* of each class, since b < P.  The class's sum of g is
    (pi/P) (cot(pi x/P) - cot(pi (x + b)/P)), so a class with c_r < 0 adds
    -c_r/pi times that sum less g(x*), and every class adds max(-q(x*), 0).
    """
    period = 2 * Fraction(alpha).limit_denominator(1000).denominator
    b = 0.5 / alpha
    u = np.asarray(t, dtype=float)[:, None]
    x = u - np.arange(period)
    c = (-1.0) ** np.arange(period) * np.sin(np.pi * u) * np.cos(
        np.pi * alpha * x)
    whole = np.pi / period * (1.0 / np.tan(np.pi * x / period)
                              - 1.0 / np.tan(np.pi * (x + b) / period))
    star = x - period * np.floor((x + b) / period)
    inside = (star > -b) & (star < 0.0)
    g_star = np.where(inside, 1.0 / star - 1.0 / (star + b), 0.0)
    q_star = np.where(inside, pulses.evaluate(pulses.PulseSpec("xia", alpha),
                                              star), 0.0)
    return (np.maximum(-c, 0.0) / np.pi * (whole - g_star)
            + np.maximum(-q_star, 0.0)).sum(axis=1)


def xia_exact_bias(alpha):
    """OOK bias max_t N(t) of xia, which is not even: a 4000-point grid
    over the whole period (cell midpoints, so no point sits at t = 0 or
    t = 1/2), refined as in ``pl_exact_bias``."""
    return _refined_max(lambda t: xia_exact_fold(alpha, t),
                        (np.arange(4000) + 0.5) / 4000)


def xia_psi_fold(alpha, t):
    """xia's N(t) at alpha = n/d in 30-digit mpmath.  A class r < P = 2d
    with c_r = (-1)^r sin(pi t) cos(pi alpha (t - r)) < 0 adds -c_r/pi
    times its sum of g(x) = 1/x - 1/(x + b) over its shifts x > 0 and x <
    -b: with x0 the least shift > 0 and y1 = -x1 for the greatest x1 < -b,
    (psi((x0 + b)/P) - psi(x0/P) + psi(y1/P) - psi((y1 - b)/P)) / P.  The
    shift in [-b, 0], if there is one, adds max(-q, 0) itself."""
    frac = Fraction(alpha).limit_denominator(1000)
    period = 2 * frac.denominator
    with mp.workdps(30):
        a = mp.mpf(frac.numerator) / frac.denominator
        b = 1 / (2 * a)
        u = mp.mpf(float(t))
        total = mp.mpf(0)
        for r in range(period):
            x0 = (u - r) % period or mp.mpf(period)
            mid = x0 - period
            x1 = mid - period if mid >= -b else mid
            c = (-1) ** r * mp.sinpi(u) * mp.cospi(a * (u - r))
            if c < 0:
                y1 = -x1
                total += -c / mp.pi / period * (
                    mp.psi(0, (x0 + b) / period) - mp.psi(0, x0 / period)
                    + mp.psi(0, y1 / period) - mp.psi(0, (y1 - b) / period))
            if mid >= -b:
                q = mp.pi / 2 * mp.sincpi(mid) * mp.sincpi(a * mid + 0.5)
                total += max(-q, 0)
        return float(total)


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
