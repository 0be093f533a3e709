"""Minimum DC bias for nonnegative pulse-train signaling.

The transmit intensity is x(t) = A (mu + sum_k a_k q(t - k ts)).  The
smallest bias keeping x nonnegative for every admissible symbol sequence is

    mu = max_{0 <= t < ts} [ (a_hat - L) * sum_k |q(t - k ts)|
                             - L * sum_k q(t - k ts) ]

with L the midpoint of the constellation.  With sum |q| = F + 2 N, where
N(t) = sum_k max(-q(t - k ts), 0) is the negative-part fold and F the signed
fold, mu = (a_hat - L) * max_t [2 N(t) + (1 - L/(a_hat - L)) F(t)].

F has a closed form by Poisson summation: every family has B*ts <= 2 and a
spectrum that vanishes at the band edge, so F(t) = q_bar + 2 c1 cos(2 pi t
/ ts) with c1 = 0 for B*ts <= 1.  The two wider pulses (``src``, ``sdj``)
are Nyquist, so F(0) = q(0) gives c1 = (q(0) - q_bar)/2.  N does not
depend on the levels, so one cached search of N serves every constellation
and the peak of sum |q|.  N is summed exactly by residue classes for ``pl``
(alpha < 1) and ``xia`` at alpha = n/d with d <= _MAX_DEN, and as a
truncated, tail-accelerated series otherwise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _series, pulses
from .errors import DomainError

# The one accuracy every bias is solved at.
GRID_N = 4096              # coarse grid points over one period
DEFAULT_TAIL_TOL = 1e-9    # modeled error of the final fold
REFINE_TOL = 1e-10         # golden bracket width, in units of ts

# Stage tolerances.  The coarse grid only has to find candidate basins and
# the golden step only has to locate their maxima: both run on smooth
# fixed-truncation surrogates whose argmax is within O(tol/K) of the true
# one, so location accuracy costs far less than value accuracy.  Only the
# final single-point polish pays for DEFAULT_TAIL_TOL.
_STAGE1_TOL = 1e-3
_STAGE2_TOL = 1e-6

# Largest denominator d of an alpha = n/d whose fold is summed exactly, over
# P = 2d residue classes.  The exact search costs O(P): measured on pl at
# d = 500 it took 34-51 ms against the truncated search's 36-177 ms at the
# same alpha, at d = 1000 it took 60-71 ms against 34 ms at alpha = 0.501.
_MAX_DEN = 500


@dataclass(frozen=True)
class Constellation:
    """Ordered real symbol levels with the derived quantities used
    throughout: extremes, midpoint, uniform-distribution mean and minimum
    level spacing."""

    levels: tuple[float, ...]

    def __post_init__(self):
        lv = tuple(float(v) for v in self.levels)
        object.__setattr__(self, "levels", lv)
        if len(lv) < 2:
            raise DomainError("constellation needs at least 2 levels")
        if not all(map(math.isfinite, lv)):
            raise DomainError(f"levels must be finite, not {lv}")
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise DomainError("levels must be strictly increasing")

    @classmethod
    def pam(cls, m: int) -> "Constellation":
        if not isinstance(m, numbers.Integral) or m < 2:
            raise DomainError(f"PAM order must be an integer >= 2, not {m!r}")
        return cls(tuple(float(v) for v in range(m)))

    @property
    def a_hat(self) -> float:
        return self.levels[-1]

    @property
    def a_check(self) -> float:
        return self.levels[0]

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a_hat + self.a_check)

    @property
    def mean(self) -> float:
        return float(np.mean(self.levels))

    @property
    def delta_a(self) -> float:
        return float(np.min(np.diff(self.levels)))

    @property
    def order(self) -> int:
        return len(self.levels)

    def is_uniform_pam(self) -> bool:
        d = np.diff(self.levels)
        return bool(np.all(np.abs(d - d[0]) <= 1e-12 * abs(d[0])))


@dataclass(frozen=True)
class BiasSolution:
    """Result of the bias search: the bias itself, where the folded-sum
    supremum sits in [0, ts), and the fold half-width of the final,
    full-accuracy evaluation (the number of residue classes P for an
    exactly summed fold)."""

    mu: float
    argmax_t: float
    k_trunc: int


def _k_for(pulse: pulses.PulseSpec, tol: float) -> int:
    p, coef, u0 = pulses.tail_envelope(pulse)
    return _series.k_for_tol(p, coef, u0, tol)


def _fold(pulse: pulses.PulseSpec, t, k: int):
    """Negative-part fold N at the offsets t, half-width k."""
    p, _, _ = pulses.tail_envelope(pulse)
    return _series.folded_pair(lambda tt: pulses.evaluate(pulse, tt),
                               pulse.ts, t, k, p - 1.0)


def _period(alpha: float) -> int | None:
    """The class period P = 2d of alpha = n/d, d <= _MAX_DEN; None for any
    other alpha."""
    frac = Fraction(alpha).limit_denominator(_MAX_DEN)
    return 2 * frac.denominator if float(frac) == alpha else None


def _pl_fold(alpha: float, period: int, t):
    """pl's negative-part fold N at the offsets t, summed exactly.

    On the residue class j = r (mod P), q(t - j) = s_r(t) / (pi^2 alpha
    (t - j)^2) with s_r(t) = (-1)^r sin(pi t) sin(pi alpha (t - r)): one
    sign for the whole class.  sum_m 1/(z - m)^2 = pi^2 / sin^2(pi z)
    (DLMF 4.22) then sums it, so

        N(t) = sum_{r < P} max(-s_r, 0) / (alpha (P sin(pi (t - r)/P))^2).

    Both sines of t - r are expanded by the angle-sum rule, so a value
    costs a few products.  A class with s_r = 0 adds 0 without dividing,
    so N(0) = 0 has no 0/0.  Rows go in pieces of about EVAL_CHUNK_ELEMS
    values.  Returns an array shaped like ``np.atleast_1d(t)``.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    r = np.arange(period)
    sign = 1.0 - 2.0 * (r % 2)
    sin_a = sign * np.sin(np.pi * alpha * r)
    cos_a = sign * np.cos(np.pi * alpha * r)
    sin_p = np.sin(np.pi * r / period)
    cos_p = np.cos(np.pi * r / period)
    out = np.empty(t.size)
    rows = max(1, _series.EVAL_CHUNK_ELEMS // period)
    for lo in range(0, t.size, rows):
        u = t[lo:lo + rows, None]
        neg = np.sin(np.pi * u) * (np.cos(np.pi * alpha * u) * sin_a
                                   - np.sin(np.pi * alpha * u) * cos_a)
        np.maximum(neg, 0.0, out=neg)
        den = period * (np.sin(np.pi * u / period) * cos_p
                        - np.cos(np.pi * u / period) * sin_p)
        den *= alpha * den
        out[lo:lo + rows] = np.divide(neg, den, out=np.zeros_like(neg),
                                      where=neg > 0.0).sum(axis=1)
    return out


@lru_cache(maxsize=64)
def _xia_classes(alpha: float, period: int):
    """The per-class constants of ``_xia_fold``, computed once per search:
    b, the class sum's factor (pi/P) sin(pi b/P), the classes r and their
    shifts r - b, and the sines and cosines of pi alpha r (signed by
    (-1)^r), pi r/P and pi (r - b)/P."""
    b = 0.5 / alpha
    r = np.arange(period, dtype=float)
    shift = r - b
    sign = 1.0 - 2.0 * (r % 2)
    return (b, np.pi / period * np.sin(np.pi * b / period), r, shift,
            sign * np.sin(np.pi * alpha * r), sign * np.cos(np.pi * alpha * r),
            np.sin(np.pi * r / period), np.cos(np.pi * r / period),
            np.sin(np.pi * shift / period), np.cos(np.pi * shift / period))


def _xia_fold(alpha: float, period: int, t):
    """xia's negative-part fold N at the offsets t in (-1/2, 3/2), summed
    exactly.

    On the residue class j = r (mod P), q(t - j) = c_r(t) g(t - j) / pi
    with c_r(t) = (-1)^r sin(pi t) cos(pi alpha (t - r)), constant on the
    class, and g(x) = 1/x - 1/(x + b) = b / (x (x + b)), b = 1/(2 alpha)
    <= P/4.  g < 0 only on (-b, 0), and for these t the one shift of a
    class that may lie there is z = t - r.  By sum_m 1/(z - m P) =
    (pi/P) cot(pi z/P) (DLMF 4.22) the class sums g to

        S_r = (pi/P) (cot(w) - cot(w + pi b/P))
            = (pi/P) sin(pi b/P) / (sin(w) sin(w + pi b/P)),  w = pi z/P,

    and a class with c_r < 0 adds -c_r S_r / pi, less -c_r g(z) / pi if z
    lies in (-b, 0), where q(z) > 0.  A class with c_r > 0 adds only -q(z)
    = c_r |g(z)| / pi, if z lies there.  So

        N(t) = sum_{r<P} (|c_r| max(-g(z), 0) + max(-c_r, 0) S_r) / pi.

    c_r and the sines of S_r come from the angle-sum rule, so a class costs
    a few products.  Next to the poles z = 0 and z = -b of g, where c_r
    and S_r's denominator vanish together, both are taken directly as
    sin(pi z) sin(pi alpha (z + b)) and sin(w) sin(w + pi b/P), so they
    keep their relative accuracy and the product its absolute one.  A
    shift exactly on a pole has c_r = 0 and adds max(-q(z), 0) from
    ``pulses.evaluate``.  Rows go in pieces of about EVAL_CHUNK_ELEMS
    values.  Returns an array shaped like ``np.atleast_1d(t)``.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    b, lattice, r, shift, sin_a, cos_a, sin_r, cos_r, sin_s, cos_s = (
        _xia_classes(alpha, period))
    out = np.empty(t.size)
    rows = max(1, _series.EVAL_CHUNK_ELEMS // period)
    for lo in range(0, t.size, rows):
        u = t[lo:lo + rows, None]
        z, zb = u - r, u - shift
        c = np.sin(np.pi * u) * (np.cos(np.pi * alpha * u) * cos_a
                                 + np.sin(np.pi * alpha * u) * sin_a)
        sin_u = np.sin(np.pi * u / period)
        cos_u = np.cos(np.pi * u / period)
        ss = (sin_u * cos_r - cos_u * sin_r) * (sin_u * cos_s - cos_u * sin_s)
        # the classes with a shift within 1 of a pole in this piece
        lo_t, hi_t = u.min() - 1.0, u.max() + 1.0
        near = np.flatnonzero((r > lo_t) & (r < hi_t)
                              | (shift > lo_t) & (shift < hi_t))
        zn, zbn = z[:, near], zb[:, near]
        c[:, near] = np.sin(np.pi * zn) * np.sin(np.pi * alpha * zbn)
        ss[:, near] = (np.sin(np.pi / period * zn)
                       * np.sin(np.pi / period * zbn))
        zz = z * zb
        star = np.divide(np.abs(c) * b, -zz, out=np.zeros_like(zz),
                         where=zz < 0.0)
        rest = np.divide(np.maximum(-c, 0.0) * lattice, ss,
                         out=np.zeros_like(ss), where=ss != 0.0)
        out[lo:lo + rows] = (star + rest).sum(axis=1) / np.pi
        hit = zz[:, near] == 0.0
        if hit.any():
            pulse = pulses.PulseSpec("xia", alpha)
            on_pole = np.maximum(-pulses.evaluate(pulse, zn[hit]), 0.0)
            np.add.at(out, lo + np.nonzero(hit)[0], on_pole)
    return out


def _c1(pulse: pulses.PulseSpec) -> float:
    """First harmonic of the signed fold: (q(0) - q_bar)/2 for the Nyquist
    pulses wider than the symbol rate, 0 otherwise."""
    meta = pulses.metadata(pulse)
    return 0.5 * (meta.q_zero - meta.q_bar) if meta.b_ts > 1.0 else 0.0


def _signed(pulse: pulses.PulseSpec, t):
    """Closed-form signed fold q_bar + 2 c1 cos(2 pi t / ts)."""
    phase = 2.0 * np.pi * np.asarray(t, dtype=float) / pulse.ts
    return pulses.metadata(pulse).q_bar + 2.0 * _c1(pulse) * np.cos(phase)


@dataclass(frozen=True)
class _SearchResult:
    """A supremum over one period: where it sits, its value and the fold
    half-width behind it."""

    t_star: float
    value: float
    k_trunc: int


def _basins(obj) -> np.ndarray:
    """Indices of the local maxima of a grid of fold values, the two ends
    included, best first."""
    inner = np.zeros(obj.size, dtype=bool)
    inner[1:-1] = (obj[1:-1] >= obj[:-2]) & (obj[1:-1] >= obj[2:])
    inner[0] = obj[0] >= obj[1]
    inner[-1] = obj[-1] >= obj[-2]
    cand = np.flatnonzero(inner)
    return cand[np.argsort(obj[cand])[::-1]]


# The families whose fold is summed exactly at alpha = n/d, d <= _MAX_DEN:
# the class fold and whether N is even about t = 1/2.
_EXACT = {"pl": (_pl_fold, True), "xia": (_xia_fold, False)}


def _exact_search(family: str, alpha: float, period: int) -> _SearchResult:
    """Maximize an exactly summed fold: the coarse grid over half a period
    for an even N (GRID_N // 2 + 1 points), over the whole period otherwise
    (GRID_N points), then golden refinement of every local maximum on it
    where N > 0.  The surface has no truncation error, so no basin is
    dropped and there is no polish; the result reports P as its k_trunc."""
    class_fold, even = _EXACT[family]

    def fold(t: float) -> float:
        return float(class_fold(alpha, period, t)[0])

    grid = (np.linspace(0.0, 0.5, GRID_N // 2 + 1) if even
            else np.arange(GRID_N) * (1.0 / GRID_N))
    step = grid[1] - grid[0]
    obj = class_fold(alpha, period, grid)
    t_best, val = max((_series.golden_max(fold, grid[i] - 1.5 * step,
                                          grid[i] + 1.5 * step, REFINE_TOL)
                       for i in _basins(obj) if obj[i] > 0.0),
                      key=lambda tv: tv[1])
    t_wrap = abs(t_best) % 1.0 if even else t_best % 1.0
    return _SearchResult(t_wrap, val if t_wrap == t_best else fold(t_wrap),
                         period)


@lru_cache(maxsize=4096)
def _search(family: str, alpha: float) -> _SearchResult:
    """Maximize the negative-part fold N(t) over one unit period [0, 1):
    q(t) at symbol period ts is q(t/ts) at ts = 1, so N does not depend on
    ts and every period shares one search.

    Coarse uniform grid (half period for even pulses), golden refinement of
    the leading basins, then one high-accuracy polish at the winner.  N does
    not depend on the constellation, so every level set shares one search.
    The stage windows below are those tuned on the OOK objective
    sum |q| - sum q = 2 N, halved.

    The three stage budgets are computed before any fold, so a tail too
    slow for DEFAULT_TAIL_TOL raises NumericalDivergenceError at no cost.  A
    nonnegative pulse has N = 0 at every t, so there is no search: the
    result sits at t = 0 with the full-accuracy budget k3.  ``pl`` and
    ``xia`` at an alpha with a small denominator take the exact path of
    ``_exact_search`` instead.
    """
    pulse = pulses.PulseSpec(family, alpha)
    period = _period(alpha) if family in _EXACT else None
    if period and not pulses.metadata(pulse).nonnegative:
        return _exact_search(family, alpha, period)
    even = family != "xia"

    tol1, tol2 = _STAGE1_TOL, _STAGE2_TOL
    k1 = _k_for(pulse, tol1)
    k2 = _k_for(pulse, tol2)
    k3 = max(_k_for(pulse, DEFAULT_TAIL_TOL), k2)

    if pulses.metadata(pulse).nonnegative:
        return _SearchResult(0.0, 0.0, k3)

    if even:
        n_pts = GRID_N // 2 + 1
        grid = np.linspace(0.0, 0.5, n_pts)
    else:
        n_pts = GRID_N
        grid = np.arange(n_pts) * (1.0 / n_pts)
    obj = _fold(pulse, grid, k1)

    # candidate basins: keep only the ones the stage-1 error could still be
    # hiding the global max in
    cand = _basins(obj)
    cand = cand[obj[cand] >= obj[cand[0]] - 10.0 * tol1][:6]

    def surrogate(t: float, k: int) -> float:
        return float(_fold(pulse, t, k)[0])

    step = grid[1] - grid[0]
    refined = []
    for idx in cand:
        # The coarse surrogate's truncation bias displaces its argmax by
        # roughly pi*tol1/curvature, independent of the grid step, so the
        # stage-2 bracket must be sized from the basin curvature rather
        # than the grid.  Locate the coarse argmax (within 1 step of the
        # grid winner), measure curvature there, then widen accordingly.
        t1, _ = _series.golden_max(lambda t: surrogate(t, k1),
                                   grid[idx] - 1.5 * step,
                                   grid[idx] + 1.5 * step, REFINE_TOL)
        h = 0.25 * step
        kappa = -(surrogate(t1 - h, k1) - 2.0 * surrogate(t1, k1)
                  + surrogate(t1 + h, k1)) / (h * h)
        width = 2.0 * math.pi * tol1 / kappa if kappa > 0.0 else 0.125
        width = min(max(width, 2.0 * step), 0.125)
        refined.append(_series.golden_max(lambda t: surrogate(t, k2),
                                          t1 - width, t1 + width, REFINE_TOL))
    best_stage2 = max(v for _, v in refined)

    # polish every candidate the stage-2 error cannot separate from the
    # leader, then decide on the polished values; a parabolic top-up on the
    # full-accuracy surface absorbs the residual argmax displacement.  The
    # winner is refolded only if wrapping into [0, 1) moved it.
    best = None
    for t_c, v_c in refined:
        if v_c < best_stage2 - 5.0 * tol2:
            continue
        h = 1e-4
        tri = [t_c - h, t_c, t_c + h]
        polished = [surrogate(t, k3) for t in tri]
        v0, v1, v2 = polished
        d2 = v0 - 2.0 * v1 + v2
        if d2 < 0.0:
            t_v = t_c + 0.5 * h * (v0 - v2) / d2
            if abs(t_v - t_c) < 8.0 * h:
                tri.append(t_v)
                polished.append(surrogate(t_v, k3))
        i_best = int(np.argmax(polished))
        t_best = tri[i_best]
        t_wrap = abs(t_best) % 1.0 if even else t_best % 1.0
        val = (polished[i_best] if t_wrap == t_best
               else surrogate(t_wrap, k3))
        if best is None or val > best.value:
            best = _SearchResult(t_wrap, val, k3)
    return best


def required_bias(pulse: pulses.PulseSpec,
                  constellation: Constellation) -> BiasSolution:
    """Minimum bias mu keeping x(t) >= 0 for all symbol sequences.

    mu = scale * max_t [2 N(t) + w F(t)] with w = 1 - ratio.  F is the
    constant q_bar unless c1 != 0, and then N = 0 and w F peaks at t = 0
    or ts/2 by the sign of w.  Both folds are taken on the unit period,
    so mu does not depend on ts and only argmax_t scales with it.  Levels
    whose mu overflows raise ``DomainError``.
    """
    scale = constellation.a_hat - constellation.midpoint
    w = 1.0 - constellation.midpoint / scale
    unit = pulses.PulseSpec(pulse.family, pulse.alpha)
    res = _search(pulse.family, pulse.alpha)
    t = 0.5 if w < 0.0 and _c1(unit) else res.t_star
    mu = scale * (2.0 * res.value + w * float(_signed(unit, t)))
    if not math.isfinite(mu):
        raise DomainError(f"the bias of levels {constellation.levels} "
                          f"overflows to {mu}")
    return BiasSolution(mu=mu, argmax_t=t * pulse.ts, k_trunc=res.k_trunc)


def clear_caches():
    """Drop memoized search results, so the next bias of each pulse is
    solved afresh (cold timings, or a test that changes GRID_N)."""
    _search.cache_clear()
