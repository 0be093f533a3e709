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
and the peak of sum |q|.  Nonnegative pulses have N = 0 and are not
searched.  N is summed exactly by residue classes for ``pl`` and ``xia`` at
alpha within 8 ulp of n/d with d <= _MAX_DEN, solved at n/d, and as a
truncated, tail-accelerated series otherwise.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps

import numpy as np

from . import _series, pulses
from .errors import DomainError, require_count, require_real

# The one accuracy every bias is solved at.
GRID_N = 4096              # coarse grid points over one period
DEFAULT_TAIL_TOL = 1e-9    # modeled error of the final fold
REFINE_TOL = 1e-10         # golden bracket width, in units of ts

# Largest denominator d of an alpha = n/d whose fold is summed exactly, over
# P = 2d residue classes.  The exact search costs O(P): measured on pl at
# d = 500 it took 34-51 ms against the truncated search's 36-177 ms at the
# same alpha, at d = 1000 it took 60-71 ms against 34 ms at alpha = 0.501.
_MAX_DEN = 500
_SNAP_ULPS = 8             # alpha this close to such an n/d is solved at it


@dataclass(frozen=True)
class Constellation:
    """Ordered real symbol levels with the derived quantities used
    throughout: extremes, midpoint, uniform-distribution mean and minimum
    level spacing."""

    levels: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.levels, Iterable):
            raise DomainError(
                f"levels must be a sequence, not {self.levels!r}")
        lv = tuple(require_real("levels", v) for v in self.levels)
        object.__setattr__(self, "levels", lv)
        if len(lv) < 2:
            raise DomainError("constellation needs at least 2 levels")
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise DomainError("levels must be strictly increasing")

    @classmethod
    def pam(cls, m: int) -> "Constellation":
        require_count("PAM order", m, 2)
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
    exactly summed fold, 0 for a nonnegative pulse)."""

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


def _class_fold(formula):
    """An exact fold N(alpha, period, t), one value per offset, from a class
    formula: a generator that gets t as columns of EVAL_CHUNK_ELEMS // P
    offsets and yields each one's sums over the P classes.  It frees a
    piece's temporaries only as the next piece's replace them, so the heap
    is not handed back and faulted in again after each piece.  A row
    depends only on its own offset, so the piece size moves no value."""
    @wraps(formula)
    def fold(alpha: float, period: int, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        rows = max(1, _series.EVAL_CHUNK_ELEMS // period)
        pieces = (t[lo:lo + rows, None] for lo in range(0, t.size, rows))
        return np.concatenate(list(formula(alpha, period, pieces)))
    return fold


@lru_cache(maxsize=64)
def _classes(alpha: float, period: int, b: float = 0.0):
    """The per-class constants of an exact fold, once per search: the
    classes r < P, their shifts r - b, those with r or r - b within 2 of 1/2
    (all that can come within 1 of a t in (-1/2, 3/2)), and the sines and
    cosines of pi alpha r (signed by (-1)^r), pi r/P and pi (r - b)/P."""
    r = np.arange(period, dtype=float)
    shift = r - b
    near = np.flatnonzero((abs(r - 0.5) < 2.0) | (abs(shift - 0.5) < 2.0))
    sign = 1.0 - 2.0 * (r % 2)
    return (r, shift, near,
            sign * np.sin(np.pi * alpha * r), sign * np.cos(np.pi * alpha * r),
            np.sin(np.pi * r / period), np.cos(np.pi * r / period),
            np.sin(np.pi * shift / period), np.cos(np.pi * shift / period))


@_class_fold
def _pl_fold(alpha: float, period: int, pieces):
    """pl's negative-part fold N at the offsets t, summed exactly.

    On the residue class j = r (mod P), q(t - j) = s_r(t) / (pi^2 alpha
    (t - j)^2) with s_r(t) = (-1)^r sin(pi t) sin(pi alpha (t - r)): one
    sign for the whole class.  sum_m 1/(z - m)^2 = pi^2 / sin^2(pi z)
    (DLMF 4.22) then sums it, so

        N(t) = sum_{r < P} max(-s_r, 0) / (alpha (P sin(pi (t - r)/P))^2).

    Both sines of t - r are expanded by the angle-sum rule, so a value
    costs a few products.  A class with s_r = 0 adds 0 without dividing,
    so N(0) = 0 has no 0/0.
    """
    _, _, _, sin_a, cos_a, sin_p, cos_p, _, _ = _classes(alpha, period)
    for u in pieces:
        au, pu = np.pi * alpha * u, np.pi * u / period
        neg = np.sin(np.pi * u) * (np.cos(au) * sin_a - np.sin(au) * cos_a)
        np.maximum(neg, 0.0, out=neg)
        den = period * (np.sin(pu) * cos_p - np.cos(pu) * sin_p)
        den *= alpha * den
        yield np.divide(neg, den, out=np.zeros_like(neg),
                        where=neg > 0.0).sum(axis=1)


@_class_fold
def _xia_fold(alpha: float, period: int, pieces):
    """xia's negative-part fold N, summed exactly at t in (-1/2, 3/2).

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
    keep their relative accuracy and the product its absolute one, in a
    window chosen per value: |z| < 1 or |z + b| < 1.  A shift exactly on a
    pole has c_r = 0 and adds max(-q(z), 0) from ``pulses.evaluate``.
    """
    b = 0.5 / alpha
    r, shift, near, sin_a, cos_a, sin_r, cos_r, sin_s, cos_s = (
        _classes(alpha, period, b))
    lattice = np.pi / period * np.sin(np.pi * b / period)
    for u in pieces:
        z, zb = u - r, u - shift
        au, pu = np.pi * alpha * u, np.pi * u / period
        c = np.sin(np.pi * u) * (np.cos(au) * cos_a + np.sin(au) * sin_a)
        sin_u, cos_u = np.sin(pu), np.cos(pu)
        ss = (sin_u * cos_r - cos_u * sin_r) * (sin_u * cos_s - cos_u * sin_s)
        zn, zbn = z[:, near], zb[:, near]
        pole = (np.abs(zn) < 1.0) | (np.abs(zbn) < 1.0)
        c[:, near] = np.where(
            pole, np.sin(np.pi * zn) * np.sin(np.pi * alpha * zbn), c[:, near])
        ss[:, near] = np.where(
            pole, np.sin(np.pi / period * zn) * np.sin(np.pi / period * zbn),
            ss[:, near])
        zz = z * zb
        star = np.divide(np.abs(c) * b, -zz, out=np.zeros_like(zz),
                         where=zz < 0.0)
        rest = np.divide(np.maximum(-c, 0.0) * lattice, ss,
                         out=np.zeros_like(ss), where=ss != 0.0)
        sums = (star + rest).sum(axis=1) / np.pi
        if not zz.all():
            hit = zz[:, near] == 0.0
            pulse = pulses.PulseSpec("xia", alpha)
            on_pole = np.maximum(-pulses.evaluate(pulse, zn[hit]), 0.0)
            np.add.at(sums, np.nonzero(hit)[0], on_pole)
        yield sums


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
    padded = np.r_[-np.inf, obj, -np.inf]
    cand = np.flatnonzero((obj >= padded[:-2]) & (obj >= padded[2:]))
    return cand[np.argsort(obj[cand])[::-1]]


# The families whose fold is summed exactly at alpha = n/d, d <= _MAX_DEN.
_EXACT = {"pl": _pl_fold, "xia": _xia_fold}


def _snap(alpha: float) -> Fraction | None:
    """The n/d, d <= _MAX_DEN, within _SNAP_ULPS ulp of alpha, or None.
    Float grids land up to 2 (np.arange), 1 (np.linspace) or 7 (a running
    sum) ulp off k/d.  N moves by at most 32 per unit alpha (pl and xia at
    0.01, 0.5 and 0.99), so the snap moves it by at most 5e-16."""
    frac = Fraction(alpha).limit_denominator(_MAX_DEN)
    near = abs(alpha - float(frac)) <= _SNAP_ULPS * math.ulp(alpha)
    return frac if near else None


def _coarse_grid(family: str) -> tuple[np.ndarray, bool]:
    """The coarse grid, and whether N is even about t = 1/2: GRID_N points
    over the period for ``xia``, GRID_N // 2 + 1 over half of it if even."""
    if family == "xia":
        return np.arange(GRID_N) * (1.0 / GRID_N), False
    return np.linspace(0.0, 0.5, GRID_N // 2 + 1), True


def _refine(fold, grid: np.ndarray, i: int) -> tuple[float, float]:
    """Golden-section maximum of fold in the basin around grid point i."""
    step = grid[1] - grid[0]
    return _series.golden_max(fold, grid[i] - 1.5 * step,
                              grid[i] + 1.5 * step, REFINE_TOL)


def _wrapped(fold, t: float, value: float, even: bool) -> tuple[float, float]:
    """t wrapped into [0, 1), mirrored first if N is even, and N there."""
    t_wrap = abs(t) % 1.0 if even else t % 1.0
    return t_wrap, value if t_wrap == t else fold(t_wrap)


def _exact_search(family: str, alpha: float, period: int) -> _SearchResult:
    """Maximize an exactly summed fold: golden refinement of every local
    maximum of the coarse grid where N > 0.  With no truncation error no
    basin is dropped and there is no polish; the result's k_trunc is P."""
    class_fold = _EXACT[family]

    def fold(t: float) -> float:
        return float(class_fold(alpha, period, t)[0])

    grid, even = _coarse_grid(family)
    obj = class_fold(alpha, period, grid)
    t_best, val = max((_refine(fold, grid, i)
                       for i in _basins(obj) if obj[i] > 0.0),
                      key=lambda tv: tv[1])
    return _SearchResult(*_wrapped(fold, t_best, val, even), period)


def _truncated_search(pulse: pulses.PulseSpec) -> _SearchResult:
    """Maximize the truncated, tail-accelerated fold: a coarse grid and
    golden refinement of the leading basins on cheap surrogates of fixed
    truncation (tol1, tol2; windows tuned on the OOK objective 2 N, halved),
    then one polish at DEFAULT_TAIL_TOL.  All three budgets are computed
    before any fold, so a tail too slow raises NumericalDivergenceError at
    no cost.  A surrogate can misrank basins: pl near alpha = 1 is negative
    on a share ~ k (1 - alpha)/alpha of its k-th symbol interval, so at
    alpha = 0.9899 the stage-1 fold (K = 64) keeps two basins near t = 0.17
    and never refines the true argmax at t = 0.4955.
    """
    tol1, tol2 = 1e-3, 1e-6
    k1 = _k_for(pulse, tol1)
    k2 = _k_for(pulse, tol2)
    k3 = max(_k_for(pulse, DEFAULT_TAIL_TOL), k2)

    grid, even = _coarse_grid(pulse.family)
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
        # about pi*tol1/curvature, whatever the grid step, so the stage-2
        # bracket is sized from the curvature at the coarse argmax.
        t1, _ = _refine(lambda t: surrogate(t, k1), grid, idx)
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
    # full-accuracy surface absorbs the residual argmax displacement
    winners = []
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
        winners.append(_wrapped(lambda t: surrogate(t, k3), tri[i_best],
                                polished[i_best], even))
    return _SearchResult(*max(winners, key=lambda tv: tv[1]), k3)


# 4,096 entries hold fig4's 1,791 keys with room to spare, so a smaller
# cache would make `imdd reproduce fig4 fig5 fig6` solve fig5's afresh.
@lru_cache(maxsize=4096)
def _search(family: str, alpha: float) -> _SearchResult:
    """Maximize the negative-part fold N(t) over one unit period [0, 1); N
    depends neither on ts (q at period ts is q(t/ts) at 1) nor on the levels.

    The path depends only on the pulse.  ``pl`` and ``xia`` at an alpha that
    ``_snap`` puts at n/d are solved at the double nearest n/d through this
    cache, so ulp neighbours share one result.  Then a nonnegative pulse
    returns N = 0 at t = 0, with no fold and k_trunc 0; ``pl`` and ``xia``
    at n/d take ``_exact_search``, every other pulse ``_truncated_search``.
    """
    pulse = pulses.PulseSpec(family, alpha)
    frac = _snap(alpha) if family in _EXACT else None
    if frac is not None and float(frac) != alpha:
        return _search(family, float(frac))
    if pulses.metadata(pulse).nonnegative:
        return _SearchResult(0.0, 0.0, 0)
    if frac is not None:
        return _exact_search(family, alpha, 2 * frac.denominator)
    return _truncated_search(pulse)


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
    """Drop memoized searches and class tables, so the next bias of each
    pulse is solved afresh (cold timings, or a test that changes GRID_N)."""
    _search.cache_clear()
    _classes.cache_clear()
