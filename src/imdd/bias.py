"""Minimum DC bias for nonnegative pulse-train signaling.

The transmit intensity is x(t) = A (mu + sum_k a_k q(t - k ts)).  The
smallest bias keeping x nonnegative for every admissible symbol sequence is

    mu = max_{0 <= t < ts} [ (a_hat - L) * sum_k |q(t - k ts)|
                             - L * sum_k q(t - k ts) ]

with L the midpoint of the constellation.  For a pulse that never goes
negative the two sums are equal, so when the lowest level is 0 (a_hat = 2L,
every unipolar PAM) mu is exactly 0 at every t: such searches return mu = 0
at argmax_t = 0 without searching.  For bandwidths B*ts <= 1 the signed
fold is constant in t (equal to q_bar), which the test suite certifies; the
optimizer does not assume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _series, pulses
from .errors import DomainError

DEFAULT_GRID_N = 4096
DEFAULT_TAIL_TOL = 1e-9
REFINE_TOL_FACTOR = 1e-10  # of ts

# Stage tolerances.  The coarse grid only has to find candidate basins and
# the golden step only has to locate their maxima: both run on smooth
# fixed-truncation surrogates whose argmax is within O(tol/K) of the true
# one, so location accuracy costs far less than value accuracy.  Only the
# final single-point polish pays for tail_tol.
_STAGE1_TOL_FLOOR = 1e-3
_STAGE2_TOL_FLOOR = 1e-6


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
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise DomainError("levels must be strictly increasing")

    @classmethod
    def pam(cls, m: int) -> "Constellation":
        if m < 2:
            raise DomainError("PAM order must be >= 2")
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

    def is_uniform_pam(self, rtol: float = 1e-12) -> bool:
        d = np.diff(self.levels)
        return bool(np.all(np.abs(d - d[0]) <= rtol * abs(d[0])))


@dataclass(frozen=True)
class BiasSolution:
    """Result of the bias search: the bias itself, where the folded-sum
    supremum sits in [0, ts), and the numerical effort that produced it."""

    mu: float
    argmax_t: float
    k_trunc: int
    grid_n: int
    refine_tol: float


@dataclass(frozen=True)
class FoldValue:
    """A truncated pulse-train sum together with the half-width used."""

    value: float
    k_trunc: int


def _k_for(pulse: pulses.PulseSpec, tol: float) -> int:
    p, coef, u0 = pulses.tail_envelope(pulse)
    return _series.k_for_tol(p, coef, u0, tol)


def _fold(pulse: pulses.PulseSpec, t, k: int):
    p, _, _ = pulses.tail_envelope(pulse)
    return _series.folded_pair(lambda tt: pulses.evaluate(pulse, tt),
                               pulse.ts, t, k, p - 1.0)


def folded_abs_sum(pulse: pulses.PulseSpec, t, tail_tol: float = DEFAULT_TAIL_TOL):
    """Tail-corrected sum_k |q(t - k ts)|; error <~ tail_tol.

    Accepts scalar or array t.  Returns a FoldValue carrying the truncation
    half-width actually used.
    """
    k = _k_for(pulse, tail_tol)
    a, _ = _fold(pulse, t, k)
    value = float(a[0]) if np.ndim(t) == 0 else a
    return FoldValue(value, k)


def folded_signed_sum(pulse: pulses.PulseSpec, t, tail_tol: float = DEFAULT_TAIL_TOL):
    """Tail-corrected sum_k q(t - k ts); error <~ tail_tol.  Constant in t
    (= q_bar) whenever B*ts <= 1."""
    k = _k_for(pulse, tail_tol)
    _, s = _fold(pulse, t, k)
    value = float(s[0]) if np.ndim(t) == 0 else s
    return FoldValue(value, k)


@dataclass(frozen=True)
class _SearchResult:
    t_star: float
    f_abs: float
    f_sig: float
    objective: float
    k_trunc: int


@lru_cache(maxsize=4096)
def _search(family: str, alpha: float, ts: float, ratio: float,
            tail_tol: float, grid_n: int, refine_tol: float) -> _SearchResult:
    """Maximize f_abs(t) - ratio*f_sig(t) over [0, ts).

    Coarse uniform grid (half period for even pulses), golden refinement of
    the leading basins, then one high-accuracy polish at the winner.  The
    cache key includes ratio = L/(a_hat - L), so every uniform-PAM order
    shares one search.

    The three stage budgets are computed before any fold, so a tail too
    slow for tail_tol raises NumericalDivergenceError at no cost.  For a
    nonnegative pulse at ratio 1 (lowest level 0) the objective is exactly
    0 at every t, so there is no search: the result sits at t = 0 with the
    full-accuracy budget k3.
    """
    pulse = pulses.PulseSpec(family, alpha, ts)
    even = family != "xia"

    tol1 = max(tail_tol, _STAGE1_TOL_FLOOR)
    tol2 = max(tail_tol, _STAGE2_TOL_FLOOR)
    k1 = _k_for(pulse, tol1)
    k2 = _k_for(pulse, tol2)
    k3 = max(_k_for(pulse, tail_tol), k2)

    if ratio == 1.0 and pulses.metadata(pulse).nonnegative:
        fa, fs = _fold(pulse, 0.0, k3)
        return _SearchResult(0.0, float(fa[0]), float(fs[0]), 0.0, k3)

    if even:
        n_pts = grid_n // 2 + 1
        grid = np.linspace(0.0, 0.5 * ts, n_pts)
    else:
        n_pts = grid_n
        grid = np.arange(n_pts) * (ts / n_pts)
    f_abs, f_sig = _fold(pulse, grid, k1)
    obj = f_abs - ratio * f_sig

    # candidate basins: local maxima (plus boundaries); keep only the ones
    # the stage-1 error could still be hiding the global max in
    inner = np.zeros(n_pts, dtype=bool)
    inner[1:-1] = (obj[1:-1] >= obj[:-2]) & (obj[1:-1] >= obj[2:])
    inner[0] = obj[0] >= obj[1]
    inner[-1] = obj[-1] >= obj[-2]
    cand = np.flatnonzero(inner)
    cand = cand[np.argsort(obj[cand])[::-1]]
    cand = cand[obj[cand] >= obj[cand[0]] - 20.0 * tol1][:6]

    def folded(t: float, k: int) -> tuple[float, float, float]:
        fa, fs = _fold(pulse, t, k)
        return float(fa[0] - ratio * fs[0]), float(fa[0]), float(fs[0])

    def surrogate(t: float, k: int) -> float:
        return folded(t, k)[0]

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
                                   grid[idx] + 1.5 * step, refine_tol)
        h = 0.25 * step
        kappa = -(surrogate(t1 - h, k1) - 2.0 * surrogate(t1, k1)
                  + surrogate(t1 + h, k1)) / (h * h)
        width = 4.0 * math.pi * tol1 / kappa if kappa > 0.0 else 0.125 * ts
        width = min(max(width, 2.0 * step), 0.125 * ts)
        refined.append(_series.golden_max(lambda t: surrogate(t, k2),
                                          t1 - width, t1 + width, refine_tol))
    best_stage2 = max(v for _, v in refined)

    # polish every candidate the stage-2 error cannot separate from the
    # leader, then decide on the polished values; a parabolic top-up on the
    # full-accuracy surface absorbs the residual argmax displacement.  The
    # winner is refolded only if wrapping into [0, ts) moved it.
    best = None
    for t_c, v_c in refined:
        if v_c < best_stage2 - 10.0 * tol2:
            continue
        h = 1e-4 * ts
        tri = [t_c - h, t_c, t_c + h]
        polished = [folded(t, k3) for t in tri]
        v0, v1, v2 = (v for v, _, _ in polished)
        d2 = v0 - 2.0 * v1 + v2
        if d2 < 0.0:
            t_v = t_c + 0.5 * h * (v0 - v2) / d2
            if abs(t_v - t_c) < 8.0 * h:
                tri.append(t_v)
                polished.append(folded(t_v, k3))
        i_best = int(np.argmax([v for v, _, _ in polished]))
        t_best = tri[i_best]
        t_wrap = abs(t_best) % ts if even else t_best % ts
        val, fa, fs = (polished[i_best] if t_wrap == t_best
                       else folded(t_wrap, k3))
        if best is None or val > best.objective:
            best = _SearchResult(t_wrap, fa, fs, val, k3)
    return best


def required_bias(pulse: pulses.PulseSpec, constellation: Constellation, *,
                  grid_n: int = DEFAULT_GRID_N,
                  tail_tol: float = DEFAULT_TAIL_TOL,
                  refine_tol: float | None = None) -> BiasSolution:
    """Minimum bias mu keeping x(t) >= 0 for all symbol sequences."""
    if grid_n < DEFAULT_GRID_N:
        raise DomainError(f"grid_n must be >= {DEFAULT_GRID_N}")
    if refine_tol is None:
        refine_tol = REFINE_TOL_FACTOR * pulse.ts
    scale = constellation.a_hat - constellation.midpoint
    ratio = constellation.midpoint / scale
    res = _search(pulse.family, pulse.alpha, pulse.ts, ratio,
                  tail_tol, grid_n, refine_tol)
    return BiasSolution(mu=scale * res.objective, argmax_t=res.t_star,
                        k_trunc=res.k_trunc, grid_n=grid_n,
                        refine_tol=refine_tol)


def peak_abs_sum(pulse: pulses.PulseSpec, *,
                 grid_n: int = DEFAULT_GRID_N,
                 tail_tol: float = DEFAULT_TAIL_TOL,
                 refine_tol: float | None = None) -> _SearchResult:
    """max_t sum |q(t - k ts)| and its location (ratio-0 search)."""
    if refine_tol is None:
        refine_tol = REFINE_TOL_FACTOR * pulse.ts
    return _search(pulse.family, pulse.alpha, pulse.ts, 0.0,
                   tail_tol, grid_n, refine_tol)


def bias_curve(family: str, alpha_grid, constellation: Constellation,
               ts: float = 1.0, **opts) -> list[tuple[float, float]]:
    """Normalized bias curve [(alpha, mu/a_hat), ...] over an alpha grid.

    For uniform M-PAM the normalized curve is independent of M (both bias
    terms scale with (M-1)/2 while a_hat = M-1).
    """
    out = []
    for alpha in alpha_grid:
        sol = required_bias(pulses.PulseSpec(family, float(alpha), ts),
                            constellation, **opts)
        out.append((float(alpha), sol.mu / constellation.a_hat))
    return out


def clear_caches():
    """Drop memoized search results (used by timing-sensitive tests)."""
    _search.cache_clear()
