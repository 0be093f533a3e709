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
are Nyquist, so F(0) = q(0) gives c1 = (q(0) - q_bar)/2.  Only N is summed
numerically; it does not depend on the levels, so one cached search of N
serves every constellation and the peak of sum |q|.
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
    """Negative-part fold N at the offsets t, half-width k."""
    p, _, _ = pulses.tail_envelope(pulse)
    return _series.folded_pair(lambda tt: pulses.evaluate(pulse, tt),
                               pulse.ts, t, k, p - 1.0)


def _c1(pulse: pulses.PulseSpec) -> float:
    """First harmonic of the signed fold: (q(0) - q_bar)/2 for the Nyquist
    pulses wider than the symbol rate, 0 otherwise."""
    meta = pulses.metadata(pulse)
    return 0.5 * (meta.q_zero - meta.q_bar) if meta.b_ts > 1.0 else 0.0


def _signed(pulse: pulses.PulseSpec, t):
    """Closed-form signed fold q_bar + 2 c1 cos(2 pi t / ts)."""
    phase = 2.0 * np.pi * np.asarray(t, dtype=float) / pulse.ts
    return pulses.metadata(pulse).q_bar + 2.0 * _c1(pulse) * np.cos(phase)


def folded_abs_sum(pulse: pulses.PulseSpec, t, tail_tol: float = DEFAULT_TAIL_TOL):
    """Tail-corrected sum_k |q(t - k ts)| = F + 2 N; error <~ tail_tol.

    Accepts scalar or array t.  Returns a FoldValue carrying the truncation
    half-width actually used.
    """
    k = _k_for(pulse, tail_tol)
    value = _signed(pulse, t) + 2.0 * _fold(pulse, t, k)
    return FoldValue(float(value[0]) if np.ndim(t) == 0 else value, k)


def folded_signed_sum(pulse: pulses.PulseSpec, t):
    """sum_k q(t - k ts) in closed form, so k_trunc = 0:
    q_bar + 2 c1 cos(2 pi t / ts), constant whenever B*ts <= 1."""
    value = _signed(pulse, t)
    return FoldValue(float(value) if np.ndim(t) == 0 else value, 0)


@dataclass(frozen=True)
class _SearchResult:
    """A supremum over one period: where it sits, its value and the fold
    half-width behind it."""

    t_star: float
    value: float
    k_trunc: int


@lru_cache(maxsize=4096)
def _search(family: str, alpha: float, ts: float, tail_tol: float,
            grid_n: int, refine_tol: float) -> _SearchResult:
    """Maximize the negative-part fold N(t) over [0, ts).

    Coarse uniform grid (half period for even pulses), golden refinement of
    the leading basins, then one high-accuracy polish at the winner.  N does
    not depend on the constellation, so every level set and
    ``peak_abs_sum`` share one search.  The stage windows below are those
    tuned on the OOK objective sum |q| - sum q = 2 N, halved.

    The three stage budgets are computed before any fold, so a tail too
    slow for tail_tol raises NumericalDivergenceError at no cost.  A
    nonnegative pulse has N = 0 at every t, so there is no search: the
    result sits at t = 0 with the full-accuracy budget k3.
    """
    pulse = pulses.PulseSpec(family, alpha, ts)
    even = family != "xia"

    tol1 = max(tail_tol, _STAGE1_TOL_FLOOR)
    tol2 = max(tail_tol, _STAGE2_TOL_FLOOR)
    k1 = _k_for(pulse, tol1)
    k2 = _k_for(pulse, tol2)
    k3 = max(_k_for(pulse, tail_tol), k2)

    if pulses.metadata(pulse).nonnegative:
        return _SearchResult(0.0, 0.0, k3)

    if even:
        n_pts = grid_n // 2 + 1
        grid = np.linspace(0.0, 0.5 * ts, n_pts)
    else:
        n_pts = grid_n
        grid = np.arange(n_pts) * (ts / n_pts)
    obj = _fold(pulse, grid, k1)

    # candidate basins: local maxima (plus boundaries); keep only the ones
    # the stage-1 error could still be hiding the global max in
    inner = np.zeros(n_pts, dtype=bool)
    inner[1:-1] = (obj[1:-1] >= obj[:-2]) & (obj[1:-1] >= obj[2:])
    inner[0] = obj[0] >= obj[1]
    inner[-1] = obj[-1] >= obj[-2]
    cand = np.flatnonzero(inner)
    cand = cand[np.argsort(obj[cand])[::-1]]
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
                                   grid[idx] + 1.5 * step, refine_tol)
        h = 0.25 * step
        kappa = -(surrogate(t1 - h, k1) - 2.0 * surrogate(t1, k1)
                  + surrogate(t1 + h, k1)) / (h * h)
        width = 2.0 * math.pi * tol1 / kappa if kappa > 0.0 else 0.125 * ts
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
        if v_c < best_stage2 - 5.0 * tol2:
            continue
        h = 1e-4 * ts
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
        t_wrap = abs(t_best) % ts if even else t_best % ts
        val = (polished[i_best] if t_wrap == t_best
               else surrogate(t_wrap, k3))
        if best is None or val > best.value:
            best = _SearchResult(t_wrap, val, k3)
    return best


def required_bias(pulse: pulses.PulseSpec, constellation: Constellation, *,
                  grid_n: int = DEFAULT_GRID_N,
                  tail_tol: float = DEFAULT_TAIL_TOL,
                  refine_tol: float | None = None) -> BiasSolution:
    """Minimum bias mu keeping x(t) >= 0 for all symbol sequences.

    mu = scale * max_t [2 N(t) + w F(t)] with w = 1 - ratio.  F is the
    constant q_bar unless c1 != 0, and then N = 0 and w F peaks at t = 0
    or ts/2 by the sign of w.
    """
    if grid_n < DEFAULT_GRID_N:
        raise DomainError(f"grid_n must be >= {DEFAULT_GRID_N}")
    if refine_tol is None:
        refine_tol = REFINE_TOL_FACTOR * pulse.ts
    scale = constellation.a_hat - constellation.midpoint
    w = 1.0 - constellation.midpoint / scale
    res = _search(pulse.family, pulse.alpha, pulse.ts, tail_tol, grid_n,
                  refine_tol)
    t = 0.5 * pulse.ts if w < 0.0 and _c1(pulse) else res.t_star
    mu = scale * (2.0 * res.value + w * float(_signed(pulse, t)))
    return BiasSolution(mu=mu, argmax_t=t, k_trunc=res.k_trunc,
                        grid_n=grid_n, refine_tol=refine_tol)


def peak_abs_sum(pulse: pulses.PulseSpec, **opts) -> _SearchResult:
    """max_t sum |q(t - k ts)| and its location: the bias the bipolar
    levels {-1, 1} need (w = 1, scale 1).  Options as ``required_bias``."""
    sol = required_bias(pulse, Constellation((-1.0, 1.0)), **opts)
    return _SearchResult(sol.argmax_t, sol.mu, sol.k_trunc)


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
