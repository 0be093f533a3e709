"""Closed-form bandlimited pulse families and their diagnostics.

Nine pulse shapes commonly used for bandlimited signaling: raised cosine
(``rc``), the Beaulieu-Tan-Damen pulse (``btn``), parametric linear (``pl``),
polynomial (``poly``), squared sinc (``s2``), squared raised cosine (``src``),
the sum-of-two-sincs pulse of Seo-Dong-Jung (``sdj``), root raised cosine
(``rrc``) and the Xia pulse (``xia``).  All are normalized to the symbol
duration ``ts`` and use the engineering sinc convention
``sinc(x) = sin(pi x)/(pi x)`` (numpy's ``np.sinc``).

The one spectral quantity the package needs is the autocorrelation of the
root-Nyquist pulses, which the matched receiver samples; it has a closed
form (``autocorrelation``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnsupportedError, require_real

ALPHA_MIN = 0.01

FAMILIES = ("rc", "btn", "pl", "poly", "s2", "src", "sdj", "rrc", "xia")

_LN2 = math.log(2.0)

MIN_GUARD = 8
GUARD_ENVELOPE_TOL = 1e-3


@dataclass(frozen=True)
class PulseSpec:
    """A pulse family with its roll-off ``alpha`` and symbol duration ``ts``.

    ``s2`` has no roll-off parameter; it accepts ``alpha`` (so sweeps can
    treat all families uniformly) but ignores it.
    """

    family: str
    alpha: float
    ts: float = 1.0

    def __post_init__(self):
        fam = str(self.family).lower()
        object.__setattr__(self, "family", fam)
        if fam not in FAMILIES:
            raise DomainError(f"unknown pulse family {self.family!r}; "
                              f"expected one of {FAMILIES}")
        # plain floats, as Constellation stores its levels: the exact folds
        # take Fraction(alpha), which refuses a numpy float32
        object.__setattr__(self, "alpha", require_real("alpha", self.alpha))
        object.__setattr__(self, "ts", require_real("ts", self.ts))
        if not (ALPHA_MIN <= self.alpha <= 1.0):
            raise DomainError(f"alpha={self.alpha} outside [{ALPHA_MIN}, 1]")
        if self.ts <= 0.0:
            raise DomainError(f"ts={self.ts} must be positive")


@dataclass(frozen=True)
class PulseMetadata:
    """Closed-form pulse parameters: mean, peak, bandwidth, energy, flags.

    ``nonnegative`` marks pulses with q(t) >= 0 for every t (squares, and
    ``pl`` at alpha = 1, which is sinc^2); they need no bias for a
    constellation whose lowest level is 0.
    """

    q_bar: float
    q_zero: float
    b_ts: float
    energy_ratio: float | None
    is_nyquist: bool
    is_root_nyquist: bool
    nonnegative: bool = False


# ---------------------------------------------------------------------------
# closed-form evaluation
# ---------------------------------------------------------------------------

def _rc(u, a):
    # sinc(u) cos(pi a u)/(1 - 4 a^2 u^2); the factor cos(pi a u)/(1 - 2 a
    # |u|) is (pi/2) sinc(a |u| - 1/2), which has no singularity.
    x = np.abs(u)
    return (np.pi / 2.0) * np.sinc(u) * np.sinc(a * x - 0.5) \
        / (1.0 + 2.0 * a * x)


def _btn(u, a):
    v = np.pi * a * u
    num = (2.0 * v / _LN2) * np.sin(v) + 2.0 * np.cos(v) - 1.0
    den = (v / _LN2) ** 2 + 1.0
    return np.sinc(u) * num / den


def _pl(u, a):
    return np.sinc(u) * np.sinc(a * u)


def _poly(u, a):
    # 3 sinc(u) sin(h) (sin h - h cos h)/h^4 with h = pi a u/2.  The
    # bracket cancels to h^3/3 as h -> 0, so below |h| = 1 it is summed
    # from its Taylor series sum_n (-1)^(n+1) 2n h^(2n+1)/(2n+1)!.
    h = (0.5 * np.pi * a) * u
    s = np.sin(h)
    snc = np.sinc(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 3.0 * snc * s * (s - h * np.cos(h)) / (h * h) ** 2
    small = np.abs(h) < 1.0
    if small.any():
        hs = h[small]
        term = np.full_like(hs, 1.0 / 3.0)      # the bracket over h^3
        series, n = term.copy(), 1
        while np.any(np.abs(term) > 1e-17):
            term *= -hs * hs / (2 * n * (2 * n + 3))
            series += term
            n += 1
        q[small] = 3.0 * snc[small] * np.sinc(hs / np.pi) * series
    return q


def _s2(u, a):
    return np.sinc(u) ** 2


def _src(u, a):
    return _rc(u, a) ** 2


def _sdj(u, a):
    lo = (1.0 - a) / 2.0
    hi = (1.0 + a) / 2.0
    return (lo * np.sinc((1.0 - a) * u) + hi * np.sinc((1.0 + a) * u)) ** 2


def _rrc(u, a):
    # [sin(pi (1 - a) u) + w cos(pi (1 + a) u)]/(pi u (1 - w^2)), w = 4 a u,
    # is exact where |w| >= 3/2, as |1 - w^2| >= 5/4 there.  Below, two
    # rearrangements in x = |u| without the poles x = 0 and |w| = 1 take
    # over; they cost one more transcendental call, so only those few
    # values pay it.
    w = (4.0 * a) * u
    w2 = w * w
    c = np.cos((np.pi * (1.0 + a)) * u)
    near = w2 < 2.25
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (np.sin((np.pi * (1.0 - a)) * u) + w * c) \
            / (np.pi * u * (1.0 - w2))
        if near.any():
            xn, cn = np.abs(u[near]), c[near]
            wn = (4.0 * a) * xn
            low = ((1.0 - a) * np.sinc((1.0 - a) * xn)
                   + (4.0 * a / np.pi) * cn) / (1.0 - wn * wn)
            mid = ((np.pi / 2.0) * np.sinc(0.25 * (1.0 - wn))
                   * np.cos(np.pi * xn - np.pi / 4.0) - cn) \
                / (np.pi * xn * (1.0 + wn))
            q[near] = np.where(wn < 0.5, low, mid)
    return q


def _xia(u, a):
    # Asymmetric: sinc(u) cos(pi a u)/(2 a u + 1).  Its factor cos(pi a u)
    # / (2 a u + 1) is (pi/2) sinc(a u + 1/2), which has no singularity at
    # u = -1/(2a).
    return (np.pi / 2.0) * np.sinc(u) * np.sinc(a * u + 0.5)


_EVAL = {
    "rc": _rc, "btn": _btn, "pl": _pl, "poly": _poly, "s2": _s2,
    "src": _src, "sdj": _sdj, "rrc": _rrc, "xia": _xia,
}


def evaluate(pulse: PulseSpec, t):
    """Evaluate q(t).  Accepts scalars or arrays; vectorized."""
    u = np.asarray(t, dtype=float) / pulse.ts
    scalar = u.ndim == 0
    q = _EVAL[pulse.family](np.atleast_1d(u), pulse.alpha)
    return float(q[0]) if scalar else q


# ---------------------------------------------------------------------------
# closed-form metadata (no numerics)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def metadata(pulse: PulseSpec) -> PulseMetadata:
    """Mean q_bar, peak q(0), bandwidth B*Ts, energy ratio Eq/Ts and the
    Nyquist / root-Nyquist / nonnegative flags, all in closed form; cached
    per spec, since the bias, receiver and gain models ask again and again."""
    a = pulse.alpha
    half = (1.0 + a) / 2.0
    table = {
        "rc":   PulseMetadata(1.0, 1.0, half, None, True, False),
        "btn":  PulseMetadata(1.0, 1.0, half, None, True, False),
        "pl":   PulseMetadata(1.0, 1.0, half, None, True, False, a == 1.0),
        "poly": PulseMetadata(1.0, 1.0, half, None, True, False),
        "s2":   PulseMetadata(1.0, 1.0, 1.0, None, True, False, True),
        "src":  PulseMetadata(1.0 - a / 4.0, 1.0, 1.0 + a, None, True, False,
                              True),
        "sdj":  PulseMetadata(1.0 - a / 2.0, 1.0, 1.0 + a, None, True, False,
                              True),
        "rrc":  PulseMetadata(1.0, 1.0 - a + 4.0 * a / np.pi, half, 1.0,
                              False, True),
        "xia":  PulseMetadata(1.0, 1.0, half, 1.0, True, True),
    }
    return table[pulse.family]


def tail_envelope(pulse: PulseSpec) -> tuple[float, float, float]:
    """Decay envelope (p, coef, u0): |q(t)| <= coef/|t/ts|^p for |t/ts| >= u0.

    Derived from the closed forms by bounding every trigonometric factor
    by 1 and the rational factors by their worst case beyond u0.
    """
    a = pulse.alpha
    pi2 = np.pi ** 2
    table = {
        "rc":   (3.0, 1.0 / (3.0 * np.pi * a * a), 1.0 / a),
        # |num| <= 2v/ln2 + 3 <= (2 ln2/v)(1 + 3 ln2/(2v)) * den; at v >= 2*pi
        # the parenthesis is <= 1.1656.
        "btn":  (2.0, 2.0 * _LN2 * 1.1656 / (pi2 * a), 2.0 / a),
        "pl":   (2.0, 1.0 / (pi2 * a), 1.0),
        "poly": (4.0, 16.0 / (np.pi ** 4 * a ** 3), 4.0 / a),
        "s2":   (2.0, 1.0 / pi2, 1.0),
        "src":  (6.0, (1.0 / (3.0 * np.pi * a * a)) ** 2, 1.0 / a),
        "sdj":  (2.0, 1.0 / pi2, 1.0),
        "rrc":  (2.0, 1.0 / (2.0 * np.pi * a), 1.0 / (2.0 * a)),
        "xia":  (2.0, 1.0 / (np.pi * a), 1.0 / a),
    }
    return table[pulse.family]


def effective_guard(pulse: PulseSpec) -> int:
    """Symbols after which the pulse envelope drops below a fixed floor;
    the minimum admissible guard length."""
    p, coef, u0 = tail_envelope(pulse)
    u_eff = max(u0, (coef / GUARD_ENVELOPE_TOL) ** (1.0 / p))
    return max(MIN_GUARD, int(math.ceil(u_eff)))


def autocorrelation(pulse: PulseSpec, tau):
    """Autocorrelation rho(tau) = Int q(t) q(t - tau) dt for scalar or array
    ``tau``, in closed form: for the root-Nyquist families (``rrc``,
    ``xia``) rho is the pulse energy Eq times the raised cosine of the same
    roll-off (Xia 1997).  Any other family raises ``UnsupportedError``."""
    meta = metadata(pulse)
    if not meta.is_root_nyquist:
        raise UnsupportedError(f"{pulse.family} is not a root-Nyquist pulse; "
                               "its autocorrelation has no closed form here")
    rc = PulseSpec("rc", pulse.alpha, pulse.ts)
    return meta.energy_ratio * pulse.ts * evaluate(rc, tau)
