"""Closed-form bandlimited pulse families and their diagnostics.

Nine pulse shapes commonly used for bandlimited signaling: raised cosine
(``rc``), the Beaulieu-Tan-Damen pulse (``btn``), parametric linear (``pl``),
polynomial (``poly``), squared sinc (``s2``), squared raised cosine (``src``),
the sum-of-two-sincs pulse of Seo-Dong-Jung (``sdj``), root raised cosine
(``rrc``) and the Xia pulse (``xia``).  All are normalized to the symbol
duration ``ts`` and use the engineering sinc convention
``sinc(x) = sin(pi x)/(pi x)`` (numpy's ``np.sinc``).

Spectral quantities (Fourier transform values, energy, autocorrelation) are
computed from uniformly sampled lattice sums: every family here is strictly
bandlimited, so for a fine enough lattice the sum equals the integral exactly
(Poisson summation) and the only error is tail truncation, which is bounded
by per-family decay envelopes and accelerated by Richardson extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _series
from .errors import DomainError

ALPHA_MIN = 0.01

# Half-width (in units of ts) of the window around each removable singularity
# inside which the exact limit value is substituted.  Outside this window the
# generic formulas lose at most ~1e-10 relative accuracy to cancellation.
SING_WINDOW = 1e-6

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
        if not (ALPHA_MIN <= self.alpha <= 1.0):
            raise DomainError(f"alpha={self.alpha} outside [{ALPHA_MIN}, 1]")
        if not 0.0 < self.ts < math.inf:
            raise DomainError(f"ts={self.ts} must be positive and finite")


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
    """Raised cosine; removable singularity at |u| = 1/(2a)."""
    s = 1.0 / (2.0 * a)
    sing = np.abs(np.abs(u) - s) < SING_WINDOW
    den = 1.0 - (2.0 * a * u) ** 2
    den = np.where(sing, 1.0, den)
    snc = np.sinc(u)
    q = snc * np.cos(np.pi * a * u) / den
    return np.where(sing, (np.pi / 4.0) * snc, q)


def _btn(u, a):
    v = np.pi * a * u
    num = (2.0 * v / _LN2) * np.sin(v) + 2.0 * np.cos(v) - 1.0
    den = (v / _LN2) ** 2 + 1.0
    return np.sinc(u) * num / den


def _pl(u, a):
    return np.sinc(u) * np.sinc(a * u)


def _poly(u, a):
    y = np.pi * a * u
    # The generic form is 0/0 at t = 0 and loses precision to cancellation
    # for small |y|; a two-term series (error < 1e-10 at the crossover) covers
    # |y| < 1e-2 and shows the t -> 0 limit is exactly 1.
    small = np.abs(y) < 1e-2
    y_safe = np.where(small, 1.0, y)
    snc = np.sinc(u)
    q = 3.0 * snc * (np.sinc(a * u / 2.0) ** 2 - np.sinc(a * u)) \
        / (y_safe / 2.0) ** 2
    series = snc * (1.0 - y * y / 15.0)
    return np.where(small, series, q)


def _s2(u, a):
    return np.sinc(u) ** 2


def _src(u, a):
    return _rc(u, a) ** 2


def _sdj(u, a):
    lo = (1.0 - a) / 2.0
    hi = (1.0 + a) / 2.0
    return (lo * np.sinc((1.0 - a) * u) + hi * np.sinc((1.0 + a) * u)) ** 2


def _rrc(u, a):
    s = 1.0 / (4.0 * a)
    at_zero = np.abs(u) < SING_WINDOW
    at_s = np.abs(np.abs(u) - s) < SING_WINDOW
    u_safe = np.where(at_zero | at_s, 0.5 * s, u)  # any regular point
    num = np.sin(np.pi * (1.0 - a) * u_safe) \
        + 4.0 * a * u_safe * np.cos(np.pi * (1.0 + a) * u_safe)
    den = np.pi * u_safe * (1.0 - (4.0 * a * u_safe) ** 2)
    q = num / den
    v0 = 1.0 - a + 4.0 * a / np.pi
    vs = (a / np.sqrt(2.0)) * ((1.0 + 2.0 / np.pi) * np.sin(np.pi * s)
                               + (1.0 - 2.0 / np.pi) * np.cos(np.pi * s))
    return np.where(at_zero, v0, np.where(at_s, vs, q))


def _xia(u, a):
    # Asymmetric: the denominator vanishes at u = -1/(2a) only.  The limit
    # there is (pi/2)*sinc(1/(2a)) (the cos factor has a simple zero at the
    # same point).
    s = 1.0 / (2.0 * a)
    sing = np.abs(u + s) < SING_WINDOW
    den = np.where(sing, 1.0, 2.0 * a * u + 1.0)
    q = np.sinc(u) * np.cos(np.pi * a * u) / den
    return np.where(sing, (np.pi / 2.0) * np.sinc(s), q)


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

def metadata(pulse: PulseSpec) -> PulseMetadata:
    """Mean q_bar, peak q(0), bandwidth B*Ts, energy ratio Eq/Ts and the
    Nyquist / root-Nyquist / nonnegative flags, all in closed form."""
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


# ---------------------------------------------------------------------------
# spectral diagnostics via exact bandlimited lattice sums
# ---------------------------------------------------------------------------

def _lattice(pulse: PulseSpec, rate: int, tol: float, p_eff: float,
             coef_eff: float, u_pad: float = 0.0):
    """Sample times (seconds) for a lattice sum whose truncation error,
    after one Richardson step, is modeled below ``tol`` (relative to ts).

    Returns (times, m_half) where times covers |m| <= m_full and m_half
    marks the inner partial sum used for extrapolation.
    """
    u_cut = _series.lattice_cut(p_eff, coef_eff, tol, rate) + u_pad
    m_full = max(int(math.ceil(u_cut * rate)), 8 * rate)
    if m_full % 2:
        m_full += 1
    _series.check_lattice_size(m_full)
    m_half = m_full // 2
    m = np.arange(-m_full, m_full + 1)
    return m * (pulse.ts / rate), m_half


def spectrum_at(pulse: PulseSpec, omega: float, tol: float = 1e-9) -> complex:
    """Fourier transform Q(omega) = Int q(t) exp(-j omega t) dt.

    Absolute error <= tol*ts.  The integrand is bandlimited, so a lattice
    with 2*pi/stride beyond |omega| + 2*pi*B makes the sampled sum exact up
    to tail truncation.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    meta = metadata(pulse)
    p, coef, _ = tail_envelope(pulse)
    # strict Nyquist condition for the modulated integrand, with margin
    rate = int(math.ceil((abs(omega) * pulse.ts / (2.0 * np.pi)
                          + meta.b_ts) * 1.05)) + 4
    times, m_half = _lattice(pulse, rate, tol, p, coef)
    vals = evaluate(pulse, times) * np.exp(-1j * omega * times)
    n = len(times) // 2  # index of m = 0
    inner = slice(n - m_half, n + m_half + 1)
    core = vals[inner].sum()
    wing = vals.sum() - core
    return complex(_series.extrapolate(core, wing, p - 1.0)
                   * (pulse.ts / rate))


def energy(pulse: PulseSpec, tol: float = 1e-9) -> float:
    """Pulse energy Int q(t)^2 dt, absolute error <= tol*ts."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    meta = metadata(pulse)
    p, coef, _ = tail_envelope(pulse)
    rate = max(8, int(math.ceil(2.0 * meta.b_ts * 1.05)) + 2)
    times, m_half = _lattice(pulse, rate, tol, 2.0 * p, coef * coef)
    vals = evaluate(pulse, times) ** 2
    n = len(times) // 2
    core = vals[n - m_half:n + m_half + 1].sum()
    wing = vals.sum() - core
    return float(_series.extrapolate(core, wing, 2.0 * p - 1.0)
                 * (pulse.ts / rate))


def autocorrelation(pulse: PulseSpec, tau, tol: float = 1e-9):
    """Autocorrelation rho(tau) = Int q(t) q(t - tau) dt for scalar or array
    ``tau``; absolute error <= tol*ts per point.

    For the root-Nyquist families (``rrc``, ``xia``) rho is the pulse energy
    times the raised cosine of the same roll-off (Xia 1997), returned in
    closed form; every other family goes through the lattice sum.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    meta = metadata(pulse)
    if meta.is_root_nyquist:
        rc = PulseSpec("rc", pulse.alpha, pulse.ts)
        return meta.energy_ratio * pulse.ts * evaluate(rc, tau)
    return lattice_autocorrelation(pulse, tau, tol)


def lattice_autocorrelation(pulse: PulseSpec, tau, tol: float = 1e-9):
    """Autocorrelation of any family by the exact bandlimited lattice sum of
    q(t) q(t - tau); absolute error <= tol*ts per point."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    scalar = np.ndim(tau) == 0
    meta = metadata(pulse)
    p, coef, u0 = tail_envelope(pulse)
    rate = max(8, int(math.ceil(2.0 * meta.b_ts * 1.05)) + 2)
    u_pad = np.max(np.abs(tau_arr)) / pulse.ts + u0
    times, m_half = _lattice(pulse, rate, tol, 2.0 * p, coef * coef,
                             u_pad=u_pad)
    q0 = evaluate(pulse, times)
    # (m, tau) product lattice; memory-chunk over tau when large
    out = np.empty(len(tau_arr))
    n = len(times) // 2
    chunk = max(1, int(4e6 // len(times)))
    for lo in range(0, len(tau_arr), chunk):
        tt = tau_arr[lo:lo + chunk]
        prod = q0[None, :] * evaluate(pulse, times[None, :] - tt[:, None])
        core = prod[:, n - m_half:n + m_half + 1].sum(axis=1)
        wing = prod.sum(axis=1) - core
        out[lo:lo + chunk] = _series.extrapolate(core, wing, 2.0 * p - 1.0) \
            * (pulse.ts / rate)
    return float(out[0]) if scalar else out


def nyquist_residual(pulse: PulseSpec, k_max: int = 20) -> float:
    """max |q(k*ts)| over k = 1..k_max; ~0 certifies the zero-ISI property."""
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    k = np.arange(1, k_max + 1, dtype=float)
    lags = np.concatenate([-k[::-1], k]) * pulse.ts
    return float(np.max(np.abs(evaluate(pulse, lags))))
