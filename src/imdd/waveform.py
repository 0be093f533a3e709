"""Transmit-intensity synthesis, optical power metrics and eye diagrams.

The transmitted optical intensity is x(t) = A (mu + sum_k a_k q(t - k ts))
over a finite symbol block padded by guard symbols on both sides, so that
edge transients never touch the interior.  Superposition is carried out by
FFT convolution of the symbol impulse train with a full-length sampled
pulse, which is the exact shifted-sum up to float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from . import bias as _bias
from . import pulses
from .errors import DomainError

MIN_RATE = 16
MIN_GUARD = 8
GUARD_ENVELOPE_TOL = 1e-3


def effective_guard(pulse: pulses.PulseSpec) -> int:
    """Symbols after which the pulse envelope drops below a fixed floor;
    the minimum admissible guard length."""
    p, coef, u0 = pulses.tail_envelope(pulse)
    u_eff = max(u0, (coef / GUARD_ENVELOPE_TOL) ** (1.0 / p))
    return max(MIN_GUARD, int(math.ceil(u_eff)))


@dataclass
class WaveformGrid:
    """Uniformly sampled x(t).  The grid spans the interior symbols plus the
    guard on both sides: length = rate * (n_symbols + 2*guard)."""

    samples: np.ndarray
    rate: int
    t0: float
    ts: float
    symbol_span: tuple[int, int]
    scale_a: float
    bias_mu: float

    @property
    def t(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size) * (self.ts / self.rate)


@dataclass
class EyeTraces:
    """Noise-free receiver traces folded onto a two-symbol window."""

    traces: np.ndarray          # (n_traces, 2*rate)
    t: np.ndarray               # [0, 2*ts)
    receiver_kind: str
    pulse: pulses.PulseSpec
    constellation: _bias.Constellation
    sampling_phase: float = 0.0


@dataclass(frozen=True)
class OpticalPowers:
    """Average and peak optical power; ``method`` records whether the peak
    is the closed form (bandwidth <= symbol rate) or a sequence-search
    lower bound."""

    p_opt: float
    p_max: float
    method: str


def adversarial_symbols(pulse: pulses.PulseSpec,
                        constellation: _bias.Constellation,
                        phase_t: float, k_indices,
                        seek: str = "min") -> np.ndarray:
    """Worst-case symbols for the time instant ``phase_t``.

    ``seek="min"`` drives x(phase_t) as low as possible (top level where the
    shifted pulse is negative, bottom level elsewhere) — the sequence that
    attains the bias supremum.  ``seek="max"`` is the mirrored peak-seeking
    pattern.
    """
    k = np.asarray(k_indices, dtype=float)
    vals = np.atleast_1d(pulses.evaluate(pulse, phase_t - k * pulse.ts))
    if seek == "min":
        return np.where(vals < 0.0, constellation.a_hat, constellation.a_check)
    if seek == "max":
        return np.where(vals < 0.0, constellation.a_check, constellation.a_hat)
    raise DomainError(f"unknown seek {seek!r}")


def _superpose(response, pulse: pulses.PulseSpec, full_symbols: np.ndarray,
               rate: int) -> np.ndarray:
    """sum_k a_k h(t - k ts) on the uniform grid covering the symbols, where
    h(t) = response(pulse, t): the pulse q itself or its autocorrelation."""
    n_total = full_symbols.size
    n_grid = rate * n_total
    up = np.zeros(n_grid)
    up[::rate] = full_symbols
    tap_t = np.arange(1 - n_grid, n_grid) * (pulse.ts / rate)
    taps = response(pulse, tap_t)
    return fftconvolve(up, taps, mode="same")


def synthesize(pulse: pulses.PulseSpec, constellation: _bias.Constellation,
               symbols, *, mu: float, a: float = 1.0, rate: int = 32,
               guard: int | None = None, guard_mode: str = "random",
               adversarial_phase: float = 0.0, adversarial_seek: str = "min",
               seed: int = 0) -> WaveformGrid:
    """Sample x(t) = a*(mu + sum a_k q(t - k ts)) over the block plus guards.

    Guard symbols are drawn uniformly from the constellation
    (``guard_mode="random"``) or set to the sign-matched worst case for
    ``adversarial_phase`` (``guard_mode="adversarial"``).
    """
    if rate < MIN_RATE:
        raise DomainError(f"rate must be >= {MIN_RATE}")
    symbols = np.asarray(symbols, dtype=float)
    if symbols.ndim != 1 or symbols.size == 0:
        raise DomainError("symbols must be a nonempty 1-D sequence")
    levels = np.asarray(constellation.levels)
    if not np.all(np.isclose(symbols[:, None], levels[None, :],
                             rtol=0.0, atol=1e-9).any(axis=1)):
        raise DomainError("symbols must be constellation levels")
    g_min = effective_guard(pulse)
    if guard is None:
        guard = g_min
    elif guard < g_min:
        raise DomainError(f"guard={guard} insufficient; pulse needs >= {g_min}")

    n = symbols.size
    if guard_mode == "random":
        rng = np.random.default_rng(seed)
        left = rng.choice(levels, size=guard)
        right = rng.choice(levels, size=guard)
    elif guard_mode == "adversarial":
        left = adversarial_symbols(pulse, constellation, adversarial_phase,
                                   np.arange(-guard, 0), adversarial_seek)
        right = adversarial_symbols(pulse, constellation, adversarial_phase,
                                    np.arange(n, n + guard), adversarial_seek)
    else:
        raise DomainError(f"unknown guard_mode {guard_mode!r}")

    full = np.concatenate([left, symbols, right])
    train = _superpose(pulses.evaluate, pulse, full, rate)
    return WaveformGrid(samples=a * (mu + train), rate=rate,
                        t0=-guard * pulse.ts, ts=pulse.ts,
                        symbol_span=(0, n), scale_a=a, bias_mu=mu)


def optical_powers(pulse: pulses.PulseSpec,
                   constellation: _bias.Constellation, *,
                   mu: float, a: float = 1.0,
                   n_sequences: int = 100, seed: int = 0) -> OpticalPowers:
    """Average power a*(mu + E{a} q_bar) and peak transmit power.

    For bandwidth B*ts <= 1 the peak has a closed form built from the
    folded-sum supremum; beyond that it is lower-bounded by maximizing over
    random symbol blocks plus the sign-matched adversarial block.
    """
    meta = pulses.metadata(pulse)
    p_opt = a * (mu + constellation.mean * meta.q_bar)
    mid = constellation.midpoint
    spread = constellation.a_hat - mid
    if meta.b_ts <= 1.0 + 1e-12:
        peak = _bias.peak_abs_sum(pulse)
        p_max = a * (mu + spread * peak.f_abs + mid * meta.q_bar)
        return OpticalPowers(p_opt, p_max, "closed-form")

    peak = _bias.peak_abs_sum(pulse)
    levels = np.asarray(constellation.levels)
    n_sym = 64
    best = -math.inf
    for s in range(n_sequences):
        rng = np.random.default_rng((seed, s))
        block = rng.choice(levels, size=n_sym)
        wf = synthesize(pulse, constellation, block, mu=mu, a=a,
                        guard_mode="random", seed=s + 1)
        best = max(best, float(wf.samples.max()))
    # aim the adversarial pattern at the supremum phase near the block center
    phase_c = peak.t_star + (n_sym // 2) * pulse.ts
    adv = adversarial_symbols(pulse, constellation, phase_c,
                              np.arange(n_sym), seek="max")
    wf = synthesize(pulse, constellation, adv, mu=mu, a=a,
                    guard_mode="adversarial", adversarial_phase=phase_c,
                    adversarial_seek="max")
    best = max(best, float(wf.samples.max()))
    return OpticalPowers(p_opt, best, "grid-lower-bound")


def eye_diagram(pulse: pulses.PulseSpec, constellation: _bias.Constellation,
                receiver: str = "sampling", n_traces: int = 64,
                rate: int = 32, seed: int = 0, *,
                a: float = 1.0, g0: float = 1.0,
                zeta: float = 1.0) -> EyeTraces:
    """Noise-free receiver output sliced into overlapping 2*ts windows.

    The sampling receiver's front end passes the (bandlimited) waveform
    unchanged, so its traces are g0*x(t).  The matched receiver's
    deterministic output is zeta*a*(mu*Q0 + sum a_k rho(t - k ts)), with
    the closed-form rho of the root-Nyquist pulses.
    """
    if n_traces < 1:
        raise DomainError("n_traces must be >= 1")
    meta = pulses.metadata(pulse)
    if receiver == "sampling":
        if not meta.is_nyquist:
            raise DomainError(f"{pulse.family} is not a Nyquist pulse; "
                              "the sampling receiver would see ISI")
    elif receiver == "matched":
        if not meta.is_root_nyquist:
            raise DomainError(f"{pulse.family} is not root-Nyquist; "
                              "the matched filter would see ISI")
    else:
        raise DomainError(f"unknown receiver {receiver!r}")

    mu = _bias.required_bias(pulse, constellation).mu
    guard = effective_guard(pulse)
    n_sym = n_traces + 1
    rng = np.random.default_rng(seed)
    levels = np.asarray(constellation.levels)
    block = rng.choice(levels, size=n_sym)
    full = np.concatenate([rng.choice(levels, size=guard), block,
                           rng.choice(levels, size=guard)])

    if receiver == "sampling":
        r = g0 * a * (mu + _superpose(pulses.evaluate, pulse, full, rate))
    else:
        q0_area = meta.q_bar * pulse.ts
        train = _superpose(pulses.autocorrelation, pulse, full, rate)
        r = zeta * a * (mu * q0_area + train)

    win = 2 * rate
    traces = np.empty((n_traces, win))
    for i in range(n_traces):
        lo = (guard + i) * rate
        traces[i] = r[lo:lo + win]
    t = np.arange(win) * (pulse.ts / rate)
    return EyeTraces(traces=traces, t=t, receiver_kind=receiver,
                     pulse=pulse, constellation=constellation)
