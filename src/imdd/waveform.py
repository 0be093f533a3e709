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

from . import bias as _bias
from . import link, pulses
from .errors import DomainError
from .link import fftconvolve

MIN_RATE = 16


@dataclass
class WaveformGrid:
    """Uniformly sampled x(t).  The grid spans the interior symbols plus the
    guard on both sides: length = rate * (n_symbols + 2*guard)."""

    samples: np.ndarray
    rate: int
    t0: float
    ts: float

    @property
    def t(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size) * (self.ts / self.rate)


@dataclass
class EyeTraces:
    """Noise-free receiver traces folded onto a two-symbol window."""

    traces: np.ndarray          # (n_traces, 2*rate)
    t: np.ndarray               # [0, 2*ts)


@dataclass(frozen=True)
class OpticalPowers:
    """Average and peak optical power."""

    p_opt: float
    p_max: float


def _require_finite_bias(mu: float) -> None:
    """A bias may be negative (an offset below the required one), not
    infinite or NaN."""
    if not math.isfinite(mu):
        raise DomainError(f"bias mu must be finite, not {mu}")


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
    return fftconvolve(up, taps)


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
    link.require_count("rate", rate, MIN_RATE)
    link.require_nonnegative("amplitude a", a)
    link.require_count("seed", seed, 0)
    _require_finite_bias(mu)
    symbols = np.asarray(symbols, dtype=float)
    if symbols.ndim != 1 or symbols.size == 0:
        raise DomainError("symbols must be a nonempty 1-D sequence")
    levels = np.asarray(constellation.levels)
    if not np.all(np.isclose(symbols[:, None], levels[None, :],
                             rtol=0.0, atol=1e-9).any(axis=1)):
        raise DomainError("symbols must be constellation levels")
    g_min = pulses.effective_guard(pulse)
    if guard is None:
        guard = g_min
    link.require_count("guard", guard, g_min)

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
                        t0=-guard * pulse.ts, ts=pulse.ts)


def optical_powers(pulse: pulses.PulseSpec,
                   constellation: _bias.Constellation, *,
                   mu: float, a: float = 1.0) -> OpticalPowers:
    """Average power a*(mu + E{a} q_bar) and peak transmit power, both exact.

    The largest value of sum a_k q(t - k ts) over all symbol sequences is
    minus the smallest for the mirrored levels -a_k, which is the bias
    those levels need.  It comes from the same cached search as ``mu``.
    """
    link.require_nonnegative("amplitude a", a)
    _require_finite_bias(mu)
    p_opt = a * (mu + constellation.mean * pulses.metadata(pulse).q_bar)
    mirrored = _bias.Constellation(
        tuple(-v for v in reversed(constellation.levels)))
    peak = _bias.required_bias(pulse, mirrored).mu
    return OpticalPowers(p_opt, a * (mu + peak))


def eye_diagram(pulse: pulses.PulseSpec, constellation: _bias.Constellation,
                receiver: str = "sampling", n_traces: int = 64,
                rate: int = 32, seed: int = 0, *,
                a: float = 1.0) -> EyeTraces:
    """Noise-free receiver output sliced into overlapping 2*ts windows.

    The output is a*(mu*dc + sum a_k h(t - k ts)) with the receiver's
    ``link.front_end``: h = q for the sampling receiver, whose front end
    passes the bandlimited waveform unchanged, and the closed-form rho of
    the root-Nyquist pulses for the matched one.
    """
    link.require_count("n_traces", n_traces, 1)
    link.require_count("rate", rate, 1)
    link.require_nonnegative("amplitude a", a)
    link.require_count("seed", seed, 0)
    fe = link.front_end(pulse, receiver)

    mu = _bias.required_bias(pulse, constellation).mu
    guard = pulses.effective_guard(pulse)
    n_sym = n_traces + 1
    rng = np.random.default_rng(seed)
    levels = np.asarray(constellation.levels)
    block = rng.choice(levels, size=n_sym)
    full = np.concatenate([rng.choice(levels, size=guard), block,
                           rng.choice(levels, size=guard)])
    train = _superpose(fe.response, pulse, full, rate)
    r = a * (mu * fe.dc + train)

    win = 2 * rate
    traces = np.empty((n_traces, win))
    for i in range(n_traces):
        lo = (guard + i) * rate
        traces[i] = r[lo:lo + win]
    t = np.arange(win) * (pulse.ts / rate)
    return EyeTraces(traces=traces, t=t)
