"""Transmit-intensity synthesis, optical power metrics and eye diagrams.

The transmitted optical intensity is x(t) = A (mu + sum_k a_k q(t - k ts))
over a finite symbol block padded by guard symbols on both sides, so that
edge transients never touch the interior.  ``synthesize`` and
``eye_diagram`` take the whole train from their caller and draw no random
numbers.  Superposition is carried out by FFT convolution of the symbol
impulse train with a full-length sampled pulse, which is the exact
shifted-sum up to float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bias as _bias
from . import link, pulses
from .errors import DomainError, require_count, require_real
from .link import fftconvolve

MIN_RATE = 16


@dataclass
class WaveformGrid:
    """Uniformly sampled x(t).  The grid spans the whole symbol train, the
    guards included: length = rate * len(symbols)."""

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


def _check_train(pulse: pulses.PulseSpec, constellation: _bias.Constellation,
                 symbols, guard: int | None = None,
                 block: int = 1) -> tuple[np.ndarray, int]:
    """The train as floats, and its guard: constellation levels, a block of
    ``block`` symbols or more between ``guard`` symbols on each side
    (``effective_guard`` at least)."""
    try:
        symbols = np.asarray(symbols, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError("symbols must be real numbers") from exc
    if symbols.ndim != 1:
        raise DomainError("symbols must be a 1-D sequence")
    levels = np.asarray(constellation.levels)
    if not np.all(np.isclose(symbols[:, None], levels[None, :],
                             rtol=0.0, atol=1e-9).any(axis=1)):
        raise DomainError("symbols must be constellation levels")
    g_min = pulses.effective_guard(pulse)
    if guard is None:
        guard = g_min
    require_count("guard", guard, g_min)
    guard = int(guard)          # -guard of an unsigned numpy count wraps
    if symbols.size < 2 * guard + block:
        raise DomainError(f"symbols must hold a block between {guard} guard "
                          f"symbols on each side, {2 * guard + block} in all "
                          f"at least, not {symbols.size}")
    return symbols, guard


def synthesize(pulse: pulses.PulseSpec, constellation: _bias.Constellation,
               symbols, *, mu: float, a: float = 1.0, rate: int = 32,
               guard: int | None = None) -> WaveformGrid:
    """Sample x(t) = a*(mu + sum a_k q(t - k ts)) over a given symbol train.

    ``symbols`` is the whole train: a block with ``guard`` symbols on each
    side (``pulses.effective_guard`` by default), which the caller draws.
    The grid starts at t0 = -guard*ts, so t = 0 is the block's first
    symbol.  No random numbers are drawn here.
    """
    require_count("rate", rate, MIN_RATE)
    a = require_real("amplitude a", a, nonnegative=True)
    mu = require_real("bias mu", mu)
    symbols, guard = _check_train(pulse, constellation, symbols, guard)
    train = _superpose(pulses.evaluate, pulse, symbols, rate)
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
    a = require_real("amplitude a", a, nonnegative=True)
    mu = require_real("bias mu", mu)
    p_opt = a * (mu + constellation.mean * pulses.metadata(pulse).q_bar)
    mirrored = _bias.Constellation(
        tuple(-v for v in reversed(constellation.levels)))
    peak = _bias.required_bias(pulse, mirrored).mu
    return OpticalPowers(p_opt, a * (mu + peak))


def eye_diagram(pulse: pulses.PulseSpec, constellation: _bias.Constellation,
                symbols, receiver: str = "sampling", *, a: float = 1.0,
                rate: int = 32) -> EyeTraces:
    """Noise-free receiver output over a given train in 2*ts windows.

    ``symbols`` is the whole train, ``pulses.effective_guard`` symbols on
    each side of a block of two symbols or more; trace i starts at block
    symbol i, one for each but the last.  The output is
    a*(mu*dc + sum a_k h(t - k ts)) with the receiver's
    ``link.front_end``: h = q for the sampling receiver, so its
    traces are ``synthesize``'s samples bit for bit, and the closed-form
    rho of the root-Nyquist pulses for the matched one.
    """
    require_count("rate", rate, 1)
    a = require_real("amplitude a", a, nonnegative=True)
    fe = link.front_end(pulse, receiver)
    symbols, guard = _check_train(pulse, constellation, symbols, block=2)

    mu = _bias.required_bias(pulse, constellation).mu
    train = _superpose(fe.response, pulse, symbols, rate)
    # the block's symbol periods as rows; trace i is rows i and i + 1
    periods = (a * (mu * fe.dc + train)).reshape(-1, rate)[guard:-guard]
    traces = np.hstack((periods[:-1], periods[1:]))
    t = np.arange(2 * rate) * (pulse.ts / rate)
    return EyeTraces(traces=traces, t=t)
