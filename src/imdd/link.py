"""Simulated link: AWGN, sampling / matched-filter receivers, SER.

Both receivers share one symbol-rate model.  ``front_end`` says what a
receiver makes of a unit-amplitude signal: its response h, the output dc of a
unit bias, h(0) and the noise variance per unit N0.  The noise-free output
at t = i ts is then

    r_i = A (mu dc + sum_k a_{i-k} h(k ts))

* sampling: h = q, dc = 1, h(0) = q(0) and noise N0 B.  The ideal lowpass
  front end passes the bandlimited waveform unchanged, so no filter
  realization is needed.
* matched: h = rho, the pulse autocorrelation, dc = Q(0) = q_bar ts (the
  bias is on for all time), h(0) = Eq and noise N0 Eq / 2.

The scheme pairs Nyquist pulses with the sampling receiver and
root-Nyquist pulses with the matched one; for such a pair h(k ts) = 0 at
k != 0 and a single tap remains (rho(0) = Eq, since for ``rrc`` and
``xia`` rho is Eq times the raised cosine, Xia 1997).  Any other pair has
ISI and is refused.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import bias as _bias
from . import pulses
from .errors import (DomainError, UnsupportedError, require_count,
                     require_real)

RECEIVERS = ("sampling", "matched")

MC_CHUNK = 16384
MC_MIN_SYMBOLS = 10_000
Z95 = 1.959963984540054  # two-sided 95% normal quantile


class FrontEnd(NamedTuple):
    """A receiver's response to a unit-amplitude signal (module notes)."""

    response: Callable     # h(pulse, t): pulses.evaluate or autocorrelation
    dc: float              # output of a unit bias
    h0: float              # h(0)
    noise: float           # noise variance per unit N0


def front_end(pulse: pulses.PulseSpec, receiver: str) -> FrontEnd:
    """The receiver model: Nyquist pulses go to the sampling receiver and
    root-Nyquist pulses to the matched filter.  Any other pair has ISI and
    raises ``UnsupportedError``."""
    if receiver not in RECEIVERS:
        raise DomainError(f"receiver must be one of {RECEIVERS}")
    meta = pulses.metadata(pulse)
    sampling = receiver == "sampling"
    if not (meta.is_nyquist if sampling else meta.is_root_nyquist):
        kind = "a Nyquist" if sampling else "a root-Nyquist"
        raise UnsupportedError(
            f"{pulse.family} is not {kind} pulse; the {receiver} receiver "
            "would see ISI")
    if sampling:
        return FrontEnd(pulses.evaluate, 1.0, meta.q_zero,
                        meta.b_ts / pulse.ts)
    eq = meta.energy_ratio * pulse.ts
    return FrontEnd(pulses.autocorrelation, meta.q_bar * pulse.ts, eq,
                    eq / 2.0)


@dataclass(frozen=True)
class LinkConfig:
    """One receiver chain: pulse, constellation, receiver kind, amplitude,
    noise density and the Monte Carlo seed."""

    pulse: pulses.PulseSpec
    constellation: _bias.Constellation
    receiver: str = "sampling"
    a: float = 1.0
    n0: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "a", require_real("amplitude a", self.a,
                                                   nonnegative=True))
        object.__setattr__(self, "n0", require_real("n0", self.n0,
                                                    nonnegative=True))
        require_count("seed", self.seed, 0)
        front_end(self.pulse, self.receiver)


@dataclass(frozen=True)
class SerEstimate:
    """Monte Carlo symbol error rate with its binomial 95% half-width and
    the closed-form value for the same configuration."""

    p_hat: float
    n_symbols: int
    ci95: float
    p_analytic: float


def noise_sigma(cfg: LinkConfig) -> float:
    """Receiver-sample noise standard deviation."""
    noise = front_end(cfg.pulse, cfg.receiver).noise
    return math.sqrt(cfg.n0 * noise)


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, the real FFT length that
    scipy.fft.next_fast_len(n, real=True) picks."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that lifts p35 to n or beyond
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def fftconvolve(in1, in2) -> np.ndarray:
    """The centred ``in1.size`` part of the linear convolution of two real
    1-D arrays, computed as scipy.signal.fftconvolve(in1, in2, "same")
    computes it: a one-element input gives the plain product, anything
    else a zero-padded real FFT of ``_fast_len`` points (numpy >= 2 and
    scipy share the pocketfft kernels, so the bits match)."""
    in1, in2 = np.asarray(in1), np.asarray(in2)
    n = in1.size + in2.size - 1
    if in1.size == 1 or in2.size == 1:
        full = in1 * in2
    else:
        nfft = _fast_len(n)
        full = np.fft.irfft(np.fft.rfft(in1, nfft) * np.fft.rfft(in2, nfft),
                            nfft)
    start = (n - in1.size) // 2
    return full[start:start + in1.size]


def receiver_samples(cfg: LinkConfig, symbols) -> np.ndarray:
    """Noise-free receiver output r(i ts) for a block of symbols; the
    required bias is applied internally.  The taps vanish at k != 0, so
    h is the single tap [q(0)] or [Eq]."""
    fe = front_end(cfg.pulse, cfg.receiver)
    h = fe.response(cfg.pulse, [0.0])
    # fresh, so dc and a go in in place
    det = fftconvolve(np.asarray(symbols, dtype=float), h)
    det += _bias.required_bias(cfg.pulse, cfg.constellation).mu * fe.dc
    det *= cfg.a
    return det


def _q_func(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_inverse(p: float) -> float:
    """Inverse Gaussian tail function, -Phi^-1(p): the lower tail keeps
    its precision at small p, where 1 - p would round."""
    p = require_real("p", p)
    if not 0.0 < p < 1.0:
        raise DomainError("q_inverse needs 0 < p < 1")
    return -statistics.NormalDist().inv_cdf(p)


def _detection_arg(cfg: LinkConfig) -> float:
    """Argument of the Gaussian tail in the closed-form SER: half the
    level spacing over the noise standard deviation."""
    if cfg.n0 == 0.0:
        return math.inf
    fe = front_end(cfg.pulse, cfg.receiver)
    return (cfg.a * cfg.constellation.delta_a * fe.h0
            / (2.0 * math.sqrt(cfg.n0 * fe.noise)))


def _uniform_pam(cfg: LinkConfig) -> _bias.Constellation:
    """The constellation, or ``UnsupportedError`` unless it is uniform PAM,
    the only one the closed-form SER covers."""
    c = cfg.constellation
    if not c.is_uniform_pam():
        raise UnsupportedError("closed-form SER requires uniform PAM levels")
    return c


def analytic_ser(cfg: LinkConfig) -> float:
    """Closed-form SER 2 (M-1)/M Q(arg) for uniform M-PAM."""
    m = _uniform_pam(cfg).order
    return 2.0 * (m - 1) / m * _q_func(_detection_arg(cfg))


def amplitude_for_ser(cfg: LinkConfig, p_err: float) -> float:
    """Amplitude A at which analytic_ser would equal p_err."""
    c = _uniform_pam(cfg)
    m = c.order
    p_err = require_real("p_err", p_err)
    if not 0.0 < p_err < (m - 1) / m:
        raise DomainError("p_err out of range for this PAM order")
    arg = q_inverse(p_err * m / (2.0 * (m - 1)))
    fe = front_end(cfg.pulse, cfg.receiver)
    return 2.0 * math.sqrt(cfg.n0 * fe.noise) * arg / (c.delta_a * fe.h0)


def _interval_errors(edges: np.ndarray, idx: np.ndarray,
                     r: np.ndarray) -> int:
    """Samples r[j] outside their own level's decision interval
    (edges[idx[j]], edges[idx[j] + 1]]; for non-decreasing edges and
    finite r this counts searchsorted(edges[1:-1], r, "left") != idx."""
    inside = (r > edges[idx]) & (r <= edges[1:][idx])
    return r.size - int(np.count_nonzero(inside))


def monte_carlo_ser(cfg: LinkConfig, n_symbols: int,
                    target: int | None = None) -> SerEstimate:
    """Seeded Monte Carlo SER with midpoint-threshold (ML) detection.

    Symbols and noise are drawn per fixed-size internal chunk from spawned
    child seeds, so the merged estimate does not depend on how callers
    batch their budget.  ``target`` (>= 1) optionally stops early once that
    many symbol errors have accumulated (at chunk granularity).  A sample
    sent on level i is correct when it falls in (edges[i], edges[i + 1]],
    with edges the midpoints between the levels' noise-free samples and
    +-inf at the ends; so a sample on a threshold goes to the lower symbol.
    Those samples come from one ``receiver_samples`` call per estimate.
    """
    require_count("n_symbols", n_symbols, MC_MIN_SYMBOLS)
    if target is not None:
        require_count("target", target, 1)
    levels = np.asarray(cfg.constellation.levels)
    table = receiver_samples(cfg, levels)
    edges = np.concatenate(([-np.inf], 0.5 * (table[:-1] + table[1:]),
                            [np.inf]))
    sigma = noise_sigma(cfg)

    n_chunks = math.ceil(n_symbols / MC_CHUNK)
    children = np.random.SeedSequence(cfg.seed).spawn(n_chunks)
    errors = 0
    consumed = 0
    for child in children:
        m = min(MC_CHUNK, n_symbols - consumed)
        rng = np.random.default_rng(child)
        idx = rng.integers(0, levels.size, size=m)
        r = table[idx]
        if sigma > 0:
            r += rng.normal(0.0, sigma, size=m)
        errors += _interval_errors(edges, idx, r)
        consumed += m
        if target is not None and errors >= target:
            break

    p_hat = errors / consumed
    p_tilde = min(max(p_hat, 0.5 / consumed), 1.0 - 0.5 / consumed)
    ci95 = Z95 * math.sqrt(p_tilde * (1.0 - p_tilde) / consumed)
    try:
        p_an = analytic_ser(cfg)
    except UnsupportedError:
        p_an = math.nan
    return SerEstimate(p_hat=p_hat, n_symbols=consumed, ci95=ci95,
                       p_analytic=p_an)
