"""Simulated link: AWGN, sampling / matched-filter receivers, SER.

Both receivers share one symbol-rate model.  ``front_end`` says what a
receiver makes of a unit-gain signal: its response h, the output dc of a
unit bias, h(0), the noise variance per unit N0 and whether h vanishes at
every k ts != 0.  The noise-free output at t = i ts is then

    r_i = A gain (mu dc + sum_k a_{i-k} h(k ts))

* sampling: h = q, dc = 1, h(0) = q(0) and noise N0 B.  The ideal lowpass
  front end passes the bandlimited waveform unchanged, so no filter
  realization is needed.
* matched: h = rho, the pulse autocorrelation, dc = Q(0) = q_bar ts (the
  bias is on for all time), h(0) = Eq and noise N0 Eq / 2.

The scheme pairs Nyquist pulses with the sampling receiver and
root-Nyquist pulses with the matched one; for such a pair h(k ts) = 0 at
k != 0 and a single tap remains (rho(0) = Eq, since for ``rrc`` and
``xia`` rho is Eq times the raised cosine, Xia 1997).  Any other pair has
ISI and is refused unless ``allow_isi`` is set; it then keeps the taps
over |k| <= ``pulses.effective_guard`` symbols, beyond which the pulse
envelope is below its fixed floor, and drops the ISI tail past that window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import erfc, erfcinv

from . import bias as _bias
from . import pulses
from .errors import DomainError, UnsupportedError

RECEIVERS = ("sampling", "matched")

MC_CHUNK = 16384
MC_MIN_SYMBOLS = 10_000
Z95 = 1.959963984540054  # two-sided 95% normal quantile


def require_nonnegative(name: str, value: float) -> None:
    """Raise ``DomainError`` unless ``value`` is finite and >= 0."""
    if not 0.0 <= value < math.inf:
        raise DomainError(f"{name} must be finite and nonnegative, "
                          f"not {value}")


class FrontEnd(NamedTuple):
    """A receiver's response to a unit-gain signal (see the module notes)."""

    response: Callable     # h(pulse, t): pulses.evaluate or autocorrelation
    dc: float              # output of a unit bias
    h0: float              # h(0)
    noise: float           # noise variance per unit N0
    isi_free: bool         # h(k ts) = 0 for every k != 0


@lru_cache(maxsize=256)
def _energy(pulse: pulses.PulseSpec) -> float:
    """Eq, in closed form for the root-Nyquist pulses; a lattice sum
    otherwise, cached since the Monte Carlo loop asks once per chunk."""
    meta = pulses.metadata(pulse)
    if meta.energy_ratio is not None:
        return meta.energy_ratio * pulse.ts
    return pulses.energy(pulse, tol=1e-9)


def front_end(pulse: pulses.PulseSpec, receiver: str,
              allow_isi: bool = False) -> FrontEnd:
    """The receiver model: Nyquist pulses go to the sampling receiver and
    root-Nyquist pulses to the matched filter.  Any other pair has ISI and
    raises ``UnsupportedError`` unless ``allow_isi`` is set."""
    if receiver not in RECEIVERS:
        raise DomainError(f"receiver must be one of {RECEIVERS}")
    meta = pulses.metadata(pulse)
    sampling = receiver == "sampling"
    isi_free = meta.is_nyquist if sampling else meta.is_root_nyquist
    if not (isi_free or allow_isi):
        kind = "a Nyquist" if sampling else "a root-Nyquist"
        raise UnsupportedError(
            f"{pulse.family} is not {kind} pulse; the {receiver} receiver "
            "would see ISI (set allow_isi to override)")
    if sampling:
        return FrontEnd(pulses.evaluate, 1.0, meta.q_zero,
                        meta.b_ts / pulse.ts, isi_free)
    eq = _energy(pulse)
    return FrontEnd(pulses.autocorrelation, meta.q_bar * pulse.ts, eq,
                    eq / 2.0, isi_free)


@dataclass(frozen=True)
class LinkConfig:
    """One receiver chain: pulse, constellation, receiver kind, amplitude,
    noise density and the receiver's gain (G0 of the sampling front end or
    zeta of the matched filter).  ``allow_isi`` permits deliberately
    mismatched pulse/receiver pairs (the ISI-free sample contracts are then
    void)."""

    pulse: pulses.PulseSpec
    constellation: _bias.Constellation
    receiver: str = "sampling"
    a: float = 1.0
    n0: float = 1.0
    gain: float = 1.0
    seed: int = 0
    allow_isi: bool = False

    def __post_init__(self):
        require_nonnegative("amplitude a", self.a)
        require_nonnegative("n0", self.n0)
        front_end(self.pulse, self.receiver, self.allow_isi)


@dataclass(frozen=True)
class SerEstimate:
    """Monte Carlo symbol error rate with its binomial 95% half-width and
    the closed-form value for the same configuration."""

    p_hat: float
    n_symbols: int
    ci95: float
    p_analytic: float


def _front_end(cfg: LinkConfig) -> FrontEnd:
    return front_end(cfg.pulse, cfg.receiver, cfg.allow_isi)


def noise_sigma(cfg: LinkConfig) -> float:
    """Receiver-sample noise standard deviation."""
    return cfg.gain * math.sqrt(cfg.n0 * _front_end(cfg).noise)


def _required_mu(cfg: LinkConfig) -> float:
    return _bias.required_bias(cfg.pulse, cfg.constellation).mu


def noise_free_levels(cfg: LinkConfig) -> np.ndarray:
    """Closed-form receiver sample for each constellation level."""
    fe = _front_end(cfg)
    levels = np.asarray(cfg.constellation.levels)
    return cfg.a * cfg.gain * (_required_mu(cfg) * fe.dc + levels * fe.h0)


def _taps(cfg: LinkConfig) -> tuple[float, float, np.ndarray]:
    """(dc, gain, h) of the symbol-rate model; h is centred on k = 0."""
    fe = _front_end(cfg)
    # an ISI-free pair's taps vanish at k != 0: h = [q(0)] or [Eq]
    w = 0 if fe.isi_free else pulses.effective_guard(cfg.pulse)
    return (_required_mu(cfg) * fe.dc, cfg.a * cfg.gain,
            fe.response(cfg.pulse, np.arange(-w, w + 1) * cfg.pulse.ts))


def receiver_samples(cfg: LinkConfig, symbols, *, noise: bool = True,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    """Receiver output r(i ts) for a block of symbols; the required bias is
    applied internally.  With noise on, i.i.d. Gaussian samples of standard
    deviation noise_sigma(cfg) are added."""
    symbols = np.asarray(symbols, dtype=float)
    dc, gain, h = _taps(cfg)
    w = h.size // 2
    det = gain * (dc + fftconvolve(symbols, h)[w:w + symbols.size])
    if not noise:
        return det
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return det + rng.normal(0.0, noise_sigma(cfg), det.size)


def _q_func(x: float) -> float:
    return 0.5 * erfc(x / math.sqrt(2.0))


def q_inverse(p: float) -> float:
    """Inverse Gaussian tail function."""
    if not 0.0 < p < 1.0:
        raise DomainError("q_inverse needs 0 < p < 1")
    return math.sqrt(2.0) * float(erfcinv(2.0 * p))


def _detection_arg(cfg: LinkConfig) -> float:
    """Argument of the Gaussian tail in the closed-form SER: half the
    level spacing over the noise standard deviation."""
    if cfg.n0 == 0.0:
        return math.inf
    fe = _front_end(cfg)
    return (cfg.a * cfg.constellation.delta_a * fe.h0
            / (2.0 * math.sqrt(cfg.n0 * fe.noise)))


def analytic_ser(cfg: LinkConfig) -> float:
    """Closed-form SER 2 (M-1)/M Q(arg) for uniform M-PAM."""
    c = cfg.constellation
    if not c.is_uniform_pam():
        raise UnsupportedError("closed-form SER requires uniform PAM levels")
    m = c.order
    return 2.0 * (m - 1) / m * _q_func(_detection_arg(cfg))


def amplitude_for_ser(cfg: LinkConfig, p_err: float) -> float:
    """Amplitude A at which analytic_ser would equal p_err."""
    c = cfg.constellation
    if not c.is_uniform_pam():
        raise UnsupportedError("closed-form SER requires uniform PAM levels")
    m = c.order
    if not 0.0 < p_err < (m - 1) / m:
        raise DomainError("p_err out of range for this PAM order")
    arg = q_inverse(p_err * m / (2.0 * (m - 1)))
    fe = _front_end(cfg)
    return 2.0 * math.sqrt(cfg.n0 * fe.noise) * arg / (c.delta_a * fe.h0)


def monte_carlo_ser(cfg: LinkConfig, n_symbols: int,
                    target: int | None = None) -> SerEstimate:
    """Seeded Monte Carlo SER with midpoint-threshold (ML) detection.

    Symbols and noise are drawn per fixed-size internal chunk from spawned
    child seeds, so the merged estimate does not depend on how callers
    batch their budget.  ``target`` optionally stops early once that many
    symbol errors have accumulated (at chunk granularity).  Ties on a
    threshold resolve to the lower symbol.
    """
    if n_symbols < MC_MIN_SYMBOLS:
        raise DomainError(f"n_symbols must be >= {MC_MIN_SYMBOLS}")
    levels = np.asarray(cfg.constellation.levels)
    table = noise_free_levels(cfg)
    thresholds = 0.5 * (table[:-1] + table[1:])
    sigma = noise_sigma(cfg)

    n_chunks = math.ceil(n_symbols / MC_CHUNK)
    children = np.random.SeedSequence(cfg.seed).spawn(n_chunks)
    errors = 0
    consumed = 0
    for i, child in enumerate(children):
        m = min(MC_CHUNK, n_symbols - consumed)
        rng = np.random.default_rng(child)
        idx = rng.integers(0, levels.size, size=m)
        det = receiver_samples(cfg, levels[idx], noise=False)
        r = det + rng.normal(0.0, sigma, size=m) if sigma > 0 else det
        detected = np.searchsorted(thresholds, r, side="left")
        errors += int(np.count_nonzero(detected != idx))
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
