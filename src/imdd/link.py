"""Simulated link: AWGN, sampling / matched-filter receivers, SER.

Both receivers share one symbol-rate model.  The noise-free output at
t = i ts is

    r_i = gain * (dc + sum_k a_{i-k} h_k)

with a gain, a DC term and taps h per configuration (``_taps``):

* sampling: gain = A G0, dc = mu and h_k = q(k ts).  The ideal lowpass
  front end passes the bandlimited waveform unchanged, so no filter
  realization is needed.
* matched: gain = A zeta, dc = mu Q(0) and h_k = rho(k ts), the pulse
  autocorrelation.  The bias is on for all time, so its filtered
  contribution is exactly mu Q(0) = mu q_bar ts at every output sample.

For the ISI-free pairs (Nyquist pulses on the sampling receiver,
root-Nyquist pulses on the matched one) every h_k with k != 0 vanishes and
a single closed-form tap remains: q(0), or rho(0) = Eq, since for ``rrc``
and ``xia`` rho is Eq times the raised cosine (Xia 1997).  ``allow_isi``
pairs keep the taps over |k| <= ``waveform.effective_guard`` symbols,
beyond which the pulse envelope is below its fixed floor; the ISI tail
past that window is dropped.

Noise is injected at the samples: sigma = G0 sqrt(N0 B) for sampling,
zeta sqrt(N0 Eq / 2) for the matched filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import erfc, erfcinv

from . import bias as _bias
from . import pulses, waveform
from .errors import DomainError, UnsupportedError

RECEIVERS = ("sampling", "matched")

MC_CHUNK = 16384
MC_MIN_SYMBOLS = 10_000
Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class LinkConfig:
    """One receiver chain: pulse, constellation, receiver kind, amplitude,
    noise density and gains.  ``allow_isi`` permits deliberately mismatched
    pulse/receiver pairs (the ISI-free sample contracts are then void)."""

    pulse: pulses.PulseSpec
    constellation: _bias.Constellation
    receiver: str = "sampling"
    a: float = 1.0
    n0: float = 1.0
    g0: float = 1.0
    zeta: float = 1.0
    seed: int = 0
    allow_isi: bool = False

    def __post_init__(self):
        if self.receiver not in RECEIVERS:
            raise DomainError(f"receiver must be one of {RECEIVERS}")
        if self.a < 0:
            raise DomainError("amplitude a must be nonnegative")
        if self.n0 < 0:
            raise DomainError("n0 must be nonnegative")
        meta = pulses.metadata(self.pulse)
        if not self.allow_isi:
            if self.receiver == "sampling" and not meta.is_nyquist:
                raise DomainError(
                    f"{self.pulse.family} is not a Nyquist pulse; sampling "
                    "reception has ISI (set allow_isi to override)")
            if self.receiver == "matched" and not meta.is_root_nyquist:
                raise DomainError(
                    f"{self.pulse.family} is not root-Nyquist; matched "
                    "filtering has ISI (set allow_isi to override)")


@dataclass(frozen=True)
class SerEstimate:
    """Monte Carlo symbol error rate with its binomial 95% half-width and
    the closed-form value for the same configuration."""

    p_hat: float
    n_symbols: int
    ci95: float
    p_analytic: float


def _energy(cfg: LinkConfig) -> float:
    meta = pulses.metadata(cfg.pulse)
    if meta.energy_ratio is not None:
        return meta.energy_ratio * cfg.pulse.ts
    return pulses.energy(cfg.pulse, tol=1e-9)


def noise_sigma(cfg: LinkConfig) -> float:
    """Receiver-sample noise standard deviation."""
    meta = pulses.metadata(cfg.pulse)
    if cfg.receiver == "sampling":
        bandwidth = meta.b_ts / cfg.pulse.ts
        return cfg.g0 * math.sqrt(cfg.n0 * bandwidth)
    return cfg.zeta * math.sqrt(cfg.n0 * _energy(cfg) / 2.0)


def _required_mu(cfg: LinkConfig) -> float:
    return _bias.required_bias(cfg.pulse, cfg.constellation).mu


def noise_free_levels(cfg: LinkConfig) -> np.ndarray:
    """Closed-form receiver sample for each constellation level."""
    meta = pulses.metadata(cfg.pulse)
    mu = _required_mu(cfg)
    levels = np.asarray(cfg.constellation.levels)
    if cfg.receiver == "sampling":
        return cfg.a * cfg.g0 * (mu + levels * meta.q_zero)
    q0_area = meta.q_bar * cfg.pulse.ts
    return cfg.a * cfg.zeta * (mu * q0_area + levels * _energy(cfg))


def _taps(cfg: LinkConfig) -> tuple[float, float, np.ndarray]:
    """(dc, gain, h) of the symbol-rate model; h is centred on k = 0."""
    meta = pulses.metadata(cfg.pulse)
    mu = _required_mu(cfg)
    ts = cfg.pulse.ts
    if cfg.receiver == "sampling":
        dc, gain, response = mu, cfg.a * cfg.g0, pulses.evaluate
        isi_free = meta.is_nyquist
    else:
        dc, gain = mu * (meta.q_bar * ts), cfg.a * cfg.zeta
        response, isi_free = pulses.autocorrelation, meta.is_root_nyquist
    # an ISI-free pair's taps vanish at k != 0: h = [q(0)] or [Eq]
    w = 0 if isi_free else waveform.effective_guard(cfg.pulse)
    return dc, gain, response(cfg.pulse, np.arange(-w, w + 1) * ts)


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
    """Argument of the Gaussian tail in the closed-form SER."""
    meta = pulses.metadata(cfg.pulse)
    c = cfg.constellation
    if cfg.n0 == 0.0:
        return math.inf
    if cfg.receiver == "sampling":
        bandwidth = meta.b_ts / cfg.pulse.ts
        return cfg.a * c.delta_a * meta.q_zero / (2.0 * math.sqrt(cfg.n0 * bandwidth))
    return cfg.a * c.delta_a * math.sqrt(_energy(cfg) / (2.0 * cfg.n0))


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
    meta = pulses.metadata(cfg.pulse)
    if cfg.receiver == "sampling":
        bandwidth = meta.b_ts / cfg.pulse.ts
        return 2.0 * math.sqrt(cfg.n0 * bandwidth) * arg / (c.delta_a * meta.q_zero)
    return arg / (c.delta_a * math.sqrt(_energy(cfg) / (2.0 * cfg.n0)))


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
