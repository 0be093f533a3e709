"""Optical power gain curves: equal eye opening and equal SER.

All gains are average-optical-power ratios in dB against one fixed
reference system: sinc^2 pulse, OOK, sampling receiver, at the same bit
rate.  Average power is A (mu + E{a} q_bar), and the reference has mu = 0,
E{a} = 1/2, q_bar = 1, so

    gain = 10 log10( (A_ref / A) * 0.5 / (mu + E{a} q_bar) ).

The A_ref/A factor is 1 for the equal-eye scenario written against a unit
eye per amplitude (Delta_a q(0) absorbs it).  At equal SER it is the ratio
of the two amplitudes ``link.amplitude_for_ser`` gives at equal bit rate.
Written this way the reference maps to exactly 0 dB, which is what pins
the curves' absolute level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import bias as _bias
from . import link, pulses
from .errors import DomainError, ImddError, UnsupportedError

SCENARIOS = ("equal-eye", "equal-ser")


@dataclass(frozen=True)
class GainPoint:
    """One point of a gain-vs-bandwidth curve."""

    scenario: str
    receiver: str
    pulse: str
    alpha: float
    m: int
    b_tb: float
    gain_db: float
    mu: float
    q_bar: float
    q_zero: float


@dataclass(frozen=True)
class GainFailure:
    """A grid point that could not be evaluated, with the reason."""

    scenario: str
    receiver: str
    pulse: str
    alpha: float
    m: int
    error: str


@dataclass(frozen=True)
class SweepResult:
    points: list[GainPoint]
    failures: list[GainFailure]


def _avg_power_factor(pulse: pulses.PulseSpec,
                      constellation: _bias.Constellation) -> tuple[float, float]:
    """(mu, mu + E{a} q_bar): bias and average power per unit amplitude."""
    meta = pulses.metadata(pulse)
    mu = _bias.required_bias(pulse, constellation).mu
    return mu, mu + constellation.mean * meta.q_bar


def gain_equal_eye(pulse: pulses.PulseSpec,
                   constellation: _bias.Constellation) -> float:
    """Gain in dB at equal eye opening (sampling receiver)."""
    q_zero = link.front_end(pulse, "sampling").h0
    mu, power = _avg_power_factor(pulse, constellation)
    return 10.0 * math.log10(constellation.delta_a * q_zero / (2.0 * power))


def amp_ratio_equal_ser(receiver: str, pulse: pulses.PulseSpec,
                        constellation: _bias.Constellation,
                        p_err: float) -> float:
    """Amplitude ratio A_ref/A at which both systems reach SER p_err at
    equal bit rate: the pulse at ts = log2 M against s2 OOK at ts = 1."""
    ref = link.LinkConfig(pulses.PulseSpec("s2", 0.5),
                          _bias.Constellation.pam(2))
    bits = math.log2(constellation.order)
    tgt = link.LinkConfig(replace(pulse, ts=bits), constellation, receiver)
    return (link.amplitude_for_ser(ref, p_err)
            / link.amplitude_for_ser(tgt, p_err))


def gain_equal_ser(receiver: str, pulse: pulses.PulseSpec,
                   constellation: _bias.Constellation,
                   p_err: float) -> float:
    """Gain in dB at equal symbol error rate and equal bit rate."""
    ratio = amp_ratio_equal_ser(receiver, pulse, constellation, p_err)
    mu, power = _avg_power_factor(pulse, constellation)
    return 10.0 * math.log10(ratio * 0.5 / power)


def gain_point(scenario: str, receiver: str, pulse: pulses.PulseSpec,
               constellation: _bias.Constellation,
               p_err: float | None = None) -> GainPoint:
    """One fully populated curve point for either scenario."""
    meta = pulses.metadata(pulse)
    if scenario == "equal-eye":
        if receiver != "sampling":
            raise UnsupportedError(
                "the equal-eye scenario is defined for the sampling "
                f"receiver only, not {receiver!r}")
        gain = gain_equal_eye(pulse, constellation)
    else:
        gain = gain_equal_ser(receiver, pulse, constellation, p_err)
    mu = _bias.required_bias(pulse, constellation).mu
    m = constellation.order
    return GainPoint(
        scenario=scenario, receiver=receiver, pulse=pulse.family,
        alpha=pulse.alpha, m=m, b_tb=meta.b_ts / math.log2(m),
        gain_db=gain, mu=mu, q_bar=meta.q_bar, q_zero=meta.q_zero)


def valid_receivers(family: str, scenario: str) -> tuple[str, ...]:
    """Receivers for which the scenario has an ISI-free closed form; the
    equal-eye scenario is defined for the sampling receiver only."""
    pulse = pulses.PulseSpec(family, 0.5)
    receivers = ("sampling",) if scenario == "equal-eye" else link.RECEIVERS
    fronts = grid(lambda r: link.front_end(pulse, r),
                  ((r,) for r in receivers))
    return tuple(r for (r,), fe in fronts if isinstance(fe, link.FrontEnd))


def grid(point, keys):
    """Yield ``(key, point(*key))`` for each key, or ``(key, error)`` when
    the point raises an ``ImddError``: one bad point never aborts a grid."""
    for key in keys:
        try:
            result = point(*key)
        except ImddError as exc:
            result = exc
        yield key, result


def gain_grid(scenario: str, pulse_set, alphas, m_set,
              p_err: float | None = None, receivers=None, ts: float = 1.0):
    """``grid`` over families x alpha x M x receivers, keyed
    ``(scenario, receiver, pulse, alpha, m)``.  Without ``receivers`` each
    family gets every receiver valid for it; a family with none yields one
    failure keyed ``(scenario, "", pulse, None, None)``."""
    def point(scenario, receiver, family, alpha, m):
        return gain_point(scenario, receiver,
                          pulses.PulseSpec(family, alpha, ts),
                          _bias.Constellation.pam(m), p_err)

    for family in pulse_set:
        fam_receivers = (valid_receivers(family, scenario)
                         if receivers is None else tuple(receivers))
        if not fam_receivers:
            yield (scenario, "", family, None, None), UnsupportedError(
                f"no receiver supports {family} in {scenario}")
        yield from grid(point, ((scenario, receiver, family, alpha, m)
                                for alpha in alphas for m in m_set
                                for receiver in fam_receivers))


def sweep(scenario: str, pulse_set, alpha_grid, m_set,
          p_err: float | None = None, *, receivers=None,
          ts: float = 1.0) -> SweepResult:
    """Evaluate a gain curve grid; per-point failures are recorded, not
    raised.  Points come back sorted by b_tb and always include the
    reference configuration (sinc^2, OOK, sampling) as a marker row."""
    if scenario not in SCENARIOS:
        raise DomainError(f"scenario must be one of {SCENARIOS}")
    if scenario == "equal-ser" and p_err is None:
        raise DomainError("equal-ser sweeps need p_err")
    alpha_grid = [float(a) for a in alpha_grid]
    if not alpha_grid:
        raise DomainError("empty alpha grid")
    results = list(gain_grid(scenario, pulse_set, alpha_grid, m_set, p_err,
                             receivers, ts))
    if not any(isinstance(p, GainPoint)
               and (p.pulse, p.m, p.receiver) == ("s2", 2, "sampling")
               for _, p in results):
        results += gain_grid(scenario, ["s2"], alpha_grid[:1], [2], p_err,
                             ["sampling"], ts)
    points = sorted((res for _, res in results if isinstance(res, GainPoint)),
                    key=lambda p: (p.b_tb, p.pulse, p.alpha, p.m, p.receiver))
    failures = [GainFailure(scn, receiver, family,
                            math.nan if alpha is None else alpha, m or 0,
                            str(exc))
                for (scn, receiver, family, alpha, m), exc in results
                if not isinstance(exc, GainPoint)]
    return SweepResult(points=points, failures=failures)
