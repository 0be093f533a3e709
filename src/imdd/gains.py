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


def _avg_power(pulse: pulses.PulseSpec,
               constellation: _bias.Constellation) -> float:
    """mu + E{a} q_bar: the average power per unit amplitude."""
    return (_bias.required_bias(pulse, constellation).mu
            + constellation.mean * pulses.metadata(pulse).q_bar)


def gain_equal_eye(pulse: pulses.PulseSpec,
                   constellation: _bias.Constellation) -> float:
    """Gain in dB at equal eye opening (sampling receiver)."""
    q_zero = link.front_end(pulse, "sampling").h0
    power = _avg_power(pulse, constellation)
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
    return 10.0 * math.log10(ratio * 0.5 / _avg_power(pulse, constellation))


def _check_scenario(scenario: str, p_err: float | None) -> None:
    if scenario not in SCENARIOS:
        raise DomainError(f"scenario must be one of {SCENARIOS}, "
                          f"not {scenario!r}")
    if scenario == "equal-ser" and p_err is None:
        raise DomainError("the equal-ser scenario needs p_err")


def gain_point(scenario: str, receiver: str, pulse: pulses.PulseSpec,
               constellation: _bias.Constellation,
               p_err: float | None = None) -> GainPoint:
    """One fully populated curve point for either scenario."""
    _check_scenario(scenario, p_err)
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
              p_err: float | None = None, receivers=None):
    """``grid`` over families x alpha x M x receivers, keyed
    ``(scenario, receiver, pulse, alpha, m)``.  Without ``receivers`` each
    family gets every receiver valid for it; a family with none yields one
    failure keyed ``(scenario, "", pulse, None, None)``.  An unknown
    scenario, family or receiver, or equal-ser without ``p_err``, fails the
    whole grid: it raises ``DomainError`` before the first point."""
    _check_scenario(scenario, p_err)
    for receiver in receivers or ():
        if receiver not in link.RECEIVERS:
            raise DomainError(f"receiver must be one of {link.RECEIVERS}, "
                              f"not {receiver!r}")
    valid = [(family, valid_receivers(family, scenario))
             for family in pulse_set]

    def point(scenario, receiver, family, alpha, m):
        return gain_point(scenario, receiver,
                          pulses.PulseSpec(family, alpha),
                          _bias.Constellation.pam(m), p_err)

    for family, fam_receivers in valid:
        if receivers is not None:
            fam_receivers = tuple(receivers)
        if not fam_receivers:
            yield (scenario, "", family, None, None), UnsupportedError(
                f"no receiver supports {family} in {scenario}")
        yield from grid(point, ((scenario, receiver, family, alpha, m)
                                for alpha in alphas for m in m_set
                                for receiver in fam_receivers))

