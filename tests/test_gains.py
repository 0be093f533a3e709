"""Average-optical-power gain curves against the sinc^2/OOK/sampling
reference, for the equal-eye-opening and equal-SER scenarios."""

import math

import numpy as np
import pytest

from imdd import bias, gains, link, pulses
from imdd.errors import DomainError, UnsupportedError

OOK = bias.Constellation.pam(2)
PAM4 = bias.Constellation.pam(4)

# brute-force OOK bias anchors reused as independent inputs here
MU_RC6 = 0.184566790565
MU_RRC715 = 0.244731856930


class TestReferenceZero:
    """The reference configuration itself must map to exactly 0 dB in both
    scenarios — that is what pins the absolute level of every curve."""

    def test_equal_eye(self):
        assert gains.gain_equal_eye(pulses.PulseSpec("s2", 0.5), OOK) == 0.0

    def test_equal_ser(self):
        assert gains.gain_equal_ser(
            "sampling", pulses.PulseSpec("s2", 0.5), OOK, 1e-6) == 0.0


class TestEqualEyeAnchors:
    def test_unbiased_ook_upper_bound(self):
        # sdj at alpha=1: mu=0, mean pulse 1/2 -> half the reference power
        g = gains.gain_equal_eye(pulses.PulseSpec("sdj", 1.0), OOK)
        assert g == pytest.approx(10 * math.log10(2.0), abs=1e-9)

    def test_unbiased_4pam(self):
        g = gains.gain_equal_eye(pulses.PulseSpec("sdj", 1.0), PAM4)
        assert g == pytest.approx(10 * math.log10(2.0 / 3.0), abs=1e-9)

    def test_biased_ook_from_frozen_bias(self):
        g = gains.gain_equal_eye(pulses.PulseSpec("rc", 0.6), OOK)
        expected = 10 * math.log10(1.0 / (2.0 * (MU_RC6 + 0.5)))
        assert g == pytest.approx(expected, abs=1e-6)

    def test_more_levels_cost_power(self):
        p = pulses.PulseSpec("rc", 0.5)
        g = [gains.gain_equal_eye(p, bias.Constellation.pam(m))
             for m in (2, 4, 8)]
        assert g[0] > g[1] > g[2]

    def test_needs_a_nyquist_pulse(self):
        with pytest.raises(UnsupportedError):
            gains.gain_equal_eye(pulses.PulseSpec("rrc", 0.5), OOK)


class TestAmpRatioEqualSer:
    def test_binary_matched_rrc_is_sqrt_two(self):
        # OOK keeps the Q-quantile factor at 1 and the unit-energy pulse
        # leaves only the sqrt(2 E / Ts) term
        r = gains.amp_ratio_equal_ser(
            "matched", pulses.PulseSpec("rrc", 0.715), OOK, 1e-6)
        assert r == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_cross_checks_against_link_amplitudes(self):
        """The ratio must equal A_ref/A computed independently from the
        SER-inverting amplitude solver at equal bit rate."""
        p_err = 1e-5
        ref = link.LinkConfig(pulse=pulses.PulseSpec("s2", 0.5, 1.0),
                              constellation=OOK)
        a_ref = link.amplitude_for_ser(ref, p_err)

        # sampling receiver, 4-PAM at two bits per symbol -> ts = 2
        tgt = link.LinkConfig(pulse=pulses.PulseSpec("pl", 0.5, 2.0),
                              constellation=PAM4)
        expected = a_ref / link.amplitude_for_ser(tgt, p_err)
        got = gains.amp_ratio_equal_ser(
            "sampling", pulses.PulseSpec("pl", 0.5), PAM4, p_err)
        assert got == pytest.approx(expected, rel=1e-10)

        # matched receiver
        tgt = link.LinkConfig(pulse=pulses.PulseSpec("rrc", 0.4, 2.0),
                              constellation=PAM4, receiver="matched")
        expected = a_ref / link.amplitude_for_ser(tgt, p_err)
        got = gains.amp_ratio_equal_ser(
            "matched", pulses.PulseSpec("rrc", 0.4), PAM4, p_err)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_receiver_pulse_compatibility(self):
        with pytest.raises(UnsupportedError):
            gains.amp_ratio_equal_ser(
                "sampling", pulses.PulseSpec("rrc", 0.5), OOK, 1e-6)
        with pytest.raises(UnsupportedError):
            gains.amp_ratio_equal_ser(
                "matched", pulses.PulseSpec("rc", 0.5), OOK, 1e-6)
        with pytest.raises(DomainError):
            gains.amp_ratio_equal_ser(
                "coherent", pulses.PulseSpec("rc", 0.5), OOK, 1e-6)

    def test_p_err_window(self):
        with pytest.raises(DomainError):
            gains.amp_ratio_equal_ser(
                "sampling", pulses.PulseSpec("rc", 0.5), OOK, 0.6)

    def test_uniform_pam_required(self):
        with pytest.raises(UnsupportedError):
            gains.amp_ratio_equal_ser(
                "sampling", pulses.PulseSpec("rc", 0.5),
                bias.Constellation((0.0, 1.0, 3.0)), 1e-6)


class TestEqualSerAnchors:
    def test_rrc_matched_ook_from_frozen_bias(self):
        g = gains.gain_equal_ser(
            "matched", pulses.PulseSpec("rrc", 0.715), OOK, 1e-6)
        expected = 10 * math.log10(math.sqrt(2.0) * 0.5 / (MU_RRC715 + 0.5))
        assert g == pytest.approx(expected, abs=1e-6)


class TestGainPoint:
    def test_fields(self):
        pt = gains.gain_point("equal-eye", "sampling",
                              pulses.PulseSpec("rc", 0.5), PAM4)
        assert pt.scenario == "equal-eye"
        assert pt.receiver == "sampling"
        assert pt.pulse == "rc"
        assert pt.alpha == 0.5
        assert pt.m == 4
        assert pt.b_tb == pytest.approx(0.75 / 2.0, rel=1e-12)
        assert pt.q_bar == 1.0
        assert pt.q_zero == 1.0
        assert pt.mu == pytest.approx(3 * 0.250263596842, abs=3e-8)

    def test_equal_ser_point_matches_direct_call(self):
        p = pulses.PulseSpec("xia", 0.5)
        pt = gains.gain_point("equal-ser", "sampling", p, OOK, 1e-6)
        assert pt.gain_db == gains.gain_equal_ser("sampling", p, OOK, 1e-6)


class TestValidReceivers:
    def test_table(self):
        assert gains.valid_receivers("rc", "equal-eye") == ("sampling",)
        assert gains.valid_receivers("rrc", "equal-eye") == ()
        assert gains.valid_receivers("rrc", "equal-ser") == ("matched",)
        assert gains.valid_receivers("xia", "equal-ser") == \
            ("sampling", "matched")
        assert gains.valid_receivers("s2", "equal-ser") == ("sampling",)
        assert gains.valid_receivers("src", "equal-eye") == ("sampling",)


def _sweep(*args, **kwargs):
    """gain_grid's points, and its failures as (key, error text) with keys
    (scenario, receiver, pulse, alpha, m)."""
    results = list(gains.gain_grid(*args, **kwargs))
    points = [res for _, res in results if isinstance(res, gains.GainPoint)]
    failures = [(key, str(res)) for key, res in results
                if not isinstance(res, gains.GainPoint)]
    return points, failures


class TestSweep:
    @pytest.mark.parametrize("scenario, p_err", [
        ("equal-power", None), ("equal-power", 1e-6), ("equal-ser", None)])
    @pytest.mark.parametrize("call", [
        lambda scenario, p_err: gains.gain_point(
            scenario, "sampling", pulses.PulseSpec("rc", 0.5), OOK, p_err),
        lambda scenario, p_err: list(gains.gain_grid(
            scenario, ["rc"], [0.5], [2], p_err))],
        ids=["gain_point", "gain_grid"])
    def test_scenario_checks(self, call, scenario, p_err):
        # an unknown scenario must not pass for equal-ser, and equal-ser
        # without p_err must not end in a bare TypeError
        with pytest.raises(DomainError):
            call(scenario, p_err)

    @pytest.mark.parametrize("receivers", [None, ("sampling",)])
    def test_unknown_family_fails_before_the_first_point(self, receivers):
        # a grid that names an unknown family yields nothing: not even the
        # points of the families before it
        grid = gains.gain_grid("equal-eye", ["rc", "foo"], [0.5], [2],
                               receivers=receivers)
        with pytest.raises(DomainError, match="unknown pulse family"):
            next(grid)

    def test_unknown_receiver_fails_before_the_first_point(self):
        # a forced receiver that does not exist is one error for the whole
        # grid, not one failed point per family, alpha and M
        grid = gains.gain_grid("equal-ser", ["rc", "xia"], [0.5], [2], 1e-6,
                               receivers=("foo",))
        with pytest.raises(DomainError, match="receiver must be one of"):
            next(grid)

    def test_unsupported_family_is_recorded_not_raised(self):
        points, failures = _sweep("equal-eye", ["rrc"], [0.5], [2])
        assert [key[2] for key, _ in failures] == ["rrc"]
        assert points == []

    def test_forced_receiver_failures_are_per_point(self):
        points, failures = _sweep("equal-ser", ["rrc"], [0.4, 0.6], [2],
                                  1e-6, receivers=("sampling",))
        assert len(failures) == 2
        assert all(key[1] == "sampling" for key, _ in failures)
        assert points == []

    def test_equal_eye_rejects_the_matched_receiver(self):
        # equal eye is defined for the sampling receiver only; a forced
        # matched receiver must not yield a row holding the sampling gain
        points, failures = _sweep("equal-eye", ["rc"], [0.5], [2],
                                  receivers=("matched",))
        assert [(key[2], key[1]) for key, _ in failures] == [
            ("rc", "matched")]
        assert "sampling receiver only" in failures[0][1]
        assert points == []

    def test_p_err_beyond_the_reference_is_recorded_not_raised(self):
        # OOK never reaches SER 1/2, so neither can the reference; 4-PAM
        # alone would allow up to 3/4
        for p_err in (0.5, 0.6):
            points, failures = _sweep("equal-ser", ["rc"], [0.5], [4], p_err)
            assert points == []
            assert [(key[2], key[4]) for key, _ in failures] == [("rc", 4)]
            assert all(error == "p_err out of range for this PAM order"
                       for _, error in failures)

    def test_infinite_ts_is_recorded_not_raised(self):
        # gain_grid takes no ts; an alpha out of range is the invalid pulse
        # setting it can be given
        points, failures = _sweep("equal-eye", ["rc"], [1.5], [2])
        assert points == []
        assert all("outside [" in error for _, error in failures)
        assert len(failures) == 1

    def test_divergent_point_is_recorded_not_raised(self):
        # xia at alpha=0.0101 (no small denominator, so a truncated fold)
        # needs more fold terms than the cap; the points before and after
        # it survive
        points, failures = _sweep("equal-ser", ["xia"], [0.0101, 0.5], [2],
                                  1e-6)
        assert sorted((p.pulse, p.alpha, p.receiver) for p in points) == [
            ("xia", 0.5, "matched"), ("xia", 0.5, "sampling")]
        assert sorted((key[3], key[1]) for key, _ in failures) == [
            (0.0101, "matched"), (0.0101, "sampling")]
        assert all(error.startswith("series needs K=")
                   for _, error in failures)

    def test_dual_receiver_family_gets_both_rows(self):
        points, _ = _sweep("equal-ser", ["xia"], [0.5], [2], 1e-6)
        xia_rows = [(p.receiver, p.gain_db) for p in points
                    if p.pulse == "xia"]
        assert sorted(r for r, _ in xia_rows) == ["matched", "sampling"]
        # the two receivers give genuinely different gains for xia
        g = dict(xia_rows)
        assert abs(g["matched"] - g["sampling"]) > 0.01


class TestCurveShape:
    def test_equal_eye_gain_tracks_bias_ordering(self):
        # at fixed bandwidth and order, smaller bias means higher gain
        fams = ("pl", "rc", "poly", "xia")
        mus = [bias.required_bias(pulses.PulseSpec(f, 0.5), OOK).mu
               for f in fams]
        gs = [gains.gain_equal_eye(pulses.PulseSpec(f, 0.5), OOK)
              for f in fams]
        assert np.all(np.diff(mus) > 0)
        assert np.all(np.diff(gs) < 0)

    def test_unbiased_families_improve_with_rolloff(self):
        # sdj mean power falls as (1 - alpha/2), so gain rises with alpha
        g = [gains.gain_equal_eye(pulses.PulseSpec("sdj", a), OOK)
             for a in (0.2, 0.6, 1.0)]
        assert g[0] < g[1] < g[2]
