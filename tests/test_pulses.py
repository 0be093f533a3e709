"""Closed-form pulse shapes: definitions, metadata table, tail envelopes.

Numeric reference values in this file were frozen from independent
brute-force computations (direct dense-grid sums and integrals) before the
library code under test existed in its final form.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imdd import pulses
from imdd.errors import DomainError

EVEN_FAMILIES = ("rc", "btn", "pl", "poly", "s2", "src", "sdj", "rrc")
NYQUIST_FAMILIES = ("rc", "btn", "pl", "poly", "s2", "src", "sdj", "xia")


class TestSpecValidation:
    def test_families_roster(self):
        assert pulses.FAMILIES == (
            "rc", "btn", "pl", "poly", "s2", "src", "sdj", "rrc", "xia")

    def test_family_is_normalized_to_lowercase(self):
        assert pulses.PulseSpec("RC", 0.5).family == "rc"

    @pytest.mark.parametrize("alpha", [0.0, 0.009, 1.01, -0.3])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(DomainError):
            pulses.PulseSpec("rc", alpha)

    def test_alpha_bounds_inclusive(self):
        pulses.PulseSpec("rc", pulses.ALPHA_MIN)
        pulses.PulseSpec("rc", 1.0)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            pulses.PulseSpec("gauss", 0.5)

    @pytest.mark.parametrize("ts", [0.0, -1.0, np.inf, np.nan])
    def test_ts_positive(self, ts):
        with pytest.raises(DomainError):
            pulses.PulseSpec("rc", 0.5, ts)


class TestCenterValue:
    @pytest.mark.parametrize("family", NYQUIST_FAMILIES)
    def test_unit_peak_at_origin(self, family):
        for alpha in (0.02, 0.4, 1.0):
            p = pulses.PulseSpec(family, alpha)
            assert pulses.evaluate(p, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_rrc_peak_formula(self):
        for alpha in (0.25, 0.715, 1.0):
            p = pulses.PulseSpec("rrc", alpha)
            expected = 1.0 - alpha + 4.0 * alpha / np.pi
            assert pulses.evaluate(p, 0.0) == pytest.approx(expected, rel=1e-14)


class TestRemovableSingularities:
    """Each piecewise definition must be continuous across its special
    points; probe the limit value against nearby regular evaluations."""

    def _continuity(self, p, t_sing):
        q0 = pulses.evaluate(p, t_sing)
        eps = 5e-6 * p.ts
        near = pulses.evaluate(p, np.array([t_sing - eps, t_sing + eps]))
        assert abs(q0 - near[0]) < 1e-4
        assert abs(q0 - near[1]) < 1e-4

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    def test_rc(self, alpha):
        p = pulses.PulseSpec("rc", alpha)
        self._continuity(p, p.ts / (2 * alpha))
        self._continuity(p, -p.ts / (2 * alpha))

    @pytest.mark.parametrize("alpha", [0.3, 0.715, 1.0])
    def test_rrc(self, alpha):
        p = pulses.PulseSpec("rrc", alpha)
        self._continuity(p, p.ts / (4 * alpha))
        self._continuity(p, -p.ts / (4 * alpha))

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    def test_xia_pole_cancellation(self, alpha):
        p = pulses.PulseSpec("xia", alpha)
        t_sing = -p.ts / (2 * alpha)
        self._continuity(p, t_sing)
        expected = (np.pi / 2) * np.sinc(1.0 / (2 * alpha))
        assert pulses.evaluate(p, t_sing) == pytest.approx(expected, rel=1e-9)

    def test_poly_series_branch_matches_direct_formula(self):
        p = pulses.PulseSpec("poly", 0.5)
        # straddle the small-argument switchover
        t = np.array([1e-9, 1e-6, 1e-4, 1e-2])
        q = pulses.evaluate(p, t)
        assert q[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(q))
        # smoothness across the branch: compare against central differences
        h = 1e-7
        for tt in (1e-5, 1e-3):
            left = pulses.evaluate(p, tt - h)
            right = pulses.evaluate(p, tt + h)
            assert abs(left - right) < 1e-5


class TestSymmetry:
    @pytest.mark.parametrize("family", EVEN_FAMILIES)
    def test_even_families(self, family):
        p = pulses.PulseSpec(family, 0.45)
        t = np.linspace(0.05, 7.3, 197)
        np.testing.assert_allclose(
            pulses.evaluate(p, t), pulses.evaluate(p, -t), rtol=0, atol=1e-14)

    def test_xia_is_asymmetric(self):
        p = pulses.PulseSpec("xia", 0.45)
        assert abs(pulses.evaluate(p, 0.3) - pulses.evaluate(p, -0.3)) > 1e-3


class TestNyquistZeroCrossings:
    @pytest.mark.parametrize("family", NYQUIST_FAMILIES)
    def test_zeros_on_symbol_lattice(self, family):
        p = pulses.PulseSpec(family, 0.4)
        k = np.arange(1, 40)
        vals = pulses.evaluate(p, np.concatenate([k, -k]) * p.ts)
        assert np.max(np.abs(vals)) < 1e-12

    def test_rrc_not_isi_free_at_lattice(self):
        p = pulses.PulseSpec("rrc", 0.5)
        k = np.arange(1, 10)
        assert np.max(np.abs(pulses.evaluate(p, k * p.ts))) > 1e-3


class TestNonnegativeFamilies:
    @pytest.mark.parametrize("family", ["s2", "src", "sdj"])
    def test_never_negative(self, family):
        p = pulses.PulseSpec(family, 0.6)
        t = np.linspace(-30, 30, 20001)
        assert np.min(pulses.evaluate(p, t)) >= 0.0

    def test_src_is_square_of_rc(self):
        rc = pulses.PulseSpec("rc", 0.35)
        src = pulses.PulseSpec("src", 0.35)
        t = np.linspace(-8, 8, 1001)
        np.testing.assert_allclose(
            pulses.evaluate(src, t), pulses.evaluate(rc, t) ** 2,
            rtol=0, atol=1e-14)

    def test_s2_ignores_alpha(self):
        t = np.linspace(-5, 5, 301)
        a = pulses.evaluate(pulses.PulseSpec("s2", 0.1), t)
        b = pulses.evaluate(pulses.PulseSpec("s2", 0.9), t)
        np.testing.assert_array_equal(a, b)


class TestMetadataTable:
    def test_mean_values(self):
        alpha = 0.4
        for family in pulses.FAMILIES:
            meta = pulses.metadata(pulses.PulseSpec(family, alpha))
            if family == "src":
                assert meta.q_bar == pytest.approx(1 - alpha / 4, rel=1e-14)
            elif family == "sdj":
                assert meta.q_bar == pytest.approx(1 - alpha / 2, rel=1e-14)
            else:
                assert meta.q_bar == 1.0

    def test_bandwidth_values(self):
        alpha = 0.4
        expect = {"rc": 0.7, "btn": 0.7, "pl": 0.7, "poly": 0.7, "rrc": 0.7,
                  "xia": 0.7, "s2": 1.0, "src": 1.4, "sdj": 1.4}
        for family, b in expect.items():
            meta = pulses.metadata(pulses.PulseSpec(family, alpha))
            assert meta.b_ts == pytest.approx(b, rel=1e-14)

    def test_flags(self):
        flags = {f: pulses.metadata(pulses.PulseSpec(f, 0.4)) for f in pulses.FAMILIES}
        assert all(flags[f].is_nyquist for f in NYQUIST_FAMILIES)
        assert not flags["rrc"].is_nyquist
        assert flags["rrc"].is_root_nyquist
        assert flags["xia"].is_root_nyquist          # both properties at once
        assert not flags["rc"].is_root_nyquist

    @pytest.mark.parametrize("family", pulses.FAMILIES)
    def test_nonnegative_flag_matches_the_closed_forms(self, family):
        # the flag lets the bias search skip nonnegative pulses, so it must
        # be true exactly where q never dips below 0 (btn at alpha = 1 and
        # pl below alpha = 1 have negative lobes)
        u = np.linspace(-200.0, 200.0, 400 * 64 + 1) + 1.0 / 128
        for alpha in (0.01, 0.1, 0.5, 1.0):
            p = pulses.PulseSpec(family, alpha)
            q_min = np.min(pulses.evaluate(p, u * p.ts))
            if pulses.metadata(p).nonnegative:
                assert q_min >= 0.0, (family, alpha)
            else:
                assert q_min < 0.0, (family, alpha)

    def test_mean_matches_numeric_integral(self):
        # q_bar must equal (1/ts) * integral of q; Riemann sum over a wide
        # window is an independent check of the tabulated answer.
        for family in ("rc", "sdj", "src", "rrc"):
            p = pulses.PulseSpec(family, 0.6)
            t = np.arange(-400, 400, 1 / 64) * p.ts
            approx = np.sum(pulses.evaluate(p, t)) * (p.ts / 64) / p.ts
            assert approx == pytest.approx(
                pulses.metadata(p).q_bar, abs=5e-4)


class TestTailEnvelope:
    @pytest.mark.parametrize("family", pulses.FAMILIES)
    def test_envelope_dominates_tail(self, family):
        for alpha in (0.1, 0.5, 1.0):
            p = pulses.PulseSpec(family, alpha)
            power, coef, u0 = pulses.tail_envelope(p)
            u = np.linspace(max(u0, 1.0) + 0.05, 2000.0, 30011)
            q = np.abs(pulses.evaluate(p, u * p.ts))
            bound = coef / u ** power
            assert np.all(q <= bound * (1 + 1e-9))

    def test_envelope_scales_with_ts(self):
        a = pulses.tail_envelope(pulses.PulseSpec("rc", 0.5, 1.0))
        b = pulses.tail_envelope(pulses.PulseSpec("rc", 0.5, 2.5))
        assert a == b   # stated in symbol-duration units


class TestSpectralQuantities:
    def test_spectrum_dc_equals_area(self):
        for family in ("rc", "rrc", "sdj"):
            p = pulses.PulseSpec(family, 0.6)
            meta = pulses.metadata(p)
            s0 = pulses.spectrum_at(p, 0.0)
            assert complex(s0).real == pytest.approx(meta.q_bar * p.ts, rel=1e-8)
            assert abs(complex(s0).imag) < 1e-10

    def test_energy_positive_and_scale(self):
        p1 = pulses.PulseSpec("rrc", 0.4, 1.0)
        p2 = pulses.PulseSpec("rrc", 0.4, 2.0)
        e1, e2 = pulses.energy(p1), pulses.energy(p2)
        assert e1 > 0
        assert e2 == pytest.approx(2.0 * e1, rel=1e-8)

    def test_autocorrelation_peak_is_energy(self):
        p = pulses.PulseSpec("xia", 0.5)
        assert pulses.autocorrelation(p, 0.0) == pytest.approx(
            pulses.energy(p), rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.02, 1.0),
       u=st.floats(-50.0, 50.0, allow_nan=False))
def test_rc_bounded_by_one(alpha, u):
    p = pulses.PulseSpec("rc", alpha)
    assert abs(pulses.evaluate(p, u * p.ts)) <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.02, 1.0), ts=st.floats(0.1, 10.0))
def test_time_scaling_invariance(alpha, ts):
    """q(t; ts) must equal q(t/ts; 1) — the shape depends only on t/ts."""
    base = pulses.PulseSpec("btn", alpha, 1.0)
    scaled = pulses.PulseSpec("btn", alpha, ts)
    probe = np.array([0.3, 1.7, 4.2])
    np.testing.assert_allclose(pulses.evaluate(scaled, probe * ts),
                               pulses.evaluate(base, probe),
                               rtol=1e-13, atol=1e-13)
