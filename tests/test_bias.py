"""Worst-case bias search over the folded pulse-train sums.

The frozen mu anchors below were produced by an independent brute-force
oracle (dense t-grid over one period, plain partial sums with a 50,000-term
half-width, parabolic vertex refinement) before being copied here; the
search under test must land on them to ~1e-8.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imdd import _series, bias, pulses
from imdd.errors import DomainError, NumericalDivergenceError

OOK = bias.Constellation.pam(2)

# (family, alpha) -> minimum OOK bias, brute-force values
MU_ANCHORS = {
    ("rc", 0.5): 0.250263596842,
    ("btn", 0.5): 0.207106781111,
    ("pl", 0.5): 0.207106781187,
    ("poly", 0.5): 0.303498467784,
    ("rrc", 0.5): 0.246937572479,
    ("xia", 0.5): 0.411551090590,
    ("rc", 0.6): 0.184566790565,
    ("pl", 0.7): 0.078210169812,
    ("btn", 0.45): 0.240845450418,
    ("poly", 0.3): 0.466843478004,
    ("rrc", 0.715): 0.244731856930,
}


class TestConstellation:
    def test_pam_levels(self):
        assert bias.Constellation.pam(4).levels == (0.0, 1.0, 2.0, 3.0)

    def test_pam_order_validation(self):
        with pytest.raises(DomainError):
            bias.Constellation.pam(1)

    def test_needs_two_levels(self):
        with pytest.raises(DomainError):
            bias.Constellation((0.0,))

    def test_strictly_increasing(self):
        with pytest.raises(DomainError):
            bias.Constellation((0.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            bias.Constellation((1.0, 0.0))

    def test_derived_quantities(self):
        c = bias.Constellation((-3.0, -1.0, 1.0, 3.0))
        assert c.a_hat == 3.0
        assert c.a_check == -3.0
        assert c.midpoint == 0.0
        assert c.mean == 0.0
        assert c.delta_a == 2.0
        assert c.order == 4
        assert c.is_uniform_pam()

    def test_nonuniform_detection(self):
        assert not bias.Constellation((0.0, 1.0, 3.0)).is_uniform_pam()


class TestRequiredBias:
    @pytest.mark.parametrize("family,alpha", sorted(MU_ANCHORS))
    def test_frozen_anchors(self, family, alpha):
        sol = bias.required_bias(pulses.PulseSpec(family, alpha), OOK)
        assert sol.mu == pytest.approx(MU_ANCHORS[(family, alpha)], abs=1e-8)

    @pytest.mark.parametrize("family", ["s2", "src", "sdj"])
    def test_nonnegative_pulses_need_no_bias(self, family):
        # the negative-part fold is 0 and OOK puts no weight on the signed
        # fold, so the objective is exactly zero at every t: there is no
        # search, the result sits at t = 0 and reports the full-accuracy
        # budget a search would use
        p = pulses.PulseSpec(family, 0.5)
        sol = bias.required_bias(p, OOK)
        assert sol.mu == 0.0
        assert sol.argmax_t == 0.0
        assert sol.k_trunc == bias.folded_abs_sum(p, 0.0).k_trunc
        searched = bias.required_bias(p, bias.Constellation((1.0, 2.0)))
        assert sol.k_trunc == searched.k_trunc

    def test_nonnegative_pulse_off_ratio_one_is_searched(self):
        # levels {1, 2}: a_check > 0, so mu = -a_check * min_t sum q, which
        # is not 0 for src (bandwidth above the symbol rate); the closed-form
        # sum q is lowest half a symbol away from the peaks
        p = pulses.PulseSpec("src", 0.5)
        sol = bias.required_bias(p, bias.Constellation((1.0, 2.0)))
        t = np.linspace(0.0, 1.0, 2001)
        fs = bias.folded_signed_sum(p, t).value
        assert sol.mu == pytest.approx(-np.min(fs), abs=1e-7)
        assert sol.mu == pytest.approx(-0.75, abs=1e-6)
        assert sol.argmax_t == 0.5

    def test_levels_share_one_search(self):
        # the negative-part fold does not depend on the levels, so three
        # level sets with different ratios and the peak of sum |q| cost a
        # single search
        bias.clear_caches()
        p = pulses.PulseSpec("rc", 0.45)
        for levels in ((0.0, 1.0), (-1.0, 1.0), (1.0, 2.0)):
            bias.required_bias(p, bias.Constellation(levels))
        bias.peak_abs_sum(p)
        assert bias._search.cache_info().misses == 1

    def test_divergent_tail_raises_before_any_fold(self, monkeypatch):
        # the budget check comes first, so a failing search costs no fold
        calls = []
        folded_pair = _series.folded_pair

        def counting(*args, **kwargs):
            calls.append(args[3])
            return folded_pair(*args, **kwargs)

        monkeypatch.setattr(_series, "folded_pair", counting)
        with pytest.raises(NumericalDivergenceError) as err:
            bias.required_bias(pulses.PulseSpec("xia", 0.01), OOK)
        assert str(err.value) == (
            "series needs K=1009254 > cap 1000000 terms for tolerance 1e-09; "
            "the pulse tail (decay 2, coef 31.831) is too slow — "
            "alpha is likely too small for this accuracy")
        assert calls == []

    def test_nonpositive_tail_tol_is_a_domain_error(self):
        with pytest.raises(DomainError, match="tol must be positive"):
            bias.required_bias(pulses.PulseSpec("rc", 0.5), OOK, tail_tol=0)

    def test_argmax_within_period(self):
        sol = bias.required_bias(pulses.PulseSpec("rc", 0.6), OOK)
        assert 0.0 <= sol.argmax_t < 1.0

    def test_result_metadata(self):
        p = pulses.PulseSpec("rc", 0.5)
        sol = bias.required_bias(p, OOK, grid_n=8192, tail_tol=1e-7)
        assert sol.grid_n == 8192
        assert sol.k_trunc >= 64
        assert sol.refine_tol == pytest.approx(bias.REFINE_TOL_FACTOR * p.ts)

    def test_grid_floor_enforced(self):
        with pytest.raises(DomainError):
            bias.required_bias(pulses.PulseSpec("rc", 0.5), OOK, grid_n=1024)

    def test_no_grid_point_beats_the_search(self):
        # Property oracle: the returned supremum must dominate a dense
        # independent sampling of the same objective over one period.
        p = pulses.PulseSpec("poly", 0.5)
        sol = bias.required_bias(p, OOK)
        t = np.linspace(0.0, 1.0, 20001, endpoint=False)
        fa = bias.folded_abs_sum(p, t, tail_tol=1e-8).value
        fs = bias.folded_signed_sum(p, t).value
        grid_best = 0.5 * np.max(fa - fs)
        assert sol.mu >= grid_best - 1e-7
        assert sol.mu <= grid_best + 1e-4   # grid spacing limits the gap

    def test_pam_order_scaling_is_exact(self):
        """Uniform {0..M-1} grids share midpoint/scale == 1, so every order
        reuses the identical search and mu scales by exactly (M-1)."""
        p = pulses.PulseSpec("btn", 0.45)
        mu2 = bias.required_bias(p, OOK).mu
        for m in (4, 8, 16):
            mum = bias.required_bias(p, bias.Constellation.pam(m)).mu
            assert mum == (m - 1) * mu2

    def test_bipolar_symbols_remove_the_mean_term(self):
        # midpoint 0 -> ratio 0: bias equals a_hat * peak of the abs-sum
        p = pulses.PulseSpec("rc", 0.5)
        c = bias.Constellation((-1.0, 1.0))
        sol = bias.required_bias(p, c)
        peak = bias.peak_abs_sum(p)
        assert sol.mu == pytest.approx(peak.value, rel=1e-12)

    @pytest.mark.parametrize("family", ["rc", "xia"])
    def test_level_shift_identity(self, family):
        """Adding c to every level changes the bias by exactly -c*q_bar when
        the signed folded sum is flat (bandwidth within one symbol rate)."""
        p = pulses.PulseSpec(family, 0.5)
        base = bias.required_bias(p, OOK).mu
        q_bar = pulses.metadata(p).q_bar
        for c in (-0.5, 0.25, 1.0):
            shifted = bias.Constellation((c, 1.0 + c))
            mu_c = bias.required_bias(p, shifted).mu
            assert mu_c == pytest.approx(base - c * q_bar, abs=5e-9)


class TestFoldedSums:
    def test_wide_pulses_are_nonnegative_nyquist(self):
        # the closed-form signed fold gets its first harmonic from q(0) and
        # the search skips N = 0; both rest on this metadata invariant
        for family in pulses.FAMILIES:
            for alpha in (0.01, 0.5, 1.0):
                meta = pulses.metadata(pulses.PulseSpec(family, alpha))
                if meta.b_ts > 1.0:
                    assert meta.nonnegative and meta.is_nyquist, family

    def test_signed_sum_is_flat_for_narrowband_pulses(self):
        # bandwidth <= symbol rate leaves a single spectral line at DC, so
        # the symbol-spaced pulse train sums to q_bar at every offset
        for family in ("rc", "btn", "pl", "poly", "s2", "rrc", "xia"):
            p = pulses.PulseSpec(family, 0.35)
            t = np.linspace(0.0, 1.0, 41)
            fs = bias.folded_signed_sum(p, t).value
            np.testing.assert_allclose(
                fs, pulses.metadata(p).q_bar, rtol=0, atol=1e-7)

    def test_abs_dominates_signed(self):
        p = pulses.PulseSpec("rc", 0.5)
        t = np.linspace(0.0, 1.0, 17)
        fa = bias.folded_abs_sum(p, t).value
        fs = bias.folded_signed_sum(p, t).value
        assert np.all(fa >= np.abs(fs) - 1e-12)

    def test_scalar_input_gives_scalar(self):
        p = pulses.PulseSpec("rc", 0.5)
        out = bias.folded_abs_sum(p, 0.5)
        assert isinstance(out.value, float)
        assert out.k_trunc >= 64

    def test_period_one_in_symbol_time(self):
        p = pulses.PulseSpec("xia", 0.4)
        a = bias.folded_abs_sum(p, 0.3, tail_tol=1e-8).value
        b = bias.folded_abs_sum(p, 0.3 + 3.0, tail_tol=1e-8).value
        assert a == pytest.approx(b, abs=1e-7)


class TestPeakAbsSum:
    def test_consistency_of_reported_parts(self):
        p = pulses.PulseSpec("rc", 0.5)
        res = bias.peak_abs_sum(p)
        assert 0.0 <= res.t_star < 1.0
        fa = bias.folded_abs_sum(p, res.t_star)
        assert res.value == pytest.approx(fa.value, abs=1e-12)
        assert res.k_trunc == fa.k_trunc

    def test_peak_at_least_center_value(self):
        # the lattice sum at t=0 already contains |q(0)| = 1
        res = bias.peak_abs_sum(pulses.PulseSpec("pl", 0.3))
        assert res.value >= 1.0

    @pytest.mark.parametrize("family", ["src", "sdj"])
    def test_wideband_peak_is_q_zero(self, family):
        # nonnegative Nyquist pulse: the train peaks at the symbol instants,
        # where every other pulse is zero
        res = bias.peak_abs_sum(pulses.PulseSpec(family, 0.6))
        assert res.t_star == 0.0
        assert res.value == pytest.approx(1.0, abs=1e-15)


class TestBiasCurve:
    def test_matches_pointwise_calls(self):
        grid = [0.3, 0.5, 0.8]
        curve = bias.bias_curve("rc", grid, OOK)
        assert [a for a, _ in curve] == grid
        for alpha, mu_norm in curve:
            direct = bias.required_bias(pulses.PulseSpec("rc", alpha), OOK)
            assert mu_norm == direct.mu / OOK.a_hat

    def test_normalized_curve_is_order_free(self):
        grid = [0.4, 0.7]
        c2 = bias.bias_curve("rc", grid, OOK)
        c8 = bias.bias_curve("rc", grid, bias.Constellation.pam(8))
        assert c2 == c8

    def test_known_orderings_at_half_alpha(self):
        """At alpha = 0.5 the roster orders xia > poly > rc > rrc > btn ~ pl,
        with the three nonnegative families at zero."""
        mu = {f: bias.required_bias(pulses.PulseSpec(f, 0.5), OOK).mu
              for f in pulses.FAMILIES}
        assert mu["xia"] > mu["poly"] > mu["rc"] > mu["rrc"] > mu["btn"]
        assert mu["btn"] == pytest.approx(mu["pl"], abs=1e-7)
        assert mu["s2"] == mu["src"] == mu["sdj"] == 0.0

    def test_btn_pl_crossover(self):
        """btn needs less bias than pl only on a narrow low-alpha window;
        by 0.7 the ordering has flipped."""
        ook = OOK
        btn_55 = bias.required_bias(pulses.PulseSpec("btn", 0.55), ook).mu
        pl_55 = bias.required_bias(pulses.PulseSpec("pl", 0.55), ook).mu
        btn_70 = bias.required_bias(pulses.PulseSpec("btn", 0.70), ook).mu
        pl_70 = bias.required_bias(pulses.PulseSpec("pl", 0.70), ook).mu
        assert btn_55 < pl_55
        assert pl_70 < btn_70


@settings(max_examples=12, deadline=None)
@given(s=st.floats(0.25, 4.0))
def test_amplitude_scaling_is_exact(s):
    """Scaling every level by s > 0 leaves ratio unchanged, so the cached
    search is reused and mu scales by exactly s."""
    p = pulses.PulseSpec("rc", 0.5)
    base = bias.required_bias(p, OOK).mu
    scaled = bias.Constellation((0.0, s))
    assert bias.required_bias(p, scaled).mu == pytest.approx(
        s * base, rel=1e-15)


@settings(max_examples=8, deadline=None)
@given(alpha=st.floats(0.05, 1.0))
def test_mu_bounded_by_peak_sum(alpha):
    """0 <= mu <= scale * peak_abs_sum for any OOK search point."""
    p = pulses.PulseSpec("rc", alpha)
    mu = bias.required_bias(p, OOK, tail_tol=1e-7).mu
    peak = bias.peak_abs_sum(p, tail_tol=1e-7).value
    assert -1e-9 <= mu <= 0.5 * peak + 1e-9
