"""Worst-case bias search over the folded pulse-train sums.

The mu anchors below are closed forms where the maths gives one: (sqrt 2 -
1)/2 for btn and pl at alpha = 0.5, 4/pi - 1 for rrc and xia at alpha = 1.
pl at 0.7 and xia at 0.5 come from the exact class-sum oracles.  The others
were produced by an independent brute-force oracle (dense t-grid over one
period, plain partial sums with a 50,000-term half-width, parabolic vertex
refinement) before being copied here.  The search under test must land on
them to ~1e-8, and on pl's and xia's, which it sums exactly, to rounding.
The oracles of ``oracles.py`` check pl and xia exactly and the other
families from below.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imdd import _series, bias, cli, pulses, waveform
from imdd.errors import DomainError, NumericalDivergenceError

from oracles import (partial_fold, partial_sum_bias, pl_exact_bias,
                     pl_exact_fold, pl_zeta_fold, xia_exact_bias, xia_psi_fold)

EXACT_BIAS = {"pl": pl_exact_bias, "xia": xia_exact_bias}

OOK = bias.Constellation.pam(2)
# levels {-1, 1}: midpoint 0 and a_hat 1, so the bias is the peak of sum |q|
BIPOLAR = bias.Constellation((-1.0, 1.0))


def _period(alpha):
    """The class period P = 2d of an alpha that the library sums exactly."""
    return 2 * bias._snap(alpha).denominator


def _abs_fold(pulse, t, tol=bias.DEFAULT_TAIL_TOL):
    """sum_k |q(t - k ts)| = F + 2 N from the search's own helpers, with the
    negative-part fold N summed to the tolerance tol."""
    return (bias._signed(pulse, t)
            + 2.0 * bias._fold(pulse, t, bias._k_for(pulse, tol)))


# (family, alpha) -> minimum OOK bias: closed forms where there is one,
# brute-force values otherwise
MU_ANCHORS = {
    ("rc", 0.5): 0.250263596842,
    ("btn", 0.5): (np.sqrt(2.0) - 1.0) / 2.0,
    ("pl", 0.5): (np.sqrt(2.0) - 1.0) / 2.0,
    ("rrc", 1.0): 4.0 / np.pi - 1.0,
    ("xia", 1.0): 4.0 / np.pi - 1.0,
    ("poly", 0.5): 0.303498467784,
    ("rrc", 0.5): 0.246937572479,
    ("xia", 0.5): xia_exact_bias(0.5),
    ("rc", 0.6): 0.184566790565,
    ("pl", 0.7): pl_exact_bias(0.7),
    ("btn", 0.45): 0.240845450418,
    ("poly", 0.3): 0.466843478004,
    ("rrc", 0.715): 0.244731856930,
}
# pl's and xia's anchors are exact and so are their folds, so they must be
# met to rounding; the others hold to the truncated fold's accuracy
ANCHOR_TOL = {("pl", 0.5): 1e-13, ("pl", 0.7): 1e-12, ("xia", 1.0): 1e-13,
              ("xia", 0.5): 1e-12}


class TestConstellation:
    def test_pam_levels(self):
        assert bias.Constellation.pam(4).levels == (0.0, 1.0, 2.0, 3.0)

    def test_pam_order_validation(self):
        with pytest.raises(DomainError):
            bias.Constellation.pam(1)

    @pytest.mark.parametrize("m", [2.5, 4.0, "4"])
    def test_pam_order_is_an_integer(self, m):
        # range(2.5) would raise a bare TypeError
        with pytest.raises(DomainError, match="PAM order must be an integer"):
            bias.Constellation.pam(m)

    def test_pam_order_accepts_numpy_integers(self):
        assert bias.Constellation.pam(np.int64(4)) == bias.Constellation.pam(4)

    def test_needs_two_levels(self):
        with pytest.raises(DomainError):
            bias.Constellation((0.0,))

    @pytest.mark.parametrize("levels", [
        (0.0, float("nan")), (0.0, float("inf")), (float("-inf"), 0.0),
        (float("nan"), 0.0, 1.0)])
    def test_levels_must_be_finite(self, levels):
        # a level that is not finite would make every bias nan
        with pytest.raises(DomainError, match="levels must be finite"):
            bias.Constellation(levels)

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
        tol = ANCHOR_TOL.get((family, alpha), 1e-8)
        assert sol.mu == pytest.approx(MU_ANCHORS[(family, alpha)], abs=tol)

    @pytest.mark.parametrize("family", ["s2", "src", "sdj"])
    def test_nonnegative_pulses_need_no_bias(self, family):
        # the negative-part fold is 0 and OOK puts no weight on the signed
        # fold, so the objective is exactly zero at every t: there is no
        # search, and the result sits at t = 0 with no fold budget
        p = pulses.PulseSpec(family, 0.5)
        sol = bias.required_bias(p, OOK)
        assert sol.mu == 0.0
        assert sol.argmax_t == 0.0
        assert sol.k_trunc == 0
        searched = bias.required_bias(p, bias.Constellation((1.0, 2.0)))
        assert sol.k_trunc == searched.k_trunc

    def test_nonnegative_pulse_off_ratio_one_is_searched(self):
        # levels {1, 2}: a_check > 0, so mu = -a_check * min_t sum q, which
        # is not 0 for src (bandwidth above the symbol rate); the closed-form
        # sum q is lowest half a symbol away from the peaks
        p = pulses.PulseSpec("src", 0.5)
        sol = bias.required_bias(p, bias.Constellation((1.0, 2.0)))
        t = np.linspace(0.0, 1.0, 2001)
        fs = bias._signed(p, t)
        assert sol.mu == pytest.approx(-np.min(fs), abs=1e-7)
        assert sol.mu == pytest.approx(-0.75, abs=1e-6)
        assert sol.argmax_t == 0.5

    def test_levels_share_one_search(self):
        # the negative-part fold does not depend on the levels, so three
        # level sets with different ratios, the bipolar one giving the peak
        # of sum |q|, cost a single search
        bias.clear_caches()
        p = pulses.PulseSpec("rc", 0.45)
        for levels in ((0.0, 1.0), (-1.0, 1.0), (1.0, 2.0)):
            bias.required_bias(p, bias.Constellation(levels))
        assert bias._search.cache_info().misses == 1

    @pytest.mark.parametrize("ts", [1e-3, 2.5, 1e306])
    @pytest.mark.parametrize("family, levels", [
        ("rc", (0.0, 1.0)), ("xia", (0.0, 1.0, 2.0, 3.0)),
        ("pl", (-1.0, 1.0)), ("src", (1.0, 2.0))])
    def test_bias_does_not_depend_on_ts(self, family, levels, ts):
        # q at period ts is q(t/ts) at period 1; at ts = 1e306 the fold's
        # shifts t - j ts would overflow to a nan bias
        c = bias.Constellation(levels)
        unit = bias.required_bias(pulses.PulseSpec(family, 0.5), c)
        sol = bias.required_bias(pulses.PulseSpec(family, 0.5, ts), c)
        assert sol.mu == unit.mu
        assert sol.argmax_t == unit.argmax_t * ts
        assert sol.k_trunc == unit.k_trunc

    @pytest.mark.parametrize("levels", [
        (-1.7e308, 1.7e308), (-1.79e308, -1e308)])
    def test_overflowing_levels_are_a_domain_error(self, levels):
        # finite levels whose bias overflows gave mu = inf or nan
        with pytest.raises(DomainError, match="overflows"):
            bias.required_bias(pulses.PulseSpec("rc", 0.5),
                               bias.Constellation(levels))

    def test_divergent_tail_raises_before_any_fold(self, monkeypatch):
        # the budget check comes first, so a failing search costs no fold
        calls = []
        folded_pair = _series.folded_pair

        def counting(*args, **kwargs):
            calls.append(args[3])
            return folded_pair(*args, **kwargs)

        monkeypatch.setattr(_series, "folded_pair", counting)
        with pytest.raises(NumericalDivergenceError) as err:
            # 0.0101 = 101/10000 has no small denominator, so xia takes
            # the truncated fold there
            bias.required_bias(pulses.PulseSpec("xia", 0.0101), OOK)
        assert str(err.value) == (
            "series needs K=1004245 > cap 1000000 terms for tolerance 1e-09; "
            "the pulse tail (decay 2, coef 31.5158) is too slow — "
            "alpha is likely too small for this accuracy")
        assert calls == []

    def test_exact_and_truncated_pl_paths_agree(self):
        # 0.7 = 7/10 is summed exactly over P = 20 residue classes; 0.7 +
        # 1e-12 has no small denominator, so it takes the truncated fold
        # at its full-accuracy budget
        exact = bias.required_bias(pulses.PulseSpec("pl", 0.7), OOK)
        near = pulses.PulseSpec("pl", 0.7 + 1e-12)
        truncated = bias.required_bias(near, OOK)
        assert exact.k_trunc == 20
        assert truncated.k_trunc == bias._k_for(near, bias.DEFAULT_TAIL_TOL)
        assert abs(exact.mu - truncated.mu) <= 2e-9

    def test_exact_and_truncated_xia_paths_agree(self):
        # as for pl: 0.7 over P = 20 classes, 0.7 + 1e-12 truncated
        exact = bias.required_bias(pulses.PulseSpec("xia", 0.7), OOK)
        near = pulses.PulseSpec("xia", 0.7 + 1e-12)
        truncated = bias.required_bias(near, OOK)
        assert exact.k_trunc == 20
        assert truncated.k_trunc == bias._k_for(near, bias.DEFAULT_TAIL_TOL)
        assert abs(exact.mu - truncated.mu) <= 2e-9

    def test_xia_at_alpha_one_refines_at_most_two_basins(self, monkeypatch):
        # N = 0 on half the period at alpha = 1, so 2,048 of the grid's
        # 2,049 local maxima are ties at 0; only those with N > 0 are refined
        calls = []
        golden_max = _series.golden_max

        def counting(*args, **kwargs):
            calls.append(args[1])
            return golden_max(*args, **kwargs)

        monkeypatch.setattr(_series, "golden_max", counting)
        bias.clear_caches()
        sol = bias.required_bias(pulses.PulseSpec("xia", 1.0), OOK)
        assert 1 <= len(calls) <= 2
        assert sol.k_trunc == 2
        # the class tables are memos too, so a cold pass rebuilds them
        assert bias._classes.cache_info().currsize > 0
        bias.clear_caches()
        assert bias._search.cache_info().currsize == 0
        assert bias._classes.cache_info().currsize == 0

    def test_pl_at_alpha_one_is_not_searched(self, monkeypatch):
        # sinc^2 never goes negative, so no fold is budgeted or summed
        def no_fold(*args, **kwargs):
            raise AssertionError("pl at alpha = 1 needed a fold")

        monkeypatch.setitem(bias._EXACT, "pl", no_fold)
        monkeypatch.setattr(_series, "folded_pair", no_fold)
        monkeypatch.setattr(_series, "k_for_tol", no_fold)
        bias.clear_caches()
        sol = bias.required_bias(pulses.PulseSpec("pl", 1.0), OOK)
        assert (sol.mu, sol.argmax_t, sol.k_trunc) == (0.0, 0.0, 0)

    @pytest.mark.parametrize("family,alpha", [
        ("s2", 0.5), ("src", 0.5), ("sdj", 0.5),
        ("pl", float(np.nextafter(1.0, 0.0)))])
    def test_nonnegative_pulses_budget_nothing(self, monkeypatch, family,
                                               alpha):
        # N = 0 at every t, so no fold is budgeted or summed; pl 1 ulp
        # below 1 is solved at 1, where it is sinc^2
        def no_fold(*args, **kwargs):
            raise AssertionError(f"{family} at {alpha!r} needed a fold")

        monkeypatch.setattr(_series, "k_for_tol", no_fold)
        monkeypatch.setattr(_series, "folded_pair", no_fold)
        monkeypatch.setitem(bias._EXACT, "pl", no_fold)
        bias.clear_caches()
        sol = bias.required_bias(pulses.PulseSpec(family, alpha), OOK)
        assert (sol.mu, sol.argmax_t, sol.k_trunc) == (0.0, 0.0, 0)

    @pytest.mark.parametrize("family,alpha,toward", [
        ("xia", 0.01, 1.0), ("pl", 0.99, 0.0)])
    def test_one_ulp_off_is_solved_at_the_fraction(self, family, alpha,
                                                   toward):
        # xia 1 ulp above 0.01 overran the truncated fold's term cap, and
        # pl 1 ulp below 0.99 fell 1.9e-4 (10% of the bias) short on it
        nudged = float(np.nextafter(alpha, toward))
        assert bias._snap(nudged) == Fraction(alpha).limit_denominator(200)
        assert (bias.required_bias(pulses.PulseSpec(family, nudged), OOK)
                == bias.required_bias(pulses.PulseSpec(family, alpha), OOK))

    def test_ulp_neighbours_run_one_search(self, monkeypatch):
        # 0.1 + 0.2 is 1 ulp above 0.3, so it reuses 0.3's cached search
        bias.clear_caches()
        first = bias.required_bias(pulses.PulseSpec("pl", 0.3), OOK)
        calls = []
        golden_max = _series.golden_max

        def counting(*args, **kwargs):
            calls.append(args[1])
            return golden_max(*args, **kwargs)

        monkeypatch.setattr(_series, "golden_max", counting)
        second = bias.required_bias(pulses.PulseSpec("pl", 0.1 + 0.2), OOK)
        assert calls == []
        assert second == first

    def test_argmax_within_period(self):
        sol = bias.required_bias(pulses.PulseSpec("rc", 0.6), OOK)
        assert 0.0 <= sol.argmax_t < 1.0

    def test_no_grid_point_beats_the_search(self):
        # Property oracle: the returned supremum must dominate a dense
        # independent sampling of the same objective over one period.
        p = pulses.PulseSpec("poly", 0.5)
        sol = bias.required_bias(p, OOK)
        t = np.linspace(0.0, 1.0, 20001, endpoint=False)
        fa = _abs_fold(p, t, tol=1e-8)
        fs = bias._signed(p, t)
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
        c = bias.Constellation((-3.0, -1.0, 1.0, 3.0))
        sol = bias.required_bias(p, c)
        peak = bias.required_bias(p, BIPOLAR).mu
        assert sol.mu == pytest.approx(3.0 * peak, rel=1e-12)

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
            fs = bias._signed(p, t)
            np.testing.assert_allclose(
                fs, pulses.metadata(p).q_bar, rtol=0, atol=1e-7)

    def test_abs_dominates_signed(self):
        p = pulses.PulseSpec("rc", 0.5)
        t = np.linspace(0.0, 1.0, 17)
        fa = _abs_fold(p, t)
        fs = bias._signed(p, t)
        assert np.all(fa >= np.abs(fs) - 1e-12)

    def test_scalar_input_gives_scalar(self):
        # the search reads one fold value at a scalar offset
        p = pulses.PulseSpec("rc", 0.5)
        assert isinstance(bias._signed(p, 0.5), float)
        k = bias._k_for(p, bias.DEFAULT_TAIL_TOL)
        assert bias._fold(p, 0.5, k).shape == (1,)
        assert k >= 64

    def test_period_one_in_symbol_time(self):
        p = pulses.PulseSpec("xia", 0.4)
        a = _abs_fold(p, 0.3, tol=1e-8)
        b = _abs_fold(p, 0.3 + 3.0, tol=1e-8)
        assert a == pytest.approx(b, abs=1e-7)


class TestPeakAbsSum:
    def test_consistency_of_reported_parts(self):
        p = pulses.PulseSpec("rc", 0.5)
        res = bias.required_bias(p, BIPOLAR)
        assert 0.0 <= res.argmax_t < 1.0
        fa = float(_abs_fold(p, res.argmax_t)[0])
        assert res.mu == pytest.approx(fa, abs=1e-12)
        assert res.k_trunc == bias._k_for(p, bias.DEFAULT_TAIL_TOL)

    def test_peak_at_least_center_value(self):
        # the lattice sum at t=0 already contains |q(0)| = 1
        res = bias.required_bias(pulses.PulseSpec("pl", 0.3), BIPOLAR)
        assert res.mu >= 1.0

    @pytest.mark.parametrize("family", ["src", "sdj"])
    def test_wideband_peak_is_q_zero(self, family):
        # nonnegative Nyquist pulse: the train peaks at the symbol instants,
        # where every other pulse is zero
        res = bias.required_bias(pulses.PulseSpec(family, 0.6), BIPOLAR)
        assert res.argmax_t == 0.0
        assert res.mu == pytest.approx(1.0, abs=1e-15)


class TestBiasCurve:
    def test_matches_pointwise_calls(self, tmp_path):
        # the curve the bias command writes is the pointwise library bias
        out = tmp_path / "curve.json"
        assert cli.main(["bias", "--pulse", "rc", "--alpha", "0.3:0.8:0.25",
                         "--format", "json", "-o", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [row["alpha"] for row in rows] == [0.3, 0.55, 0.8]
        for row in rows:
            direct = bias.required_bias(pulses.PulseSpec("rc", row["alpha"]),
                                        OOK)
            assert row["mu_norm"] == direct.mu / OOK.a_hat

    def test_normalized_curve_is_order_free(self):
        pam8 = bias.Constellation.pam(8)
        for alpha in (0.4, 0.7):
            p = pulses.PulseSpec("rc", alpha)
            assert (bias.required_bias(p, OOK).mu / OOK.a_hat
                    == bias.required_bias(p, pam8).mu / pam8.a_hat)

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
    """0 <= mu <= scale * peak of sum |q| for any OOK search point."""
    p = pulses.PulseSpec("rc", alpha)
    mu = bias.required_bias(p, OOK).mu
    peak = bias.required_bias(p, BIPOLAR).mu
    assert -1e-9 <= mu <= 0.5 * peak + 1e-9


def test_exact_pl_fold_matches_partial_sums():
    # the class sums against a plain partial sum to |k| <= 20000, whose
    # tail is below 2 / (pi^2 alpha 20000) ~ 1.1e-5
    t = np.array([0.1, 0.3, 0.5])
    k = np.arange(-20_000, 20_001)
    for alpha in (0.5, 0.85, 0.99):
        u = t[:, None] - k
        plain = np.maximum(-np.sinc(u) * np.sinc(alpha * u), 0.0).sum(axis=1)
        exact = pl_exact_fold(alpha, t)
        assert np.all(exact >= plain)
        assert np.all(exact - plain < 2e-5)


def test_exact_pl_fold_matches_hurwitz_zeta_classes():
    # the library and pl_exact_fold share the csc^2 class sum; mpmath's
    # Hurwitz zeta sums each class without it
    for alpha in (0.5, 0.7, 0.95):
        period = _period(alpha)
        for t in (0.1, 0.3, 0.5):
            fold = float(bias._pl_fold(alpha, period, t)[0])
            assert fold == pytest.approx(pl_zeta_fold(alpha, t), rel=1e-13)


def test_exact_xia_fold_matches_partial_sums():
    # against a plain partial sum to |k| <= 20000; the negative tail
    # beyond it is below 1 / (pi alpha 20000) ~ 3.2e-5 at alpha = 0.5
    t = np.array([0.1, 0.5, 0.8])
    for alpha in (0.5, 0.7, 0.99):
        plain = partial_fold(pulses.PulseSpec("xia", alpha), t, 20_000)
        exact = bias._xia_fold(alpha, _period(alpha), t)
        assert np.all(exact >= plain)
        assert np.all(exact - plain < 1.0 / (np.pi * alpha * 20_000))


def test_exact_xia_fold_matches_digamma_classes():
    # the library sums each class by its cotangent; mpmath sums the two
    # half-lines where the class keeps its sign with digamma differences
    for alpha in (0.3, 0.7, 0.99):
        period = _period(alpha)
        for t in (0.1, 0.5, 0.83):
            fold = float(bias._xia_fold(alpha, period, t)[0])
            assert fold == pytest.approx(xia_psi_fold(alpha, t), rel=1e-13)


@pytest.mark.parametrize("alpha", [0.01, 0.3, 0.4, 1.0])
def test_exact_xia_fold_is_exact_next_to_its_poles(alpha):
    # within 1e-10 of the offsets where a shift sits on x = -b or x = 0,
    # and on them (alpha = 0.4: t = 0.75 puts x = -1.25 = -b exactly), the
    # class factor and the cotangent sines vanish together; the fold must
    # keep its absolute accuracy there
    b = 0.5 / alpha
    poles = [j - b for j in range(60) if -0.4 < j - b < 1.4] + [0.0, 1.0]
    t = np.array([p + d for p in poles for d in (-1e-10, 0.0, 1e-10)])
    fold = bias._xia_fold(alpha, _period(alpha), t)
    oracle = np.array([xia_psi_fold(alpha, tt) for tt in t])
    np.testing.assert_allclose(fold, oracle, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("alpha", [0.01, 0.1, 0.4, 0.5, 0.7, 0.9, 0.99, 1.0])
@pytest.mark.parametrize("family", ["pl", "xia"])
def test_exact_fold_value_depends_only_on_its_offset(monkeypatch, family,
                                                     alpha):
    # on the search's own grid, every value is bit for bit the one a call
    # at that offset alone gives, whatever the piece size: no value may
    # depend on which other offsets share its piece
    fold, period = bias._EXACT[family], _period(alpha)
    grid, _ = bias._coarse_grid(family)
    alone = np.array([fold(alpha, period, t)[0] for t in grid])
    for elems in (1, 37, 8192):
        monkeypatch.setattr(_series, "EVAL_CHUNK_ELEMS", elems)
        np.testing.assert_array_equal(fold(alpha, period, grid), alone)


# fig4's alpha grid as np.arange builds it: 171 of its 199 values lie 1-2
# ulp off k/200, where the library used to take the truncated fold
ARANGE_ALPHAS = np.arange(0.01, 1.0 + 1e-9, 0.005)


def test_float_grids_snap_to_their_fractions():
    # np.linspace lands up to 1 ulp off k/200 and a running sum up to 7
    running = np.cumsum(np.r_[0.01, np.full(198, 0.005)])
    fractions = [Fraction(k, 200) for k in range(2, 201)]
    assert sum(a != k / 200 for k, a in zip(range(2, 201),
                                            ARANGE_ALPHAS)) == 171
    for grid in (ARANGE_ALPHAS, np.linspace(0.01, 1.0, 199), running):
        assert [bias._snap(float(a)) for a in grid] == fractions


@pytest.mark.parametrize("family", ["pl", "xia"])
def test_float_grid_alpha_solve_as_their_rounded_alpha(family):
    # bit for bit, at a dozen of the grid's alpha that lie off k/200
    off = [float(a) for a in ARANGE_ALPHAS if float(a) != round(a, 12)]
    picks = off[::16][:10] + [a for a in off if round(a, 12) in (0.99, 0.995)]
    assert len(picks) == 12
    for alpha in picks:
        assert (bias.required_bias(pulses.PulseSpec(family, alpha), OOK)
                == bias.required_bias(
                    pulses.PulseSpec(family, round(alpha, 12)), OOK))


@pytest.mark.parametrize("family", ["pl", "xia", "rc"])
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64,
                                   np.longdouble], ids=lambda t: t.__name__)
def test_numpy_scalar_alpha_solves_as_its_float(family, dtype):
    # the exact folds take Fraction(alpha), which refuses a numpy float32
    alpha = dtype(0.3)
    sol = bias.required_bias(pulses.PulseSpec(family, alpha), OOK)
    peak = waveform.optical_powers(pulses.PulseSpec(family, alpha), OOK,
                                   mu=sol.mu).p_max
    bias.clear_caches()
    pulse = pulses.PulseSpec(family, float(alpha))
    assert sol == bias.required_bias(pulse, OOK)
    assert peak == waveform.optical_powers(pulse, OOK, mu=sol.mu).p_max


@pytest.mark.parametrize("alpha", [0.01, 0.1, 0.3, 0.5, 0.9, 0.99, 1.0])
def test_xia_bias_reaches_the_exact_fold(alpha):
    # two-sided, as for pl; 0.01 overran the truncated fold's term cap
    oracle = xia_exact_bias(alpha)
    if alpha == 1.0:
        assert oracle == pytest.approx(4.0 / np.pi - 1.0, rel=0, abs=1e-15)
    mu = bias.required_bias(pulses.PulseSpec("xia", alpha), OOK).mu
    assert abs(mu - oracle) <= 1e-12


@pytest.mark.parametrize("alpha", [
    0.01, 0.015, 0.5, 0.85, 0.9, 0.95, 0.97, 0.975, 0.98, 0.985, 0.99,
    0.995])
def test_pl_bias_reaches_the_exact_fold(alpha):
    # two-sided: the solver sums pl's fold exactly at these alpha (P up to
    # 400 classes at 0.015), so it may neither undershoot nor overshoot
    oracle = pl_exact_bias(alpha)
    if alpha == 0.5:
        assert oracle == pytest.approx((np.sqrt(2.0) - 1.0) / 2.0,
                                       rel=0, abs=1e-15)
    mu = bias.required_bias(pulses.PulseSpec("pl", alpha), OOK).mu
    assert abs(mu - oracle) <= 1e-12


# The coarse stage's [:6] cap drops btn 0.965's winning basin (ROADMAP
# item 1).  poly's maximum sits at t = ts/2, which the search finds, so the
# poly misses lie in the fold's tail model, which falls short of tail_tol.
# pl at 0.9899 (d = 10,000) is 1.9e-4 short: its stage-1 surrogate keeps
# two basins near t = 0.17 and never refines the argmax at t = 0.4955.
_BASIN_MISS = pytest.mark.xfail(
    strict=True, reason="bias search drops btn's winning basin")
_TAIL_MISS = pytest.mark.xfail(
    strict=True, reason="poly's fold tail model misses tail_tol near 1")
_SURROGATE_MISS = pytest.mark.xfail(
    strict=True, reason="pl's stage-1 surrogate misranks its basins near 1")


@pytest.mark.parametrize("family,alpha", [
    pytest.param("btn", 0.965, marks=_BASIN_MISS), ("btn", 0.9),
    ("btn", 0.99), ("rrc", 0.9), ("rrc", 0.99), ("poly", 0.95),
    pytest.param("poly", 0.99, marks=_TAIL_MISS),
    pytest.param("poly", 0.995, marks=_TAIL_MISS),
    pytest.param("pl", 0.9899, marks=_SURROGATE_MISS)])
def test_bias_reaches_a_partial_sum_lower_bound(family, alpha):
    # a plain partial sum at K = 10^6 (2*10^4 for poly's 1/t^4 tail, whose
    # rest is far below tail_tol) bounds N from below, so the solver's mu
    # may fall short of it by tail_tol at most
    pulse = pulses.PulseSpec(family, alpha)
    bound = partial_sum_bias(pulse, 20_000 if family == "poly" else 10**6)
    mu = bias.required_bias(pulse, OOK).mu
    assert mu >= bound - bias.DEFAULT_TAIL_TOL


# At d = 2,000 the truncated fold falls 1.5e-9 (pl) and 1.1e-9 (xia) short
# of the exact maximum over P = 4,000 classes.
_LARGE_DEN_MISS = pytest.mark.xfail(
    strict=True, reason="the truncated fold misses tail_tol at d = 2000")


@pytest.mark.parametrize("alpha", [
    0.501, pytest.param(0.5005, marks=_LARGE_DEN_MISS)])
@pytest.mark.parametrize("family", ["pl", "xia"])
def test_truncated_fold_reaches_the_exact_fold(family, alpha):
    # d = 1,000 and 2,000 lie above _MAX_DEN, so the library takes the
    # truncated fold, which must land within tail_tol of the exact bias
    assert bias._snap(alpha) is None
    mu = bias.required_bias(pulses.PulseSpec(family, alpha), OOK).mu
    assert abs(mu - EXACT_BIAS[family](alpha)) <= bias.DEFAULT_TAIL_TOL
