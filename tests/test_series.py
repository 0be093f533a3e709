"""Tail-accelerated lattice sums and the 1-D bracket search.

The brute-force partial sums used as oracles here are straight dense loops
with no acceleration; their own truncation error is driven far below the
tolerances being asserted by using a much larger half-width.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imdd import _series, pulses
from imdd.errors import DomainError, NumericalDivergenceError


def brute_fold(pulse, t, half_width):
    """Plain partial sums of |q| and q over the shift lattice."""
    j = np.arange(-half_width, half_width + 1)
    vals = pulses.evaluate(pulse, t - j * pulse.ts)
    return np.sum(np.abs(vals)), np.sum(vals)


class TestBudget:
    def test_k_grows_as_tolerance_shrinks(self):
        p, coef, u0 = pulses.tail_envelope(pulses.PulseSpec("rc", 0.3))
        ks = [_series.k_for_tol(p, coef, u0, tol)
              for tol in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert ks == sorted(ks)
        assert ks[0] < ks[-1]

    def test_k_scaling_follows_decay_power(self):
        # error model ~ K^-p, so tightening tol by 10^p should roughly 10x K
        p, coef, u0 = pulses.tail_envelope(pulses.PulseSpec("pl", 0.5))  # p=2
        k1 = _series.k_for_tol(p, coef, u0, 1e-6)
        k2 = _series.k_for_tol(p, coef, u0, 1e-8)
        assert k2 == pytest.approx(10 * k1, rel=0.05)

    def test_divergence_above_cap(self):
        # slowest tail in the roster: first-order decay coefficient blows up
        # as alpha -> alpha_min, overrunning the term cap at tight tolerance
        p, coef, u0 = pulses.tail_envelope(pulses.PulseSpec("xia", 0.01))
        with pytest.raises(NumericalDivergenceError):
            _series.k_for_tol(p, coef, u0, 1e-9)
        # the same envelope at looser tolerance still fits
        assert _series.k_for_tol(p, coef, u0, 1e-4) < _series.K_CAP

    def test_budget_is_the_smallest_admissible_k(self):
        # modeled post-acceleration error: 2 coef GAIN / ((p-1) K^p);
        # the returned K must satisfy the target and K-1 must not
        p, coef, u0 = pulses.tail_envelope(pulses.PulseSpec("rrc", 0.4))
        tol = 1e-7

        def model(k):
            return 2.0 * coef * _series.ACCEL_GAIN / ((p - 1.0) * k ** p)

        k = _series.k_for_tol(p, coef, u0, tol)
        assert k > 64          # not sitting on the floor for this pulse
        assert model(k) <= tol < model(k - 1)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(DomainError):
            _series.k_for_tol(2.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            _series.lattice_cut(2.0, 1.0, -1e-9, 32)


class TestExtrapolate:
    def test_exact_on_pure_power_tail(self):
        # For T(K) = c*K^(-d) the two-point Richardson step reconstructs the
        # limit exactly: S_inf = S(2K) + (S(2K)-S(K))/(2^d - 1).
        d = 3.0
        c = 7.5
        s_inf = 42.0
        s_half = s_inf - c * 100.0 ** -d       # K terms
        s_full = s_inf - c * 200.0 ** -d       # 2K terms
        core = s_half
        wing = s_full - s_half
        assert _series.extrapolate(core, wing, d) == pytest.approx(
            s_inf, rel=1e-14)

    def test_zero_wing_is_identity(self):
        assert _series.extrapolate(5.0, 0.0, 2.0) == 5.0


class TestFoldedPair:
    @pytest.mark.parametrize("family,alpha", [
        ("rc", 0.5), ("poly", 0.4), ("src", 0.7), ("btn", 0.3),
        ("rrc", 0.6), ("xia", 0.5),
    ])
    def test_matches_brute_force(self, family, alpha):
        """Sandwich against plain partial sums: the brute value itself is
        only accurate to its raw tail bound (large for 1/u^2 tails), so the
        comparison window is that bound plus the accelerated tolerance."""
        pulse = pulses.PulseSpec(family, alpha)
        p, coef, u0 = pulses.tail_envelope(pulse)
        k = _series.k_for_tol(p, coef, u0, 1e-8)
        t = np.array([0.0, 0.37, 0.5, 0.93])
        fa, fs = _series.folded_pair(
            lambda x: pulses.evaluate(pulse, x), pulse.ts, t, k, p - 1.0)
        w = 40_000
        slack = _series.raw_tail_bound(p, coef, w) + 1e-7
        for i, ti in enumerate(t):
            ba, bs = brute_fold(pulse, ti, w)
            # |q| partial sums increase monotonically toward the limit
            assert ba - 1e-7 <= fa[i] <= ba + slack
            assert abs(fs[i] - bs) <= slack

    def test_nonnegative_pulse_sums_cancel_bitwise(self):
        # same evaluations feed both sums, so for a pulse that never goes
        # negative the two results must be identical, not merely close
        pulse = pulses.PulseSpec("sdj", 0.35)
        t = np.linspace(0.0, 1.0, 17)
        fa, fs = _series.folded_pair(
            lambda x: pulses.evaluate(pulse, x), pulse.ts, t, 512, 1.0)
        np.testing.assert_array_equal(fa, fs)

    def test_odd_k_rounds_up(self):
        pulse = pulses.PulseSpec("rc", 0.5)
        fn = lambda x: pulses.evaluate(pulse, x)
        a1, _ = _series.folded_pair(fn, 1.0, [0.25], 101, 2.0)
        a2, _ = _series.folded_pair(fn, 1.0, [0.25], 102, 2.0)
        np.testing.assert_array_equal(a1, a2)

    def test_chunking_is_transparent(self):
        # partial sums are re-partitioned, so only rounding-level drift
        pulse = pulses.PulseSpec("pl", 0.5)
        fn = lambda x: pulses.evaluate(pulse, x)
        t = np.linspace(0, 1, 11)
        big, _ = _series.folded_pair(fn, 1.0, t, 2048, 1.0)
        small, _ = _series.folded_pair(fn, 1.0, t, 2048, 1.0,
                                       chunk_elems=1000)
        np.testing.assert_allclose(small, big, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t", [[0.3], np.linspace(0, 1, 11)])
    def test_evaluation_pieces_change_no_bit(self, monkeypatch, t):
        # unlike the summation blocks, the evaluation pieces only split the
        # elementwise pulse evaluation, so the sums must not move at all
        pulse = pulses.PulseSpec("xia", 0.5)
        fn = lambda x: pulses.evaluate(pulse, x)
        whole = _series.folded_pair(fn, 1.0, t, 2048, 1.0, chunk_elems=9000)
        monkeypatch.setattr(_series, "EVAL_CHUNK_ELEMS", 37)
        pieces = _series.folded_pair(fn, 1.0, t, 2048, 1.0, chunk_elems=9000)
        for a, b in zip(pieces, whole):
            np.testing.assert_array_equal(a, b)


class TestGoldenMax:
    def test_quadratic_vertex(self):
        x, fx = _series.golden_max(lambda x: -(x - 1.234) ** 2, 0.0, 3.0, 1e-12)
        assert x == pytest.approx(1.234, abs=1e-10)
        assert fx == pytest.approx(0.0, abs=1e-18)

    def test_monotone_edge(self):
        x, _ = _series.golden_max(lambda x: x, 0.0, 2.0, 1e-10)
        assert x == pytest.approx(2.0, abs=1e-8)

    def test_degenerate_bracket(self):
        x, fx = _series.golden_max(lambda x: -x * x, 0.5, 0.5 + 1e-15, 1e-10)
        assert x == pytest.approx(0.5, abs=1e-12)
        assert fx == pytest.approx(-0.25, rel=1e-10)

    def test_deterministic(self):
        f = lambda x: math.sin(3 * x)
        assert _series.golden_max(f, 0.0, 1.0, 1e-9) == \
            _series.golden_max(f, 0.0, 1.0, 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(v=st.floats(0.1, 2.9), w=st.floats(0.5, 4.0))
    def test_recovers_arbitrary_vertex(self, v, w):
        x, _ = _series.golden_max(lambda x: -w * (x - v) ** 2, 0.0, 3.0, 1e-11)
        assert abs(x - v) < 1e-8


class TestLatticeCut:
    def test_cut_shrinks_with_rate(self):
        p, coef, _ = pulses.tail_envelope(pulses.PulseSpec("rc", 0.3))
        u16 = _series.lattice_cut(p, coef, 1e-9, 16)
        u64 = _series.lattice_cut(p, coef, 1e-9, 64)
        assert u64 < u16

    def test_size_guard(self):
        with pytest.raises(NumericalDivergenceError):
            _series.check_lattice_size(_series.LATTICE_CAP)
        _series.check_lattice_size(100)  # fine
