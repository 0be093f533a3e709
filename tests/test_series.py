"""Tail-accelerated lattice sums and the 1-D bracket search.

The brute-force partial sums used as oracles here are straight dense loops
with no acceleration; their own truncation error is driven far below the
tolerances being asserted by using a much larger half-width.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imdd import _series, pulses
from imdd.errors import DomainError, NumericalDivergenceError


def brute_fold(pulse, t, half_width):
    """Plain partial sum of max(-q, 0) over the shift lattice."""
    j = np.arange(-half_width, half_width + 1)
    vals = pulses.evaluate(pulse, t - j * pulse.ts)
    return np.sum(np.maximum(-vals, 0.0))


def raw_tail_bound(p, coef, k):
    """Upper bound on sum_{|j|>k} coef/j^p (integral bound plus first term)."""
    if k <= 1:
        return math.inf
    return 2.0 * coef * (k ** -p + k ** (1.0 - p) / (p - 1.0))


def block_buffer_fold(eval_fn, ts, t, k, decay, chunk_elems=8_000_000):
    """Reference fold: each block of ``chunk_elems`` shifts is evaluated
    into one block-sized buffer and reduced by a single numpy sum.  Its
    bits are the ones ``folded_pair``'s pieces must keep."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    k = int(k)
    if k % 2:
        k += 1
    half = k // 2

    core = np.zeros_like(t)
    wing = np.zeros_like(t)

    block = max(1, chunk_elems // max(1, t.size))
    piece = max(1, (1 << 16) // max(1, t.size))
    buf = np.empty((min(block, k + 1), t.size))

    def accumulate(j_lo, j_hi, acc):
        for lo in range(j_lo, j_hi + 1, block):
            hi = min(lo + block - 1, j_hi)
            shifts = np.arange(lo, hi + 1, dtype=float) * ts
            vals = buf[:len(shifts)]
            for p0 in range(0, len(shifts), piece):
                vals[p0:p0 + piece] = eval_fn(
                    t[None, :] - shifts[p0:p0 + piece, None])
            np.negative(vals, out=vals)
            acc += np.maximum(vals, 0.0, out=vals).sum(axis=0)

    accumulate(-half, half, core)
    accumulate(-k, -half - 1, wing)
    accumulate(half + 1, k, wing)
    return _series.extrapolate(core, wing, decay)


def everywhere_negative(x):
    """Negative at every shift, with magnitudes spread over 1e-4..1e4, so
    every term counts and the order of the sum shows in its bits."""
    return -(1.0 + np.abs(np.sin(3.7 * x)) * 10.0 ** (4.0 * np.cos(1.3 * x)))


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
        fn = _series.folded_pair(
            lambda x: pulses.evaluate(pulse, x), pulse.ts, t, k, p - 1.0)
        w = 40_000
        slack = raw_tail_bound(p, coef, w) + 1e-7
        for i, ti in enumerate(t):
            bn = brute_fold(pulse, ti, w)
            # negative-part partial sums increase monotonically to the limit
            assert bn - 1e-7 <= fn[i] <= bn + slack

    def test_odd_k_rounds_up(self):
        pulse = pulses.PulseSpec("rc", 0.5)
        fn = lambda x: pulses.evaluate(pulse, x)
        a1 = _series.folded_pair(fn, 1.0, [0.25], 101, 2.0)
        a2 = _series.folded_pair(fn, 1.0, [0.25], 102, 2.0)
        np.testing.assert_array_equal(a1, a2)

    def test_chunking_is_transparent(self):
        # partial sums are re-partitioned, so only rounding-level drift
        pulse = pulses.PulseSpec("pl", 0.5)
        fn = lambda x: pulses.evaluate(pulse, x)
        t = np.linspace(0, 1, 11)
        big = _series.folded_pair(fn, 1.0, t, 2048, 1.0)
        small = _series.folded_pair(fn, 1.0, t, 2048, 1.0, chunk_elems=1000)
        np.testing.assert_allclose(small, big, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t", [[0.3], np.linspace(0, 1, 11)])
    def test_evaluation_pieces_change_no_bit(self, monkeypatch, t):
        # unlike the summation blocks, the evaluation pieces only split the
        # elementwise pulse evaluation, so the sum must not move at all
        pulse = pulses.PulseSpec("xia", 0.5)
        fn = lambda x: pulses.evaluate(pulse, x)
        whole = _series.folded_pair(fn, 1.0, t, 2048, 1.0, chunk_elems=9000)
        monkeypatch.setattr(_series, "EVAL_CHUNK_ELEMS", 37)
        pieces = _series.folded_pair(fn, 1.0, t, 2048, 1.0, chunk_elems=9000)
        np.testing.assert_array_equal(pieces, whole)


    @pytest.mark.parametrize("eval_fn", [
        everywhere_negative,
        lambda x: pulses.evaluate(pulses.PulseSpec("btn", 0.3), x)],
        ids=["negative", "btn"])
    @pytest.mark.parametrize("t,k,small_chunk", [
        ([0.3], 10_001, 3_000), ([0.3], 10_000, 3_000),
        (np.linspace(0.0, 0.5, 2049), 161, 2049 * 50),
        (np.linspace(0.0, 0.5, 2049), 200, 2049 * 50)],
        ids=["one-t-odd-k", "one-t-even-k", "grid-odd-k", "grid-even-k"])
    @pytest.mark.parametrize("chunked", [False, True],
                             ids=["one-block", "blocks"])
    def test_pieces_keep_the_block_buffer_bits(self, monkeypatch, eval_fn,
                                               t, k, small_chunk, chunked):
        # every piece size, including ones below numpy's 128-value pairwise
        # block and ones that split a grid's rows one at a time, must give
        # the bits of the block-buffer fold; the small chunk makes k span
        # several blocks
        chunk = small_chunk if chunked else 8_000_000
        ref = block_buffer_fold(eval_fn, 1.0, t, k, 1.0, chunk_elems=chunk)
        for elems in (37, 128, 1 << 13):
            monkeypatch.setattr(_series, "EVAL_CHUNK_ELEMS", elems)
            got = _series.folded_pair(eval_fn, 1.0, t, k, 1.0,
                                      chunk_elems=chunk)
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("t,k", [
        ([0.3], 723_816), (np.linspace(0.0, 0.5, 2049), 724)],
        ids=["one-t", "grid"])
    def test_peak_memory_is_bounded(self, t, k):
        # numpy reports its buffers to tracemalloc; a block-sized buffer of
        # shifted pulse values would take about 15 MiB for either fold
        pulse = pulses.PulseSpec("btn", 0.01)
        tracemalloc.start()
        try:
            _series.folded_pair(lambda x: pulses.evaluate(pulse, x),
                                pulse.ts, t, k, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


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
