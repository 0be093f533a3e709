"""Transmit-waveform synthesis, optical power accounting and eye traces."""

import numpy as np
import pytest

from imdd import bias, pulses, waveform
from imdd.errors import DomainError

OOK = bias.Constellation.pam(2)
RC6 = pulses.PulseSpec("rc", 0.6)
MU_RC6 = 0.184566790565   # brute-force OOK bias for rc, alpha=0.6
GUARD_RC6 = pulses.effective_guard(RC6)


def adversarial_symbols(pulse, constellation, phase_t, k_indices):
    """The symbols at ``k_indices`` that drive x(phase_t) lowest: the top
    level where the shifted pulse is negative, the bottom level elsewhere.
    This is the sequence that attains the bias supremum."""
    k = np.asarray(k_indices, dtype=float)
    vals = pulses.evaluate(pulse, phase_t - k * pulse.ts)
    return np.where(vals < 0.0, constellation.a_hat, constellation.a_check)


def random_train(constellation, n, guard, seed):
    """``guard`` symbols on each side of an ``n``-symbol block, all drawn
    from ``default_rng(seed)``."""
    return np.random.default_rng(seed).choice(
        np.asarray(constellation.levels), size=n + 2 * guard)


class TestEffectiveGuard:
    def test_floor(self):
        assert pulses.effective_guard(pulses.PulseSpec("poly", 1.0)) == \
            pulses.MIN_GUARD

    def test_slow_tails_need_longer_guards(self):
        slow = pulses.effective_guard(pulses.PulseSpec("rrc", 0.05))
        fast = pulses.effective_guard(pulses.PulseSpec("rrc", 0.9))
        assert slow > fast >= pulses.MIN_GUARD

    def test_envelope_below_floor_beyond_guard(self):
        p = pulses.PulseSpec("pl", 0.3)
        g = pulses.effective_guard(p)
        u = np.linspace(g, g + 50, 2001)
        assert np.max(np.abs(pulses.evaluate(p, u * p.ts))) <= \
            pulses.GUARD_ENVELOPE_TOL * 1.001


class TestSynthesizeValidation:
    def test_rate_floor(self):
        with pytest.raises(DomainError):
            waveform.synthesize(RC6, OOK, [0.0, 1.0], mu=MU_RC6, rate=8)

    def test_empty_symbols(self):
        with pytest.raises(DomainError):
            waveform.synthesize(RC6, OOK, [], mu=MU_RC6)

    def test_symbols_must_be_levels(self):
        with pytest.raises(DomainError):
            waveform.synthesize(RC6, OOK, [0.0, 0.5], mu=MU_RC6)

    def test_guard_floor(self):
        with pytest.raises(DomainError):
            waveform.synthesize(RC6, OOK, [0.0, 1.0], mu=MU_RC6, guard=2)

    @pytest.mark.parametrize("a", [-1.0, np.nan, np.inf])
    def test_amplitude_finite_and_nonnegative(self, a):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            waveform.synthesize(RC6, OOK, [0.0, 1.0], mu=MU_RC6, a=a)

    def test_train_is_longer_than_both_guards(self):
        train = [0.0, 1.0] * GUARD_RC6
        with pytest.raises(DomainError, match="block between"):
            waveform.synthesize(RC6, OOK, train, mu=MU_RC6)
        wf = waveform.synthesize(RC6, OOK, train + [1.0], mu=MU_RC6)
        assert wf.samples.size == (2 * GUARD_RC6 + 1) * wf.rate

    @pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
    def test_bias_finite(self, mu):
        with pytest.raises(DomainError, match="bias mu must be finite"):
            waveform.synthesize(RC6, OOK, [0.0, 1.0], mu=mu)

    @pytest.mark.parametrize("setting", [
        {"rate": 32.5}, {"rate": 32.0}, {"guard": 12.5}],
        ids=["rate-32.5", "rate-32.0", "guard-12.5"])
    def test_counts_are_integers(self, setting):
        # numpy would raise a bare TypeError
        (name, value), = setting.items()
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            waveform.synthesize(RC6, OOK, [0.0, 1.0], mu=MU_RC6, **setting)

    def test_numpy_integer_counts_accepted(self):
        train = [0.0, 1.0] * (GUARD_RC6 + 1)
        a = waveform.synthesize(RC6, OOK, train, mu=MU_RC6,
                                rate=np.int64(32), guard=np.uint8(GUARD_RC6))
        b = waveform.synthesize(RC6, OOK, train, mu=MU_RC6, rate=32,
                                guard=GUARD_RC6)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.t0 == b.t0

    def test_draws_no_random_numbers(self, monkeypatch):
        train = random_train(OOK, 12, GUARD_RC6, 3)
        ref = waveform.synthesize(RC6, OOK, train, mu=MU_RC6)

        def refuse(*args, **kwargs):
            raise AssertionError("synthesize drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        wf = waveform.synthesize(RC6, OOK, train, mu=MU_RC6)
        np.testing.assert_array_equal(wf.samples, ref.samples)


class TestSynthesizeGrid:
    def test_shape_and_time_axis(self):
        n, rate, guard = 12, 32, 10
        wf = waveform.synthesize(RC6, OOK, [0.0, 1.0] * (n // 2 + guard),
                                 mu=MU_RC6, rate=rate, guard=guard)
        assert wf.samples.shape == ((n + 2 * guard) * rate,)
        assert wf.t0 == -guard * RC6.ts
        t = wf.t
        assert t[0] == wf.t0
        assert t[1] - t[0] == pytest.approx(RC6.ts / rate, rel=1e-12)

    def test_matches_direct_superposition(self):
        """Oracle: evaluate the pulse train sample-by-sample straight from
        its definition."""
        rate, guard = 32, 10
        full = random_train(OOK, 12, guard, 7)
        wf = waveform.synthesize(RC6, OOK, full, mu=MU_RC6, a=1.5,
                                 rate=rate, guard=guard)
        k_times = (np.arange(full.size) - guard) * RC6.ts
        t = wf.t
        for i in (0, 77, 391, t.size - 1):
            direct = 1.5 * (MU_RC6 + np.sum(
                full * pulses.evaluate(RC6, t[i] - k_times)))
            assert wf.samples[i] == pytest.approx(direct, abs=1e-9)

    def test_amplitude_scales_everything(self):
        train = random_train(OOK, 4, GUARD_RC6, 3)
        w1 = waveform.synthesize(RC6, OOK, train, mu=MU_RC6, a=1.0)
        w2 = waveform.synthesize(RC6, OOK, train, mu=MU_RC6, a=2.0)
        np.testing.assert_allclose(w2.samples, 2.0 * w1.samples, rtol=1e-12)


class TestNonnegativity:
    def test_stays_nonnegative_at_required_bias(self):
        """The worst-case symbol pattern aimed at the bias supremum must not
        push the intensity below zero once mu is applied."""
        sol = bias.required_bias(RC6, OOK)
        n, guard = 33, 64
        phase = sol.argmax_t + (n // 2) * RC6.ts
        train = adversarial_symbols(RC6, OOK, phase,
                                    np.arange(-guard, n + guard))
        wf = waveform.synthesize(RC6, OOK, train, mu=sol.mu, rate=64,
                                 guard=guard)
        low = float(wf.samples.min())
        assert low >= -1e-9
        assert low <= 0.05           # ... while actually touching the floor

    def test_dips_negative_below_required_bias(self):
        sol = bias.required_bias(RC6, OOK)
        n, guard = 33, 64
        phase = sol.argmax_t + (n // 2) * RC6.ts
        train = adversarial_symbols(RC6, OOK, phase,
                                    np.arange(-guard, n + guard))
        wf = waveform.synthesize(RC6, OOK, train, mu=sol.mu - 0.05,
                                 rate=64, guard=guard)
        assert float(wf.samples.min()) < -0.01

    def test_random_streams_stay_above_floor(self):
        sol = bias.required_bias(pulses.PulseSpec("poly", 0.4), OOK)
        p = pulses.PulseSpec("poly", 0.4)
        guard = pulses.effective_guard(p)
        for seed in range(5):
            train = random_train(OOK, 50, guard, seed)
            wf = waveform.synthesize(p, OOK, train, mu=sol.mu)
            assert float(wf.samples.min()) >= -1e-9


class TestAdversarialSymbols:
    def test_seek_min_matches_sign_pattern(self):
        phase = 0.5 * RC6.ts
        k = np.arange(-6, 7)
        vals = pulses.evaluate(RC6, phase - k * RC6.ts)
        sym = adversarial_symbols(RC6, OOK, phase, k)
        np.testing.assert_array_equal(sym, np.where(vals < 0, 1.0, 0.0))


class TestOffsetInvariance:
    def test_level_shift_equals_bias_shift(self):
        """Shifting every symbol level by c while lowering the bias by
        c*q_bar leaves the interior of the waveform unchanged."""
        c = 0.25
        q_bar = pulses.metadata(RC6).q_bar
        n, guard, rate = 16, 2000, 32
        base = random_train(OOK, n, guard, 5)
        shifted = bias.Constellation((c, 1.0 + c))

        w_base = waveform.synthesize(RC6, OOK, base, mu=MU_RC6 + c * q_bar,
                                     rate=rate, guard=guard)
        w_shift = waveform.synthesize(RC6, shifted, base + c, mu=MU_RC6,
                                      rate=rate, guard=guard)

        sl = slice(guard * rate, (guard + n) * rate)
        np.testing.assert_allclose(w_shift.samples[sl], w_base.samples[sl],
                                   rtol=0, atol=1e-6)


class TestOpticalPowers:
    def test_closed_form_for_inband_pulses(self):
        mu = MU_RC6
        pw = waveform.optical_powers(RC6, OOK, mu=mu)
        meta = pulses.metadata(RC6)
        # the peak of sum |q|: the bias the bipolar levels {-1, 1} need
        peak = bias.required_bias(RC6, bias.Constellation((-1.0, 1.0))).mu
        assert pw.p_opt == pytest.approx(mu + 0.5 * meta.q_bar, rel=1e-12)
        assert pw.p_max == pytest.approx(
            mu + 0.5 * peak + 0.5 * meta.q_bar, rel=1e-12)

    @pytest.mark.parametrize("family", ["src", "sdj"])
    @pytest.mark.parametrize("levels", [(0.0, 1.0), (0.0, 1.0, 2.0, 3.0),
                                        (1.0, 2.0)], ids=["ook", "pam4", "1-2"])
    def test_wideband_peak_is_attained(self, family, levels):
        # An all-top-level train attains the peak: the nonnegative train
        # peaks at the symbol instants, where every other Nyquist pulse is
        # zero, so even a finite train reaches a*(mu + a_hat*q(0)) exactly.
        p = pulses.PulseSpec(family, 0.5)
        c = bias.Constellation(levels)
        mu = bias.required_bias(p, c).mu
        pw = waveform.optical_powers(p, c, mu=mu, a=1.5)
        guard = pulses.effective_guard(p)
        wf = waveform.synthesize(p, c, [c.a_hat] * (16 + 2 * guard), mu=mu,
                                 a=1.5)
        assert pw.p_max == pytest.approx(float(wf.samples.max()), abs=1e-9)
        assert pw.p_max == pytest.approx(1.5 * (mu + c.a_hat), abs=1e-12)

    @pytest.mark.parametrize("a", [-1.0, np.nan, np.inf])
    def test_amplitude_finite_and_nonnegative(self, a):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            waveform.optical_powers(RC6, OOK, mu=MU_RC6, a=a)

    @pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
    def test_bias_finite(self, mu):
        with pytest.raises(DomainError, match="bias mu must be finite"):
            waveform.optical_powers(RC6, OOK, mu=mu)

    def test_amplitude_scaling(self):
        w1 = waveform.optical_powers(RC6, OOK, mu=MU_RC6, a=1.0)
        w3 = waveform.optical_powers(RC6, OOK, mu=MU_RC6, a=3.0)
        assert w3.p_opt == pytest.approx(3 * w1.p_opt, rel=1e-12)
        assert w3.p_max == pytest.approx(3 * w1.p_max, rel=1e-12)


class TestEyeDiagram:
    def test_shapes_and_window(self):
        eye = waveform.eye_diagram(RC6, OOK, n_traces=48, rate=32)
        assert eye.traces.shape == (48, 64)
        assert eye.t.shape == (64,)
        assert eye.t[0] == 0.0
        assert eye.t[-1] < 2 * RC6.ts

    def test_sampling_instants_hit_noise_free_levels(self):
        m = 4
        c = bias.Constellation.pam(m)
        mu = bias.required_bias(RC6, c).mu
        a = 1.3
        eye = waveform.eye_diagram(RC6, c, n_traces=32, rate=32, a=a)
        levels = a * (mu + np.asarray(c.levels))      # q(0) = 1 for rc
        col0 = eye.traces[:, 0]
        dist = np.min(np.abs(col0[:, None] - levels[None, :]), axis=1)
        assert np.max(dist) < 1e-9

    def test_matched_receiver_instants(self):
        p = pulses.PulseSpec("rrc", 0.5)
        c = OOK
        mu = bias.required_bias(p, c).mu
        meta = pulses.metadata(p)
        eq = meta.energy_ratio * p.ts
        eye = waveform.eye_diagram(p, c, receiver="matched", n_traces=16,
                                   rate=32, a=0.8)
        levels = 0.8 * (mu * meta.q_bar * p.ts + np.asarray(c.levels) * eq)
        col0 = eye.traces[:, 0]
        dist = np.min(np.abs(col0[:, None] - levels[None, :]), axis=1)
        assert np.max(dist) < 1e-6

    def test_receiver_pulse_compatibility(self):
        with pytest.raises(DomainError):
            waveform.eye_diagram(pulses.PulseSpec("rrc", 0.5), OOK,
                                 receiver="sampling")
        with pytest.raises(DomainError):
            waveform.eye_diagram(RC6, OOK, receiver="matched")
        with pytest.raises(DomainError):
            waveform.eye_diagram(RC6, OOK, receiver="integrate")
        # dual-property pulse accepts both receivers
        waveform.eye_diagram(pulses.PulseSpec("xia", 0.5), OOK,
                             receiver="sampling", n_traces=4)
        waveform.eye_diagram(pulses.PulseSpec("xia", 0.5), OOK,
                             receiver="matched", n_traces=4)

    @pytest.mark.parametrize("a", [-1.0, np.nan])
    def test_amplitude_finite_and_nonnegative(self, a):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            waveform.eye_diagram(RC6, OOK, n_traces=4, a=a)

    def test_trace_count_validation(self):
        with pytest.raises(DomainError):
            waveform.eye_diagram(RC6, OOK, n_traces=0)

    def test_seed_nonnegative(self):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            waveform.eye_diagram(RC6, OOK, n_traces=4, seed=-1)

    @pytest.mark.parametrize("setting", [
        {"seed": 1.5}, {"n_traces": 2.5}, {"n_traces": 4.0},
        {"rate": 2.5}, {"rate": 16.0}],
        ids=["seed-1.5", "n_traces-2.5", "n_traces-4.0", "rate-2.5",
             "rate-16.0"])
    def test_counts_are_integers(self, setting):
        # numpy would raise a bare TypeError
        (name, value), = setting.items()
        kwargs = {"n_traces": 4, **setting}
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            waveform.eye_diagram(RC6, OOK, **kwargs)

    def test_numpy_integer_counts_accepted(self):
        a = waveform.eye_diagram(RC6, OOK, n_traces=np.int32(4),
                                 rate=np.int64(16), seed=np.uint16(3))
        b = waveform.eye_diagram(RC6, OOK, n_traces=4, rate=16, seed=3)
        np.testing.assert_array_equal(a.traces, b.traces)

    @pytest.mark.parametrize("rate", [0, -2])
    def test_rate_at_least_one(self, rate):
        # rate 0 would be a zero slice step, a bare ValueError
        with pytest.raises(DomainError, match="rate must be >= 1"):
            waveform.eye_diagram(RC6, OOK, n_traces=4, rate=rate)

    def test_rate_one_is_one_sample_a_symbol(self):
        eye = waveform.eye_diagram(RC6, OOK, n_traces=4, rate=1)
        assert eye.traces.shape == (4, 2)

    def test_deterministic(self):
        a = waveform.eye_diagram(RC6, OOK, n_traces=8, seed=21)
        b = waveform.eye_diagram(RC6, OOK, n_traces=8, seed=21)
        np.testing.assert_array_equal(a.traces, b.traces)
