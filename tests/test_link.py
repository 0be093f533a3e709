"""Receiver chains: noise-free sample contracts, closed-form SER and the
seeded Monte Carlo estimator."""

import math

import numpy as np
import pytest

from imdd import bias, gains, link, pulses, waveform
from imdd.errors import DomainError, UnsupportedError

OOK = bias.Constellation.pam(2)


def cfg_rc(**kw):
    return link.LinkConfig(pulse=pulses.PulseSpec("rc", 0.5),
                           constellation=OOK, **kw)


def cfg_rrc(**kw):
    kw.setdefault("receiver", "matched")
    return link.LinkConfig(pulse=pulses.PulseSpec("rrc", 0.5),
                           constellation=OOK, **kw)


class TestConfigValidation:
    def test_unknown_receiver(self):
        with pytest.raises(DomainError):
            cfg_rc(receiver="coherent")

    def test_negative_amplitude(self):
        with pytest.raises(DomainError):
            cfg_rc(a=-1.0)

    def test_zero_amplitude_allowed(self):
        assert cfg_rc(a=0.0).a == 0.0

    def test_negative_noise(self):
        with pytest.raises(DomainError):
            cfg_rc(n0=-0.1)

    @pytest.mark.parametrize("field", ["a", "n0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_amplitude_and_noise(self, field, value):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            cfg_rc(**{field: value})

    def test_isi_guards(self):
        # root-only pulse on the sampling receiver
        with pytest.raises(DomainError):
            link.LinkConfig(pulse=pulses.PulseSpec("rrc", 0.5),
                            constellation=OOK, receiver="sampling")
        # Nyquist-only pulse on the matched receiver
        with pytest.raises(DomainError):
            cfg_rc(receiver="matched")
        # both run when the mismatch is explicitly accepted
        link.LinkConfig(pulse=pulses.PulseSpec("rrc", 0.5),
                        constellation=OOK, receiver="sampling",
                        allow_isi=True)
        cfg_rc(receiver="matched", allow_isi=True)
        # the dual-property pulse needs no override on either receiver
        for receiver in ("sampling", "matched"):
            link.LinkConfig(pulse=pulses.PulseSpec("xia", 0.5),
                            constellation=OOK, receiver=receiver)


ALL_PAIRS = [(family, receiver) for family in pulses.FAMILIES
             for receiver in link.RECEIVERS]


def isi_free(family, receiver):
    meta = pulses.metadata(pulses.PulseSpec(family, 0.5))
    return meta.is_nyquist if receiver == "sampling" else meta.is_root_nyquist


class TestFrontEnd:
    """The Nyquist / root-Nyquist rule has one source: every site accepts
    a pair, or rejects it with UnsupportedError, as the pulse flags say."""

    @pytest.mark.parametrize("family, receiver", ALL_PAIRS)
    @pytest.mark.parametrize("allow_isi", [False, True])
    def test_link_config_follows_the_flags(self, family, receiver,
                                           allow_isi):
        p = pulses.PulseSpec(family, 0.5)
        if allow_isi or isi_free(family, receiver):
            link.LinkConfig(p, OOK, receiver, allow_isi=allow_isi)
            fe = link.front_end(p, receiver, allow_isi)
            assert fe.isi_free == isi_free(family, receiver)
        else:
            with pytest.raises(UnsupportedError):
                link.LinkConfig(p, OOK, receiver, allow_isi=allow_isi)

    @pytest.mark.parametrize("family, receiver", ALL_PAIRS)
    def test_every_site_follows_the_flags(self, family, receiver):
        p = pulses.PulseSpec(family, 0.5)
        sites = [
            lambda: waveform.eye_diagram(p, OOK, receiver, n_traces=1),
            lambda: gains.amp_ratio_equal_ser(receiver, p, OOK, 1e-3),
        ]
        ok = isi_free(family, receiver)
        for site in sites:
            if ok:
                site()
            else:
                with pytest.raises(UnsupportedError):
                    site()
        assert (receiver in gains.valid_receivers(family, "equal-ser")) == ok

    def test_energy_sum_runs_once_and_after_the_rule(self, monkeypatch):
        # the matched front end of a non-root-Nyquist pulse needs the
        # lattice sum for Eq: never for a refused pair, once per pulse
        calls = []
        energy = pulses.energy

        def counted(*args, **kwargs):
            calls.append(args)
            return energy(*args, **kwargs)

        monkeypatch.setattr(pulses, "energy", counted)
        link._energy.cache_clear()
        p = pulses.PulseSpec("pl", 0.5)
        with pytest.raises(UnsupportedError):
            link.LinkConfig(p, OOK, "matched")
        assert calls == []
        cfg = link.LinkConfig(p, OOK, "matched", allow_isi=True)
        link.monte_carlo_ser(cfg, 3 * link.MC_CHUNK)
        assert len(calls) == 1

    @pytest.mark.parametrize("family, receiver", [
        ("rc", "matched"), ("pl", "matched"), ("rrc", "sampling")])
    def test_isi_pairs_keep_the_closed_form_ser(self, family, receiver):
        # the ISI-free reference 2 (M-1)/M Q(d / 2 sigma), from the pulse's
        # own q(0), bandwidth and energy
        p = pulses.PulseSpec(family, 0.5)
        m, a, n0 = 4, 2.0, 0.2
        cfg = link.LinkConfig(p, bias.Constellation.pam(m), receiver, a=a,
                              n0=n0, allow_isi=True)
        meta = pulses.metadata(p)
        if receiver == "sampling":
            arg = a * meta.q_zero / (2.0 * math.sqrt(n0 * meta.b_ts / p.ts))
        else:
            arg = a * math.sqrt(pulses.energy(p, tol=1e-9) / (2.0 * n0))
        expected = 2.0 * (m - 1) / m * 0.5 * math.erfc(arg / math.sqrt(2.0))
        est = link.monte_carlo_ser(cfg, link.MC_MIN_SYMBOLS)
        assert math.isfinite(est.p_analytic)
        assert est.p_analytic == pytest.approx(expected, rel=1e-12)


class TestNoiseSigma:
    def test_sampling_uses_pulse_bandwidth(self):
        cfg = cfg_rc(n0=2.0, gain=1.5)
        meta = pulses.metadata(cfg.pulse)
        expected = 1.5 * math.sqrt(2.0 * meta.b_ts / cfg.pulse.ts)
        assert link.noise_sigma(cfg) == pytest.approx(expected, rel=1e-12)

    def test_matched_uses_pulse_energy(self):
        cfg = cfg_rrc(n0=2.0, gain=0.5)
        eq = pulses.metadata(cfg.pulse).energy_ratio * cfg.pulse.ts
        expected = 0.5 * math.sqrt(2.0 * eq / 2.0)
        assert link.noise_sigma(cfg) == pytest.approx(expected, rel=1e-12)


class TestNoiseFreeLevels:
    def test_sampling_closed_form(self):
        m = 4
        c = bias.Constellation.pam(m)
        cfg = link.LinkConfig(pulse=pulses.PulseSpec("rc", 0.5),
                              constellation=c, a=2.0, gain=1.5)
        mu = bias.required_bias(cfg.pulse, c).mu
        expected = 2.0 * 1.5 * (mu + np.arange(m))     # q(0) = 1
        np.testing.assert_allclose(link.noise_free_levels(cfg), expected,
                                   rtol=1e-12)

    def test_matched_closed_form(self):
        cfg = cfg_rrc(a=2.0, gain=0.7)
        meta = pulses.metadata(cfg.pulse)
        mu = bias.required_bias(cfg.pulse, OOK).mu
        eq = meta.energy_ratio * cfg.pulse.ts
        expected = 2.0 * 0.7 * (mu * meta.q_bar * cfg.pulse.ts
                                + np.array([0.0, 1.0]) * eq)
        np.testing.assert_allclose(link.noise_free_levels(cfg), expected,
                                   rtol=1e-12)

    def test_levels_strictly_increasing(self):
        for cfg in (cfg_rc(), cfg_rrc()):
            lv = link.noise_free_levels(cfg)
            assert np.all(np.diff(lv) > 0)


class TestReceiverSamples:
    def test_sampling_receiver_is_isi_free(self):
        cfg = cfg_rc(a=1.7, gain=0.9)
        rng = np.random.default_rng(3)
        sym = rng.choice(np.asarray(OOK.levels), size=200)
        det = link.receiver_samples(cfg, sym, noise=False)
        table = link.noise_free_levels(cfg)
        expected = table[sym.astype(int)]
        np.testing.assert_allclose(det, expected, rtol=0, atol=1e-9)

    def test_matched_receiver_is_isi_free(self):
        m = 4
        c = bias.Constellation.pam(m)
        cfg = link.LinkConfig(pulse=pulses.PulseSpec("rrc", 0.6),
                              constellation=c, receiver="matched")
        rng = np.random.default_rng(4)
        sym = rng.choice(np.asarray(c.levels), size=64)
        det = link.receiver_samples(cfg, sym, noise=False)
        expected = link.noise_free_levels(cfg)[sym.astype(int)]
        np.testing.assert_allclose(det, expected, rtol=0, atol=1e-6)

    def test_matched_xia_consistency(self):
        cfg = link.LinkConfig(pulse=pulses.PulseSpec("xia", 0.5),
                              constellation=OOK, receiver="matched")
        sym = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0] * 4)
        det = link.receiver_samples(cfg, sym, noise=False)
        expected = link.noise_free_levels(cfg)[sym.astype(int)]
        np.testing.assert_allclose(det, expected, rtol=0, atol=1e-5)

    def test_noise_reproducible_from_config_seed(self):
        cfg = cfg_rc(seed=123)
        sym = np.zeros(50)
        a = link.receiver_samples(cfg, sym)
        b = link.receiver_samples(cfg, sym)
        np.testing.assert_array_equal(a, b)

    def test_caller_rng_advances(self):
        cfg = cfg_rc()
        rng = np.random.default_rng(9)
        sym = np.zeros(50)
        a = link.receiver_samples(cfg, sym, rng=rng)
        b = link.receiver_samples(cfg, sym, rng=rng)
        assert not np.array_equal(a, b)


class TestIsiTaps:
    """allow_isi pairs keep the symbol-rate response h_k over the pulse's
    guard window |k| <= effective_guard: a unit impulse (over the all-zero
    block, which carries the DC term) returns h_k and nothing beyond."""

    @pytest.mark.parametrize("family, receiver, response", [
        ("rc", "matched", "autocorrelation"),
        ("pl", "matched", "autocorrelation"),
        ("rrc", "sampling", "evaluate"),
    ])
    def test_impulse_returns_taps(self, family, receiver, response):
        p = pulses.PulseSpec(family, 0.5)
        h_of = getattr(pulses, response)
        cfg = link.LinkConfig(pulse=p, constellation=OOK, receiver=receiver,
                              allow_isi=True)
        w = pulses.effective_guard(p)
        k = np.arange(-w - 4, w + 5)
        det = link.receiver_samples(cfg, (k == 0).astype(float), noise=False)
        base = link.receiver_samples(cfg, np.zeros(k.size), noise=False)
        inside = np.abs(k) <= w
        np.testing.assert_allclose((det - base)[inside],
                                   h_of(p, k[inside] * p.ts),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose((det - base)[~inside], 0.0,
                                   rtol=0, atol=1e-12)
        # the window truncates a real tail
        assert abs(h_of(p, (w + 1) * p.ts)) > 1e-6


class TestQInverse:
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.5, 4.0])
    def test_roundtrip(self, x):
        p = 0.5 * math.erfc(x / math.sqrt(2.0))
        assert link.q_inverse(p) == pytest.approx(x, rel=1e-10)

    def test_median_is_zero(self):
        assert link.q_inverse(0.5) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            link.q_inverse(p)


class TestAnalyticSer:
    def test_binary_closed_form(self):
        cfg = cfg_rc(a=3.0, n0=0.5)
        meta = pulses.metadata(cfg.pulse)
        arg = 3.0 * 1.0 / (2.0 * math.sqrt(0.5 * meta.b_ts / cfg.pulse.ts))
        expected = 0.5 * math.erfc(arg / math.sqrt(2.0))
        assert link.analytic_ser(cfg) == pytest.approx(expected, rel=1e-12)

    def test_zero_amplitude_is_pure_guessing(self):
        for m in (2, 4, 8):
            cfg = link.LinkConfig(pulse=pulses.PulseSpec("rc", 0.5),
                                  constellation=bias.Constellation.pam(m),
                                  a=0.0)
            assert link.analytic_ser(cfg) == (m - 1) / m

    def test_zero_noise_is_error_free(self):
        assert link.analytic_ser(cfg_rc(n0=0.0, a=1.0)) == 0.0

    def test_monotone_in_amplitude(self):
        sers = [link.analytic_ser(cfg_rc(a=a)) for a in (1.0, 2.0, 4.0)]
        assert sers[0] > sers[1] > sers[2]

    def test_requires_uniform_pam(self):
        cfg = link.LinkConfig(pulse=pulses.PulseSpec("rc", 0.5),
                              constellation=bias.Constellation((0.0, 1.0, 3.0)))
        with pytest.raises(UnsupportedError):
            link.analytic_ser(cfg)


class TestAmplitudeForSer:
    @pytest.mark.parametrize("p_err", [1e-3, 1e-6])
    def test_roundtrip_sampling(self, p_err):
        base = cfg_rc()
        a = link.amplitude_for_ser(base, p_err)
        assert link.analytic_ser(cfg_rc(a=a)) == pytest.approx(p_err, rel=1e-9)

    def test_roundtrip_matched_4pam(self):
        c = bias.Constellation.pam(4)
        base = link.LinkConfig(pulse=pulses.PulseSpec("rrc", 0.5),
                               constellation=c, receiver="matched", n0=2.0)
        a = link.amplitude_for_ser(base, 1e-4)
        probe = link.LinkConfig(pulse=pulses.PulseSpec("rrc", 0.5),
                                constellation=c, receiver="matched",
                                n0=2.0, a=a)
        assert link.analytic_ser(probe) == pytest.approx(1e-4, rel=1e-9)

    def test_p_err_range(self):
        with pytest.raises(DomainError):
            link.amplitude_for_ser(cfg_rc(), 0.5)     # >= (m-1)/m for OOK
        with pytest.raises(DomainError):
            link.amplitude_for_ser(cfg_rc(), 0.0)

    def test_requires_uniform_pam(self):
        cfg = link.LinkConfig(pulse=pulses.PulseSpec("rc", 0.5),
                              constellation=bias.Constellation((0.0, 1.0, 3.0)))
        with pytest.raises(UnsupportedError):
            link.amplitude_for_ser(cfg, 1e-3)


class TestMonteCarlo:
    def test_minimum_budget(self):
        with pytest.raises(DomainError):
            link.monte_carlo_ser(cfg_rc(), 100)

    def test_deterministic(self):
        cfg = cfg_rc(a=3.0, seed=5)
        assert link.monte_carlo_ser(cfg, 20_000) == \
            link.monte_carlo_ser(cfg, 20_000)

    def test_matches_closed_form(self):
        # pick the amplitude for a 2% SER so 50k symbols see ~1000 errors
        a = link.amplitude_for_ser(cfg_rc(), 0.02)
        cfg = cfg_rc(a=a, seed=7)
        est = link.monte_carlo_ser(cfg, 50_000)
        assert est.p_analytic == pytest.approx(0.02, rel=1e-9)
        assert abs(est.p_hat - est.p_analytic) < 3 * est.ci95
        assert est.n_symbols == 50_000

    def test_matched_receiver_matches_closed_form(self):
        base = cfg_rrc()
        a = link.amplitude_for_ser(base, 0.05)
        cfg = cfg_rrc(a=a, seed=11)
        est = link.monte_carlo_ser(cfg, 30_000)
        assert abs(est.p_hat - est.p_analytic) < 3 * est.ci95

    def test_zero_amplitude_guessing_rate(self):
        m = 4
        cfg = link.LinkConfig(pulse=pulses.PulseSpec("rc", 0.5),
                              constellation=bias.Constellation.pam(m),
                              a=0.0, seed=2)
        est = link.monte_carlo_ser(cfg, 20_000)
        assert est.p_analytic == (m - 1) / m
        assert abs(est.p_hat - 0.75) < 0.02

    def test_target_stops_early(self):
        cfg = cfg_rc(a=0.0, seed=1)    # every other symbol errors
        est = link.monte_carlo_ser(cfg, 500_000, target=100)
        assert est.n_symbols < 500_000
        assert est.p_hat * est.n_symbols >= 100

    def test_ci_shrinks_with_budget(self):
        a = link.amplitude_for_ser(cfg_rc(), 0.05)
        small = link.monte_carlo_ser(cfg_rc(a=a, seed=3), 20_000)
        large = link.monte_carlo_ser(cfg_rc(a=a, seed=3), 160_000)
        assert large.ci95 < small.ci95

    def test_zero_noise_never_errors(self):
        cfg = cfg_rc(n0=0.0, a=1.0, seed=8)
        est = link.monte_carlo_ser(cfg, 20_000)
        assert est.p_hat == 0.0
        assert est.p_analytic == 0.0
