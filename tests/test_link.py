"""Receiver chains: noise-free sample contracts, closed-form SER and the
seeded Monte Carlo estimator."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    def test_seed_nonnegative(self):
        # numpy would refuse it only once Monte Carlo draws, with a bare
        # ValueError
        with pytest.raises(DomainError, match="seed must be >= 0"):
            cfg_rc(seed=-1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3"])
    def test_seed_is_an_integer(self, seed):
        # numpy's SeedSequence would raise a bare TypeError
        with pytest.raises(DomainError, match="seed must be an integer"):
            cfg_rc(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert cfg_rc(seed=np.uint32(7)).seed == 7

    def test_isi_guards(self):
        # root-only pulse on the sampling receiver
        with pytest.raises(DomainError):
            link.LinkConfig(pulse=pulses.PulseSpec("rrc", 0.5),
                            constellation=OOK, receiver="sampling")
        # Nyquist-only pulse on the matched receiver
        with pytest.raises(DomainError):
            cfg_rc(receiver="matched")
        # the dual-property pulse runs on either receiver
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
    @pytest.mark.parametrize("via_config", [False, True])
    def test_link_config_follows_the_flags(self, family, receiver,
                                           via_config):
        # LinkConfig, and front_end on its own
        p = pulses.PulseSpec(family, 0.5)
        build = link.LinkConfig if via_config else link.front_end
        args = (p, OOK, receiver) if via_config else (p, receiver)
        if isi_free(family, receiver):
            build(*args)
        else:
            with pytest.raises(UnsupportedError, match="would see ISI$"):
                build(*args)

    @pytest.mark.parametrize("family, receiver",
                             [pair for pair in ALL_PAIRS if isi_free(*pair)])
    def test_single_tap_is_h0(self, family, receiver):
        # the one tap the receiver convolves with is, bit for bit, the
        # h(0) of the closed-form levels, over the 0.005 roll-off grid
        for alpha in np.round(np.arange(0.01, 1.0 + 1e-9, 0.005), 10):
            p = pulses.PulseSpec(family, alpha)
            fe = link.front_end(p, receiver)
            assert fe.response(p, [0.0]).tolist() == [fe.h0], (family, alpha)

    @pytest.mark.parametrize("family, receiver", ALL_PAIRS)
    def test_every_site_follows_the_flags(self, family, receiver):
        p = pulses.PulseSpec(family, 0.5)
        train = [0.0, 1.0] * (pulses.effective_guard(p) + 1)
        sites = [
            lambda: waveform.eye_diagram(p, OOK, train, receiver),
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


class TestNoiseSigma:
    # the noise enters after the amplitude, so sigma does not scale with a
    def test_sampling_uses_pulse_bandwidth(self):
        cfg = cfg_rc(n0=2.0, a=1.5)
        meta = pulses.metadata(cfg.pulse)
        expected = math.sqrt(2.0 * meta.b_ts / cfg.pulse.ts)
        assert link.noise_sigma(cfg) == pytest.approx(expected, rel=1e-12)

    def test_matched_uses_pulse_energy(self):
        cfg = cfg_rrc(n0=2.0, a=0.5)
        eq = pulses.metadata(cfg.pulse).energy_ratio * cfg.pulse.ts
        expected = math.sqrt(2.0 * eq / 2.0)
        assert link.noise_sigma(cfg) == pytest.approx(expected, rel=1e-12)


def _closed_form(cfg):
    """The noise-free sample of each level, a (mu dc + levels h(0)),
    written from the front end's closed-form constants."""
    fe = link.front_end(cfg.pulse, cfg.receiver)
    mu = bias.required_bias(cfg.pulse, cfg.constellation).mu
    levels = np.asarray(cfg.constellation.levels)
    return cfg.a * (mu * fe.dc + levels * fe.h0)


class TestNoiseFreeLevels:
    def test_sampling_closed_form(self):
        m = 4
        c = bias.Constellation.pam(m)
        cfg = link.LinkConfig(pulse=pulses.PulseSpec("rc", 0.5),
                              constellation=c, a=3.0)
        mu = bias.required_bias(cfg.pulse, c).mu
        expected = 3.0 * (mu + np.arange(m))           # q(0) = 1
        np.testing.assert_allclose(link.receiver_samples(cfg, c.levels),
                                   expected, rtol=1e-12)

    def test_matched_closed_form(self):
        cfg = cfg_rrc(a=1.4)
        meta = pulses.metadata(cfg.pulse)
        mu = bias.required_bias(cfg.pulse, OOK).mu
        eq = meta.energy_ratio * cfg.pulse.ts
        expected = 1.4 * (mu * meta.q_bar * cfg.pulse.ts
                          + np.array([0.0, 1.0]) * eq)
        np.testing.assert_allclose(link.receiver_samples(cfg, OOK.levels),
                                   expected, rtol=1e-12)

    def test_levels_strictly_increasing(self):
        for cfg in (cfg_rc(), cfg_rrc()):
            lv = link.receiver_samples(cfg, cfg.constellation.levels)
            assert np.all(np.diff(lv) > 0)


class TestReceiverSamples:
    def test_sampling_receiver_is_isi_free(self):
        cfg = cfg_rc(a=1.53)
        rng = np.random.default_rng(3)
        sym = rng.choice(np.asarray(OOK.levels), size=200)
        det = link.receiver_samples(cfg, sym)
        expected = _closed_form(cfg)[sym.astype(int)]
        np.testing.assert_allclose(det, expected, rtol=0, atol=1e-9)

    def test_matched_receiver_is_isi_free(self):
        m = 4
        c = bias.Constellation.pam(m)
        cfg = link.LinkConfig(pulse=pulses.PulseSpec("rrc", 0.6),
                              constellation=c, receiver="matched")
        rng = np.random.default_rng(4)
        sym = rng.choice(np.asarray(c.levels), size=64)
        det = link.receiver_samples(cfg, sym)
        expected = _closed_form(cfg)[sym.astype(int)]
        np.testing.assert_allclose(det, expected, rtol=0, atol=1e-6)

    def test_matched_xia_consistency(self):
        cfg = link.LinkConfig(pulse=pulses.PulseSpec("xia", 0.5),
                              constellation=OOK, receiver="matched")
        sym = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0] * 4)
        det = link.receiver_samples(cfg, sym)
        expected = _closed_form(cfg)[sym.astype(int)]
        np.testing.assert_allclose(det, expected, rtol=0, atol=1e-5)


class TestQInverse:
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.5, 4.0])
    def test_roundtrip(self, x):
        p = 0.5 * math.erfc(x / math.sqrt(2.0))
        assert link.q_inverse(p) == pytest.approx(x, rel=1e-10)

    def test_median_is_zero(self):
        assert link.q_inverse(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_matches_mpmath(self):
        # sqrt(2) erfinv(1 - 2p) at 40 digits, over p in [1e-15, 0.5)
        mp = pytest.importorskip("mpmath")
        ps = np.concatenate([np.logspace(-15, math.log10(0.499), 120),
                             np.linspace(0.3, 0.5 - 1e-7, 40)])
        with mp.workdps(40):
            for p in ps.tolist():
                want = mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(p))
                got = link.q_inverse(p)
                assert abs(got - want) <= 2e-15 * want, p

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

    def test_q_matches_mpmath(self):
        # erfc(x / sqrt 2) / 2 at 40 digits, over detection arguments
        # x in [0, 12]; the argument is formed as analytic_ser forms it
        mp = pytest.importorskip("mpmath")
        p = cfg_rc().pulse
        meta = pulses.metadata(p)
        two_sigma = 2.0 * math.sqrt(meta.b_ts / p.ts)     # n0 = 1
        with mp.workdps(40):
            for x in np.linspace(0.0, 12.0, 97).tolist():
                a = x * two_sigma / meta.q_zero
                arg = a * meta.q_zero / two_sigma
                want = mp.erfc(mp.mpf(arg) / mp.sqrt(2)) / 2
                got = link.analytic_ser(cfg_rc(a=a))
                assert abs(got - want) <= 5e-14 * want, x

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

    @pytest.mark.parametrize("n", [10_000.5, 20_000.0])
    def test_budget_is_an_integer(self, n):
        with pytest.raises(DomainError, match="n_symbols must be an integer"):
            link.monte_carlo_ser(cfg_rc(), n)

    def test_numpy_integer_budget_accepted(self):
        est = link.monte_carlo_ser(cfg_rc(a=3.0), np.int64(20_000))
        assert est == link.monte_carlo_ser(cfg_rc(a=3.0), 20_000)

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


def _searchsorted_ser(cfg, n_symbols, target=None):
    """The chunk loop of monte_carlo_ser as it stood before the interval
    rule and the one-call sample table: the same draws, each chunk's
    samples from its own receiver_samples call, decided with searchsorted
    over thresholds between the closed-form levels."""
    levels = np.asarray(cfg.constellation.levels)
    table = _closed_form(cfg)
    thresholds = 0.5 * (table[:-1] + table[1:])
    sigma = link.noise_sigma(cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(
        math.ceil(n_symbols / link.MC_CHUNK))
    errors = consumed = 0
    for child in children:
        m = min(link.MC_CHUNK, n_symbols - consumed)
        rng = np.random.default_rng(child)
        idx = rng.integers(0, levels.size, size=m)
        det = link.receiver_samples(cfg, levels[idx])
        r = det + rng.normal(0.0, sigma, size=m) if sigma > 0 else det
        detected = np.searchsorted(thresholds, r, side="left")
        errors += int(np.count_nonzero(detected != idx))
        consumed += m
        if target is not None and errors >= target:
            break
    p_hat = errors / consumed
    p_tilde = min(max(p_hat, 0.5 / consumed), 1.0 - 0.5 / consumed)
    ci95 = link.Z95 * math.sqrt(p_tilde * (1.0 - p_tilde) / consumed)
    try:
        p_an = link.analytic_ser(cfg)
    except UnsupportedError:
        p_an = math.nan
    return link.SerEstimate(p_hat, consumed, ci95, p_an)


# the ISI-free pairs of both receivers at Ts = 1, and one pair of each
# receiver again at Ts = 2, where dc, Eq and the noise scale with Ts
MC_PAIRS = [("rc", "sampling", False), ("xia", "sampling", False),
            ("s2", "sampling", False), ("rrc", "matched", False),
            ("xia", "matched", False), ("btn", "sampling", True),
            ("rrc", "matched", True)]


@st.composite
def _decisions(draw):
    """Non-decreasing thresholds (equal ones too, as at a = 0), each
    sample's level, and samples on, one ulp either side of and far
    from the thresholds."""
    start = draw(st.floats(-1e3, 1e3))
    gaps = draw(st.lists(st.sampled_from([0.0, 1e-9, 0.5, 1.0, 7.0]),
                         min_size=1, max_size=7))
    thresholds = start + np.cumsum([0.0, *gaps[1:]])
    n = draw(st.integers(1, 64))
    idx = draw(st.lists(st.integers(0, thresholds.size),
                        min_size=n, max_size=n))
    spots = draw(st.lists(
        st.tuples(st.integers(0, thresholds.size - 1),
                  st.sampled_from(["on", "below", "above", "far below",
                                   "far above"])),
        min_size=n, max_size=n))
    r = []
    for j, where in spots:
        t = thresholds[j]
        r.append({"on": t, "below": np.nextafter(t, -np.inf),
                  "above": np.nextafter(t, np.inf),
                  "far below": t - 1e4, "far above": t + 1e4}[where])
    return thresholds, np.array(idx), np.array(r)


class TestIntervalDecisions:
    """The interval rule against the searchsorted loop it replaced."""

    @pytest.mark.parametrize("family, receiver, ts2", MC_PAIRS)
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_same_estimate_as_searchsorted(self, family, receiver, ts2, m):
        p = pulses.PulseSpec(family, 0.5, 2.0 if ts2 else 1.0)
        base = link.LinkConfig(p, bias.Constellation.pam(m), receiver, seed=m)
        cfg = replace(base, a=link.amplitude_for_ser(base, 0.05))
        # a partial last chunk
        n = link.MC_CHUNK + 5_000
        got = link.monte_carlo_ser(cfg, n)
        assert got == _searchsorted_ser(cfg, n)
        assert 0.0 < got.p_hat < 1.0 and got.n_symbols == n

    @pytest.mark.parametrize("family, receiver, ts2", MC_PAIRS)
    @pytest.mark.parametrize("change", [
        {"a": 0.0}, {"n0": 0.0}, {"target": 60}], ids=["a0", "n0", "target"])
    def test_same_estimate_at_the_edges(self, family, receiver, ts2,
                                        change):
        change = dict(change)
        target = change.pop("target", None)
        p = pulses.PulseSpec(family, 0.5, 2.0 if ts2 else 1.0)
        base = link.LinkConfig(p, bias.Constellation.pam(4), receiver, seed=9)
        # about 33 errors a chunk, so a target of 60 stops after two
        cfg = replace(base, **{"a": link.amplitude_for_ser(base, 2e-3),
                               **change})
        n = 5 * link.MC_CHUNK
        got = link.monte_carlo_ser(cfg, n, target)
        assert got == _searchsorted_ser(cfg, n, target)
        if target is not None:
            assert got.n_symbols < n
            assert got.p_hat * got.n_symbols >= target

    @settings(max_examples=150, deadline=None)
    @given(case=_decisions())
    def test_ties_go_to_the_lower_symbol(self, case):
        thresholds, idx, r = case
        edges = np.concatenate(([-np.inf], thresholds, [np.inf]))
        want = np.count_nonzero(
            np.searchsorted(thresholds, r, side="left") != idx)
        assert link._interval_errors(edges, idx, r) == want

    def test_chunks_reach_the_module_attributes(self, monkeypatch):
        # a tracer wraps link.receiver_samples and link.fftconvolve by
        # name; a Monte Carlo call must reach both, once for all its chunks
        calls = {"receiver_samples": 0, "fftconvolve": 0}

        def counted(name):
            orig = getattr(link, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(link, name, counted(name))
        link.monte_carlo_ser(cfg_rc(a=2.0), 3 * link.MC_CHUNK)
        assert calls == {"receiver_samples": 1, "fftconvolve": 1}

    @pytest.mark.parametrize("target", [0, -5, 0.5])
    def test_target_below_one_is_refused(self, target):
        # it would stop after the first chunk whatever the budget
        with pytest.raises(DomainError, match="target must be >= 1"):
            link.monte_carlo_ser(cfg_rc(), 200_000, target)


class TestFftconvolve:
    """``link.fftconvolve`` against ``np.convolve``, a direct sum."""

    @pytest.mark.parametrize("n1, n2", [
        (1, 1), (1, 40), (1, 41), (40, 1), (41, 1), (16384, 1),
        (16384, 17), (96, 191), (97, 193), (8, 5), (5, 8)])
    def test_matches_direct_sum(self, n1, n2):
        rng = np.random.default_rng(n1 + n2)
        in1, in2 = rng.normal(size=n1), rng.normal(size=n2)
        full = np.convolve(in1, in2, mode="full")
        start = (full.size - n1) // 2
        want = full[start:start + n1]
        got = link.fftconvolve(in1, in2)
        assert got.shape == want.shape
        scale = np.abs(in1).sum() * np.abs(in2).sum()
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_one_element_is_the_plain_product(self):
        in1 = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(link.fftconvolve(in1, [3.0]), in1 * 3.0)

    def test_one_helper_for_receiver_and_waveform(self):
        assert waveform.fftconvolve is link.fftconvolve

    @pytest.mark.parametrize("taps", [1, 3, 5, 17, 33])
    def test_receiver_bits_match_scipy_signal(self, taps):
        signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(taps)
        symbols = rng.integers(0, 4, size=16384).astype(float)
        h = rng.normal(size=taps)
        assert np.array_equal(link.fftconvolve(symbols, h),
                              signal.fftconvolve(symbols, h, "same"))

    @pytest.mark.parametrize("rate, n_total", [
        (8, 12), (16, 41), (32, 20), (32, 73), (64, 100)])
    def test_superpose_bits_match_scipy_signal(self, rate, n_total):
        # the upsampled train and the 2 n_grid - 1 taps of waveform._superpose
        signal = pytest.importorskip("scipy.signal")
        p = pulses.PulseSpec("rc", 0.5)
        n_grid = rate * n_total
        up = np.zeros(n_grid)
        up[::rate] = np.random.default_rng(rate).integers(0, 2, n_total)
        taps = pulses.evaluate(p, np.arange(1 - n_grid, n_grid)
                               * (p.ts / rate))
        assert np.array_equal(link.fftconvolve(up, taps),
                              signal.fftconvolve(up, taps, "same"))

    def test_fast_len_is_the_smallest_5_smooth(self):
        def smooth(m):
            for f in (2, 3, 5):
                while m % f == 0:
                    m //= f
            return m == 1

        want = 1
        for n in range(1, 5001):
            while want < n or not smooth(want):
                want += 1
            assert link._fast_len(n) == want, n


def test_import_loads_no_scipy():
    # any part of scipy loads its array-API layer, about 0.3 s and 26 MB
    # at import; the package needs none of it
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, imdd, imdd.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "[]\n"


def test_only_monte_carlo_draws_random_numbers(monkeypatch):
    # every other layer takes its symbols from the caller or draws none
    def refuse(*args, **kwargs):
        raise AssertionError("drew random numbers")

    bias.clear_caches()               # the bias searches run cold, too
    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    xia = pulses.PulseSpec("xia", 0.5)
    train = [0.0, 1.0] * (pulses.effective_guard(xia) + 2)
    mu = bias.required_bias(xia, OOK).mu
    waveform.synthesize(xia, OOK, train, mu=mu)
    for receiver in link.RECEIVERS:
        waveform.eye_diagram(xia, OOK, train, receiver)
    waveform.optical_powers(xia, OOK, mu=mu)
    gains.gain_point("equal-eye", "sampling", xia, OOK)
    gains.gain_point("equal-ser", "matched", xia, OOK, 1e-6)
    link.amplitude_for_ser(cfg_rc(), 1e-6)
    with pytest.raises(AssertionError, match="drew random numbers"):
        link.monte_carlo_ser(cfg_rc(), link.MC_MIN_SYMBOLS)
