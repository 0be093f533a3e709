"""Release acceptance checks: numeric anchors, structural identities and
runtime budgets, one test per criterion.

Every tolerance here is load-bearing.  Where a quantity has a closed form
or an independent oracle the check is made against it rather than against
a frozen value: the equal-eye scenario gap (test_criterion_08a) against its
closed form at B*Tb = 0.75 and pl's exact bias (``oracles.pl_exact_bias``)
at the window maximum, and the matched receiver's closed-form response
(test_criterion_11b) against the lattice autocorrelation.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from imdd import _series, bias, gains, link, pulses, waveform
from imdd.errors import DomainError, NumericalDivergenceError, UnsupportedError

from oracles import pl_exact_bias

OOK = bias.Constellation.pam(2)
PAM4 = bias.Constellation.pam(4)


def test_criterion_01_bias_anchor_and_speed():
    bias.clear_caches()
    t0 = time.perf_counter()
    sol = bias.required_bias(pulses.PulseSpec("rc", 0.6), OOK)
    elapsed = time.perf_counter() - t0
    assert sol.mu == pytest.approx(0.184, abs=0.002)
    assert elapsed < 1.0, f"single bias solve took {elapsed:.2f} s"


def test_criterion_02_nonnegative_pulses_need_no_bias():
    for family in ("s2", "src", "sdj"):
        for m in (2, 4):
            for alpha in (0.2, 0.6, 1.0):
                sol = bias.required_bias(pulses.PulseSpec(family, alpha),
                                         bias.Constellation.pam(m))
                assert 0.0 <= sol.mu <= 1e-12, (family, m, alpha, sol.mu)


def _numerical_signed_fold(pulse, n_t, tol):
    """sum_j q(t_i - j ts) at t_i = i ts / n_t, i < n_t, from plain partial
    sums at the library's budget for ``tol`` plus one Richardson step,
    without imdd.bias.

    For an even pulse the terms j >= 1 at t_i are q(t_{n_t - i} + r ts),
    r >= 0, so one-sided sums on t_0..t_{n_t} serve both halves of the
    lattice and halve the evaluations; xia is summed two-sided.
    """
    p, coef, u0 = pulses.tail_envelope(pulse)
    k = _series.k_for_tol(p, coef, u0, tol)
    k += k % 2
    h = k // 2
    u = np.arange(n_t + 1) * (pulse.ts / n_t)

    def shifts(j_lo, j_hi):
        """sum_{j_lo <= j <= j_hi} q(u - j ts)"""
        acc = np.zeros_like(u)
        for lo in range(j_lo, j_hi + 1, 64):
            j = np.arange(lo, min(lo + 64, j_hi + 1), dtype=float)
            acc += pulses.evaluate(pulse, u[None, :] - j[:, None] * pulse.ts
                                   ).sum(axis=0)
        return acc

    if pulse.family == "xia":
        core = shifts(-h, h)
        wing = shifts(-k, -h - 1) + shifts(h + 1, k)
    else:
        # one-sided pieces r = 0..h-1, h, h+1..k-1, k; the mirror half at
        # t_i reads them at t_{n_t - i}
        a, b, c, d = (shifts(-h + 1, 0), shifts(-h, -h),
                      shifts(-k + 1, -h - 1), shifts(-k, -k))
        core = a + b + a[::-1]
        wing = c + d + (b + c)[::-1]
    return _series.extrapolate(core, wing, p - 1.0)[:-1]


def test_criterion_03_folded_sum_constancy():
    """For every pulse confined to the symbol rate, the symbol-spaced pulse
    train sums to the constant q_bar at every offset; for the two wideband
    pulses it is q_bar + 2 c1 cos(2 pi t / ts), with c1 = alpha/8 (src)
    and alpha/4 (sdj).  The closed form is checked against a numerical
    fold."""
    t_grid = np.linspace(0.0, 1.0, 1000, endpoint=False)
    t0 = time.perf_counter()
    for family in pulses.FAMILIES:
        for alpha in (0.1, 0.5, 1.0):
            p = pulses.PulseSpec(family, alpha)
            c1 = {"src": alpha / 8.0, "sdj": alpha / 4.0}.get(family, 0.0)
            line = (pulses.metadata(p).q_bar
                    + 2.0 * c1 * np.cos(2.0 * np.pi * t_grid))
            fs = bias._signed(p, t_grid)
            np.testing.assert_allclose(fs, line, rtol=0, atol=1e-15)
            num = _numerical_signed_fold(p, t_grid.size, 1e-6)
            dev = float(np.max(np.abs(fs - num)))
            assert dev < 1e-6, (family, alpha, dev)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"constancy sweep took {elapsed:.2f} s"


def test_criterion_04_offset_invariance():
    """Shifting all symbol levels by c and lowering the bias by c*q_bar
    leaves the transmitted intensity unchanged, pointwise."""
    cases = [
        (pulses.PulseSpec("rc", 0.6), 18000),    # cubic tail
        (pulses.PulseSpec("poly", 0.5), 1024),   # quartic tail
    ]
    rate, n = 32, 16
    for pulse, guard in cases:
        train = np.random.default_rng(5).choice(np.asarray(OOK.levels),
                                                size=n + 2 * guard)
        mu0 = bias.required_bias(pulse, OOK).mu
        q_bar = pulses.metadata(pulse).q_bar
        sl = slice(guard * rate, (guard + n) * rate)
        for c in (-0.5, 0.25, 1.0):
            ref = waveform.synthesize(pulse, OOK, train, mu=mu0 + c * q_bar,
                                      rate=rate, guard=guard)
            shifted = waveform.synthesize(
                pulse, bias.Constellation((c, 1.0 + c)), train + c,
                mu=mu0, rate=rate, guard=guard)
            dev = float(np.max(np.abs(shifted.samples[sl] - ref.samples[sl])))
            assert dev < 1e-9, (pulse.family, c, dev)


def test_criterion_05_peak_power_is_twice_average():
    for family in ("rc", "btn", "pl", "poly", "rrc", "xia"):
        for m in (2, 4):
            for alpha in (0.3, 0.7, 1.0):
                p = pulses.PulseSpec(family, alpha)
                c = bias.Constellation.pam(m)
                mu = bias.required_bias(p, c).mu
                pw = waveform.optical_powers(p, c, mu=mu)
                rel = abs(pw.p_max - 2.0 * pw.p_opt) / pw.p_max
                assert rel < 1e-6, (family, m, alpha, rel)


def _nyquist_residual(pulse, k_max=20):
    """max |q(k ts)| over 1 <= |k| <= k_max; ~0 certifies zero ISI."""
    k = np.arange(1, k_max + 1) * pulse.ts
    lags = np.concatenate([-k[::-1], k])
    return float(np.max(np.abs(pulses.evaluate(pulse, lags))))


def _lattice_autocorrelation(pulse, tau, tol=1e-9):
    """rho(tau) = Int q(t) q(t - tau) dt at each ``tau``, integrated
    directly as a lattice sum of the pulse product, without the closed
    form; absolute error <= tol*ts per point.

    The product is bandlimited to 2B, so a lattice step below 1/(2B) sums
    it exactly (Poisson summation) and only the tail cut errs.  The
    product decays like coef^2/|t/ts|^(2p); the cut makes that tail, after
    one Richardson step on the sums over the inner and the full lattice,
    smaller than tol (the fold's model, with the same gain 16).
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    p, coef, u0 = pulses.tail_envelope(pulse)
    p, coef = 2.0 * p, coef * coef
    rate = max(8, int(math.ceil(2.0 * pulses.metadata(pulse).b_ts * 1.05)) + 2)
    u_cut = max((2.0 * coef * 16.0 / ((p - 1.0) * tol * rate)) ** (1.0 / p),
                8.0)
    u_cut += np.max(np.abs(tau)) / pulse.ts + u0
    m_full = max(int(math.ceil(u_cut * rate)), 8 * rate)
    m_full += m_full % 2
    m_half = m_full // 2
    times = np.arange(-m_full, m_full + 1) * (pulse.ts / rate)
    q0 = pulses.evaluate(pulse, times)
    out = np.empty(tau.size)
    chunk = max(1, int(4e6 // times.size))   # bound the (tau, m) product
    for lo in range(0, tau.size, chunk):
        tt = tau[lo:lo + chunk]
        prod = q0[None, :] * pulses.evaluate(pulse,
                                             times[None, :] - tt[:, None])
        core = prod[:, m_full - m_half:m_full + m_half + 1].sum(axis=1)
        wing = prod.sum(axis=1) - core
        out[lo:lo + chunk] = ((core + wing + wing / (2.0 ** (p - 1.0) - 1.0))
                              * (pulse.ts / rate))
    return out


def test_criterion_06_isi_free_certificates():
    nyquist = ("rc", "btn", "pl", "poly", "s2", "src", "sdj", "xia")
    for family in nyquist:
        for alpha in (0.2, 0.6, 1.0):
            res = _nyquist_residual(pulses.PulseSpec(family, alpha))
            assert res < 1e-9, (family, alpha, res)
    for family in ("rrc", "xia"):
        for alpha in (0.2, 0.6, 1.0):
            p = pulses.PulseSpec(family, alpha)
            for k in range(1, 11):
                ac = abs(_lattice_autocorrelation(p, k * p.ts)[0])
                assert ac < 1e-6 * p.ts, (family, alpha, k, ac)


def test_criterion_07_rrc_matched_gain_peak():
    bias.clear_caches()
    grid = np.round(np.arange(0.3, 1.0 + 1e-9, 0.005), 10)
    t0 = time.perf_counter()
    res = list(gains.gain_grid("equal-ser", ["rrc"], grid, [2], 1e-6,
                               receivers=("matched",)))
    elapsed = time.perf_counter() - t0
    pts = [p for _, p in res]
    assert all(isinstance(p, gains.GainPoint) for p in pts)
    assert len(pts) == len(grid)
    best = max(pts, key=lambda p: p.gain_db)
    assert best.gain_db == pytest.approx(-0.22, abs=0.05)
    assert best.b_tb == pytest.approx(0.86, abs=0.02)
    assert elapsed < 30.0, f"matched-gain sweep took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# Scenario-gap anchors share one set of gain curves over a common alpha grid;
# curves are keyed by normalized bandwidth so different scenarios/orders can
# be compared pointwise.

_ALPHA_GRID_8 = np.round(np.arange(0.02, 1.0 + 1e-9, 0.01), 10)


@lru_cache(maxsize=None)
def _gain_curve(scenario: str, family: str, m: int, receiver: str):
    out = {}
    for alpha in _ALPHA_GRID_8:
        try:
            pt = gains.gain_point(
                scenario, receiver, pulses.PulseSpec(family, float(alpha)),
                bias.Constellation.pam(m), 1e-6)
        except (DomainError, UnsupportedError, NumericalDivergenceError):
            continue
        out[round(pt.b_tb, 10)] = pt.gain_db
    return out


def _upper_envelope(curves):
    env = {}
    for curve in curves:
        for b, g in curve.items():
            if g > env.get(b, -math.inf):
                env[b] = g
    return env


def _max_gap(top, bottom):
    gaps = {b: top[b] - bottom[b]
            for b in top if b in bottom and 0.5 < b < 1.0}
    b_star = max(gaps, key=gaps.get)
    return gaps[b_star], b_star


def test_criterion_08a_equal_eye_gap():
    biased = _upper_envelope(
        [_gain_curve("equal-eye", f, 2, "sampling")
         for f in ("rc", "btn", "pl", "poly")])
    unbiased4 = _upper_envelope(
        [_gain_curve("equal-eye", f, 4, "sampling")
         for f in ("src", "sdj")])

    # Closed-form point.  Equal-eye gain is -10 log10(2 (mu + E{a} q_bar))
    # per unit eye.  At alpha = 0.5 (B*Tb = 0.75) pl and btn need
    # mu = (sqrt 2 - 1)/2, so OOK gives -10 log10(sqrt 2); sdj 4-PAM needs
    # no bias and has q_bar = 3/4, so it gives -10 log10(9/4).
    exact = 10.0 * math.log10(2.25 / math.sqrt(2.0))
    assert biased[0.75] - unbiased4[0.75] == pytest.approx(exact, abs=1e-6)

    # Window maximum against the oracle at it and its two grid neighbours,
    # where the biased envelope is pl and the unbiased one is sdj.
    gap, b_star = _max_gap(biased, unbiased4)
    alpha_star = 2.0 * b_star - 1.0
    oracle = {}
    for alpha in (round(alpha_star + d, 10) for d in (-0.01, 0.0, 0.01)):
        b = round((1.0 + alpha) / 2.0, 10)
        mu = pl_exact_bias(alpha)
        oracle[b] = 10.0 * math.log10(3.0 * (1.0 - alpha / 2.0)
                                      / (1.0 + 2.0 * mu))
        program = biased[b] - unbiased4[b]
        assert program == pytest.approx(oracle[b], abs=1e-4), (
            f"equal-eye gap at B*Tb = {b}: {program:.6f} dB, "
            f"oracle {oracle[b]:.6f} dB")
    assert max(oracle, key=oracle.get) == b_star, (gap, b_star, oracle)


def test_criterion_08a_bias_near_resonance():
    """Near alpha = 1 a coarse fold of sum |q| alone has a tail error as
    large as the objective; the search sums pl's fold exactly there, so it
    must land on the oracle from both sides."""
    sol = bias.required_bias(pulses.PulseSpec("pl", 0.985), OOK)
    assert abs(sol.mu - pl_exact_bias(0.985)) <= 1e-12


def test_criterion_08b_rrc_over_best_nyquist():
    rrc = _upper_envelope(
        [_gain_curve("equal-ser", "rrc", m, "matched") for m in (2, 4)])
    nyquist = _upper_envelope(
        [_gain_curve("equal-ser", f, m, "sampling")
         for f in ("rc", "btn", "pl", "poly", "s2", "src", "sdj", "xia")
         for m in (2, 4)])
    gap, b_star = _max_gap(rrc, nyquist)
    assert gap == pytest.approx(0.74, abs=0.1), (gap, b_star)


def test_criterion_08c_rrc_over_unbiased_pam():
    rrc = _upper_envelope(
        [_gain_curve("equal-ser", "rrc", m, "matched") for m in (2, 4)])
    unbiased = _upper_envelope(
        [_gain_curve("equal-ser", f, m, "sampling")
         for f in ("s2", "src", "sdj") for m in (2, 4)])
    gap, b_star = _max_gap(rrc, unbiased)
    assert gap == pytest.approx(2.80, abs=0.1), (gap, b_star)


# The abstract's conclusion: "depending on the bandwidth required, the most
# power-efficient transmission is obtained by the parametric linear pulse,
# the so-called better than Nyquist pulse, or the root-raised cosine pulse".
# Measured on the equal-SER curves above (alpha step 0.01), each key wins
# the upper envelope on the B*Tb band in its comment; the points checked
# lie at least 0.02 inside it.
_EQUAL_SER_WINNERS = {
    ("rrc", 4, "matched"): (0.3, 0.36, 0.42),          # up to 0.44
    ("pl", 4, "sampling"): (0.46, 0.47),               # 0.44 to 0.50
    ("rrc", 2, "matched"): (0.55, 0.65, 0.75, 0.85),   # 0.52 to 0.87
    ("pl", 2, "sampling"): (0.9, 0.95),                # 0.87 to 1.00
    ("sdj", 2, "sampling"): (1.1, 1.3, 1.5),           # from 1.02
}


def test_criterion_12_most_power_efficient_pulse_by_bandwidth():
    """Which pulse wins at equal SER, by bandwidth.  pl and rrc win where
    the abstract says; btn, which it also names, never wins at equal SER
    (it wins only at equal eye, in turns with pl), and beyond
    B*Tb = 1, where no biased pulse reaches, the unbiased sdj wins.  Every
    curve runs over the same alpha grid, so curves with the same bandwidth
    law share their B*Tb points and no interpolation is needed."""
    curves = {(f, m, rx): _gain_curve("equal-ser", f, m, rx)
              for f, rx in [*((f, "sampling") for f in (
                  "rc", "btn", "pl", "poly", "s2", "src", "sdj", "xia")),
                  ("rrc", "matched"), ("xia", "matched")]
              for m in (2, 4)}

    def best(b, keep=lambda key: True):
        return max(((c[b], key) for key, c in curves.items()
                    if b in c and keep(key)), default=(-math.inf, None))

    for key, points in _EQUAL_SER_WINNERS.items():
        for b in points:
            assert best(b)[1] == key, (b, best(b))
    for b in set().union(*curves.values()):
        btn = best(b, lambda key: key[0] == "btn")[0]
        assert btn < best(b, lambda key: key[0] != "btn")[0], b


def test_criterion_09_bias_curve_orderings():
    def mu(family, alpha):
        return bias.required_bias(pulses.PulseSpec(family, alpha), OOK).mu

    assert mu("poly", 0.5) > mu("pl", 0.5)
    assert mu("poly", 0.5) > mu("btn", 0.5)
    assert mu("rc", 0.5) > mu("pl", 0.5)
    assert mu("rc", 0.5) > mu("btn", 0.5)
    assert mu("btn", 0.55) < mu("pl", 0.55)
    assert mu("pl", 0.70) < mu("btn", 0.70)
    others = ("rc", "btn", "pl", "poly", "s2", "src", "sdj", "rrc")
    assert all(mu("xia", 0.5) > mu(f, 0.5) for f in others)

    grid = np.round(np.arange(0.65, 0.78 + 1e-9, 0.0025), 10)
    curve = [mu("rrc", float(a)) for a in grid]
    i = int(np.argmin(curve))
    assert 0 < i < len(grid) - 1, "minimum must be interior to the scan"
    assert abs(grid[i] - 0.715) <= 0.01


def test_criterion_10_monte_carlo_matches_analytic():
    cases = []
    for family, receivers in (("rc", ("sampling",)),
                              ("xia", ("sampling", "matched"))):
        for receiver in receivers:
            for m in (2, 4):
                cases.append((family, receiver, m))
    assert len(cases) == 6

    t0 = time.perf_counter()
    for family, receiver, m in cases:
        probe = link.LinkConfig(pulse=pulses.PulseSpec(family, 0.5),
                                constellation=bias.Constellation.pam(m),
                                receiver=receiver, seed=0)
        a = link.amplitude_for_ser(probe, 1e-2)
        cfg = link.LinkConfig(pulse=pulses.PulseSpec(family, 0.5),
                              constellation=bias.Constellation.pam(m),
                              receiver=receiver, a=a, seed=0)
        est = link.monte_carlo_ser(cfg, 100_000)
        assert est.p_analytic == pytest.approx(1e-2, rel=1e-9)
        assert abs(est.p_hat - 1e-2) < 3 * est.ci95, (family, receiver, m,
                                                      est.p_hat, est.ci95)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"six Monte Carlo runs took {elapsed:.2f} s"


def test_criterion_11a_bias_grid_doubling(monkeypatch):
    cases = (("rc", 0.6), ("pl", 0.7), ("btn", 0.45), ("poly", 0.3),
             ("rrc", 0.715), ("xia", 0.5))
    specs = [pulses.PulseSpec(family, alpha) for family, alpha in cases]
    coarse = [bias.required_bias(p, OOK).mu for p in specs]
    # the cache holds the 4096-point results: drop them before and after
    # the searches on the doubled grid
    bias.clear_caches()
    monkeypatch.setattr(bias, "GRID_N", 8192)
    try:
        fine = [bias.required_bias(p, OOK).mu for p in specs]
    finally:
        bias.clear_caches()
    for case, mu_c, mu_f in zip(cases, coarse, fine):
        assert abs(mu_f - mu_c) < 1e-8, (case, mu_f - mu_c)


def test_criterion_11b_oversampling_error_reduction():
    """The matched receiver is a symbol-rate model with no oversampled
    correlation left to refine: for the root-Nyquist pulses the
    autocorrelation is rho(tau) = Eq rc(tau/ts), the raised cosine of the
    same roll-off (Xia 1997), so every output sample is exact.  Checked
    here: (a) the closed form against the lattice autocorrelation, which
    integrates the pulse product directly, (b) the receiver's samples
    against the closed-form levels and (c) a matched eye trace against the
    lattice at every one of its sample instants."""
    for family in ("rrc", "xia"):
        for alpha in (0.2, 0.5, 1.0):
            p = pulses.PulseSpec(family, alpha)
            tau = np.linspace(-6.0, 6.0, 241) * p.ts
            eq = pulses.metadata(p).energy_ratio * p.ts
            rc = pulses.evaluate(pulses.PulseSpec("rc", alpha, p.ts), tau)
            lattice = _lattice_autocorrelation(p, tau, tol=1e-10)
            err = float(np.max(np.abs(lattice - eq * rc)))
            assert err < 1e-10 * p.ts, (family, alpha, err)  # <= 4.4e-12

        cfg = link.LinkConfig(pulse=pulses.PulseSpec(family, 0.5),
                              constellation=PAM4, receiver="matched")
        sym = np.random.default_rng(4).choice(np.asarray(PAM4.levels),
                                              size=256)
        det = link.receiver_samples(cfg, sym)
        # a = 1: mu dc + level Eq, with dc = q_bar ts, Eq = E ts
        meta = pulses.metadata(cfg.pulse)
        mu = bias.required_bias(cfg.pulse, PAM4).mu
        table = (mu * meta.q_bar + np.asarray(PAM4.levels)
                 * meta.energy_ratio) * cfg.pulse.ts
        np.testing.assert_allclose(det, table[sym.astype(int)],
                                   rtol=0, atol=1e-12)

    # (c) xia is asymmetric, so its rho = Eq rc relies on the correlation's
    # symmetry, not the pulse's; ts != 1 checks the time scaling
    p = pulses.PulseSpec("xia", 0.5, 2.0)
    rate, n_traces, a = 16, 8, 0.8
    guard = pulses.effective_guard(p)
    full = np.random.default_rng(3).choice(np.asarray(PAM4.levels),
                                           size=n_traces + 1 + 2 * guard)
    eye = waveform.eye_diagram(p, PAM4, full, receiver="matched", rate=rate,
                               a=a)
    grid = ((guard + np.arange(n_traces))[:, None] * rate
            + np.arange(2 * rate)[None, :])
    lags = grid[:, :, None] - rate * np.arange(full.size)[None, None, :]
    uniq, inv = np.unique(lags, return_inverse=True)
    rho = _lattice_autocorrelation(p, uniq * (p.ts / rate), tol=1e-10)
    train = (rho[inv.reshape(lags.shape)] * full).sum(axis=2)
    meta = pulses.metadata(p)
    mu = bias.required_bias(p, PAM4).mu
    expected = a * (mu * meta.q_bar * p.ts + train)
    err = float(np.max(np.abs(eye.traces - expected)))
    assert err < 1e-9 * p.ts, err          # measured 3.3e-10
