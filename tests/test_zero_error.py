import math
import warnings

import numpy as np
import pytest
from scipy import stats

from rdrisk.errors import DomainError
from rdrisk.mc import mc_mean, rng_stream
from rdrisk.rdcore import rd_lower_pointwise
from rdrisk.specfun import EULER_GAMMA, harmonic
from rdrisk.zero_error import (_interval_widths, estimator_risk_exact,
                               estimator_risk_rederived, mi_monte_carlo,
                               mutual_information_exact, risk_lower_l1,
                               sample_complexity, simulate_estimator_risk)

# The threshold posterior has one interpolation point (theta) and two
# classes, so THRESHOLD = (d_star, M) = (1, 2).  The published
# rate-distortion bound is rd_lower_pointwise at posterior entropy 0; the
# re-derived one, from maximizing the entropy at moment D^p / 2, is the
# same bound at entropy (ln 2) / p.
THRESHOLD = (1, 2)


def test_mutual_information_exact_values():
    assert mutual_information_exact(0) == 0.0
    assert mutual_information_exact(1) == pytest.approx(0.5, rel=1e-15)
    assert mutual_information_exact(10) == pytest.approx(
        2.01987734487734487734487734488, rel=1e-13)


def test_mutual_information_asymptote():
    n = 10 ** 6
    gap = mutual_information_exact(n) - math.log(n) - (EULER_GAMMA - 1.0)
    assert abs(gap) < 1e-5


def test_mi_monte_carlo_matches_exact():
    for n in (1, 10):
        est = mi_monte_carlo(n, trials=200_000, seed=701)
        assert abs(est.mean - mutual_information_exact(n)) < 3 * est.stderr
    with pytest.raises(DomainError):
        mi_monte_carlo(1, trials=10, seed=0)


class ZeroedUniforms:
    """Generator stand-in: real uniforms with the entries at ``zeros`` set to 0."""

    def __init__(self, rng, zeros):
        self.rng, self.zeros, self.calls = rng, zeros, []

    def random(self, size=None, out=None):
        u = self.rng.random(size, out=out)
        for index in self.zeros:
            u[index] = 0.0
        self.calls.append(u.shape)
        return u


def zeroed_streams(monkeypatch, zeros):
    """Make chunk 0 of every mc_mean run draw through ZeroedUniforms."""
    import rdrisk.mc as mc

    real, stubs = mc.rng_stream, []

    def stream(seed, stream_id):
        rng = real(seed, stream_id)
        if stream_id == 0:
            rng = ZeroedUniforms(rng, zeros)
            stubs.append(rng)
        return rng

    monkeypatch.setattr(mc, "rng_stream", stream)
    return stubs


def test_mi_monte_carlo_zero_width_raises(monkeypatch):
    # U1 = U2 = 0 makes the antithetic width of trial 0 exactly 0, so
    # -ln 0 = inf; the run must fail, not redraw.
    stubs = zeroed_streams(monkeypatch, [(0, 0), (1, 0)])
    with np.errstate(divide="ignore"), \
            pytest.raises(DomainError, match="non-finite values in chunk 0"):
        mi_monte_carlo(10, trials=1000, seed=1)
    assert [stub.calls for stub in stubs] == [[(2, 16)]]


@pytest.mark.parametrize("simulate, zeros, draws", [
    pytest.param(simulate_estimator_risk, [(0,)], (1000,), id="simulate_estimator_risk"),
    pytest.param(mi_monte_carlo, [(0, 0), (1, 1)], (2, 1000), id="mi_monte_carlo")])
def test_zero_uniform_gives_width_one_without_warning(monkeypatch, simulate, zeros, draws):
    # U = 0 gives E = -ln 0 = inf, so its width is 1 and its antithetic
    # partner's E is 0: every trial stays finite, and log(0) stays silent.
    # The MI draws (U1, U2) for each trial and the estimator one U, whose
    # E[W | E1 = inf] is 1 as well.
    widths = _interval_widths(ZeroedUniforms(rng_stream(730, 0), [(0, 0), (1, 1)]), 10, 1000)
    assert widths[0, 0] == widths[0, 1] == 1.0
    assert np.isfinite(widths).all() and (widths > 0.0).all()
    stubs = zeroed_streams(monkeypatch, zeros)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = simulate(10, trials=1000, seed=731, chunks=1)
    assert [stub.calls for stub in stubs] == [[draws]]
    assert math.isfinite(est.mean) and est.stderr > 0.0
    if simulate is simulate_estimator_risk:
        trials = estimator_trials(ZeroedUniforms(rng_stream(731, 0), zeros).random(1000), 10)
        assert trials[0] == pytest.approx((1.0 + 1.0 / 11.0) / 8.0, rel=1e-15)
        assert est.mean == trials.mean()


def test_mi_monte_carlo_stderr_scales():
    small = mi_monte_carlo(5, trials=10_000, seed=702)
    large = mi_monte_carlo(5, trials=160_000, seed=702)
    assert large.stderr == pytest.approx(small.stderr / 4.0, rel=0.15)


def test_rd_lower_values():
    # published: [-ln(2 Gamma(1 + 1/p)) - (1/p) ln(p e) - ln D]^+
    assert rd_lower_pointwise(0.0, *THRESHOLD, 1.0, 1.0 / (2.0 * math.e)) == pytest.approx(
        0.0, abs=1e-12)
    assert rd_lower_pointwise(0.0, *THRESHOLD, 1.0, 0.01) == pytest.approx(
        2.91202300542814605861875078791, rel=1e-13)
    assert rd_lower_pointwise(0.0, *THRESHOLD, 1.0, 1.0) == 0.0
    assert rd_lower_pointwise(0.0, *THRESHOLD, 1.0, 2.0) == 0.0
    with pytest.raises(DomainError):
        rd_lower_pointwise(0.0, *THRESHOLD, 1.0, 0.0)


def test_rd_lower_at_huge_finite_p():
    # p e overflows above about 6.6e307; the bound must not collapse to 0
    at_1e307 = rd_lower_pointwise(0.0, *THRESHOLD, 1e307, 1e-3)
    assert rd_lower_pointwise(0.0, *THRESHOLD, 7e307, 1e-3) == pytest.approx(at_1e307,
                                                                          rel=1e-15)
    assert at_1e307 == pytest.approx(-math.log(2e-3), rel=1e-12)
    assert rd_lower_pointwise(math.log(2.0) / 7e307, *THRESHOLD, 7e307, 1e-3) \
        == pytest.approx(at_1e307, rel=1e-15)


def test_rd_lower_rederived_offset():
    # the entropy-maximizing route adds exactly (1/p) ln 2 pre-clamp
    for p in (1.0, 2.0, 4.0):
        for dist in (0.001, 0.01):
            published = rd_lower_pointwise(0.0, *THRESHOLD, p, dist)
            rederived = rd_lower_pointwise(math.log(2.0) / p, *THRESHOLD, p, dist)
            assert rederived - published == pytest.approx(math.log(2.0) / p, abs=1e-12)


def test_chain_discrepancy_logged():
    # displayed chain: mi >= -ln(2 e L1); inline chain drops the ln 2.
    # Both n-thresholds are reproduced; the displayed one is primary.
    l1 = 0.01
    displayed = math.exp(-EULER_GAMMA) / (2.0 * l1) - 1.0
    inline = math.exp(-EULER_GAMMA) / l1 - 1.0
    got = sample_complexity(l1).n_necessary
    assert got == pytest.approx(displayed, rel=1e-12)
    print(f"n_necessary displayed={displayed:.6f} inline-variant={inline:.6f}")


def test_estimator_risk_exact_published_values():
    assert estimator_risk_exact(0) == 0.25
    assert estimator_risk_exact(1) == 0.125
    assert estimator_risk_exact(99) == 1.0 / 400.0


def test_estimator_risk_rederived_values():
    # size-biased width: E[width] = 2/(n+2), so e_abs = 1/(2(n+2))
    assert estimator_risk_rederived(0) == 0.25
    assert estimator_risk_rederived(1) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert estimator_risk_rederived(99) == pytest.approx(1.0 / 202.0, rel=1e-15)


def reference_interval(rng, n, count):
    """Brute-force (theta, theta_l, theta_r): draws all n training points."""
    theta = rng.uniform(size=count)
    x = rng.uniform(size=(count, n))
    right = x >= theta[:, None]
    theta_r = np.where(right, x, 1.0).min(axis=1)
    theta_l = np.where(~right, x, 0.0).max(axis=1)
    return theta, theta_l, theta_r


def test_simulated_width_is_size_biased():
    # E[theta_r - theta_l] = 2/(n+2), not the unweighted spacing 1/(n+1)
    n = 9
    _, theta_l, theta_r = reference_interval(rng_stream(703, 0), n, 200_000)
    width = theta_r - theta_l
    stderr = width.std(ddof=1) / math.sqrt(width.size)
    assert abs(width.mean() - 2.0 / (n + 2)) < 3 * stderr
    assert abs(width.mean() - 1.0 / (n + 1)) > 30 * stderr


@pytest.mark.parametrize("n", [1, 7, 50])
def test_widths_match_brute_force_reference(n):
    # the exact Beta(2, n) width law of both pair members against the O(n)
    # construction, and theta at a uniform fraction of the interval,
    # independent of its width
    theta, theta_l, theta_r = reference_interval(rng_stream(710, n), n, 20_000)
    width = theta_r - theta_l
    for drawn in _interval_widths(rng_stream(711, n), n, 20_000):
        assert stats.ks_2samp(drawn, width).pvalue > 1e-3
    fraction = (theta - theta_l) / width
    assert stats.kstest(fraction, "uniform").pvalue > 1e-3
    assert abs(stats.spearmanr(fraction, width).statistic) < 4.0 / math.sqrt(width.size)


def beta_2_n_cdf(n):
    """P(W <= w) = 1 - (1 - w)^n (1 + n w) for W ~ Beta(2, n)."""
    return lambda w: 1.0 - np.exp(n * np.log1p(-w)) * (1.0 + n * w)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 10 ** 6])
def test_both_pair_members_are_beta_2_n(n):
    widths = _interval_widths(rng_stream(740, n), n, 20_000)
    for member in widths:
        assert stats.kstest(member, beta_2_n_cdf(n)).pvalue > 1e-3
    # antithetic: the members are negatively correlated
    assert stats.spearmanr(widths[0], widths[1]).statistic < -0.5


def test_laws_at_a_million_points():
    # O(1)-in-n samplers make n = 10^6 as cheap as n = 1
    n = 10 ** 6
    risk = simulate_estimator_risk(n, trials=10 ** 6, seed=712)
    assert abs(risk.mean - 1.0 / (2.0 * (n + 2))) < 4 * risk.stderr
    mi = mi_monte_carlo(n, trials=10 ** 6, seed=713)
    assert abs(mi.mean - (harmonic(n + 1) - 1.0)) < 4 * mi.stderr


@pytest.mark.parametrize("n", [0, 1, 9, 99])
def test_simulator_matches_rederived_law(n):
    est = simulate_estimator_risk(n, trials=200_000, seed=704)
    if n == 0:
        # the width is 1, so every trial returns 1/4 exactly
        assert est.mean == 0.25 and est.stderr == 0.0
    else:
        assert abs(est.mean - estimator_risk_rederived(n)) < 3 * est.stderr


def estimator_trials(u, n):
    """The version-9 estimator trials at uniforms ``u``, written out: the
    mean of E[W | E1] / 4 at E1 = -ln U and at E1 = -ln(1 - U), where
    E[W | E1] = 1/(n+1) - (n/(n+1)) expm1(-E1 / (n + 1))."""
    with np.errstate(divide="ignore"):
        x = np.expm1(np.log(np.stack([u, 1.0 - u])) / float(n + 1))
    return 0.25 / (n + 1) - 0.125 * (n / (n + 1)) * (x[0] + x[1])


@pytest.mark.parametrize("n", [0, 1, 1000])
def test_simulator_trial_is_the_mean_width_given_e1(n):
    # one chunk draws the uniforms of stream 0 and nothing else; a trial is
    # the antithetic mean of E[W | E1] / 4, bit for bit
    est = simulate_estimator_risk(n, trials=10_000, seed=720, chunks=1)
    trials = estimator_trials(rng_stream(720, 0).random(10_000), n)
    assert est.mean == trials.mean()
    assert est.stderr == pytest.approx(trials.std(ddof=1) / math.sqrt(trials.size),
                                       rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [2 ** 63 - 1, 1e300])
def test_simulator_at_huge_n(n):
    # both terms of E[W | E1] stay positive, so nothing cancels to 0
    est = simulate_estimator_risk(n, trials=100_000, seed=723)
    assert math.isfinite(est.mean) and est.stderr > 0.0
    assert abs(est.mean - estimator_risk_rederived(n)) < 4 * est.stderr


def simulate_risk_by_place(n, trials, seed):
    """The version-4 sampler: draws a Beta(2, n) width and theta's uniform
    place U in the interval, and returns width * |U - 1/2| per trial."""
    def sampler(rng, count):
        widths = rng.beta(2.0, n, size=count)
        return widths * np.abs(rng.uniform(size=count) - 0.5)

    return mc_mean(sampler, trials, seed)


def simulate_risk_by_width_pairs(n, trials, seed):
    """The version-8 sampler: (W + W') / 8 over one antithetic pair of widths."""
    return mc_mean(lambda rng, count: 0.125 * _interval_widths(rng, n, count).sum(axis=0),
                   trials, seed)


@pytest.mark.parametrize("n, gain", [(1, 8.0), (2, 1.8), (5, 1.8), (100, 1.8), (1000, 1.8)])
def test_simulator_agrees_with_width_pair_sampler(n, gain):
    # integrating E2 out keeps the law of the version-8 trial and lowers
    # its variance (Rao-Blackwell), most at small n
    est = simulate_estimator_risk(n, trials=200_000, seed=752)
    ref = simulate_risk_by_width_pairs(n, 200_000, seed=753)
    assert abs(est.mean - ref.mean) <= 4 * math.hypot(est.stderr, ref.stderr)
    assert (ref.stderr / est.stderr) ** 2 >= gain


def simulate_risk_by_width(n, trials, seed):
    """The version-5 sampler: width / 4 for one Beta(2, n) width per trial."""
    return mc_mean(lambda rng, count: 0.25 * rng.beta(2.0, n, size=count), trials, seed)


def mi_by_width(n, trials, seed):
    """The version-5 Monte-Carlo MI: -ln width for one Beta(2, n) width per trial."""
    return mc_mean(lambda rng, count: -np.log(rng.beta(2.0, n, size=count)), trials, seed)


def variance_ratio(n):
    """Var(width |U - 1/2|) / Var(width / 4) for a Beta(2, n) width, from
    E|U - 1/2| = 1/4, E(U - 1/2)^2 = 1/12 and r = E W^2 / (E W)^2."""
    r = 3.0 * (n + 2) / (2.0 * (n + 3))
    return (4.0 * r / 3.0 - 1.0) / (r - 1.0)


@pytest.mark.parametrize("n", [1, 2, 5, 100, 1000])
def test_simulator_agrees_with_place_drawing_sampler(n):
    est = simulate_estimator_risk(n, trials=100_000, seed=721)
    ref = simulate_risk_by_place(n, 100_000, seed=722)
    assert abs(est.mean - ref.mean) <= 4 * math.hypot(est.stderr, ref.stderr)
    # width / 4 has variance_ratio(n) times less variance than the
    # version-4 trial (Rao-Blackwell), and averaging a negatively
    # correlated pair of them at least halves it again
    assert (ref.stderr / est.stderr) ** 2 >= 2.0 * variance_ratio(n)


@pytest.mark.parametrize("n", [1, 2, 5, 100, 1000])
def test_antithetic_pairs_agree_with_one_width_samplers(n):
    # same laws as the version-5 samplers, with at least 5x (estimator)
    # and 4.5x (MI) less variance per trial
    for simulate, reference, gain in ((simulate_estimator_risk, simulate_risk_by_width, 5.0),
                                      (mi_monte_carlo, mi_by_width, 4.5)):
        est = simulate(n, trials=200_000, seed=750)
        ref = reference(n, 200_000, seed=751)
        assert abs(est.mean - ref.mean) <= 4 * math.hypot(est.stderr, ref.stderr)
        assert (ref.stderr / est.stderr) ** 2 >= gain


def test_simulator_decreasing_in_n():
    means = [simulate_estimator_risk(n, trials=20_000, seed=705).mean
             for n in (1, 5, 25, 125)]
    assert all(b < a for a, b in zip(means, means[1:]))


def test_risk_lower_l1_below_achievable():
    for n in (0, 1, 10, 100):
        assert risk_lower_l1(n) <= 2.0 * estimator_risk_rederived(n)
        assert risk_lower_l1(n) <= 2.0 * estimator_risk_exact(n)


def test_risk_lower_l1_from_mi_is_exp_minus_harmonic():
    # exp(-(I + 1)) / 2 rounds to the same float as exp(-H_{n+1}) / 2, so
    # taking the row's mutual information leaves every bounds byte as it was
    grid = [int(round(10 * 1e6 ** (i / 23))) for i in range(24)]
    for n in [*range(2001), *grid, 99_999, 100_000, 100_001, 10**6, 10**7, 10**9]:
        expected = math.exp(-harmonic(n + 1)) / 2.0
        assert risk_lower_l1(n) == expected
        assert risk_lower_l1(n, mutual_information_exact(n)) == expected
    with pytest.raises(DomainError):
        risk_lower_l1(-1, 0.0)


def test_sample_complexity():
    got = sample_complexity(0.01)
    assert got.n_sufficient == pytest.approx(49.0, rel=1e-14)
    assert got.n_necessary == pytest.approx(27.0729741783442584912071607395, rel=1e-13)
    assert got.n_necessary <= got.n_sufficient
    for l1 in (0.4999, 0.3, 0.01, 1e-6):
        pair = sample_complexity(l1)
        ratio = (pair.n_sufficient + 1.0) / (pair.n_necessary + 1.0)
        assert ratio == pytest.approx(math.exp(EULER_GAMMA), abs=1e-12)
    assert sample_complexity(0.499999).n_sufficient == pytest.approx(0.0, abs=1e-5)
    with pytest.raises(DomainError):
        sample_complexity(0.5)
    with pytest.raises(DomainError):
        sample_complexity(0.0)


def test_exact_risk_slope_is_minus_one():
    ns = np.unique(np.round(np.geomspace(10, 10 ** 4, 40)).astype(int))
    y = np.log([estimator_risk_exact(int(n)) for n in ns])
    slope = np.polyfit(np.log(ns), y, 1)[0]
    assert abs(slope + 1.0) < 0.01


def test_harmonic_consistency():
    # the MI formula is the harmonic partial sum shifted by one
    for n in (0, 1, 5, 50):
        assert mutual_information_exact(n) == pytest.approx(harmonic(n + 1) - 1.0, abs=1e-15)
