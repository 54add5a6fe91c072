import math

import numpy as np
import pytest
from scipy import stats

from rdrisk.errors import DomainError
from rdrisk.mc import rng_stream
from rdrisk.rdcore import InterpolationSpec, rd_lower_pointwise
from rdrisk.specfun import EULER_GAMMA, harmonic
from rdrisk.zero_error import (_interval_widths, estimator_risk_exact,
                               estimator_risk_rederived, mi_monte_carlo,
                               mutual_information_exact, risk_lower_l1,
                               sample_complexity, simulate_estimator_risk)

# The threshold posterior has one interpolation point (theta) and two
# classes.  The published rate-distortion bound is rd_lower_pointwise at
# posterior entropy 0; the re-derived one, from maximizing the entropy at
# moment D^p / 2, is the same bound at entropy (ln 2) / p.
THRESHOLD = InterpolationSpec(1, 1, 2)


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


def test_mi_monte_carlo_zero_width_raises(monkeypatch):
    # A zero width would give -ln 0 = inf; the run must fail, not redraw.
    import rdrisk.zero_error as zero_error

    real = zero_error._interval_widths
    calls = []

    def widths(rng, n, count):
        w = real(rng, n, count)
        if not calls:
            w[0] = 0.0
        calls.append(count)
        return w

    monkeypatch.setattr(zero_error, "_interval_widths", widths)
    with np.errstate(divide="ignore"), \
            pytest.raises(DomainError, match="non-finite values in chunk 0"):
        mi_monte_carlo(10, trials=1000, seed=1)


def test_mi_monte_carlo_stderr_scales():
    small = mi_monte_carlo(5, trials=10_000, seed=702)
    large = mi_monte_carlo(5, trials=160_000, seed=702)
    assert large.stderr == pytest.approx(small.stderr / 4.0, rel=0.15)


def test_rd_lower_values():
    # published: [-ln(2 Gamma(1 + 1/p)) - (1/p) ln(p e) - ln D]^+
    assert rd_lower_pointwise(0.0, THRESHOLD, 1.0, 1.0 / (2.0 * math.e)) == pytest.approx(
        0.0, abs=1e-12)
    assert rd_lower_pointwise(0.0, THRESHOLD, 1.0, 0.01) == pytest.approx(
        2.91202300542814605861875078791, rel=1e-13)
    assert rd_lower_pointwise(0.0, THRESHOLD, 1.0, 1.0) == 0.0
    assert rd_lower_pointwise(0.0, THRESHOLD, 1.0, 2.0) == 0.0
    with pytest.raises(DomainError):
        rd_lower_pointwise(0.0, THRESHOLD, 1.0, 0.0)


def test_rd_lower_at_huge_finite_p():
    # p e overflows above about 6.6e307; the bound must not collapse to 0
    at_1e307 = rd_lower_pointwise(0.0, THRESHOLD, 1e307, 1e-3)
    assert rd_lower_pointwise(0.0, THRESHOLD, 7e307, 1e-3) == pytest.approx(at_1e307,
                                                                          rel=1e-15)
    assert at_1e307 == pytest.approx(-math.log(2e-3), rel=1e-12)
    assert rd_lower_pointwise(math.log(2.0) / 7e307, THRESHOLD, 7e307, 1e-3) \
        == pytest.approx(at_1e307, rel=1e-15)


def test_rd_lower_rederived_offset():
    # the entropy-maximizing route adds exactly (1/p) ln 2 pre-clamp
    for p in (1.0, 2.0, 4.0):
        for dist in (0.001, 0.01):
            published = rd_lower_pointwise(0.0, THRESHOLD, p, dist)
            rederived = rd_lower_pointwise(math.log(2.0) / p, THRESHOLD, p, dist)
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
    assert estimator_risk_exact(0) == (0.25, 0.5)
    assert estimator_risk_exact(1) == (0.125, 0.25)
    assert estimator_risk_exact(99) == (1.0 / 400.0, 1.0 / 200.0)


def test_estimator_risk_rederived_values():
    # size-biased width: E[width] = 2/(n+2), so e_abs = 1/(2(n+2))
    assert estimator_risk_rederived(0) == (0.25, 0.5)
    assert estimator_risk_rederived(1) == pytest.approx((1.0 / 6.0, 1.0 / 3.0), rel=1e-15)
    assert estimator_risk_rederived(99) == pytest.approx((1.0 / 202.0, 1.0 / 101.0), rel=1e-15)


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
    # the exact Beta(2, n) width law against the O(n) construction, and
    # theta at a uniform fraction of the interval, independent of its width
    theta, theta_l, theta_r = reference_interval(rng_stream(710, n), n, 20_000)
    width = theta_r - theta_l
    drawn = _interval_widths(rng_stream(711, n), n, 20_000)
    assert stats.ks_2samp(drawn, width).pvalue > 1e-3
    fraction = (theta - theta_l) / width
    assert stats.kstest(fraction, "uniform").pvalue > 1e-3
    assert abs(stats.spearmanr(fraction, width).statistic) < 4.0 / math.sqrt(width.size)


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
    assert abs(est.mean - estimator_risk_rederived(n).e_abs) < 3 * est.stderr


def test_simulator_decreasing_in_n():
    means = [simulate_estimator_risk(n, trials=20_000, seed=705).mean
             for n in (1, 5, 25, 125)]
    assert all(b < a for a, b in zip(means, means[1:]))


def test_risk_lower_l1_below_achievable():
    for n in (0, 1, 10, 100):
        assert risk_lower_l1(n) <= estimator_risk_rederived(n).l1
        assert risk_lower_l1(n) <= estimator_risk_exact(n).l1


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
    y = np.log([estimator_risk_exact(int(n)).e_abs for n in ns])
    slope = np.polyfit(np.log(ns), y, 1)[0]
    assert abs(slope + 1.0) < 0.01


def test_harmonic_consistency():
    # the MI formula is the harmonic partial sum shifted by one
    for n in (0, 1, 5, 50):
        assert mutual_information_exact(n) == pytest.approx(harmonic(n + 1) - 1.0, abs=1e-15)
