import math

import numpy as np
import pytest

from rdrisk.categorical import (DirichletPrior, bayes_risk_lower, fisher_summary,
                                kamath_bounds, mutual_information, posterior_entropy,
                                reference_risk_lower, simulate_bayes_risk)
from rdrisk.errors import DomainError
from rdrisk.knn import knn_entropy
from rdrisk.mc import rng_stream
from rdrisk.rdcore import InterpolationSpec, mi_clarke_barron, rd_lower_pointwise

UNIFORM2 = DirichletPrior((1.0, 1.0))


def minimax_limit_l1(n, m):
    """Reference: the prior-free L1 lower-bound constant sqrt(pi (M-1) / (2 e n))."""
    return math.sqrt(math.pi * (m - 1) / (2.0 * math.e * n))


def test_prior_validation_and_cache():
    assert UNIFORM2.gamma0 == 2.0
    assert UNIFORM2.num_classes == 2
    with pytest.raises(DomainError):
        DirichletPrior((1.0,))
    with pytest.raises(DomainError):
        DirichletPrior((1.0, 0.0))


@pytest.mark.parametrize("gamma", [(1.0, math.inf), (math.nan, 1.0), (2.0, 1.0, -math.inf)])
def test_prior_rejects_non_finite(gamma):
    with pytest.raises(DomainError, match="finite"):
        DirichletPrior(gamma)


def test_prior_rejects_overflowing_sum():
    # each component is finite, but gamma0 is not
    with pytest.raises(DomainError, match="finite sum"):
        DirichletPrior((1e308, 1e308))
    assert DirichletPrior((1e308, 1.0)).gamma0 == 1e308


def test_posterior_entropy_values():
    assert posterior_entropy(UNIFORM2) == pytest.approx(0.0, abs=1e-14)
    assert posterior_entropy(DirichletPrior((1.0, 1.0, 1.0))) == pytest.approx(
        -math.log(2.0), rel=1e-14)
    assert posterior_entropy(DirichletPrior((2.0, 2.0))) == pytest.approx(
        -0.125092802561388334145810691714, rel=1e-13)


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 2.0), (5.0, 1.0)])
def test_posterior_entropy_matches_knn(a, b):
    target = posterior_entropy(DirichletPrior((a, b)))
    x = rng_stream(401, int(a * 10 + b)).beta(a, b, size=100_000)
    assert abs(knn_entropy(x, k=4) - target) < 0.05


def test_mutual_information_fixture_and_slope():
    # 0.5 ln(100 / 2 pi e) + 0.5 evaluated at high precision
    assert mutual_information(100, UNIFORM2) == pytest.approx(
        1.38364655978937294223766171828, rel=1e-13)
    prior = DirichletPrior((2.0, 1.0, 1.0))
    m = prior.num_classes
    decade = mutual_information(10_000, prior) - mutual_information(1000, prior)
    assert decade == pytest.approx((m - 1) / 2.0 * math.log(10.0), rel=1e-12)
    with pytest.raises(DomainError):
        mutual_information(0, UNIFORM2)


def test_mutual_information_is_clarke_barron_composition():
    for gamma in [(1.0, 1.0), (2.0, 3.0, 0.5), (0.7, 0.7, 0.7, 0.7)]:
        prior = DirichletPrior(gamma)
        for n in (3, 50, 2000):
            assert mutual_information(n, prior) == pytest.approx(
                mi_clarke_barron(n, fisher_summary(prior)), abs=1e-12)


def test_bayes_risk_lower_fixture():
    assert bayes_risk_lower(100, UNIFORM2, 1.0) == pytest.approx(
        0.0461068504447894558439575873876, rel=1e-13)


def test_bayes_risk_lower_matches_printed_at_p1_inf():
    for gamma in [(1.0, 1.0), (2.0, 0.5, 1.0)]:
        prior = DirichletPrior(gamma)
        for n in (10, 250):
            assert bayes_risk_lower(n, prior, 1.0) == pytest.approx(
                reference_risk_lower(n, prior, 1.0), rel=1e-12)
            assert bayes_risk_lower(n, prior, math.inf) == pytest.approx(
                reference_risk_lower(n, prior, math.inf), rel=1e-12)


def test_printed_l2_delta_logged_not_asserted():
    # the published p = 2 exponent drops the 1/2 weights; record the ratio
    prior = DirichletPrior((2.0, 0.5))
    pipeline = bayes_risk_lower(100, prior, 2.0)
    printed = reference_risk_lower(100, prior, 2.0)
    assert pipeline > 0.0 and printed > 0.0
    print(f"p=2 pipeline={pipeline:.6g} printed={printed:.6g} "
          f"ratio={printed / pipeline:.6g}")


def test_l1_over_linf_ratio_is_m_minus_1_over_e():
    for gamma in [(1.0, 1.0), (1.0, 2.0, 3.0), (0.5,) * 5]:
        prior = DirichletPrior(gamma)
        m = prior.num_classes
        ratio = bayes_risk_lower(77, prior, 1.0) / bayes_risk_lower(77, prior, math.inf)
        assert ratio == pytest.approx((m - 1) / math.e, rel=1e-12)


def test_bayes_risk_lower_sqrt_n_scaling():
    for p in (1.0, 2.0, math.inf):
        assert bayes_risk_lower(400, UNIFORM2, p) / bayes_risk_lower(100, UNIFORM2, p) \
            == pytest.approx(0.5, rel=1e-12)


def test_bayes_risk_lower_inversion_round_trip():
    # the round trip is exact whenever the bracket is active (mi >= 0)
    prior = DirichletPrior((2.0, 1.0, 0.5))
    spec = InterpolationSpec(1, 1, 3)
    for n in (100, 1000):
        mi = mutual_information(n, prior)
        assert mi > 0.0
        risk = bayes_risk_lower(n, prior, 1.0)
        assert rd_lower_pointwise(posterior_entropy(prior), spec, 1.0, risk) \
            == pytest.approx(mi, abs=1e-10)


def test_minimax_limit_values():
    assert minimax_limit_l1(1, 2) == pytest.approx(0.760173450533140402805970073377, rel=1e-13)
    assert minimax_limit_l1(100, 5) == pytest.approx(0.152034690106628080561194014675, rel=1e-13)


@pytest.mark.parametrize("m", [2, 5])
def test_minimax_limit_is_bayes_limit(m):
    gamma = (1e6,) * (m - 1) + (1e-6,)
    prior = DirichletPrior(gamma)
    for n in (10, 1000):
        got = bayes_risk_lower(n, prior, 1.0)
        assert abs(got - minimax_limit_l1(n, m)) / minimax_limit_l1(n, m) < 1e-3


def test_bayes_below_minimax_for_symmetric_priors():
    for m in (2, 3, 6):
        for kappa in (1.0, 2.0, 10.0, 100.0):
            prior = DirichletPrior((kappa,) * m)
            assert bayes_risk_lower(50, prior, 1.0) <= minimax_limit_l1(50, m) * (1 + 1e-12)


def test_kamath_bounds_structure():
    n, m = 1000, 3
    ref = kamath_bounds(n, m, 1.0)
    lead = math.sqrt(2 * (m - 1) / (math.pi * n))
    slack = 4 * math.sqrt(m) * (m - 1) ** 0.25 / n ** 0.75
    assert ref.upper == pytest.approx(lead + slack, rel=1e-14)
    assert ref.upper - lead == pytest.approx(slack, rel=1e-12)
    assert ref.lower <= ref.upper
    # constant-level comparison reported in the text
    assert math.sqrt(2 / math.pi) - math.sqrt(math.pi / (2 * math.e)) == pytest.approx(
        0.0377111102697249530739220464913, rel=1e-12)
    with pytest.raises(DomainError):
        kamath_bounds(100, 2, 0.5)


def test_simulator_n0_matches_prior_dispersion():
    # with no data the posterior mean is the prior mean; for Beta(1,1) the
    # L1 risk is 2 E|theta - 1/2| = 1/2
    est = simulate_bayes_risk(0, UNIFORM2, 1.0, trials=40_000, seed=402)
    assert abs(est.mean - 0.5) < 3 * est.stderr


def test_simulator_dominates_lower_bound():
    for n in (10, 100, 1000):
        est = simulate_bayes_risk(n, UNIFORM2, 1.0, trials=4000, seed=403)
        assert est.mean + 3 * est.stderr >= bayes_risk_lower(n, UNIFORM2, 1.0)


def test_simulator_monotone_in_n():
    means = []
    for n in (10, 100, 1000):
        est = simulate_bayes_risk(n, UNIFORM2, 1.0, trials=4000, seed=404)
        means.append((est.mean, est.stderr))
    for (m1, s1), (m2, s2) in zip(means, means[1:]):
        assert m2 <= m1 + 3 * math.hypot(s1, s2)


def test_simulator_sqrt_n_constant_in_expected_band():
    # fitted c in simulated risk ~ c / sqrt(n) sits between the closed-form
    # constant and the external upper constant x 1.2
    ns = np.array([100, 300, 1000, 3000, 10_000])
    means = np.array([simulate_bayes_risk(int(n), UNIFORM2, 1.0, trials=3000,
                                          seed=405).mean for n in ns])
    slope, intercept = np.polyfit(np.log(ns), np.log(means), 1)
    assert -0.6 < slope < -0.4
    c = math.exp(intercept)
    lower_c = bayes_risk_lower(1, UNIFORM2, 1.0)
    upper_c = 1.2 * math.sqrt(2 / math.pi)
    assert lower_c <= c <= upper_c


def test_simulator_p2_and_pinf_run():
    est2 = simulate_bayes_risk(50, UNIFORM2, 2.0, trials=2000, seed=406)
    estinf = simulate_bayes_risk(50, UNIFORM2, math.inf, trials=2000, seed=406)
    assert est2.mean > 0 and estinf.mean > 0
    with pytest.raises(DomainError):
        simulate_bayes_risk(10, UNIFORM2, 1.0, trials=10, seed=0)
