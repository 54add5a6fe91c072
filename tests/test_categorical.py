import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from rdrisk import categorical
from rdrisk.categorical import (DirichletPrior, bayes_risk_lower, beta_mad, beta_mad_scale,
                                complements, inner_loss, kamath_bounds,
                                mutual_information, posterior_entropy, reference_risk_lower,
                                sample_dirichlet, sample_multinomial, simulate_bayes_risk,
                                stirling_remainder)
from rdrisk.errors import DomainError
from rdrisk.knn import knn_entropy
from rdrisk.mc import MonteCarloEstimate, mc_mean, rng_stream
from rdrisk.rdcore import rd_lower_pointwise
from rdrisk.specfun import digamma

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


@pytest.mark.parametrize("gamma", [(1e10, 1e10), (1e15, 1e15), (1e6,) * 5, (50.0, 1e12),
                                   (8.0, 9.0, 10.0), (10.0, 10.0), (7.0, 10.5), (1.0, 1e15),
                                   (1.0, 20.0), (0.5, 2.0, 30.0), (1e-3, 1e8), (2.5, 1e300),
                                   (5e307, 5e307)])
def test_posterior_entropy_at_large_gamma_matches_mpmath(gamma):
    # The terms of ln B(gamma) - (M - gamma0) psi(gamma0) - ... grow like
    # gamma ln gamma, so the plain form read 0.0 at (1e15, 1e15), where the
    # entropy is -16.89.  The reference keeps 60 digits past that size.
    with mpmath.workdps(60 + int(math.log10(max(gamma)))):
        g = [mpmath.mpf(v) for v in gamma]
        g0, m = mpmath.fsum(g), len(g)
        exact = float(mpmath.fsum(mpmath.loggamma(v) for v in g) - mpmath.loggamma(g0)
                      - (m - g0) * mpmath.digamma(g0)
                      - mpmath.fsum((v - 1) * mpmath.digamma(v) for v in g))
    h = posterior_entropy(DirichletPrior(gamma))
    assert abs(h - exact) <= 12 * math.ulp(max(abs(exact), 1.0))


def test_bayes_risk_lower_beyond_the_log_gamma_range():
    # ln Gamma(5e307) overflows, but Stirling's form of the entropy needs
    # none of it, so the pipeline still meets the printed closed form
    prior = DirichletPrior((5e307, 5e307))
    for p in (1.0, math.inf):
        assert bayes_risk_lower(10, prior, p) == pytest.approx(
            reference_risk_lower(10, prior, p), rel=1e-12)


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


def published_mi_terms_by_mpmath(n, gamma):
    """(CB term, E ln|Fisher|^(1/2), h(theta)) of the published expansion,
    at 40 digits, with the diagonal Fisher matrix diag(1/theta_i), i < M."""
    with mpmath.workdps(40):
        g = [mpmath.mpf(v) for v in gamma]
        g0, m = mpmath.fsum(g), len(g)
        log_sqrt_det = (m - 1) * mpmath.digamma(g0) / 2 \
            - mpmath.fsum(mpmath.digamma(v) for v in g[:-1]) / 2
        entropy = mpmath.fsum(mpmath.loggamma(v) for v in g) - mpmath.loggamma(g0) \
            - (m - g0) * mpmath.digamma(g0) - mpmath.fsum((v - 1) * mpmath.digamma(v) for v in g)
        cb = (m - 1) * mpmath.log(n / (2 * mpmath.pi * mpmath.e)) / 2
        return float(cb), float(log_sqrt_det), float(entropy)


@pytest.mark.parametrize("gamma", [(1.0, 1.0), (2.0, 3.0, 0.5), (0.7, 0.7, 0.7, 0.7),
                                   (0.5, 40.0), (1e-3, 5.0, 7.0)])
def test_mutual_information_matches_published_expansion(gamma):
    # The determinant term is pinned on its own: with the full Fisher matrix
    # diag(1/theta_i) + (1/theta_M) 11^T it would grow by
    # 1/2 (psi(gamma0) - psi(gamma_M)), which these asymmetric priors show.
    prior = DirichletPrior(gamma)
    for n in (3, 50, 2000):
        cb, log_sqrt_det, entropy = published_mi_terms_by_mpmath(n, gamma)
        mi = mutual_information(n, prior)
        assert mi == pytest.approx(cb + log_sqrt_det + entropy, rel=1e-13, abs=1e-13)
        assert mi - cb - posterior_entropy(prior) == pytest.approx(log_sqrt_det, abs=1e-12)
        assert posterior_entropy(prior) == pytest.approx(entropy, rel=1e-13, abs=1e-13)


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
    for n in (100, 1000):
        mi = mutual_information(n, prior)
        assert mi > 0.0
        risk = bayes_risk_lower(n, prior, 1.0)
        assert rd_lower_pointwise(posterior_entropy(prior), 1, 3, 1.0, risk) \
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


def test_kamath_pair_is_vacuous_at_1x100():
    # the tail term lifts lower above upper, and above 2, the largest L1
    # distance between two distributions
    ref = kamath_bounds(100, 100, 1.0)
    assert ref.lower == pytest.approx(45.90297075661628, rel=1e-12)
    assert ref.upper == pytest.approx(4.783847393994908, rel=1e-12)
    assert ref.lower > ref.upper


@pytest.mark.parametrize("m,kappa", [(2, 5e307), (3, 1e308 / 3)])
def test_kamath_lower_finite_at_huge_kappa(m, kappa):
    # m (1 - m kappa) overflows here; the quotient that follows does not
    n = 10
    with mpmath.workdps(40):
        mk = m * mpmath.mpf(kappa)
        lead = mpmath.sqrt(2 * mpmath.mpf(m - 1) / (mpmath.pi * n))
        slack = 4 * mpmath.sqrt(m) * mpmath.mpf(m - 1) ** 0.25 / mpmath.mpf(n) ** 0.75
        exact = lead * (1 - m / (2 * (m - 1) * mpmath.mpf(kappa))) - slack \
            - m * (1 - mk) / (n + mk)
    lower = kamath_bounds(n, m, kappa).lower
    assert math.isfinite(lower)
    assert lower == pytest.approx(float(exact), rel=1e-14)


def test_simulator_n0_matches_prior_dispersion():
    # with no data the posterior mean is the prior mean; for Beta(1,1) the
    # L1 risk is 2 E|theta - 1/2| = 1/2, and every trial is that exact value
    est = simulate_bayes_risk(0, UNIFORM2, 1.0, trials=40_000, seed=402)
    assert abs(est.mean - 0.5) <= 1e-12
    assert est.stderr == 0.0


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


def l2_risk_law(n, prior):
    """Exact L2 risk of the posterior-mean rule."""
    g0 = prior.gamma0
    return math.sqrt(math.fsum(g * (g0 - g) for g in prior.gamma)
                     / (g0 * (g0 + 1.0) * (g0 + n)))


def simulate_by_counts(n, prior, p, trials, seed):
    """The model: draws theta and the category counts of n observations,
    which are sufficient, and averages the inner loss of the posterior mean
    against the drawn theta, as the simulator's p > 2 trial does."""
    gamma = np.asarray(prior.gamma)

    def sampler(rng, count):
        theta = sample_dirichlet(gamma, rng, size=count)
        counts = sample_multinomial(n, theta, rng)
        return inner_loss(p, theta, (gamma + counts) / (prior.gamma0 + n))

    return mc_mean(sampler, trials, seed)


def simulate_l2_by_counts(n, prior, trials, seed):
    est = simulate_by_counts(n, prior, 2.0, trials, seed)
    # the outer exponent 1/2 and its delta-method stderr
    return math.sqrt(est.mean), est.stderr / (2.0 * math.sqrt(est.mean))


L2_PRIORS = {"0.5,2,3": DirichletPrior((0.5, 2.0, 3.0)), "1x100": DirichletPrior((1.0,) * 100)}


@pytest.mark.parametrize("n", [0, 1, 10, 1000])
@pytest.mark.parametrize("prior", sorted(L2_PRIORS))
def test_simulator_p2_matches_exact_l2_risk(prior, n):
    est = simulate_bayes_risk(n, L2_PRIORS[prior], 2.0, trials=20_000, seed=407 + n)
    assert abs(est.mean - l2_risk_law(n, L2_PRIORS[prior])) <= 4 * est.stderr


@pytest.mark.parametrize("prior,n", [("1x100", 10), ("0.5,2,3", 1000)])
def test_simulator_p2_agrees_with_count_drawing_sampler(prior, n):
    est = simulate_bayes_risk(n, L2_PRIORS[prior], 2.0, trials=20_000, seed=411)
    ref_mean, ref_stderr = simulate_l2_by_counts(n, L2_PRIORS[prior], 20_000, seed=412)
    assert abs(est.mean - ref_mean) <= 4 * math.hypot(est.stderr, ref_stderr)
    # a conditional expectation given theta cannot have more variance (Rao-Blackwell)
    assert est.stderr < ref_stderr


MAD_CASES = [("1,1", 10, 1.0), ("1,1", 1000, 1.0), ("2,2,2", 10, 1.0), ("0.5,2,3", 1, 1.0),
             ("0.5,2,3", 100, 1.0), (",".join(["1"] * 10), 5, 1.0), ("0.5,2", 20, math.inf)]


@pytest.mark.parametrize("gamma,n,p", MAD_CASES)
def test_simulator_posterior_mad_agrees_with_count_drawing_sampler(gamma, n, p):
    prior = DirichletPrior(float(g) for g in gamma.split(","))
    est = simulate_bayes_risk(n, prior, p, trials=20_000, seed=413)
    ref = simulate_by_counts(n, prior, p, trials=20_000, seed=414)
    assert abs(est.mean - ref.mean) <= 4 * math.hypot(est.stderr, ref.stderr)
    # a conditional expectation given the counts cannot have more variance
    assert est.stderr < ref.stderr


def posterior_mad_by_mpmath(a, b):
    """2 a^a b^b / (B(a, b) (a+b)^(a+b+1)) at 40 digits."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        s = a + b
        return float(2 * mpmath.exp(a * mpmath.log(a) + b * mpmath.log(b)
                                    - mpmath.log(mpmath.beta(a, b)) - (s + 1) * mpmath.log(s)))


def mad(a, b):
    return float(beta_mad(np.array([a, b]), a + b, beta_mad_scale(a + b)))


@pytest.mark.parametrize("gamma,n,p", [((0.5, 2.0, 3.0), 7, 1.0), ((1.0, 1e-20), 3, 1.0),
                                       ((1.0, 1e-20), 3, math.inf),
                                       ((2.0, 0.25), 2 ** 63 - 1, 1.0),
                                       ((2.0, 0.25), 2 ** 63 - 1, math.inf)])
def test_trial_is_posterior_mad_of_the_drawn_counts(monkeypatch, gamma, n, p):
    # the sampler draws theta and the counts as simulate_by_counts does,
    # and a trial is sum_i MAD(a_i, b_i) (MAD(a_1, b_1) for p = inf, M = 2)
    samplers = []

    def capture(sampler, *args, **kwargs):
        samplers.append(sampler)
        return MonteCarloEstimate(1.0, 0.0, 100)

    monkeypatch.setattr(categorical, "mc_mean", capture)
    simulate_bayes_risk(n, DirichletPrior(gamma), p, trials=100, seed=0)
    values = samplers[0](rng_stream(415, 0), 20)
    rng = rng_stream(415, 0)
    counts = sample_multinomial(n, sample_dirichlet(np.asarray(gamma), rng, size=20), rng)
    others = [math.fsum(gamma[:i] + gamma[i + 1:]) for i in range(len(gamma))]
    for value, row in zip(values, counts.tolist()):
        terms = [posterior_mad_by_mpmath(g + c, o + (n - c))
                 for g, c, o in zip(gamma, row, others)]
        expected = terms[0] if math.isinf(p) else math.fsum(terms)
        assert value == pytest.approx(expected, rel=1e-12)


def exact_mad(a, b):
    """MAD at integers, where Gamma(k) = (k-1)! makes
    2 a^a b^b Gamma(a+b) / (Gamma(a) Gamma(b) (a+b)^(a+b+1)) rational."""
    s = a + b
    return Fraction(2 * a ** a * b ** b * math.factorial(s - 1),
                    math.factorial(a - 1) * math.factorial(b - 1) * s ** (s + 1))


def test_beta_mad_exact_at_integers():
    assert exact_mad(1, 1) == Fraction(1, 4)
    assert exact_mad(2, 3) == Fraction(2592, 15625)
    for a, b in [(1, 1), (2, 3), (1, 7), (5, 5), (12, 30), (40, 3)]:
        assert mad(float(a), float(b)) == pytest.approx(float(exact_mad(a, b)), rel=1e-13)


@pytest.mark.parametrize("a,b", [(1e-3, 5.0), (0.5, 0.5), (7.9, 8.1), (8.0, 1e-3), (3.0, 1e3),
                                 (1e-3, 1e6), (100.0, 1e4), (1e6, 1e9), (1e12, 3.0),
                                 (0.2, 1e15), (1e15, 1e15)])
def test_beta_mad_matches_mpmath(a, b):
    assert mad(a, b) == pytest.approx(posterior_mad_by_mpmath(a, b), rel=1e-12)
    assert mad(b, a) == pytest.approx(mad(a, b), rel=1e-14)


@pytest.mark.parametrize("a", [1e-300, 1e-20, 1.0, 1e19])
@pytest.mark.parametrize("b", [1e-300, 1.0, 1e19])
def test_beta_mad_finite_at_extremes(a, b):
    value = mad(a, b)
    assert math.isfinite(value) and value >= 0.0


def test_beta_mad_symmetric_limits():
    # Beta(a, a) tends to a fair coin as a -> 0 (MAD 1/2), and to a normal
    # law with sd 1/(2 sqrt(2a + 1)) as a grows (MAD sqrt(2/pi) sd)
    assert mad(1e-300, 1e-300) == pytest.approx(0.5, rel=1e-12)
    assert mad(1e19, 1e19) == pytest.approx(1 / math.sqrt(2 * math.pi * (2e19 + 1)), rel=1e-12)


def test_stirling_remainder_matches_log_gamma():
    x = [1e-300, 1e-3, 0.5, 1.0, 2.5, 7.99, 8.0, 30.0, 1e3, 1e12]
    with mpmath.workdps(40):
        ref = [float(mpmath.loggamma(v) - (v - mpmath.mpf(0.5)) * mpmath.log(v) + v
                     - mpmath.log(2 * mpmath.pi) / 2) for v in x]
    assert np.allclose(stirling_remainder(np.array(x)), ref, rtol=1e-15, atol=2e-14)
    # a float argument gives the same value
    assert [float(stirling_remainder(v)) for v in x] == stirling_remainder(np.array(x)).tolist()


def test_complements_are_fsums_of_the_others():
    rng = rng_stream(416, 0)
    for m in (2, 3, 7, 40):
        for _ in range(50):
            values = (10.0 ** rng.uniform(-30, 30, size=m)).tolist()
            assert complements(values) == [math.fsum(values[:i] + values[i + 1:])
                                           for i in range(m)]
    # gamma0 - gamma_1 rounds to 0 here
    assert complements([1.0, 1e-20]) == [1e-20, 1.0]
    assert complements([1e308, 1.0, 1e-300]) == [1.0, 1e308, 1e308]


def test_simulator_rejects_n_beyond_int64_count_draws():
    for p in (1.0, 3.0, math.inf):
        with pytest.raises(DomainError, match=r"2\^63 - 1"):
            simulate_bayes_risk(2 ** 63, UNIFORM2, p, trials=100, seed=0)
    # p = 2 draws no counts, and the largest int64 count is still drawn
    assert simulate_bayes_risk(2 ** 63, UNIFORM2, 2.0, trials=100, seed=0).mean > 0
    assert simulate_bayes_risk(2 ** 63 - 1, UNIFORM2, 1.0, trials=100, seed=0).mean > 0


def test_outer_transform(monkeypatch):
    # the 1/p exponent and the delta-method stderr stderr / p * mean^(1/p - 1)
    # are applied to the Monte-Carlo mean (inner mean, inner stderr)
    cases = [(1.0, (0.5, 0.01), (0.5, 0.01)),
             (2.0, (0.09, 0.006), (0.3, 0.01)),
             (math.inf, (0.4, 0.02), (0.4, 0.02)),
             (2.0, (0.09, 0.0), (0.3, 0.0)),
             (3.0, (0.0, 0.0), (0.0, 0.0))]
    for p, inner, outer in cases:
        monkeypatch.setattr(categorical, "mc_mean",
                            lambda *args, **kwargs: MonteCarloEstimate(*inner, trials=100))
        est = simulate_bayes_risk(10, UNIFORM2, p, trials=100, seed=0)
        assert est.mean == pytest.approx(outer[0], rel=1e-13)
        assert est.stderr == pytest.approx(outer[1], rel=1e-12)
        assert est.trials == 100
    # no delta-method stderr without a positive mean
    monkeypatch.setattr(categorical, "mc_mean",
                        lambda *args, **kwargs: MonteCarloEstimate(0.0, 0.01, trials=100))
    est = simulate_bayes_risk(10, UNIFORM2, 2.0, trials=100, seed=0)
    assert est.mean == 0.0 and math.isnan(est.stderr)


def test_dirichlet_sums_to_one():
    draws = sample_dirichlet(np.array((0.5, 2.0, 1.5)), rng_stream(301, 0), size=2000)
    assert draws.shape == (2000, 3)
    assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-12)


def test_dirichlet_uniform_marginal_mean():
    draws = sample_dirichlet(np.array((1.0, 1.0)), rng_stream(302, 0), size=100_000)
    th = draws[:, 0]
    stderr = th.std(ddof=1) / math.sqrt(th.size)
    assert abs(th.mean() - 0.5) < 3 * stderr


def test_dirichlet_expected_log_marginal():
    # E[ln theta_1] for Dir(2,2) is psi(2) - psi(4)
    draws = sample_dirichlet(np.array((2.0, 2.0)), rng_stream(303, 0), size=100_000)
    logs = np.log(draws[:, 0])
    stderr = logs.std(ddof=1) / math.sqrt(logs.size)
    assert abs(logs.mean() - (digamma(2.0) - digamma(4.0))) < 3 * stderr


@pytest.mark.parametrize("shape,rows,m", [(1.0, 782, 100), (0.5, 100, 20), (3.5, 1000, 2)])
def test_dirichlet_symmetric_prior_draws_as_array_shape(shape, rows, m):
    draws = sample_dirichlet(np.full(m, shape), rng_stream(306, 0), size=rows)
    raw = rng_stream(306, 0).gamma(np.full(m, shape), size=(rows, m))
    assert np.array_equal(draws, raw / raw.sum(axis=1, keepdims=True))


def test_dirichlet_rejects_underflowed_rows():
    # at gamma = 1e-6 every Gamma draw of a row is 0 with high probability,
    # which leaves the row without a normalisation
    with pytest.raises(DomainError, match="underflowed"):
        sample_dirichlet(np.array((1e-6, 1e-6)), rng_stream(305, 0), size=1000)
    # rows with a surviving draw are kept: (0, 1) is a valid point of the simplex
    draws = sample_dirichlet(np.array((1e-300, 1.0)), rng_stream(305, 1), size=1000)
    assert np.all(np.isfinite(draws)) and np.allclose(draws.sum(axis=1), 1.0)


def test_multinomial_edges():
    rng = rng_stream(304, 0)
    assert np.array_equal(sample_multinomial(0, np.array([[0.3, 0.7]]), rng), [[0, 0]])
    assert np.array_equal(sample_multinomial(9, np.array([[1.0, 0.0]]), rng), [[9, 0]])
    counts = sample_multinomial(12, np.array([[0.0, 1.0, 0.0]]), rng)
    assert np.array_equal(counts, [[0, 12, 0]])


def test_multinomial_counts_sum_and_mean():
    rng = rng_stream(305, 0)
    theta = np.array([0.2, 0.5, 0.3])
    counts = sample_multinomial(50, np.tile(theta, (40_000, 1)), rng)
    assert counts.shape == (40_000, 3)
    assert np.all(counts.sum(axis=1) == 50)
    for j in range(3):
        col = counts[:, j]
        stderr = col.std(ddof=1) / math.sqrt(col.size)
        assert abs(col.mean() - 50 * theta[j]) < 3 * stderr


def test_multinomial_per_row_trials():
    rng = rng_stream(306, 0)
    n = np.array([0, 3, 10])
    counts = sample_multinomial(n, np.tile([0.5, 0.5], (3, 1)), rng)
    assert np.array_equal(counts.sum(axis=1), n)


def test_multinomial_covariance_law():
    # rows alternate between two (n, theta) laws; within each law
    # Var(c_i) = n theta_i (1 - theta_i) and Cov(c_i, c_j) = -n theta_i theta_j
    laws = [(50, np.array([0.2, 0.5, 0.3, 0.0])), (7, np.array([0.05, 0.15, 0.6, 0.2]))]
    rows = 40_000
    n = np.tile([laws[0][0], laws[1][0]], rows)
    theta = np.tile(np.stack([laws[0][1], laws[1][1]]), (rows, 1))
    counts = sample_multinomial(n, theta, rng_stream(308, 0))
    assert counts.shape == theta.shape
    assert np.array_equal(counts.sum(axis=1), n)
    for k, (trials, th) in enumerate(laws):
        dev = counts[k::2] - trials * th
        for i in range(th.size):
            for j in range(i, th.size):
                law = trials * th[i] * ((1.0 - th[i]) if i == j else -th[j])
                prod = dev[:, i] * dev[:, j]
                stderr = prod.std(ddof=1) / math.sqrt(prod.size)
                assert abs(prod.mean() - law) <= 4 * stderr


def test_inner_loss_values():
    w = np.array([[0.3, 0.7], [0.3, 0.7]])
    # both coordinates of a binary vector differ by the same delta
    w_hat = np.array([[0.3, 0.7], [0.4, 0.6]])
    assert np.allclose(inner_loss(1.0, w, w_hat), [0.0, 0.2], rtol=0, atol=1e-15)
    assert inner_loss(1.0, w, w_hat)[0] == 0.0
    assert np.allclose(inner_loss(2.0, w, w_hat), [0.0, 0.02], rtol=0, atol=1e-15)
    assert inner_loss(math.inf, np.array([[0.1, 0.5, 0.4]]), np.array([[0.4, 0.5, 0.1]])) \
        == pytest.approx([0.3], abs=1e-15)


def test_inner_loss_binary_identity():
    # for M = 2 the L1 inner sum is always 2 |w1 - what1|
    rng = rng_stream(307, 0)
    w = rng.uniform(size=(100, 2))
    w /= w.sum(axis=1, keepdims=True)
    v = rng.uniform(size=(100, 2))
    v /= v.sum(axis=1, keepdims=True)
    assert np.allclose(inner_loss(1.0, w, v), 2 * np.abs(w[:, 0] - v[:, 0]), atol=1e-12)
