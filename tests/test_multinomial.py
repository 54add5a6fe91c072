import math

import numpy as np
import pytest

from rdrisk.categorical import DirichletPrior
from rdrisk.errors import DomainError
from rdrisk.knn import knn_entropy, knn_entropy_detail
from rdrisk.mc import rng_stream
from rdrisk.multinomial import (MultinomialFamily, entropy_lower, fisher_summary,
                                mutual_information, reference_entropy_lower_printed,
                                reference_risk_lower, simulate_interpolation_risk,
                                xbayes_risk_lower)
from rdrisk.rdcore import mi_clarke_barron, rd_lower_pointwise
from rdrisk.specfun import digamma


def fam(d, k, gamma):
    return MultinomialFamily(d=d, k=k, prior=DirichletPrior(gamma))


FAM211 = fam(2, 1, (1.0, 1.0))


def test_family_validation():
    assert FAM211.spec.d_star == FAM211.spec.d_interp == 1
    assert FAM211.spec.num_classes == 2
    with pytest.raises(DomainError):
        fam(1, 1, (1.0, 1.0))
    with pytest.raises(DomainError):
        fam(3, 1, (1.0, 1.0))
    with pytest.raises(DomainError):
        fam(2, 0, (1.0, 1.0))


def test_entropy_lower_fixtures():
    # frozen from the corrected chain assembly (beta-prime entropy plus the
    # transform terms with the exact E[(ln R)+] upper bound)
    assert entropy_lower(FAM211) == pytest.approx(-2.0 * math.log(2.0), rel=1e-13)
    assert entropy_lower(fam(2, 4, (2.0, 2.0))) == pytest.approx(
        -5.12509280256138833414581069171, rel=1e-13)
    assert entropy_lower(fam(3, 2, (1.0, 1.0, 1.0))) == pytest.approx(
        -5.77258872223978123766892848583, rel=1e-13)


def test_entropy_lower_printed_reference_fixture():
    # published coefficients, kept for reporting; not a valid bound at k >= 2
    assert reference_entropy_lower_printed(FAM211) == pytest.approx(
        -3.69515702072602206126051260325, rel=1e-13)
    assert reference_entropy_lower_printed(fam(2, 4, (2.0, 2.0))) == pytest.approx(
        -0.727568024660935145779344203189, rel=1e-13)


def test_entropy_lower_symmetric_summands():
    # symmetric gamma makes all d-1 per-coordinate summands equal
    f3 = fam(4, 3, (2.0, 2.0, 2.0, 2.0))
    single = fam(2, 3, (2.0, 6.0))  # same (gamma_i, gamma0) pair as one summand
    assert entropy_lower(f3) == pytest.approx(3 * entropy_lower(single), rel=1e-12)


def test_entropy_lower_k_slope_matches_analytic_derivative():
    # finite difference in k against the analytic k-derivative of the form
    gamma = (2.0, 1.0, 1.0)
    d = 3
    g0 = sum(gamma)
    for k in (2, 5, 11):
        diff = entropy_lower(fam(d, k + 1, gamma)) - entropy_lower(fam(d, k, gamma))
        km = k + 0.5
        analytic = (d - 1) / km + sum(
            digamma(gamma[i]) - 2.0 * digamma(g0) + digamma(g0 - gamma[i])
            for i in range(d - 1))
        # midpoint derivative vs unit difference of ln k leaves O(1/k^3)
        assert diff == pytest.approx(analytic, abs=0.03 / k)


@pytest.mark.parametrize("d,k,gamma", [(2, 1, (1.0, 1.0)),
                                       (2, 4, (2.0, 2.0)),
                                       (3, 2, (1.0, 1.0, 1.0))])
def test_entropy_lower_below_knn(d, k, gamma):
    f = fam(d, k, gamma)
    rng = rng_stream(501, d * 10 + k)
    theta = rng.dirichlet(gamma, size=100_000)
    ratios = theta[:, : d - 1] / (1.0 - theta[:, : d - 1])
    w = 1.0 / (1.0 + ratios ** k)
    est = knn_entropy_detail(w, k=4)
    assert entropy_lower(f) <= est.mean + 3 * est.stderr


def scalar_entropy_chain(h_r, k, mean_log_r, mean_pos_log_r):
    """Reference: the h(V) lower bound for V = 1 / (1 + R^k) from moments of ln R,
    h(R) + ln k - 2 ln 2 - 2k E[(ln R)+] + (k - 1) E[ln R]."""
    return h_r + math.log(k) - 2.0 * math.log(2.0) \
        - 2.0 * k * mean_pos_log_r + (k - 1.0) * mean_log_r


@pytest.mark.parametrize("k", [1, 2, 4])
def test_scalar_entropy_chain_monte_carlo(k):
    # chain check with Monte-Carlo moments: knn h(V) dominates
    # h(R) + ln k - 2 ln 2 - 2k E[(ln R)+] + (k-1) E[ln R]
    rng = rng_stream(502, k)
    theta = rng.beta(2.0, 2.0, size=100_000)
    r = theta / (1.0 - theta)
    v = 1.0 / (1.0 + r ** k)
    log_r = np.log(r)
    h_r = knn_entropy(r, k=4)
    chain = scalar_entropy_chain(h_r, k, float(log_r.mean()),
                                 float(np.maximum(log_r, 0.0).mean()))
    est = knn_entropy_detail(v, k=4)
    assert chain <= est.mean + 3 * est.stderr


def test_mutual_information_fixture_and_structure():
    assert mutual_information(100, FAM211) == pytest.approx(
        1.53707296950940028752904565755, rel=1e-13)
    f = fam(3, 4, (1.0, 2.0, 1.0))
    decade = mutual_information(10_000, f) - mutual_information(1000, f)
    assert decade == pytest.approx((f.d - 1) / 2.0 * math.log(10.0), rel=1e-12)
    # doubling k adds (d-1)/2 ln 2
    f2 = fam(3, 8, (1.0, 2.0, 1.0))
    assert mutual_information(500, f2) - mutual_information(500, f) == pytest.approx(
        (f.d - 1) / 2.0 * math.log(2.0), rel=1e-12)
    with pytest.raises(DomainError):
        mutual_information(0, FAM211)


def test_mutual_information_is_clarke_barron_composition():
    for d, k, gamma in [(2, 1, (1.0, 1.0)), (3, 5, (2.0, 1.0, 0.5)), (4, 2, (1.0,) * 4)]:
        f = fam(d, k, gamma)
        for n in (5, 500):
            assert mutual_information(n, f) == pytest.approx(
                mi_clarke_barron(n, fisher_summary(f)), abs=1e-12)


def test_rd_bracket():
    # the worst-case bracket is the rdcore bracket at the family's spec
    f = fam(3, 2, (1.0, 1.0, 1.0))
    lower = rd_lower_pointwise(entropy_lower(f), f.spec, 1.0, 0.05)
    # p = 1 reduces to entropy_lower - (d-1) ln(2 e D) before the clamp
    expected = entropy_lower(f) - (f.d - 1) * math.log(2 * math.e * 0.05)
    assert lower == pytest.approx(max(expected, 0.0), abs=1e-12)
    # halving D raises the lower bound by (d-1) ln 2 while the bracket is active
    h = entropy_lower(FAM211)
    lo1 = rd_lower_pointwise(h, FAM211.spec, 1.0, 0.01)
    lo2 = rd_lower_pointwise(h, FAM211.spec, 1.0, 0.02)
    assert lo1 > 0.0 and lo2 > 0.0
    assert lo1 - lo2 == pytest.approx((FAM211.d - 1) * math.log(2.0), abs=1e-12)
    with pytest.raises(DomainError):
        rd_lower_pointwise(entropy_lower(f), f.spec, 1.0, 0.0)


def test_xbayes_risk_lower_fixture_and_scaling():
    assert xbayes_risk_lower(100, FAM211, 1.0) == pytest.approx(
        0.00988719779020622394839111077071, rel=1e-13)
    for f in (FAM211, fam(3, 4, (2.0, 1.0, 1.0))):
        assert xbayes_risk_lower(200, f, 1.0) / xbayes_risk_lower(100, f, 1.0) \
            == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_reference_risk_lower_runs_and_decays():
    # best-effort printed form: finite, positive, sqrt(1/n) decay
    f = fam(3, 2, (2.0, 1.0, 1.0))
    v100, v400 = reference_risk_lower(100, f), reference_risk_lower(400, f)
    assert v100 > 0.0 and math.isfinite(v100)
    assert v400 == pytest.approx(v100 / 2.0, rel=1e-12)


def test_simulator_dominates_bound():
    for n in (50, 200, 1000):
        est = simulate_interpolation_risk(n, FAM211, trials=2000, seed=503)
        assert est.mean + 3 * est.stderr >= xbayes_risk_lower(n, FAM211, 1.0)


def test_simulator_n0_positive_and_monotone():
    est0 = simulate_interpolation_risk(0, FAM211, trials=2000, seed=504)
    assert est0.mean > 3 * est0.stderr
    means = [simulate_interpolation_risk(n, FAM211, trials=2000, seed=505)
             for n in (10, 100, 1000)]
    for a, b in zip(means, means[1:]):
        assert b.mean <= a.mean + 3 * math.hypot(a.stderr, b.stderr)


def test_simulator_d3_runs():
    f = fam(3, 2, (1.0, 1.0, 1.0))
    est = simulate_interpolation_risk(100, f, trials=1000, seed=506)
    assert 0.0 < est.mean < 2.0
    with pytest.raises(DomainError):
        simulate_interpolation_risk(10, f, trials=10, seed=0)
