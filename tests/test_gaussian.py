import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

from rdrisk.errors import DomainError
from rdrisk.gaussian import (GaussianFamily, bayes_risk_lower_l1, entropy_lower_nu,
                             interpolation_scale, mutual_information_cb,
                             mutual_information_exact, sample_regression_values,
                             simulate_bayes_risk)
from rdrisk.knn import knn_entropy_detail
from rdrisk.mc import mc_mean, rng_stream
from rdrisk.rdcore import rd_lower_pointwise
from rdrisk.specfun import EULER_GAMMA


def test_family_spec():
    f = GaussianFamily(d=3, sigma2=0.5)
    assert f.spec.d_star == f.spec.d_interp == 3
    assert f.spec.num_classes == 2
    with pytest.raises(DomainError):
        GaussianFamily(d=0, sigma2=1.0)
    with pytest.raises(DomainError):
        GaussianFamily(d=1, sigma2=0.0)


def test_entropy_lower_nu_fixture():
    # d=1, sigma2=1 assembled from psi(1/2) = -euler-2ln2 and
    # Gamma(1)/Gamma(1/2) = 1/sqrt(pi); frozen after a two-way computation
    got = entropy_lower_nu(1, 1.0)
    manual = 0.5 * (-EULER_GAMMA - 2 * math.log(2.0)) \
        + 0.5 * math.log(32.0 * math.pi) \
        - (1.0 / math.sqrt(math.pi)) * math.sqrt(8.0 / math.pi) \
        - 1.5 - 2.0 * math.log(2.0)
    assert got.total == pytest.approx(manual, rel=1e-13)
    assert got.total == pytest.approx(-2.4631327959631450674953576211, rel=1e-13)
    assert entropy_lower_nu(2, 0.5).per_coord == pytest.approx(
        -2.28388286161918873732461503285, rel=1e-13)


def test_entropy_lower_nu_structure():
    for d, s2 in [(1, 1.0), (2, 0.5), (4, 2.0)]:
        bound = entropy_lower_nu(d, s2)
        assert bound.total == pytest.approx(d * bound.per_coord, rel=1e-14)
    # the ln(1/sigma2) term sends the bound to -infinity as noise dominates
    assert entropy_lower_nu(1, 1e8).total < -10.0
    assert entropy_lower_nu(1, 1e12).total < entropy_lower_nu(1, 1e8).total


def test_entropy_lower_nu_rejects_overflow():
    # 16 pi q / (d sigma2) overflows below d sigma2 ~ 3e-153, making nu NaN
    assert math.isfinite(entropy_lower_nu(1, 1e-150).per_coord)
    for d, s2 in [(1, 1e-160), (4, 1e-300), (1, 5e-324)]:
        with pytest.raises(DomainError, match="not finite"):
            entropy_lower_nu(d, s2)
        with pytest.raises(DomainError, match="not finite"):
            bayes_risk_lower_l1(10, d, s2)


@pytest.mark.parametrize("d", [64, 10 ** 3, 10 ** 9, 10 ** 16, 10 ** 300],
                         ids=lambda d: f"{d:.0e}")
def test_gamma_ratio_at_large_d(d):
    # nu and the interpolation scale use Gamma((d+1)/2) / Gamma(d/2); a
    # difference of two ln Gamma values loses it at large d (exactly 1 from
    # d = 1e16 on), so both are checked against mpmath at enough digits.
    with mpmath.workdps(700):
        dm = mpmath.mpf(d)
        ratio = mpmath.exp(mpmath.loggamma((dm + 1) / 2) - mpmath.loggamma(dm / 2))
        q = 1 / dm + 1
        nu = mpmath.digamma(dm / 2) / 2 + mpmath.log(16 * mpmath.pi * q / dm) / 2 \
            - ratio * mpmath.sqrt(4 * q / (mpmath.pi * dm)) - mpmath.mpf(3) / 2 \
            - 2 * mpmath.log(2)
        scale = mpmath.sqrt(1 / dm + 1) * mpmath.sqrt(2) * ratio
    assert entropy_lower_nu(d, 1.0).per_coord == pytest.approx(float(nu), abs=1e-13)
    assert interpolation_scale(d, 1.0) == pytest.approx(float(scale), rel=1e-13)


def test_entropy_lower_nu_rejects_large_d_sigma2():
    # pi d sigma2 overflows: the square-root term would read 0 (or ln 0 fail)
    for d, s2 in [(1000, 1e306), (10 ** 308, 1.0)]:
        with pytest.raises(DomainError, match="too large"):
            entropy_lower_nu(d, s2)


def test_mutual_information_where_snr_overflows():
    # n / (d sigma2) overflows; both forms equal (d/2)(ln n - ln(d sigma2))
    for n, d, s2 in [(10, 1, 5e-324), (10 ** 9, 3, 1e-300)]:
        expected = (d / 2.0) * (math.log(n) - math.log(d * s2))
        assert mutual_information_exact(n, d, s2) == pytest.approx(expected, rel=1e-15)
        assert mutual_information_cb(n, d, s2) == pytest.approx(expected, rel=1e-15)


def test_mutual_information_values():
    assert mutual_information_exact(0, 3, 1.0) == 0.0
    assert mutual_information_exact(100, 2, 1.0) == pytest.approx(
        3.9318256327243257716447798548, rel=1e-14)
    # n = d sigma2 (e^2 - 1) gives exactly d nats
    d, s2 = 3, 0.5
    n = d * s2 * (math.e ** 2 - 1.0)
    assert (d / 2.0) * math.log1p(n / (d * s2)) == pytest.approx(d, rel=1e-12)
    with pytest.raises(DomainError):
        mutual_information_cb(0, 1, 1.0)


def test_cb_composition_identity():
    # assembling the generic asymptotic expansion with Fisher 1/sigma2 I and
    # h(theta) = (d/2) ln(2 pi e / d) reproduces the family's asymptote
    from rdrisk.rdcore import FisherSummary, mi_clarke_barron

    for d, s2 in [(1, 1.0), (3, 0.5), (5, 2.0)]:
        fisher = FisherSummary(dim=d, mean_log_sqrt_det=-(d / 2.0) * math.log(s2),
                               entropy=(d / 2.0) * math.log(2 * math.pi * math.e / d))
        for n in (10, 1000, 100_000):
            assert mi_clarke_barron(n, fisher) == pytest.approx(
                mutual_information_cb(n, d, s2), abs=1e-12)
            # the asymptote approaches the exact value from below
            assert mutual_information_exact(n, d, s2) >= mi_clarke_barron(n, fisher)


def test_exact_vs_asymptotic_gap():
    # exact - cb = (d/2) ln(1 + d sigma2 / n), monotone to zero
    gaps = []
    for n in (10, 100, 1000, 10 ** 5):
        d, s2 = 2, 1.0
        gap = mutual_information_exact(n, d, s2) - mutual_information_cb(n, d, s2)
        assert gap == pytest.approx((d / 2.0) * math.log1p(d * s2 / n), abs=1e-12)
        gaps.append(gap)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert mutual_information_exact(10 ** 5, 2, 1.0) - mutual_information_cb(10 ** 5, 2, 1.0) \
        < 1e-4 * 2
    # at n = d sigma2 the asymptote crosses zero while exact is (d/2) ln 2
    assert mutual_information_cb(4, 4, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert mutual_information_exact(4, 4, 1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-13)


def test_rd_bracket_l1():
    # the L1 bracket is the rdcore bracket at the family's spec and nu total
    d, s2 = 2, 0.5
    spec = GaussianFamily(d, s2).spec
    total = entropy_lower_nu(d, s2).total
    assert (spec.d_star, spec.d_interp, spec.num_classes) == (d, d, 2)
    assert rd_lower_pointwise(total, spec, 1.0, 0.04) == pytest.approx(
        max(total - d * math.log(2 * math.e * 0.04), 0.0), abs=1e-12)
    # halving D adds d ln 2 before the clamp whenever the bracket is active
    lo_fine = rd_lower_pointwise(total, spec, 1.0, 1e-6)
    lo_coarse = rd_lower_pointwise(total, spec, 1.0, 2e-6)
    assert lo_fine - lo_coarse == pytest.approx(d * math.log(2.0), abs=1e-10)


def test_risk_bound_variants():
    for d, s2 in [(1, 1.0), (4, 1.0), (2, 0.5)]:
        for n in (0, 10, 1000):
            bound = bayes_risk_lower_l1(n, d, s2)
            nu = entropy_lower_nu(d, s2).per_coord
            assert bound.printed == pytest.approx(
                math.sqrt(s2 * d / (s2 * d + n)) * math.exp(nu - 1.0), rel=1e-13)
            # the pipeline inversion carries exactly an extra factor 1/2
            assert bound.pipeline / bound.printed == pytest.approx(0.5, abs=1e-12)
    b = bayes_risk_lower_l1(0, 3, 2.0)
    assert b.printed == pytest.approx(math.exp(entropy_lower_nu(3, 2.0).per_coord - 1.0),
                                      rel=1e-13)
    # bound(n) * sqrt(sigma2 d + n) does not depend on n
    vals = [bayes_risk_lower_l1(n, 2, 1.0).printed * math.sqrt(2.0 + n)
            for n in (0, 7, 123, 9000)]
    assert max(vals) - min(vals) < 1e-15 + 1e-12 * max(vals)


def test_folded_gaussian_identity():
    # E[max(Z, 0)] = s / sqrt(2 pi) for Z ~ N(0, s^2)
    rng = rng_stream(601, 0)
    s = 1.7
    z = rng.normal(0.0, s, size=10 ** 6)
    pos = np.maximum(z, 0.0)
    stderr = pos.std(ddof=1) / math.sqrt(pos.size)
    assert abs(pos.mean() - s / math.sqrt(2.0 * math.pi)) < 3 * stderr


def test_interpolation_scale():
    # sqrt(1/d + sigma2) times the mean of a chi_d variable
    assert interpolation_scale(1, 1.0) == pytest.approx(
        math.sqrt(2.0) * math.sqrt(2.0 / math.pi), rel=1e-13)
    rng = rng_stream(602, 0)
    norms = np.linalg.norm(rng.normal(0.0, math.sqrt(1.0 / 3 + 0.5), size=(200_000, 3)),
                           axis=1)
    assert interpolation_scale(3, 0.5) == pytest.approx(norms.mean(), rel=5e-3)


@pytest.mark.parametrize("d,s2", [(1, 1.0), (2, 0.5)])
def test_entropy_lower_below_knn(d, s2):
    w = sample_regression_values(d, s2, draws=100_000, rng=rng_stream(603, d))
    est = knn_entropy_detail(w, k=4)
    assert entropy_lower_nu(d, s2).total <= est.mean + 3 * est.stderr


def test_simulator_n0_prior_only():
    # theta_hat = 0 makes What = 1/2; the L1 loss 2 E|W - 1/2| is positive
    est = simulate_bayes_risk(0, 1, 1.0, trials=2000, test_points=400, seed=604)
    assert est.mean > 10 * est.stderr


def test_simulator_dominates_printed_bound():
    for d in (1, 4):
        for n in (10, 100):
            est = simulate_bayes_risk(n, d, 1.0, trials=600, test_points=300, seed=605)
            assert est.mean + 3 * est.stderr >= bayes_risk_lower_l1(n, d, 1.0).printed


def test_simulator_sqrt_n_scaling():
    est1 = simulate_bayes_risk(400, 1, 1.0, trials=3000, test_points=400, seed=606)
    est2 = simulate_bayes_risk(1600, 1, 1.0, trials=3000, test_points=400, seed=607)
    ratio = est2.mean / est1.mean
    assert abs(ratio - 0.5) < 0.08
    with pytest.raises(DomainError):
        simulate_bayes_risk(10, 1, 1.0, trials=10, test_points=400, seed=0)
    with pytest.raises(DomainError):
        simulate_bayes_risk(10, 1, 1.0, trials=400, test_points=10, seed=0)


def reference_bayes_risk(n, d, sigma2, trials, test_points, seed):
    """The plug-in rule's risk from all n training points (O(n d) per trial)."""
    sigma = math.sqrt(sigma2)

    def sampler(rng, count):
        theta = rng.normal(0.0, math.sqrt(1.0 / d), size=(count, d))
        s = (3 - 2 * rng.integers(1, 3, size=(count, n))).astype(float)
        x = s[:, :, None] * theta[:, None, :] + sigma * rng.normal(size=(count, n, d))
        t_sum = (s[:, :, None] * x).sum(axis=1)
        theta_hat = (t_sum / sigma2) / (d + n / sigma2)
        return _test_point_loss(rng, theta, theta_hat, sigma2, test_points)

    return mc_mean(sampler, trials, seed)


def v2_bayes_risk(n, d, sigma2, trials, test_points, seed):
    """The version-2 sampler: the statistic drawn as n theta + sigma sqrt(n) Z
    (O(d) per trial), then every test point drawn in R^d."""
    sigma = math.sqrt(sigma2)

    def sampler(rng, count):
        theta = rng.normal(0.0, math.sqrt(1.0 / d), size=(count, d))
        t_sum = n * theta + sigma * math.sqrt(n) * rng.normal(size=(count, d))
        theta_hat = (t_sum / sigma2) / (d + n / sigma2)
        return _test_point_loss(rng, theta, theta_hat, sigma2, test_points)

    return mc_mean(sampler, trials, seed)


def _test_point_loss(rng, theta, theta_hat, sigma2, test_points):
    # 2 |W(X; theta) - W(X; theta_hat)| averaged over labeled test draws in R^d
    count, d = theta.shape
    st = (3 - 2 * rng.integers(1, 3, size=(count, test_points))).astype(float)
    xt = st[:, :, None] * theta[:, None, :] \
        + math.sqrt(sigma2) * rng.normal(size=(count, test_points, d))
    w_true = expit(2.0 * np.einsum("ctd,cd->ct", xt, theta) / sigma2)
    w_hat = expit(2.0 * np.einsum("ctd,cd->ct", xt, theta_hat) / sigma2)
    return (2.0 * np.abs(w_true - w_hat)).mean(axis=1)


@pytest.mark.parametrize("n,d", [(10, 1), (100, 4), (10, 16)])
def test_simulator_matches_brute_force_reference(n, d):
    # the reduced (u, v) draw against the construction from n labeled points
    # and test points in R^d; d = 1 has no component of Z across theta
    est = simulate_bayes_risk(n, d, 1.0, trials=4000, test_points=200, seed=608)
    ref = reference_bayes_risk(n, d, 1.0, trials=4000, test_points=200, seed=609)
    assert abs(est.mean - ref.mean) < 4 * math.hypot(est.stderr, ref.stderr)


@pytest.mark.parametrize("n", [10, 1000])
def test_simulator_matches_v2_reference(n):
    # at d = 64 the version-2 sampler draws 64 normals per test point
    est = simulate_bayes_risk(n, 64, 0.5, trials=3000, test_points=200, seed=610)
    ref = v2_bayes_risk(n, 64, 0.5, trials=3000, test_points=200, seed=611)
    assert abs(est.mean - ref.mean) < 4 * math.hypot(est.stderr, ref.stderr)


@pytest.mark.parametrize("d,s2", [(1, 1.0), (4, 0.5)])
def test_simulator_n0_matches_quadrature(d, s2):
    # n = 0 gives theta_hat = 0 and What = 1/2, so the risk is 2 E|W - 1/2|
    # with W = expit(2 u / sigma2), u = r + sigma sqrt(r) g, r = s^2 / d and
    # s = sqrt(d) |theta| ~ chi_d; the kink of |W - 1/2| splits the g integral
    sigma, k = math.sqrt(s2), 2.0 / s2

    def given_s(s):
        r = s * s / d
        kink = -math.sqrt(r) / sigma
        f = lambda g: abs(expit(k * (r + sigma * math.sqrt(r) * g)) - 0.5) \
            * math.exp(-0.5 * g * g) / math.sqrt(2.0 * math.pi)
        return quad(f, -math.inf, kink)[0] + quad(f, kink, math.inf)[0]

    chi_density = lambda s: s ** (d - 1) * math.exp(-0.5 * s * s) \
        / (2.0 ** (d / 2.0 - 1.0) * math.gamma(d / 2.0))
    exact = 2.0 * quad(lambda s: given_s(s) * chi_density(s), 0.0, math.inf)[0]
    est = simulate_bayes_risk(0, d, s2, trials=4000, test_points=200, seed=612)
    assert abs(est.mean - exact) < 4 * est.stderr
