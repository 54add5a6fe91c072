import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import expit

import rdrisk.gaussian as gaussian
import rdrisk.mc as mc
from rdrisk.errors import DomainError
from rdrisk.gaussian import (ANTITHETIC_PAIRS, MAX_MEMBERS, RING_POINTS, antithetic_chi2,
                             bayes_risk_lower_l1, entropy_lower_nu, grid_normals,
                             interpolation_scale, mutual_information_cb,
                             mutual_information_exact, polar_grid,
                             sample_regression_values, simulate_bayes_risk)
from rdrisk.knn import knn_entropy_detail
from rdrisk.mc import MonteCarloEstimate, mc_mean, rng_stream
from rdrisk.rdcore import mi_clarke_barron, rd_lower_pointwise
from rdrisk.specfun import EULER_GAMMA


@pytest.mark.parametrize("d,sigma2", [(0, 1.0), (-1, 1.0), (2, 0.0), (2, -1.0),
                                      (2, math.inf), (2, math.nan)])
def test_simulate_bayes_risk_rejects_bad_model(d, sigma2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            simulate_bayes_risk(10, d, sigma2, trials=200, test_points=100, seed=0)


def test_entropy_lower_nu_fixture():
    # d=1, sigma2=1 assembled from psi(1/2) = -euler-2ln2 and
    # Gamma(1)/Gamma(1/2) = 1/sqrt(pi); frozen after a two-way computation
    got = entropy_lower_nu(1, 1.0)
    manual = 0.5 * (-EULER_GAMMA - 2 * math.log(2.0)) \
        + 0.5 * math.log(32.0 * math.pi) \
        - (1.0 / math.sqrt(math.pi)) * math.sqrt(8.0 / math.pi) \
        - 1.5 - 2.0 * math.log(2.0)
    assert got == pytest.approx(manual, rel=1e-13)
    assert got == pytest.approx(-2.4631327959631450674953576211, rel=1e-13)
    assert entropy_lower_nu(2, 0.5) == pytest.approx(
        -2.28388286161918873732461503285, rel=1e-13)


def test_entropy_lower_nu_structure():
    # the ln(1/sigma2) term sends the bound to -infinity as noise dominates
    assert entropy_lower_nu(1, 1e8) < -10.0
    assert entropy_lower_nu(1, 1e12) < entropy_lower_nu(1, 1e8)


def test_entropy_lower_nu_rejects_overflow():
    # 16 pi q / (d sigma2) overflows below d sigma2 ~ 3e-153, making nu NaN
    assert math.isfinite(entropy_lower_nu(1, 1e-150))
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
    assert entropy_lower_nu(d, 1.0) == pytest.approx(float(nu), abs=1e-13)
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
    for d, s2 in [(1, 1.0), (3, 0.5), (5, 2.0)]:
        log_sqrt_det = -(d / 2.0) * math.log(s2)
        entropy = (d / 2.0) * math.log(2 * math.pi * math.e / d)
        for n in (10, 1000, 100_000):
            cb = mi_clarke_barron(n, d, log_sqrt_det, entropy)
            assert cb == pytest.approx(mutual_information_cb(n, d, s2), abs=1e-12)
            # the asymptote approaches the exact value from below
            assert mutual_information_exact(n, d, s2) >= cb


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
    # the L1 bracket is the rdcore bracket at d_star = d, M = 2 and total d nu
    d, s2 = 2, 0.5
    total = d * entropy_lower_nu(d, s2)
    assert rd_lower_pointwise(total, d, 2, 1.0, 0.04) == pytest.approx(
        max(total - d * math.log(2 * math.e * 0.04), 0.0), abs=1e-12)
    # halving D adds d ln 2 before the clamp whenever the bracket is active
    lo_fine = rd_lower_pointwise(total, d, 2, 1.0, 1e-6)
    lo_coarse = rd_lower_pointwise(total, d, 2, 1.0, 2e-6)
    assert lo_fine - lo_coarse == pytest.approx(d * math.log(2.0), abs=1e-10)


def test_risk_bound_variants():
    for d, s2 in [(1, 1.0), (4, 1.0), (2, 0.5)]:
        for n in (0, 10, 1000):
            bound = bayes_risk_lower_l1(n, d, s2)
            nu = entropy_lower_nu(d, s2)
            assert bound.printed == pytest.approx(
                math.sqrt(s2 * d / (s2 * d + n)) * math.exp(nu - 1.0), rel=1e-13)
            # the pipeline inversion carries exactly an extra factor 1/2
            assert bound.pipeline / bound.printed == pytest.approx(0.5, abs=1e-12)
    b = bayes_risk_lower_l1(0, 3, 2.0)
    assert b.printed == pytest.approx(math.exp(entropy_lower_nu(3, 2.0) - 1.0), rel=1e-13)
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
    assert d * entropy_lower_nu(d, s2) <= est.mean + 3 * est.stderr


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


def model_bayes_risk(n, d, sigma2, trials, test_points, seed):
    """The model itself: the plug-in rule's risk from n labeled training
    points and ``test_points`` labeled test points, all drawn in R^d
    (O((n + T) d) per trial)."""
    sigma = math.sqrt(sigma2)

    def labeled_points(rng, theta, count):
        # uniform labels y with sign s = 3 - 2y, then x ~ N(s theta, sigma2 I)
        s = 3.0 - 2.0 * rng.integers(1, 3, size=(theta.shape[0], count))
        x = sigma * rng.standard_normal(size=(*s.shape, theta.shape[1]))
        x += s[:, :, None] * theta[:, None, :]
        return s, x

    def sampler(rng, count):
        theta = rng.normal(0.0, math.sqrt(1.0 / d), size=(count, d))
        s, x = labeled_points(rng, theta, n)
        theta_hat = np.einsum("cn,cnd->cd", s, x) / (sigma2 * d + n)
        # 2 |W(X; theta) - W(X; theta_hat)| averaged over the test points
        _, xt = labeled_points(rng, theta, test_points)
        w_true = expit(2.0 * np.einsum("ctd,cd->ct", xt, theta) / sigma2)
        w_hat = expit(2.0 * np.einsum("ctd,cd->ct", xt, theta_hat) / sigma2)
        return (2.0 * np.abs(w_true - w_hat)).mean(axis=1)

    return mc_mean(sampler, trials, seed)


# (d, n, sigma2, T, model trials, gain).  Each row checks the simulator's
# mean against the model's and its variance per trial at least ``gain``
# times below the model's; ``gain`` is about 0.6 of the lowest ratio
# measured over six seeds with 2000 simulated trials (the measured range
# follows each row).  The rows take d = 1, d past 2 ANTITHETIC_PAIRS (64
# and 200), T not a multiple of the grid (101), T = 1000, n = 1 and
# n = 1000; the (16, n, 1, 100) and (4, n, 1, 1000) rows are the
# benchmark's.  The model costs up to 2 ms a trial (d = 64, n = 1000), so
# its trials vary by row.
MODEL_ROWS = [
    (16, 100, 1.0, 100, 2000, 10),  # 15.7-18.8x
    (16, 1000, 1.0, 100, 600, 8),  # 12.8-15.9x
    (4, 1, 1.0, 1000, 1000, 300),  # 525-595x
    (4, 10, 1.0, 1000, 1000, 150),  # 232-285x
    (2, 10, 0.5, 101, 2000, 20),  # 35.8-41.5x
    (3, 10, 2.0, 101, 2000, 30),  # 47.8-54.7x
    (1, 10, 1.0, 100, 2000, 15),  # 25.7-29.0x
    (200, 10, 1.0, 100, 500, 4),  # 6.1-8.1x
    (64, 10, 0.5, 200, 500, 35),  # 60.4-66.4x
    (64, 1000, 0.5, 200, 300, 5),  # 7.5-9.5x
    (1, 10, 1.0, 200, 4000, 30),  # 51.0-60.3x
    (4, 100, 1.0, 200, 4000, 27),  # 45.0-50.5x
    (16, 10, 1.0, 200, 4000, 55),  # 89.2-96.8x
]
model_rows = pytest.mark.parametrize(
    "d,n,s2,points,model_trials,gain", MODEL_ROWS,
    ids=["-".join(map(str, row[:4])) for row in MODEL_ROWS])


@functools.lru_cache(maxsize=None)
def simulator_and_model(d, n, s2, points, model_trials):
    """Both estimates of one row, drawn once for the mean and variance tests."""
    return (simulate_bayes_risk(n, d, s2, trials=2000, test_points=points, seed=613),
            model_bayes_risk(n, d, s2, trials=model_trials, test_points=points, seed=614))


@model_rows
def test_simulator_mean_matches_model(d, n, s2, points, model_trials, gain):
    est, ref = simulator_and_model(d, n, s2, points, model_trials)
    assert abs(est.mean - ref.mean) <= 4 * math.hypot(est.stderr, ref.stderr)


@model_rows
def test_simulator_variance_below_model(d, n, s2, points, model_trials, gain):
    est, ref = simulator_and_model(d, n, s2, points, model_trials)
    # the variance per trial is trials * stderr^2
    assert gain * est.trials * est.stderr ** 2 <= ref.trials * ref.stderr ** 2


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


@pytest.mark.parametrize("n", [10 ** 34, 10 ** 307], ids=["1e34", "1e307"])
def test_simulator_at_huge_n_matches_first_order_risk(n):
    # For large n the loss is sech^2(u) |u - v| to first order (sigma2 = 1),
    # with u - v = -(a w + sqrt(b) g2) / sqrt(n) and w = sqrt(r) + g1, so
    # sqrt(n) risk -> sqrt(2/pi) E[sech^2(sqrt(r) w) sqrt(w^2 + b)].  Taking
    # h_par from sqrt(r) cancelled to rounding from about n = 1e30.
    d, rng = 4, np.random.default_rng(619)
    root = np.sqrt(rng.chisquare(d, 400_000) / d)
    w = root + rng.standard_normal(root.size)
    terms = math.sqrt(2 / math.pi) * np.sqrt(w * w + rng.chisquare(d - 1, root.size)) \
        / np.cosh(root * w) ** 2
    limit, limit_stderr = terms.mean(), terms.std() / math.sqrt(terms.size)
    est = simulate_bayes_risk(n, d, 1.0, trials=4000, test_points=100, seed=618)
    scaled, scaled_stderr = est.mean * math.sqrt(n), est.stderr * math.sqrt(n)
    assert abs(scaled - limit) <= 4 * math.hypot(scaled_stderr, limit_stderr)
    assert scaled_stderr < 0.02 * limit


@pytest.mark.parametrize("d", [1, 2, 3, 16, 17, 129, 200])
def test_antithetic_chi2_pairs(d):
    # each member is exactly chi2_dof; the members of a pair fall in
    # opposite directions while all their degrees are paired, and a degree
    # past the pairing is each member's own
    pairs = antithetic_chi2(rng_stream(615, d), 20_000, d)
    assert pairs.shape == (2, 2, 20_000)
    for dof, (first, second) in zip((d, d - 1), pairs):
        if dof == 0:
            assert not first.any() and not second.any()
            continue
        for member in (first, second):
            assert stats.kstest(member, stats.chi2(dof).cdf).pvalue > 1e-3
        rho = stats.spearmanr(first, second).statistic
        if 2 <= dof <= 2 * ANTITHETIC_PAIRS:
            assert rho < -0.3
        if dof == 1:
            assert abs(rho) < 0.03


class ZeroUniforms:
    """Generator stand-in whose uniforms are all exactly 0."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out.fill(0.0)
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("d", [1, 2, 7, 16, 200])
def test_zero_uniforms_give_finite_trials_without_warning(monkeypatch, d):
    # a uniform of 0 enters member 1 as 2^-53, so -2 ln stays finite
    pairs = antithetic_chi2(ZeroUniforms(rng_stream(616, d)), 10, d)
    assert np.isfinite(pairs).all()
    monkeypatch.setattr(mc, "rng_stream", lambda seed, i: ZeroUniforms(rng_stream(seed, i)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = simulate_bayes_risk(10, d, 1.0, trials=200, test_points=101, seed=616,
                                  chunks=2)
    assert math.isfinite(est.mean) and math.isfinite(est.stderr)


def layout(points):
    """The members' point counts and each member's ring sizes, from the
    rules in gaussian.polar_grid."""
    members = min(2 * (points // 20), MAX_MEMBERS)
    per_member = [points // members + (k < points % members) for k in range(members)]
    rings = round(per_member[0] / RING_POINTS)
    return [[p // rings + (q < p % rings) for q in range(rings)] for p in per_member]


@pytest.mark.parametrize("d,points", [(1, 101), (2, 100), (5, 119), (200, 100), (3, 1000)])
def test_trial_recomputed_in_plain_python(monkeypatch, d, points):
    # From the same stream: the members' (r, b) from antithetic_chi2, pair
    # member 0 first, then a uniform per ring and an angle per member; each
    # point's loss
    # 2 |W - W_hat| from its (g1, Z) with math, the trial their mean.  The
    # sampler draws nothing more.
    samplers = []
    monkeypatch.setattr(gaussian, "mc_mean", lambda sampler, *args, **kwargs:
                        samplers.append(sampler) or MonteCarloEstimate(0.0, 0.0, 100))
    n, s2, count = 10, 0.5, 3
    simulate_bayes_risk(n, d, s2, trials=100, test_points=points, seed=0)
    drawn = rng_stream(617, d)
    values = samplers[0](drawn, count)
    rings = layout(points)
    half, per_ring = len(rings) // 2, len(rings[0])
    rng = rng_stream(617, d)
    chi2 = antithetic_chi2(rng, half * count, d).reshape(2, 2, half, count)
    u = rng.random(size=(per_ring + 1, len(rings), count))
    assert drawn.random() == rng.random()
    c, sigma = 1.0 / (s2 * d + n), math.sqrt(s2)
    for i in range(count):
        losses = []
        for k, sizes in enumerate(rings):
            r, b = chi2[0, k // half, k % half, i] / d, chi2[1, k // half, k % half, i]
            root, inside = math.sqrt(r) / sigma, 0
            for q, m in enumerate(sizes):
                cdf = (inside + u[q, k, i] * m) / sum(sizes)
                radius = math.sqrt(-2.0 * math.log(1.0 - cdf))
                for j in range(m):
                    angle = 2.0 * math.pi * (u[per_ring, k, i] + j / m)
                    g1, z = radius * math.cos(angle), radius * math.sin(angle)
                    t = root + g1
                    gap = root * (1.0 - c * n) * t - c * math.sqrt(n) * math.hypot(
                        t, math.sqrt(b)) * z
                    losses.append(2.0 * abs(expit(2.0 * root * t) - expit(2.0 * (root * t - gap))))
                inside += m
        assert len(losses) == points
        assert values[i] == pytest.approx(math.fsum(losses) / points, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("points", [100, 101, 1000])
def test_grid_points_are_normal_over_their_strata(points):
    # a member's points, pooled over its cells, are N(0, I_2); each ring has
    # the Rayleigh CDF of its radius uniform over the ring's range, and one
    # point in each angular sector, all at one offset within their sectors,
    # uniform
    grid = polar_grid(points)
    trials = 3000
    g1, z, _ = grid_normals(grid, rng_stream(620, points), trials)
    rings = layout(points)
    for k in (0, 1, len(rings) - 1):
        x = np.concatenate([g1[:m, q, k] for q, m in enumerate(rings[k])]).ravel()
        y = np.concatenate([z[:m, q, k] for q, m in enumerate(rings[k])]).ravel()
        assert x.size == sum(rings[k]) * trials
        for coordinate in (x, y):
            assert stats.kstest(coordinate, stats.norm.cdf).pvalue > 1e-3
        inside = 0
        for q, m in enumerate(rings[k]):
            cdf = -np.expm1(-0.5 * (g1[:m, q, k] ** 2 + z[:m, q, k] ** 2))
            where = (cdf * sum(rings[k]) - inside) / m
            assert np.ptp(where, axis=0).max() < 1e-9
            turns = np.arctan2(z[:m, q, k], g1[:m, q, k]) % (2.0 * math.pi) * m / (2.0 * math.pi)
            sectors = np.sort(np.floor(turns), axis=0)
            assert (sectors == np.arange(m)[:, None]).all()
            offset = turns - np.floor(turns)
            assert np.ptp(offset, axis=0).max() < 1e-9
            for uniform in (where[0], offset[0]):
                assert uniform.min() >= -1e-9 and uniform.max() <= 1.0 + 1e-9
                assert stats.kstest(uniform, "uniform").pvalue > 1e-3
            inside += m
