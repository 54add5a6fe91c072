import math
import sys

import mpmath
import numpy as np
import pytest

from rdrisk import categorical, multinomial
from rdrisk.categorical import (DirichletPrior, posterior_entropy, sample_dirichlet,
                                sample_multinomial)
from rdrisk.errors import DomainError
from rdrisk.knn import knn_entropy, knn_entropy_detail
from rdrisk.mc import mc_mean, rng_stream
from rdrisk.multinomial import (MultinomialFamily, _loss_and_control, entropy_lower,
                                mutual_information, reference_entropy_lower_printed,
                                reference_risk_lower, simulate_interpolation_risk,
                                xbayes_risk_lower)
from rdrisk.rdcore import rd_lower_pointwise
from rdrisk.specfun import digamma


def fam(d, k, gamma):
    return MultinomialFamily(d=d, k=k, prior=DirichletPrior(gamma))


FAM211 = fam(2, 1, (1.0, 1.0))


def test_family_validation():
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


def published_mi_terms_by_mpmath(n, k, gamma):
    """(CB term, E ln|Fisher|^(1/2)) of the published expansion at 40 digits,
    with the Fisher matrix diag(k / (2 theta_i (1 - theta_i))), i < d."""
    with mpmath.workdps(40):
        g = [mpmath.mpf(v) for v in gamma]
        g0, d = mpmath.fsum(g), len(g)
        log_sqrt_det = (d - 1) * mpmath.log(mpmath.mpf(k) / 2) / 2 \
            - mpmath.fsum(mpmath.digamma(v) + mpmath.digamma(g0 - v) - 2 * mpmath.digamma(g0)
                          for v in g[:-1]) / 2
        cb = (d - 1) * mpmath.log(n / (2 * mpmath.pi * mpmath.e)) / 2
        return float(cb), float(log_sqrt_det)


@pytest.mark.parametrize("k,gamma", [(1, (1.0, 1.0)), (5, (2.0, 1.0, 0.5)), (2, (1.0,) * 4),
                                     (3, (0.3, 0.7, 1.1)), (2, (1.0, 1e-20)),
                                     (2, (1.0, 1e-17, 1e-17))])
def test_mutual_information_matches_published_expansion(k, gamma):
    # (1, 1e-20) and (1, 1e-17, 1e-17) need gamma0 - gamma_1 taken from the
    # other components: gamma0 - 1 rounds to 0 there.  The entropy term is
    # the categorical Dirichlet entropy, checked against mpmath on its own.
    f = fam(len(gamma), k, gamma)
    h = posterior_entropy(f.prior)
    for n in (5, 500):
        cb, log_sqrt_det = published_mi_terms_by_mpmath(n, k, gamma)
        mi = mutual_information(n, f)
        assert mi == pytest.approx(cb + log_sqrt_det + h, rel=1e-13, abs=1e-13)
        assert mi - cb - h == pytest.approx(log_sqrt_det, rel=1e-13, abs=1e-12)


# Priors from 1e-300 to 1e300: symmetric, mixed, and tiny components next to
# large ones.
SWEEP_PRIORS = [(1e-300, 1e-300), (1e-10, 1e-10), (0.5, 0.5), (1.0, 1.0), (3.0, 3.0, 3.0),
                (10.0, 10.0), (1e4, 1e4), (1e10, 1e10), (1e15, 1e15), (1e100, 1e100, 1e100),
                (1e300, 1e300), (1.0, 1e12, 3.0), (1e155, 2.0, 3e158), (0.01, 7.5, 9.99),
                (8.0, 9.0, 10.0), (1e-3, 1e8), (2.5, 1e300), (1e-300, 1e300),
                (1e-300, 1.0, 1e300), (1.0, 1e-20), (1.0, 1e-17, 1e-17), (1e-300, 1e15)]
SWEEP_ULPS = 16.0
SWEEP_N = 10


def dirichlet_closed_forms_by_mpmath(gamma, k, n=SWEEP_N):
    """{name: (value, scale)} for the five closed forms built from ln Gamma
    and psi of a Dirichlet prior, each in its plain (published) form, at 70
    digits past the size of the largest gamma.  ``scale`` is the size an
    error is counted in ulps of: max(|f|, 1) for the two entropies; for the
    printed entropy bound, which cancels by its own construction, its
    largest term; for the two mutual informations, which add three
    separately rounded Clarke-Barron summands (asymptotic term, Fisher
    term, entropy), the largest of those and 1."""
    lg, ps = mpmath.loggamma, mpmath.digamma
    with mpmath.workdps(70 + max(0, int(math.log10(sum(gamma))))):
        g = [mpmath.mpf(v) for v in gamma]
        g0, m = mpmath.fsum(g), len(g)
        pairs = [(gi, g0 - gi) for gi in g[:-1]]
        h = mpmath.fsum(lg(v) for v in g) - lg(g0) - (m - g0) * ps(g0) \
            - mpmath.fsum((v - 1) * ps(v) for v in g)
        lower = mpmath.fsum(lg(gi) + lg(ri) - lg(g0) + (k - gi) * ps(gi) + (k - ri) * ps(ri)
                            + (g0 - 2 * k) * ps(g0) + mpmath.log(k) - 2 * mpmath.log(2)
                            for gi, ri in pairs)
        printed = [t for gi, ri in pairs
                   for t in (lg(gi) + lg(ri) - lg(g0), (g0 + gi + 2 - k) * ps(ri),
                             -(g0 - 2) * ps(g0), (k - gi) * ps(gi),
                             mpmath.log(k) - 2 * mpmath.log(2) / k)]
        cb = (m - 1) * mpmath.log(n / (2 * mpmath.pi * mpmath.e)) / 2
        cat_det = (m - 1) * ps(g0) / 2 - mpmath.fsum(ps(v) for v in g[:-1]) / 2
        mult_det = (m - 1) * mpmath.log(mpmath.mpf(k) / 2) / 2 \
            - mpmath.fsum(ps(gi) + ps(ri) - 2 * ps(g0) for gi, ri in pairs) / 2
        return {"posterior_entropy": (h, max(abs(h), 1)),
                "entropy_lower": (lower, max(abs(lower), 1)),
                "reference_entropy_lower_printed": (mpmath.fsum(printed),
                                                    max(abs(t) for t in printed)),
                "categorical.mutual_information": (cb + cat_det + h,
                                                   max(abs(cb), abs(cat_det), abs(h), 1)),
                "multinomial.mutual_information": (cb + mult_det + h,
                                                   max(abs(cb), abs(mult_det), abs(h), 1))}


def dirichlet_closed_forms(gamma, k, n=SWEEP_N):
    """The package's five closed forms, as callables, for the same arguments."""
    f = fam(len(gamma), k, gamma)
    return {"posterior_entropy": lambda: posterior_entropy(f.prior),
            "entropy_lower": lambda: entropy_lower(f),
            "reference_entropy_lower_printed": lambda: reference_entropy_lower_printed(f),
            "categorical.mutual_information": lambda: categorical.mutual_information(n, f.prior),
            "multinomial.mutual_information": lambda: mutual_information(n, f)}


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("gamma", SWEEP_PRIORS, ids=str)
def test_dirichlet_closed_forms_keep_their_digits(gamma, k):
    # Every one is a sum of ln Gamma and psi terms that grow like gamma ln gamma
    # (or like 1/gamma) while the entropies grow like ln gamma: entropy_lower,
    # summed as ln B + psi terms, read -12.52008342 at (1e10, 1e10), k = 1,
    # where mpmath gives -12.52000206.
    exact = dirichlet_closed_forms_by_mpmath(gamma, k)
    for name, fn in dirichlet_closed_forms(gamma, k).items():
        value, scale = exact[name]
        error = abs(fn() - float(value)) / math.ulp(float(scale))
        assert error <= SWEEP_ULPS, f"{name} off by {error} ulp"


@pytest.mark.parametrize("name,gamma,k", [
    ("posterior_entropy", (1e-308,) * 3, 1),
    ("entropy_lower", (1e-308,) * 3, 3),
    ("reference_entropy_lower_printed", (8e307, 8e307), 1),
])
def test_dirichlet_closed_forms_beyond_the_float_range_raise(name, gamma, k):
    value, _ = dirichlet_closed_forms_by_mpmath(gamma, k)[name]
    assert abs(value) > sys.float_info.max
    with pytest.raises(DomainError):
        dirichlet_closed_forms(gamma, k)[name]()


@pytest.mark.parametrize("name,gamma", [
    ("entropy_lower", (1e-308,) * 3),
    ("categorical.mutual_information", (1e-308,) * 2),
    ("multinomial.mutual_information", (1e-308,) * 2),
])
def test_dirichlet_closed_forms_whose_partial_sums_overflow(name, gamma):
    # the terms reach 1e308 and their partial sums leave the float range,
    # while the exact values, -1.67e308, -7.5e307 and -5e307, are floats
    value, scale = dirichlet_closed_forms_by_mpmath(gamma, 1)[name]
    assert -sys.float_info.max < value < -1e307
    error = abs(dirichlet_closed_forms(gamma, 1)[name]() - float(value)) / math.ulp(float(scale))
    assert error <= SWEEP_ULPS, f"{name} off by {error} ulp"


def test_rd_bracket():
    # the worst-case bracket is the rdcore bracket at d_star = d - 1, M = 2
    f = fam(3, 2, (1.0, 1.0, 1.0))
    lower = rd_lower_pointwise(entropy_lower(f), f.d - 1, 2, 1.0, 0.05)
    # p = 1 reduces to entropy_lower - (d-1) ln(2 e D) before the clamp
    expected = entropy_lower(f) - (f.d - 1) * math.log(2 * math.e * 0.05)
    assert lower == pytest.approx(max(expected, 0.0), abs=1e-12)
    # halving D raises the lower bound by (d-1) ln 2 while the bracket is active
    h = entropy_lower(FAM211)
    lo1 = rd_lower_pointwise(h, 1, 2, 1.0, 0.01)
    lo2 = rd_lower_pointwise(h, 1, 2, 1.0, 0.02)
    assert lo1 > 0.0 and lo2 > 0.0
    assert lo1 - lo2 == pytest.approx((FAM211.d - 1) * math.log(2.0), abs=1e-12)
    with pytest.raises(DomainError):
        rd_lower_pointwise(entropy_lower(f), f.d - 1, 2, 1.0, 0.0)


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


@pytest.mark.parametrize("gamma,k", [((0.01, 1e305, 0.5, 0.01, 0.5), 7),
                                     ((1.0, 1e305, 1e305), 1)])
def test_reference_risk_lower_where_its_sum_overflows(gamma, k):
    # the psi terms reach 7.0e307 and 2.1e308, so their sum leaves the float
    # range, though the exponent (mpmath: -3.5e307, -6.9e304) does not: a
    # DomainError, where a plain fsum raised OverflowError at the first and
    # gave a nan bound (inf - inf) at the second
    with pytest.raises(DomainError):
        reference_risk_lower(10, fam(len(gamma), k, gamma))


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


@pytest.mark.parametrize("k,n", [(45_000_000_000_000_000, 1000), (3, 2 ** 63 - 1),
                                 (10 ** 22, 0), (2 ** 63, 0)])
def test_simulator_rejects_k_n_beyond_int64_count_draws(k, n):
    # k n = 4.5e19 used to wrap in int64 to 1.8e18 and draw wrong counts;
    # at n = 0, k above 2^63 - 1 ended in OverflowError from k * n1
    with pytest.raises(DomainError, match=r"2\^63 - 1"):
        simulate_interpolation_risk(n, fam(2, k, (1.0, 1.0)), trials=1000, seed=0)


def test_simulator_draws_up_to_int64_counts():
    k = 3
    est = simulate_interpolation_risk((2 ** 63 - 1) // k, fam(2, k, (1.0, 1.0)),
                                      trials=1000, seed=0)
    assert 0.0 <= est.mean < 2.0


def plug_in_model_risk(n, family, trials, seed, chunks=64):
    """The plug-in model: n observations with uniform labels, each of k
    draws from psi = (1 - theta) / (d - 1) in class 1 and from theta in
    class 2, seen through each class's category totals, which are
    sufficient; a trial is the largest 2 |W - W_hat| over the interpolation
    points for the posterior means, with no control variate."""
    gamma = np.asarray(family.prior.gamma)
    g0, d, k = family.prior.gamma0, family.d, family.k

    def regression(theta_cols, psi_cols):
        with np.errstate(divide="ignore", over="ignore"):
            return 1.0 / (1.0 + np.exp(k * (np.log(theta_cols) - np.log(psi_cols))))

    def sampler(rng, count):
        theta = sample_dirichlet(gamma, rng, size=count)
        psi = (1.0 - theta) / (d - 1.0)
        n1 = rng.binomial(n, 0.5, size=count)
        n2 = n - n1
        agg1 = sample_multinomial(k * n1, psi, rng)
        agg2 = sample_multinomial(k * n2, theta, rng)
        theta_hat = (gamma[None, :] + agg2) / (g0 + k * n2)[:, None]
        psi_hat = (gamma[None, :] + agg1) / (g0 + k * n1)[:, None]
        w_true = regression(theta[:, : d - 1], psi[:, : d - 1])
        w_hat = regression(theta_hat[:, : d - 1], psi_hat[:, : d - 1])
        return (2.0 * np.abs(w_true - w_hat)).max(axis=1)

    return mc_mean(sampler, trials, seed, chunks=chunks)


@pytest.mark.parametrize("d,k,gamma,n", [(2, 1, (1.0, 1.0), 0), (3, 2, (0.5, 2.0, 3.0), 7),
                                         (5, 3, (1.0,) * 5, 100), (2, 3, (0.01, 0.01), 10)])
def test_simulator_without_the_control_is_the_plug_in_model(monkeypatch, d, k, gamma, n):
    # same draws, same loss bit for bit: the control only subtracts
    f = fam(d, k, gamma)
    ref = plug_in_model_risk(n, f, trials=2000, seed=507, chunks=8)
    monkeypatch.setattr(multinomial, "CONTROL_WEIGHT", 0.0)
    assert simulate_interpolation_risk(n, f, trials=2000, seed=507, chunks=8) == ref


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def multinomial_pmf(counts, probs):
    ways = math.factorial(sum(counts))
    for c in counts:
        ways //= math.factorial(c)
    return ways * math.prod(p ** c for p, c in zip(probs, counts))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_control_mean_is_exact_over_every_count_outcome(k, n):
    # E[C | theta, n1], summed over every pair of class-1 and class-2 count
    # vectors with its probability, is EC, which the counts do not change
    gamma = np.array([0.5, 2.0, 3.0])
    for theta in (np.array([0.2, 0.3, 0.5]), np.array([0.7, 0.05, 0.25])):
        psi = (1.0 - theta) / 2.0
        for n1 in range(n + 1):
            n2 = n - n1
            pairs = [(a1, a2) for a1 in compositions(k * n1, 3) for a2 in compositions(k * n2, 3)]
            probs = [multinomial_pmf(a1, psi) * multinomial_pmf(a2, theta) for a1, a2 in pairs]
            rows = len(pairs)
            _, c, ec = _loss_and_control(
                np.tile(theta, (rows, 1)), np.tile(psi, (rows, 1)), np.full(rows, n1),
                np.full(rows, n2), np.array([a1 for a1, _ in pairs]),
                np.array([a2 for _, a2 in pairs]), gamma, 5.5, k)
            assert math.fsum(probs) == pytest.approx(1.0, rel=1e-14)
            assert np.all(ec == ec[0]) and ec[0] > 0.0
            assert math.fsum(p * ci for p, ci in zip(probs, c)) == pytest.approx(ec[0], rel=1e-12)


def test_control_is_zero_where_w_saturates():
    # at k = 2^61 W is exactly 0 or 1 away from theta = psi, so q and EC are 0
    theta, psi = np.array([[0.3, 0.7]]), np.array([[0.7, 0.3]])
    loss, c, ec = _loss_and_control(theta, psi, np.array([1]), np.array([2]),
                                    np.array([[2 ** 60, 2 ** 60]]),
                                    np.array([[2 ** 61, 2 ** 62]]),
                                    np.array([1.0, 1.0]), 2.0, 2 ** 61)
    assert (c[0], ec[0]) == (0.0, 0.0)
    assert math.isfinite(loss[0])


# The benchmark's multinomial rows (d, n), all at k = 3 and gamma = 1.
BENCHMARK_ROWS = [(20, 10), (20, 1000), (5, 10), (5, 100)]


@pytest.mark.parametrize("d,n", BENCHMARK_ROWS)
def test_simulator_agrees_with_the_plug_in_model_at_lower_variance(d, n):
    f = fam(d, 3, (1.0,) * d)
    new = simulate_interpolation_risk(n, f, trials=40_000, seed=508)
    ref = plug_in_model_risk(n, f, trials=40_000, seed=509)
    assert abs(new.mean - ref.mean) <= 4 * math.hypot(new.stderr, ref.stderr)
    # no row more noisy; the two rows where the count noise dominates at
    # less than half the variance (about 2.2x in a 1e5-trial measurement)
    assert new.stderr <= 1.05 * ref.stderr
    if (d, n) in ((20, 1000), (5, 100)):
        assert 2.0 * new.stderr ** 2 <= ref.stderr ** 2


@pytest.mark.parametrize("d,k,gamma,n", [(3, 2, (1.0, 1e-17, 1e-17), 10),
                                         (2, 3, (1.0, 1.0), (2 ** 63 - 1) // 3),
                                         (2, 2 ** 61, (1.0, 1.0), 3),
                                         (3, 1, (0.01, 0.01, 0.01), 50),
                                         # both class estimates of the 1e-300
                                         # component underflow to 0
                                         (5, 1, (1e200, 3.0, 1e200, 1e-300, 1e200), 1),
                                         (3, 1, (1e300, 1e-300, 1.0), 10)])
def test_simulator_trials_stay_finite_at_extremes(d, k, gamma, n):
    # mc_mean rejects a non-finite trial, so a run that returns is finite
    est = simulate_interpolation_risk(n, fam(d, k, gamma), trials=1000, seed=510)
    assert 0.0 <= est.mean < 2.0 and math.isfinite(est.stderr)
