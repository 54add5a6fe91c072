import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from rdrisk.errors import DomainError
from rdrisk.gaussian import interpolation_scale
from rdrisk.specfun import (_HARMONIC_EXACT_MAX, EULER_GAMMA, checked_fsum, cp_constant,
                            digamma, digamma_remainder, digamma_secant_at_2, entropy_terms,
                            expit, harmonic,
                            log_beta_multivariate, log_gamma, log_gamma_remainder,
                            validate_loss_order)

# Accuracy grid: (0.05, 3), (3, 50), 50 to 1e9 and the half-integers to 60.
ACCURACY_GRID = [float(x) for x in np.concatenate([
    np.linspace(0.05, 3.0, 120), np.linspace(3.0, 50.0, 95),
    np.geomspace(50.0, 1e9, 80), np.arange(0.5, 60.0, 1.0)])]
MAX_ULPS = 8.0


def _ulps(value, exact, scale):
    """|value - exact| in units of ulp(max(scale, 1))."""
    return abs(value - float(exact)) / math.ulp(max(abs(float(scale)), 1.0))


def test_log_gamma_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)


@pytest.mark.parametrize("x", [1e-3, 0.1, 0.5, 1.0, 3.7, 100.0, 1e6])
def test_log_gamma_recurrence(x):
    assert log_gamma(x + 1.0) == pytest.approx(log_gamma(x) + math.log(x), abs=1e-12, rel=1e-12)


@pytest.mark.parametrize("x", [5e-324, 1e-310])
def test_log_gamma_subnormal(x):
    # gamma(x) overflows below the smallest normal float; lgamma does not.
    assert log_gamma(x) == math.lgamma(x)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-2.5)


def test_digamma_known_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 3.7, 100.0])
def test_digamma_recurrence(x):
    assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-12


def test_digamma_domain():
    with pytest.raises(DomainError):
        digamma(-1.0)


def test_digamma_secant_at_2_against_mpmath():
    # relative error over the h = 1/(n + 1) of the zero-error control
    # weight, n = 1 to 2^24, and 2^-25 below them; near h = 2^-24 the plain
    # psi(2 + h) - psi(2) loses half the digits it has in floats
    worst = (0.0, 0.0)
    with mpmath.workdps(60):
        for h in (2.0 ** -25, 1.0 / (2 ** 24 + 1), 2.0 ** -24, 6e-8, 1e-6, 1e-3, 1.0 / 11,
                  0.1, 1.0 / 3, 0.5):
            got = digamma_secant_at_2(h)
            exact = (mpmath.digamma(2 + mpmath.mpf(h)) - mpmath.digamma(2)) / h
            worst = max(worst, (abs(got - float(exact)) / math.ulp(got), h))
    assert worst[0] <= 2.0, f"off by {worst[0]} ulp at h = {worst[1]}"
    for h in (0.0, -1.0, 0.6, math.nan):
        with pytest.raises(DomainError):
            digamma_secant_at_2(h)


def test_log_beta_multivariate_values():
    assert log_beta_multivariate((1.0, 1.0)) == pytest.approx(0.0, abs=1e-14)
    assert log_beta_multivariate((2.0, 2.0)) == pytest.approx(math.log(1.0 / 6.0), rel=1e-13)
    assert log_beta_multivariate((1.0, 1.0, 1.0)) == pytest.approx(-math.log(2.0), rel=1e-13)


def test_log_beta_multivariate_domain():
    with pytest.raises(DomainError):
        log_beta_multivariate(())
    with pytest.raises(DomainError):
        log_beta_multivariate((1.0,))
    with pytest.raises(DomainError):
        log_beta_multivariate((1.0, 0.0))


def test_harmonic_values():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert harmonic(2) == 1.5
    assert harmonic(5) == pytest.approx(137.0 / 60.0, rel=1e-15)


def test_harmonic_asymptote():
    n = 10 ** 6
    gap = harmonic(n) - (math.log(n) + EULER_GAMMA)
    assert abs(gap) < 1e-6 + 1.0 / (2 * n)


def test_harmonic_large_n():
    # H_{10^9} to 40 digits: 21.300481502347944016685101848908...
    assert harmonic(10 ** 9) == pytest.approx(21.300481502347944, rel=1e-15)


def test_harmonic_branches_agree_at_cutoff():
    cutoff = _HARMONIC_EXACT_MAX
    for n in (cutoff, cutoff + 1):
        series = math.log(n) + EULER_GAMMA + 1.0 / (2 * n) - 1.0 / (12 * n ** 2) \
            + 1.0 / (120 * n ** 4)
        exact = math.fsum(1.0 / i for i in range(1, n + 1))
        for value in (harmonic(n), series):
            assert abs(value - exact) <= 4 * math.ulp(exact)


def test_harmonic_is_the_correctly_rounded_sum_of_its_terms():
    # Fraction(1.0 / i) is the float term exactly, so the running sum is the
    # exact sum of the float terms and float() rounds it once.
    exact = Fraction(0)
    for n in range(1, 2001):
        exact += Fraction(1.0 / n)
        assert harmonic(n) == float(exact), n


def test_harmonic_domain():
    with pytest.raises(DomainError):
        harmonic(-1)


def test_cp_constant_values():
    assert cp_constant(1.0, 2) == pytest.approx(math.log(2.0 * math.e), rel=1e-13)
    assert cp_constant(2.0, 2) == pytest.approx(0.5 * math.log(2.0 * math.pi * math.e), rel=1e-13)
    assert cp_constant(math.inf, 2) == math.log(2.0)
    assert cp_constant(math.inf, 17) == math.log(2.0)


def test_cp_constant_large_p_limit():
    assert abs(cp_constant(1e6, 2) - math.log(2.0)) < 1e-4
    assert abs(cp_constant(1e6, 5) - math.log(2.0)) < 1e-4


def test_cp_constant_domain():
    with pytest.raises(DomainError):
        cp_constant(0.5, 2)
    with pytest.raises(DomainError):
        cp_constant(1.0, 1)


def test_validate_loss_order():
    assert validate_loss_order(1) == 1.0
    assert math.isinf(validate_loss_order(math.inf))
    with pytest.raises(DomainError):
        validate_loss_order(0.99)


@pytest.mark.parametrize("name,fn,exact", [
    ("digamma", digamma, mpmath.digamma),
    ("log_gamma", log_gamma, mpmath.loggamma),
])
def test_accuracy_against_mpmath(name, fn, exact):
    with mpmath.workdps(40):
        worst = max((_ulps(fn(x), exact(x), exact(x)), x) for x in ACCURACY_GRID)
    assert worst[0] <= MAX_ULPS, f"{name} off by {worst[0]} ulp at x={worst[1]}"


@pytest.mark.parametrize("shape", [
    lambda x: (x, x), lambda x: (x, 1.0), lambda x: (x, 0.5, 2.0), lambda x: (x, x, x)],
    ids=["x,x", "x,1", "x,0.5,2", "x,x,x"])
def test_log_beta_multivariate_accuracy_against_mpmath(shape):
    # A difference of ln Gamma values: the unit is the ulp of its largest
    # term (or of max(|f|, 1)), since the terms' own rounding sets the floor.
    def error(x):
        gamma = shape(x)
        terms = [mpmath.loggamma(g) for g in gamma]
        total = mpmath.loggamma(mpmath.fsum(gamma))
        exact = mpmath.fsum(terms) - total
        scale = max(abs(t) for t in terms + [total, exact])
        return _ulps(log_beta_multivariate(gamma), exact, scale)

    with mpmath.workdps(40):
        worst = max((error(x), x) for x in ACCURACY_GRID)
    assert worst[0] <= MAX_ULPS, f"off by {worst[0]} ulp at x={worst[1]}"


# The Dirichlet entropy kernel from 0.05 to 1e300, on both sides of the
# cutoff of its Stirling form at 10.
ENTROPY_KERNEL_GRID = sorted({*(float(x) for x in np.geomspace(0.05, 1e300, 200)),
                              0.5, 1.0, 2.0, 9.5, 9.999999999999998, 10.0})
ENTROPY_KERNEL_ULPS = 4.0


@pytest.mark.parametrize("k", [1, 2, 5])
def test_entropy_terms_against_mpmath(k):
    # Below 10 the plain terms x, ln Gamma(x) and (x - k) psi(x) set the
    # floor, so the unit is the ulp of the largest of them; at 10 and above
    # Stirling's form has cancelled them, and the unit is ulp(max(|T|, 1)).
    def error(x):
        with mpmath.workdps(60 + max(0, int(math.log10(x)))):
            v = mpmath.mpf(x)
            terms = [v, mpmath.loggamma(v), -(v - k) * mpmath.digamma(v)]
            exact = mpmath.fsum(terms)
        scale = max(abs(t) for t in terms) if x < 10.0 else exact
        return _ulps(math.fsum(entropy_terms(x, k)), exact, scale)

    worst = max((error(x), x) for x in ENTROPY_KERNEL_GRID)
    assert worst[0] <= ENTROPY_KERNEL_ULPS, f"off by {worst[0]} ulp at x={worst[1]}"


def test_checked_fsum_rejects_sums_beyond_the_float_range():
    assert checked_fsum([1e308, 1.0, -1e308]) == 1.0
    assert checked_fsum([1e308, 1e308, -1e308]) == 1e308  # a partial sum overflows
    for terms in ([1e308, 1e308], [math.inf, -math.inf], [-math.inf, 1.0], [math.nan]):
        with pytest.raises(DomainError, match="overflows the float range"):
            checked_fsum(terms)


# Stirling-form remainders from the smallest argument each is stated for
# to 1e300, with the points around x = 1.3e154, where x * x overflows.
REMAINDER_GRID = sorted({*(float(x) for x in np.geomspace(8.0, 1e300, 121)), 8.0, 9.5,
                         10.0, 12.0, 20.0, 1.3e154, 1.35e154, 1e155, 3e161})
REMAINDER_ULPS = 4.0


def _remainders_by_mpmath(x):
    """mu(x), rho(x) and the first omitted terms of their series,
    1/(156 x^13) and B_18/(18 x^18), at 40 digits beyond the cancellation
    of the ln Gamma and psi terms."""
    with mpmath.workdps(40 + 2 * int(math.log10(x))):
        v = mpmath.mpf(x)
        mu = mpmath.loggamma(v) - (v - mpmath.mpf(0.5)) * mpmath.log(v) + v \
            - mpmath.log(2 * mpmath.pi) / 2
        rho = mpmath.digamma(v) - mpmath.log(v) + 1 / (2 * v)
        return (float(mu), float(rho), float(1 / (156 * v ** 13)),
                float(mpmath.mpf(43867) / 798 / 18 / v ** 18))


def test_remainders_against_mpmath():
    # Each is within its series' truncation bound plus REMAINDER_ULPS ulp of
    # the exact value, rho down to the subnormal values past x = 1.3e154.
    worst_mu = worst_rho = (-math.inf, None)
    for x in REMAINDER_GRID:
        mu, rho, mu_tail, rho_tail = _remainders_by_mpmath(x)
        worst_mu = max(worst_mu, ((abs(log_gamma_remainder(x) - mu) - mu_tail)
                                  / math.ulp(mu), x))
        if x >= 10.0:
            worst_rho = max(worst_rho, ((abs(digamma_remainder(x) - rho) - rho_tail)
                                        / math.ulp(rho), x))
    assert worst_mu[0] <= REMAINDER_ULPS, f"mu off by {worst_mu[0]} ulp at x={worst_mu[1]}"
    assert worst_rho[0] <= REMAINDER_ULPS, f"rho off by {worst_rho[0]} ulp at x={worst_rho[1]}"


def test_log_gamma_remainder_on_arrays():
    # an array argument gives each element the float argument's value
    x = np.array(REMAINDER_GRID)
    assert log_gamma_remainder(x).tolist() == [log_gamma_remainder(v) for v in REMAINDER_GRID]


def test_interpolation_scale_against_mpmath():
    # sqrt(2) Gamma((d + 1)/2) / Gamma(d/2) takes ln Gamma's Stirling form
    # from d = 20, where a difference of two ln Gamma values loses digits
    # (128 ulp at d = 61)
    worst = (0.0, None)
    for d in [*range(1, 400), *(int(v) for v in np.geomspace(400, 1e12, 100))]:
        with mpmath.workdps(60):
            dm = mpmath.mpf(d)
            exact = mpmath.sqrt(2 / dm + 2) * mpmath.exp(mpmath.loggamma((dm + 1) / 2)
                                                         - mpmath.loggamma(dm / 2))
        worst = max(worst, (_ulps(interpolation_scale(d, 1.0), exact, exact), d))
    assert worst[0] <= 16.0, f"off by {worst[0]} ulp at d = {worst[1]}"


def test_expit_limits_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expit(-1000.0) == 0.0
        assert expit(1000.0) == 1.0
        assert expit(np.array([-1000.0, 0.0, 1000.0])).tolist() == [0.0, 0.5, 1.0]


def test_expit_matches_scipy():
    from scipy.special import expit as scipy_expit

    # Unit: ulp(max(|f|, 1)) = ulp(1), as for the functions above.  numpy's
    # vectorised exp and the C library's exp round apart on a few percent
    # of arguments, which moves expit by up to 2 ulp of a value below 1.
    x = np.random.default_rng(20260).normal(scale=15.0, size=100_000)
    ours, ref = expit(x), scipy_expit(x)
    assert np.max(np.abs(ours - ref)) <= math.ulp(1.0)
    assert float(expit(0.75)) == pytest.approx(float(scipy_expit(0.75)), abs=math.ulp(1.0))
