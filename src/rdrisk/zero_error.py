"""Noiseless 1-D threshold classification on [0, 1] with a uniform prior:
exact mutual information through harmonic numbers, the L1 risk floor it
gives, midpoint estimator with exact 1/n-scaling risk, and the
e^{-gamma}-tight sample-complexity pair.

Labels are +1 iff x >= theta; the midpoint estimator returns the centre of
the interval of thresholds consistent with the sample.  Both simulators
reduce a trial to that interval's Beta(2, n) width, a monotone function of
two independent exponentials E1 and E2.  The mutual information is
E[-ln width], and a Monte-Carlo trial averages it over an antithetic pair
of widths.  The estimator's risk is E[width] / 4, since theta sits at a
uniform place in the interval whatever its width; E2 integrates out of
that in closed form, so an estimator trial draws E1 alone, as an
antithetic pair, and subtracts a control variate of mean 0 built from
the same two logarithms, at a weight that is a closed-form function of n.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._numpy import np
from .errors import DomainError
from .mc import MonteCarloEstimate, antithetic_log_uniforms, mc_mean
from .specfun import EULER_GAMMA, Nats, digamma_secant_at_2, harmonic, validate_sample_count


def mutual_information_exact(n: int) -> Nats:
    """I(Z^n; theta) = H_{n+1} - 1 exactly; grows like ln n + (gamma - 1)."""
    validate_sample_count(n)
    return harmonic(n + 1) - 1.0


def _interval_widths(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` antithetic pairs of widths theta_r - theta_l of the
    consistent interval, drawn exactly, as an array of shape (2, count).

    theta and the n points are n + 1 i.i.d. uniforms, so their n + 2
    spacings are Dirichlet(1, ..., 1) and the interval is the two spacings
    next to theta: its width is Beta(2, n) (1 at n = 0), the law of the
    second smallest of n + 1 uniforms.  Renyi's representation of
    exponential order statistics writes that as
    W = 1 - exp(-(E1 / (n + 1) + E2 / n)) with E = -ln V for a uniform V,
    which falls in both uniforms.  Row r is W at member r of the antithetic
    pairs of mc.antithetic_log_uniforms: each is exactly Beta(2, n), the two
    are negatively correlated, and the pairs are i.i.d.
    """
    if n == 0:
        return np.ones((2, count))
    # neg_e[member, j] is -E_j of that pair member.  The steps write in
    # place and are few: at small chunks on two worker threads, the time
    # grew with the number of numpy calls more than with the arithmetic.
    neg_e = antithetic_log_uniforms(rng, (2, count))
    neg_e /= np.array([[n + 1], [n]], dtype=float)
    widths = np.add(neg_e[:, 0], neg_e[:, 1])
    np.expm1(widths, out=widths)
    return np.negative(widths, out=widths)


def mi_monte_carlo(n: int, trials: int, seed: int, **run: int) -> MonteCarloEstimate:
    """Monte-Carlo I(Z^n; theta) as E[-ln(theta_r - theta_l)].

    The width is Beta(2, n), whose E[-ln width] = psi(n + 2) - psi(2) is
    mutual_information_exact(n).  A trial is -(ln W + ln W') / 2 over one
    antithetic pair of widths (see _interval_widths), which has 4.9x less
    variance than one width at n = 1 and about 9.8x less as n grows; it
    costs O(1) in n.  A zero width gives an infinite trial, which fails
    the run with DomainError.
    """
    validate_sample_count(n)

    def sampler(rng, count):
        return -0.5 * np.log(_interval_widths(rng, n, count)).sum(axis=0)

    return mc_mean(sampler, trials, seed, **run)


def risk_lower_l1(n: int, mi: Nats | None = None) -> float:
    """L1 risk floor from the exact mutual information: exp(-H_{n+1}) / 2.

    It is computed as exp(-(I + 1)) / 2 from I = mutual_information_exact(n),
    which gives the same float for every n checked (0..2000, 1e5 +- 1,
    1e6, 1e7, 1e9 and both benchmark log grids).  A caller that already has
    I passes it as ``mi`` to skip the harmonic sum.
    """
    validate_sample_count(n)
    if mi is None:
        mi = mutual_information_exact(n)
    return math.exp(-(mi + 1.0)) / 2.0


def estimator_risk_exact(n: int) -> float:
    """Published midpoint-estimator risk: E|theta - midpoint| = 1 / (4(n+1)).

    The published chain quarters an unweighted mean spacing 1/(n+1), but
    the interval containing theta is size-biased; the actual mean of the
    simulated estimator is estimator_risk_rederived(n), larger by the
    factor (n+2)/(2(n+1)) -> 2.  Kept as primary for reproducing the
    published sample-complexity constants.
    """
    validate_sample_count(n)
    return 1.0 / (4.0 * (n + 1))


def estimator_risk_rederived(n: int) -> float:
    """Midpoint-estimator risk E|theta - midpoint| from the size-biased width.

    The width of the threshold-consistent interval has mean
    E[theta_r - theta_l] = 2/(n+2) (theta lands in a spacing with
    probability proportional to its length), so E|theta - midpoint| =
    1 / (2(n+2)) and L1 = 1 / (n+2).  This is what
    simulate_estimator_risk converges to.
    """
    validate_sample_count(n)
    return 1.0 / (2.0 * (n + 2))


# The estimator trial takes its control variate up to this n and not above.
# The controlled trial's spread is about 0.2/n of its mean, and each trial
# carries rounding errors of a few ulp of the mean that need not average out
# (at n = 1.5e308 every trial rounds to one value, for a stderr of 0).  So
# the relative stderr, 0.2 / (n sqrt(trials)), must stay well above 2^-52:
# at n <= 2^24 and trials <= 2^40 (9 hours of one core at 30 ns a trial)
# it is at least 2^-46, or 50 ulp.  Above the cutoff the trial is the
# uncontrolled one, whose spread is about 0.2 of its mean at any n.
CONTROL_MAX_N = 2 ** 24

# Var(ln U + ln(1 - U)) = 2 Var(ln U) + 2 Cov(ln U, ln(1 - U))
# = 2 + 2 (1 - pi^2/6) for a uniform U.
_CONTROL_VARIANCE = 4.0 - math.pi ** 2 / 3.0

# delta = (ln(2 pi) + 53 ln 2) 2^-53: on the grid of
# mc.antithetic_log_uniforms, E[ln V] = -1 + delta / 2 (Stirling's series for
# ln (2^53)!), so the control ln V + ln V' + 2 - delta has mean 0 there, to
# 2e-31 with delta rounded to a float.
_GRID_DELTA = math.ldexp(math.log(2.0 * math.pi) + 53.0 * math.log(2.0), -53)


def control_weight(n) -> float:
    """The weight b(n) = Cov(trial, c) / Var(c) of the estimator trial's
    control c = ln V + ln V' + 2 - delta, as a function of n alone; it is
    exact for the continuous pair (U, 1 - U), which (V, V') is to 2^-53.

    The uncontrolled trial is base - slope (U^a - 1 + (1 - U)^a - 1) with
    a = 1/(n + 1) and slope = n / (8 (n + 1)).  Cov(U^a, ln U) = a/(a + 1)^2
    and Cov(U^a, ln(1 - U)) = -(psi(2 + a) - psi(2)) / (a + 1), and the
    pair is symmetric in U and 1 - U, so
    Cov = -2 slope a/(a + 1) (1/(a + 1) - (psi(2 + a) - psi(2)) / a), where
    the bracket tends to 2 - pi^2/6 and cancels nothing.  0 at n = 0, where
    the trial is constant, and above CONTROL_MAX_N.
    """
    if not 0 < n <= CONTROL_MAX_N:
        return 0.0
    a = 1.0 / (n + 1)
    slope = 0.125 * (n / (n + 1))
    bracket = a / (a + 1.0) * (1.0 / (a + 1.0) - digamma_secant_at_2(a))
    return -2.0 * slope * bracket / _CONTROL_VARIANCE


def simulate_estimator_risk(n: int, trials: int, seed: int,
                            **run: int) -> MonteCarloEstimate:
    """Monte-Carlo E|theta - midpoint|, matching 1 / (2(n+2)).

    The two spacings beside theta split the width as Dirichlet(1, 1),
    independently of it, so theta sits at a uniform fraction U of the
    consistent interval and |theta - midpoint| = width * |U - 1/2|, whose
    expectation given the width is width / 4.  The width is
    W = 1 - exp(-(E1 / (n + 1) + E2 / n)) (see _interval_widths), and
    E[exp(-E2 / n)] = n / (n + 1), so
    E[W | E1] = 1/(n+1) - (n/(n+1)) expm1(-E1 / (n + 1)), two terms that
    are never negative and so cancel nothing at any n.  The uncontrolled
    trial is the mean of E[W | E1] / 4 at E1 = -ln V and at its antithetic
    E1' = -ln V', one pair (V, V') of mc.antithetic_log_uniforms, so it
    draws one uniform in O(1) time whatever n is.

    A trial subtracts b (ln V + ln V' + 2 - delta) from it, with
    b = control_weight(n).  E[ln V] = -1 + delta / 2 on the uniforms' grid
    (see _GRID_DELTA), so the control has mean 0 and the estimate stays
    unbiased; b is the variance-minimising weight,
    a function of n alone and never fitted to the draws.  The control
    reuses the trial's two logarithms.  Against the uncontrolled trial on
    the same draws its variance is 13x smaller at n = 1, 1.4e4x at
    n = 100 and 1.3e6x at n = 1000, about 1.3 n^2 as n grows, at about
    1.1x the cost; above CONTROL_MAX_N, where b = 0, the trial is the
    uncontrolled one.

    At n = 0 every trial returns 1/4 exactly.  The result converges to
    estimator_risk_rederived(n), not to the published
    estimator_risk_exact(n).
    """
    validate_sample_count(n)
    # With L = ln V, L' = ln V', y = L / (n + 1) and x = expm1(y), a trial
    # is base - slope (x + x') - b (L + L' + 2 - delta)
    # = base - (2 - delta) b - slope (x + x' + ratio (y + y')),
    # ratio = b (n + 1) / slope.
    base, slope = 0.25 / (n + 1), 0.125 * (n / (n + 1))
    weight = control_weight(n)
    # At weight 0 (n = 0, where slope is 0, and above CONTROL_MAX_N) the
    # control is +-0, and adding it leaves the uncontrolled trial's bytes.
    ratio = weight * (n + 1) / slope if weight else 0.0

    def sampler(rng, count):
        x = antithetic_log_uniforms(rng, (count,))
        x /= float(n + 1)
        control = np.add(x[0], x[1])
        control *= ratio
        np.expm1(x, out=x)
        trial = np.add(x[0], x[1])
        trial += control
        trial *= -slope
        trial += base - (2.0 - _GRID_DELTA) * weight
        return trial

    return mc_mean(sampler, trials, seed, **run)


class SampleComplexity(NamedTuple):
    n_necessary: float
    n_sufficient: float


def sample_complexity(l1_target: float) -> SampleComplexity:
    """Necessary/sufficient sample counts for an L1 risk target in (0, 1/2).

    n_necessary = e^{-gamma} / (2 L1) - 1 (information-theoretic floor,
    reported unrounded), n_sufficient = 1 / (2 L1) - 1 (midpoint
    estimator); the (n+1) ratio is e^{gamma} ~ 1.781 < 2.
    """
    if not 0.0 < l1_target < 0.5:
        raise DomainError(f"L1 target must be in (0, 1/2), got {l1_target}")
    n_suff = 1.0 / (2.0 * l1_target) - 1.0
    n_nec = math.exp(-EULER_GAMMA) / (2.0 * l1_target) - 1.0
    return SampleComplexity(n_necessary=n_nec, n_sufficient=n_suff)
