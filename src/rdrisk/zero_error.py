"""Noiseless 1-D threshold classification on [0, 1] with a uniform prior:
exact mutual information through harmonic numbers, the L1 risk floor it
gives, midpoint estimator with exact 1/n-scaling risk, and the
e^{-gamma}-tight sample-complexity pair.

Labels are +1 iff x >= theta; the midpoint estimator returns the centre of
the interval of thresholds consistent with the sample.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._numpy import np
from .errors import DomainError
from .mc import MonteCarloEstimate, check_simulation, mc_mean
from .specfun import EULER_GAMMA, Nats, harmonic


def mutual_information_exact(n: int) -> Nats:
    """I(Z^n; theta) = H_{n+1} - 1 exactly; grows like ln n + (gamma - 1)."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    return harmonic(n + 1) - 1.0


def _interval_widths(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Widths theta_r - theta_l of the consistent interval, drawn exactly.

    theta and the n points are n + 1 i.i.d. uniforms, so their n + 2
    spacings are Dirichlet(1, ..., 1) and the interval is the two spacings
    next to theta: its width is Beta(2, n) (1 at n = 0).
    """
    if n == 0:
        return np.ones(count)
    return rng.beta(2.0, n, size=count)


def mi_monte_carlo(n: int, trials: int, seed: int, chunks: int = 64,
                   threads: int = 1) -> MonteCarloEstimate:
    """Monte-Carlo I(Z^n; theta) as E[-ln(theta_r - theta_l)].

    The width is Beta(2, n), whose E[-ln width] = psi(n + 2) - psi(2) is
    mutual_information_exact(n); each trial costs O(1) in n.
    """
    check_simulation(n, trials, min_trials=1000)

    def sampler(rng, count):
        return -np.log(_interval_widths(rng, n, count))

    return mc_mean(sampler, trials, seed, chunks=chunks, threads=threads)


def risk_lower_l1(n: int) -> float:
    """L1 risk floor from the exact mutual information: exp(-H_{n+1}) / 2."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    return math.exp(-harmonic(n + 1)) / 2.0


class EstimatorRisk(NamedTuple):
    e_abs: float
    l1: float


def estimator_risk_exact(n: int) -> EstimatorRisk:
    """Published midpoint-estimator risk: E|theta - midpoint| = 1 / (4(n+1)).

    The published chain quarters an unweighted mean spacing 1/(n+1), but
    the interval containing theta is size-biased; the actual mean of the
    simulated estimator is estimator_risk_rederived(n), larger by the
    factor (n+2)/(2(n+1)) -> 2.  Kept as primary for reproducing the
    published sample-complexity constants.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    e_abs = 1.0 / (4.0 * (n + 1))
    return EstimatorRisk(e_abs=e_abs, l1=2.0 * e_abs)


def estimator_risk_rederived(n: int) -> EstimatorRisk:
    """Midpoint-estimator risk from the size-biased interval width.

    The width of the threshold-consistent interval has mean
    E[theta_r - theta_l] = 2/(n+2) (theta lands in a spacing with
    probability proportional to its length), so E|theta - midpoint| =
    1 / (2(n+2)) and L1 = 1 / (n+2).  This is what
    simulate_estimator_risk converges to.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    e_abs = 1.0 / (2.0 * (n + 2))
    return EstimatorRisk(e_abs=e_abs, l1=2.0 * e_abs)


def simulate_estimator_risk(n: int, trials: int, seed: int, chunks: int = 64,
                            threads: int = 1) -> MonteCarloEstimate:
    """Monte-Carlo E|theta - midpoint|, matching 1 / (2(n+2)).

    The two spacings beside theta split the width as Dirichlet(1, 1),
    independently of it, so theta sits at a uniform fraction U of the
    consistent interval and each trial draws width * |U - 1/2| in O(1) time
    whatever n is.  The
    result converges to estimator_risk_rederived(n), not to the published
    estimator_risk_exact(n).
    """
    check_simulation(n, trials, min_trials=1000)

    def sampler(rng, count):
        widths = _interval_widths(rng, n, count)
        return widths * np.abs(rng.uniform(size=count) - 0.5)

    return mc_mean(sampler, trials, seed, chunks=chunks, threads=threads)


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
