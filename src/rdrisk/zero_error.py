"""Noiseless 1-D threshold classification on [0, 1] with a uniform prior:
exact mutual information through harmonic numbers, rate-distortion bound,
midpoint estimator with exact 1/n-scaling risk, and the e^{-gamma}-tight
sample-complexity pair.

Labels are +1 iff x >= theta (the measure-zero tie goes to +1 so runs are
deterministic).  The consistent-threshold interval (theta_l, theta_r]
collects max over negative points and min over positive points, with 0/1
defaults when a side is empty.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ContradictionError, DomainError
from .mc import MonteCarloEstimate, check_simulation, mc_mean
from .specfun import EULER_GAMMA, LossOrder, Nats, harmonic, log_gamma, validate_loss_order


class ZeroErrorSample(NamedTuple):
    x: float
    y: int


class ThetaInterval(NamedTuple):
    theta_l: float
    theta_r: float


def label(x: float, theta: float) -> int:
    """+1 if x >= theta else -1."""
    if not (0.0 <= x <= 1.0 and 0.0 <= theta <= 1.0):
        raise DomainError("x and theta must lie in [0, 1]")
    return 1 if x >= theta else -1


def interval(samples: Iterable[ZeroErrorSample]) -> ThetaInterval:
    """Interval of thresholds consistent with every labeled sample."""
    theta_l, theta_r = 0.0, 1.0
    for x, y in samples:
        if y == -1:
            theta_l = max(theta_l, x)
        elif y == 1:
            theta_r = min(theta_r, x)
        else:
            raise DomainError(f"labels must be +-1, got {y}")
    if theta_l > theta_r:
        raise ContradictionError(
            f"no threshold is consistent: theta_l={theta_l} > theta_r={theta_r}")
    return ThetaInterval(theta_l=theta_l, theta_r=theta_r)


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
    mutual_information_exact(n); each trial costs O(1) in n.  Zero-width
    intervals have probability zero; if floating point ever produces one,
    those trials are redrawn with a warning.
    """
    check_simulation(n, trials, min_trials=1000)

    def sampler(rng, count):
        widths = _interval_widths(rng, n, count)
        for _ in range(100):
            bad = widths <= 0.0
            if not bad.any():
                break
            warnings.warn(f"resampling {int(bad.sum())} zero-width intervals",
                          RuntimeWarning, stacklevel=2)
            widths[bad] = _interval_widths(rng, n, int(bad.sum()))
        return -np.log(widths)

    return mc_mean(sampler, trials, seed, chunks=chunks, threads=threads)


def _rd_lower(distortion: float, p: LossOrder, rederived: bool) -> Nats:
    p = validate_loss_order(p)
    if math.isinf(p):
        raise DomainError("the closed form is stated for finite p only")
    if not distortion > 0.0:
        raise DomainError(f"distortion must be positive, got {distortion}")
    value = -math.log(2.0) - log_gamma(1.0 + 1.0 / p) \
        - math.log(p * math.e) / p - math.log(distortion)
    if rederived:
        value += math.log(2.0) / p
    return max(value, 0.0)


def rd_lower(distortion: float, p: LossOrder) -> Nats:
    """Published rate-distortion lower bound for the threshold posterior.

    [-ln(2 Gamma(1 + 1/p)) - (1/p) ln(p e) - ln D]^+.  See
    rd_lower_rederived for the variant carrying the extra (1/p) ln 2.
    """
    return _rd_lower(distortion, p, rederived=False)


def rd_lower_rederived(distortion: float, p: LossOrder) -> Nats:
    """Variant from maximizing entropy at moment D^p / 2: printed + (ln 2)/p.

    The published form and this one differ by exactly (1/p) ln 2 before the
    positive part; the published one is primary for reproducing the
    sample-complexity chain.
    """
    return _rd_lower(distortion, p, rederived=True)


def risk_lower_l1(n: int) -> float:
    """L1 risk floor from the exact mutual information: exp(-H_{n+1}) / 2."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    return math.exp(-harmonic(n + 1)) / 2.0


def midpoint_estimator(samples: Iterable[ZeroErrorSample]) -> float:
    """(theta_l + theta_r) / 2 of the consistent interval."""
    iv = interval(samples)
    return 0.5 * (iv.theta_l + iv.theta_r)


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
