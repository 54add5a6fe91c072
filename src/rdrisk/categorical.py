"""Dirichlet-prior categorical distribution: entropy, mutual information,
Bayes-risk lower bounds, external reference bounds, and a posterior-mean
risk simulator.

The learning problem is estimating an M-outcome distribution theta ~ Dir(gamma)
from n i.i.d. draws; the regression function is theta itself, with a single
interpolation point, so d_star = d_interp = 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._numpy import np
from .errors import DomainError
from .mc import MonteCarloEstimate, check_simulation, mc_mean
from .rdcore import FisherSummary, InterpolationSpec, mi_clarke_barron, risk_lower_from_mi
from .sim_common import inner_loss, outer_risk, outer_stderr, sample_dirichlet, sample_multinomial
from .specfun import (LossOrder, Nats, checked_fsum, digamma, log_beta_multivariate,
                      validate_loss_order)


class DirichletPrior:
    """Positive, finite concentration vector with cached total gamma0 and class count."""

    __slots__ = ("gamma", "gamma0", "num_classes")

    def __init__(self, gamma):
        g = tuple(float(v) for v in gamma)
        if len(g) < 2 or not all(0.0 < v < math.inf for v in g):
            raise DomainError("gamma must hold >= 2 positive finite components")
        try:
            self.gamma0 = math.fsum(g)
        except OverflowError:
            raise DomainError("gamma components must have a finite sum") from None
        self.gamma, self.num_classes = g, len(g)


def posterior_entropy(prior: DirichletPrior) -> Nats:
    """Differential entropy of (theta_1 .. theta_{M-1}) under Dir(gamma).

    ln B(gamma) - (M - gamma0) psi(gamma0) - sum_i (gamma_i - 1) psi(gamma_i).
    """
    g = prior.gamma
    m = prior.num_classes
    g0 = prior.gamma0
    return log_beta_multivariate(g) - (m - g0) * digamma(g0) \
        - checked_fsum((gi - 1.0) * digamma(gi) for gi in g)


def fisher_summary(prior: DirichletPrior) -> FisherSummary:
    """Clarke-Barron inputs: t = M-1, diagonal Fisher matrix diag(1/theta_i)."""
    m = prior.num_classes
    g0 = prior.gamma0
    mean_log_sqrt_det = (m - 1) / 2.0 * digamma(g0) \
        - 0.5 * checked_fsum(digamma(gi) for gi in prior.gamma[: m - 1])
    return FisherSummary(dim=m - 1, mean_log_sqrt_det=mean_log_sqrt_det,
                         entropy=posterior_entropy(prior))


def mutual_information(n: int, prior: DirichletPrior) -> Nats:
    """Asymptotic I(Z^n; theta) for the categorical problem (in nats).

    (M-1)/2 ln(n / 2 pi e) + (M-1)/2 psi(gamma0) - 1/2 sum_{i<M} psi(gamma_i)
    + h(theta_1 .. theta_{M-1}); the o(1) remainder is dropped.
    """
    return mi_clarke_barron(n, fisher_summary(prior))


def bayes_risk_lower(n: int, prior: DirichletPrior, p: LossOrder) -> float:
    """L_p Bayes-risk lower bound via the canonical inversion pipeline.

    For p = 1 this evaluates to
    (M-1) sqrt(pi / (2 e n)) exp(sum_{i<M} psi(gamma_i) / (2(M-1))
                                 - psi(gamma0) / 2).
    """
    mi = mutual_information(n, prior)
    h = posterior_entropy(prior)
    return risk_lower_from_mi(mi, h, InterpolationSpec(1, 1, prior.num_classes), p)


def reference_risk_lower(n: int, prior: DirichletPrior, p: LossOrder) -> float:
    """Closed forms exactly as printed, for side-by-side reporting.

    The p = 1 and p = inf forms agree with bayes_risk_lower to rounding;
    the printed p = 2 exponent lacks the 1/2 weights and differs from the
    pipeline for asymmetric priors (reported, never asserted equal).
    """
    p = validate_loss_order(p)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    m = prior.num_classes
    g0 = prior.gamma0
    half_exp = math.fsum(digamma(gi) for gi in prior.gamma[: m - 1]) \
        / (2.0 * (m - 1)) - digamma(g0) / 2.0
    if p == 1.0:
        return (m - 1) * math.sqrt(math.pi / (2.0 * math.e * n)) * math.exp(half_exp)
    if math.isinf(p):
        return math.sqrt(math.pi * math.e / (2.0 * n)) * math.exp(half_exp)
    if p == 2.0:
        return math.sqrt((m - 1) / n) * math.exp(2.0 * half_exp)
    raise DomainError("printed closed forms exist only for p in {1, 2, inf}")


class KamathBounds(NamedTuple):
    lower: float
    upper: float


def kamath_bounds(n: int, m: int, kappa: float) -> KamathBounds:
    """Published minimax L1 reference bounds for symmetric priors kappa >= 1.

    lower may be negative for small n and is reported as-is.
    """
    if kappa < 1.0:
        raise DomainError(f"reference bounds require kappa >= 1, got {kappa}")
    if n < 1 or m < 2:
        raise DomainError("need n >= 1 and M >= 2")
    lead = math.sqrt(2.0 * (m - 1) / (math.pi * n))
    slack = 4.0 * math.sqrt(m) * (m - 1) ** 0.25 / n ** 0.75
    lower = lead * (1.0 - m / (2.0 * (m - 1) * kappa)) - slack \
        - m * (1.0 - m * kappa) / (n + m * kappa)
    upper = lead + slack
    return KamathBounds(lower=lower, upper=upper)


def simulate_bayes_risk(n: int, prior: DirichletPrior, p: LossOrder,
                        trials: int, seed: int, chunks: int = 64,
                        threads: int = 1) -> MonteCarloEstimate:
    """Simulated L_p risk of the posterior-mean rule.

    Per trial: theta ~ Dir(gamma), counts ~ Multinomial(n, theta),
    theta_hat = (gamma + counts) / (gamma0 + n), inner loss per
    sim_common.inner_loss.  The outer 1/p exponent and a delta-method
    stderr are applied to the Monte-Carlo mean.
    """
    check_simulation(n, trials)
    p = validate_loss_order(p)
    gamma = np.asarray(prior.gamma)
    g0 = prior.gamma0

    def sampler(rng, count):
        theta = sample_dirichlet(gamma, rng, size=count)
        counts = sample_multinomial(n, theta, rng)
        theta_hat = (gamma[None, :] + counts) / (g0 + n)
        return inner_loss(p, theta, theta_hat)

    est = mc_mean(sampler, trials, seed, chunks=chunks, threads=threads)
    return MonteCarloEstimate(mean=outer_risk(p, est.mean),
                              stderr=outer_stderr(p, est.mean, est.stderr),
                              trials=est.trials)
