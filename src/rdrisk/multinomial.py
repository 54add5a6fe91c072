"""Binary multinomial classifier: posterior-entropy lower bound, mutual
information, worst-case Bayes-risk bounds, and an interpolation-point
simulator.

Observations are count vectors of k trials over d categories; the class-2
category probabilities theta follow Dir(gamma) and class 1 uses the
reciprocal ratios R_i = theta_i / (1 - theta_i).  The sufficient
interpolation set is {k e_1, ..., k e_{d-1}}, so d_star = d_interp = d - 1
and M = 2.
"""

from __future__ import annotations

import math

from ._numpy import np
from .categorical import DirichletPrior, posterior_entropy
from .errors import DomainError
from .mc import MonteCarloEstimate, check_simulation, mc_mean
from .rdcore import FisherSummary, InterpolationSpec, mi_clarke_barron, risk_lower_from_mi
from .sim_common import sample_dirichlet, sample_multinomial
from .specfun import LossOrder, Nats, checked_fsum, digamma, expit, log_beta_multivariate


class MultinomialFamily:
    __slots__ = ("d", "k", "prior", "spec")

    def __init__(self, d: int, k: int, prior: DirichletPrior):
        if d < 2:
            raise DomainError(f"category count d must be >= 2, got {d}")
        if k < 1:
            raise DomainError(f"trials per observation k must be >= 1, got {k}")
        if prior.num_classes != d:
            raise DomainError("prior must have d components")
        self.d, self.k, self.prior = d, k, prior
        self.spec = InterpolationSpec(d_star=d - 1, d_interp=d - 1, num_classes=2)


def entropy_lower(family: MultinomialFamily) -> Nats:
    """Lower bound on the entropy of the regression values at {k e_i}.

    Per coordinate: ln B(gamma_i, gamma0 - gamma_i)
    + (k + gamma_i - gamma0) psi(gamma0 - gamma_i)
    + (gamma0 - 2k) psi(gamma0) + (k - gamma_i) psi(gamma_i)
    + ln k - 2 ln 2.

    This is the entropy chain h(V) >= h(R) + ln k - 2 ln 2
    - 2k E[(ln R)+] + (k-1) E[ln R] with the beta-prime closed forms
    substituted and E[(ln R)+] <= psi(gamma0) - psi(gamma0 - gamma_i);
    see reference_entropy_lower_printed for the looser published variant.
    """
    g0, k = family.prior.gamma0, family.k
    return checked_fsum(log_beta_multivariate((gi, g0 - gi)) + (k + gi - g0) * digamma(g0 - gi)
                        + (g0 - 2.0 * k) * digamma(g0) + (k - gi) * digamma(gi)
                        + math.log(k) - 2.0 * math.log(2.0)
                        for gi in family.prior.gamma[: family.d - 1])


def reference_entropy_lower_printed(family: MultinomialFamily) -> Nats:
    """Published closed form, for side-by-side reporting only.

    Not a valid lower bound for k >= 2 (its derivation divides the
    log(1+R^k) term by k and flips the gamma0 terms of h(R)); kept so the
    discrepancy is visible data.
    """
    g = family.prior.gamma
    g0 = family.prior.gamma0
    k = family.k
    total = (family.d - 1) * (math.log(k) - 2.0 * math.log(2.0) / k)
    for i in range(family.d - 1):
        gi = g[i]
        total += log_beta_multivariate((gi, g0 - gi)) \
            + (g0 + gi + 2.0 - k) * digamma(g0 - gi) \
            - (g0 - 2.0) * digamma(g0) \
            + (k - gi) * digamma(gi)
    return total


def fisher_summary(family: MultinomialFamily) -> FisherSummary:
    """Clarke-Barron inputs: t = d-1, Fisher diag(k / (2 theta_i (1-theta_i)))."""
    g = family.prior.gamma
    g0 = family.prior.gamma0
    d = family.d
    mean_log_sqrt_det = (d - 1) / 2.0 * math.log(family.k / 2.0) \
        - 0.5 * checked_fsum(digamma(g[i]) + digamma(g0 - g[i]) - 2.0 * digamma(g0)
                             for i in range(d - 1))
    return FisherSummary(dim=d - 1, mean_log_sqrt_det=mean_log_sqrt_det,
                         entropy=posterior_entropy(family.prior))


def mutual_information(n: int, family: MultinomialFamily) -> Nats:
    """Asymptotic I(Z^n; theta); o(1) remainder dropped."""
    return mi_clarke_barron(n, fisher_summary(family))


def xbayes_risk_lower(n: int, family: MultinomialFamily, p: LossOrder) -> float:
    """Worst-case-over-test-points L_p risk lower bound via the pipeline."""
    mi = mutual_information(n, family)
    return risk_lower_from_mi(mi, entropy_lower(family), family.spec, p)


def reference_risk_lower(n: int, family: MultinomialFamily) -> float:
    """Best-effort reproduction of the published X-Bayes L1 closed form.

    The published expression has an unbalanced bracket and a bare B(gamma)
    where only log B(gamma) typechecks; this closes the bracket at the end
    and reads log B.  Reporting only; the pipeline value is authoritative.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    g = family.prior.gamma
    g0 = family.prior.gamma0
    d, k = family.d, family.k
    expo = -log_beta_multivariate(g) / (d - 1) \
        + (1.0 - g0 + (d - g0) / (d - 1)) * digamma(g0) \
        + (g[d - 1] - 1.0) / (d - 1) * digamma(g[d - 1]) \
        + math.fsum((k - 0.5) * digamma(g[i]) + (g0 + g[i] + 2.0 - k) * digamma(g0 - g[i])
                    for i in range(d - 1)) / (d - 1)
    return k * 2.0 ** (-(2.0 + k) / k) * math.sqrt(2.0 * math.pi * math.e / n) \
        * math.exp(expo)


def _interpolation_regression(theta_cols: np.ndarray, psi_cols: np.ndarray,
                              k: int) -> np.ndarray:
    # W(k e_i) rows for per-trial class parameter matrices (rows, d-1 slices).
    # A component that is exactly 0 (tiny concentrations) has log -inf, so W
    # is exactly 0 or 1; theta and psi are never 0 together.
    with np.errstate(divide="ignore"):
        log_ratio = k * (np.log(theta_cols) - np.log(psi_cols))
    return expit(-log_ratio)


def simulate_interpolation_risk(n: int, family: MultinomialFamily, trials: int,
                                seed: int, chunks: int = 64,
                                threads: int = 1) -> MonteCarloEstimate:
    """Simulated plug-in risk, maximized over the interpolation points.

    Per trial: theta ~ Dir(gamma) parameterizes class 2; class 1 draws from
    the normalized reciprocal vector (1 - theta_i) / (d - 1) (identical to
    the ratio construction at d = 2); n observations get uniform labels and
    per-class Dirichlet posterior means are plugged into the regression
    function; the loss is max over {k e_1, .., k e_{d-1}} of 2 |W - What|.
    Max over the interpolation set under-covers the sup over all test
    points, so this is one-sided ordering evidence only.
    """
    check_simulation(n, trials)
    gamma = np.asarray(family.prior.gamma)
    g0 = family.prior.gamma0
    d, k = family.d, family.k

    def sampler(rng, count):
        theta = sample_dirichlet(gamma, rng, size=count)
        psi = (1.0 - theta) / (d - 1.0)
        n1 = rng.binomial(n, 0.5, size=count) if n > 0 else np.zeros(count, dtype=np.int64)
        n2 = n - n1
        agg1 = sample_multinomial(k * n1, psi, rng)
        agg2 = sample_multinomial(k * n2, theta, rng)
        theta_hat = (gamma[None, :] + agg2) / (g0 + k * n2)[:, None]
        psi_hat = (gamma[None, :] + agg1) / (g0 + k * n1)[:, None]
        w_true = _interpolation_regression(theta[:, : d - 1], psi[:, : d - 1], k)
        w_hat = _interpolation_regression(theta_hat[:, : d - 1], psi_hat[:, : d - 1], k)
        return (2.0 * np.abs(w_true - w_hat)).max(axis=1)

    return mc_mean(sampler, trials, seed, chunks=chunks, threads=threads)
