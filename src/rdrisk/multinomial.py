"""Binary multinomial classifier: posterior-entropy lower bound, mutual
information, worst-case Bayes-risk bounds, and an interpolation-point
simulator.

Observations are count vectors of k trials over d categories; the class-2
category probabilities theta follow Dir(gamma) and class 1 uses the
reciprocal ratios R_i = theta_i / (1 - theta_i).  The sufficient
interpolation set is {k e_1, ..., k e_{d-1}}, so d_star = d - 1 and M = 2.
Where gamma0 - gamma_i enters ln Gamma or psi it is taken from
categorical.complements, so that it stays positive next to a large gamma_i.
The entropy bounds sum the kernel specfun.entropy_terms; the printed one
adds the terms of the published derivation's two slips.
"""

from __future__ import annotations

import math

from ._numpy import np
from .categorical import (INT64_MAX, DirichletPrior, complements, posterior_entropy,
                          sample_dirichlet, sample_multinomial)
from .errors import DomainError
from .mc import MonteCarloEstimate, mc_mean
from .rdcore import mi_clarke_barron, risk_lower_from_mi
from .specfun import (LossOrder, Nats, checked_fsum, digamma, entropy_terms,
                      log_beta_multivariate, validate_sample_count)


class MultinomialFamily:
    __slots__ = ("d", "k", "prior")

    def __init__(self, d: int, k: int, prior: DirichletPrior):
        if d < 2:
            raise DomainError(f"category count d must be >= 2, got {d}")
        if k < 1:
            raise DomainError(f"trials per observation k must be >= 1, got {k}")
        if prior.num_classes != d:
            raise DomainError(f"prior must have d={d} components, got {prior.num_classes}")
        self.d, self.k, self.prior = d, k, prior


def entropy_lower(family: MultinomialFamily) -> Nats:
    """Lower bound on the entropy of the regression values at {k e_i}.

    Per coordinate, with r_i = gamma0 - gamma_i: ln B(gamma_i, r_i)
    + (k - gamma_i) psi(gamma_i) + (k - r_i) psi(r_i)
    + (gamma0 - 2k) psi(gamma0) + ln k - 2 ln 2, summed as
    T(gamma_i, k) + T(r_i, k) - T(gamma0, 2k) + ln k - 2 ln 2 with the
    kernel T of specfun.entropy_terms, so it keeps its digits at any gamma.

    This is the entropy chain h(V) >= h(R) + ln k - 2 ln 2
    - 2k E[(ln R)+] + (k-1) E[ln R] with the beta-prime closed forms
    substituted and E[(ln R)+] <= psi(gamma0) - psi(gamma0 - gamma_i);
    see reference_entropy_lower_printed for the looser published variant.
    """
    g, g0, k, d = family.prior.gamma, family.prior.gamma0, family.k, family.d
    common = (math.log(k) - 2.0 * math.log(2.0), *(-t for t in entropy_terms(g0, 2 * k)))
    return checked_fsum([t for gi, ri in zip(g[: d - 1], complements(g))
                         for t in (*entropy_terms(gi, k), *entropy_terms(ri, k), *common)])


def reference_entropy_lower_printed(family: MultinomialFamily) -> Nats:
    """Published closed form, for side-by-side reporting only.

    entropy_lower plus, per coordinate, the published derivation's two
    slips: 2 [(gamma0 + 1 - k) psi(r_i) - (gamma0 - 1 - k) psi(gamma0)] from
    the flipped gamma0 terms of h(R), and 2 ln 2 (1 - 1/k) from dividing the
    log(1+R^k) term by k.  Not a valid lower bound for k >= 2; kept so the
    discrepancy is visible data.
    """
    g, g0, k, d = family.prior.gamma, family.prior.gamma0, family.k, family.d
    common = (-(g0 - 1.0 - k) * digamma(g0), math.log(2.0) * (1.0 - 1.0 / k))
    slips = [2.0 * t for ri in complements(g)[: d - 1]
             for t in ((g0 + 1.0 - k) * digamma(ri), *common)]
    return checked_fsum([entropy_lower(family), *slips])


def mutual_information(n: int, family: MultinomialFamily) -> Nats:
    """Asymptotic I(Z^n; theta); o(1) remainder dropped.

    (d-1)/2 ln(n / 2 pi e) + h(theta_1 .. theta_{d-1}) + the published
    E ln|Fisher|^(1/2) for Fisher diag(k / (2 theta_i (1 - theta_i))),
    (d-1)/2 ln(k/2) - 1/2 sum_{i<d} [psi(gamma_i) + psi(gamma0 - gamma_i) - 2 psi(gamma0)].
    """
    g, g0, d = family.prior.gamma, family.prior.gamma0, family.d
    # Each psi is its own term: near gamma = 1e-308 two of them reach -1e308
    # and their plain sum would overflow before checked_fsum saw it.
    mean_log_sqrt_det = (d - 1) / 2.0 * math.log(family.k / 2.0) \
        - 0.5 * checked_fsum(term for gi, ri in zip(g[: d - 1], complements(g))
                             for term in (digamma(gi), digamma(ri), -2.0 * digamma(g0)))
    return mi_clarke_barron(n, d - 1, mean_log_sqrt_det, posterior_entropy(family.prior))


def xbayes_risk_lower(n: int, family: MultinomialFamily, p: LossOrder) -> float:
    """Worst-case-over-test-points L_p risk lower bound via the pipeline."""
    mi = mutual_information(n, family)
    return risk_lower_from_mi(mi, entropy_lower(family), family.d - 1, 2, p)


def reference_risk_lower(n: int, family: MultinomialFamily) -> float:
    """Best-effort reproduction of the published X-Bayes L1 closed form.

    The published expression has an unbalanced bracket and a bare B(gamma)
    where only log B(gamma) typechecks; this closes the bracket at the end
    and reads log B.  Reporting only; the pipeline value is authoritative.
    """
    validate_sample_count(n, 1)
    g = family.prior.gamma
    g0 = family.prior.gamma0
    d, k = family.d, family.k
    expo = -log_beta_multivariate(g) / (d - 1) \
        + (1.0 - g0 + (d - g0) / (d - 1)) * digamma(g0) \
        + (g[d - 1] - 1.0) / (d - 1) * digamma(g[d - 1]) \
        + math.fsum((k - 0.5) * digamma(gi) + (g0 + gi + 2.0 - k) * digamma(ri)
                    for gi, ri in zip(g[: d - 1], complements(g))) / (d - 1)
    try:
        scale = math.exp(expo)
    except OverflowError:
        raise DomainError("the published X-Bayes bound overflows the float range") from None
    return k * 2.0 ** (-(2.0 + k) / k) * math.sqrt(2.0 * math.pi * math.e / n) * scale


# A trial subtracts CONTROL_WEIGHT (C - EC) / (sqrt(EC) (1 + EC)) from its
# loss; see simulate_interpolation_risk.
CONTROL_WEIGHT = 0.4


def _regression_in_place(log_theta: np.ndarray, log_psi: np.ndarray, k: int) -> np.ndarray:
    # W = 1 / (1 + (theta / psi)^k), written over log_theta.  A component
    # that is exactly 0 (tiny concentrations) has log -inf, so W is exactly
    # 0 or 1; theta and psi are never 0 together, but their estimates can be.
    log_theta -= log_psi
    log_theta *= k
    np.exp(log_theta, out=log_theta)
    log_theta += 1.0
    return np.divide(1.0, log_theta, out=log_theta)


def _loss_and_control(theta: np.ndarray, psi: np.ndarray, n1: np.ndarray, n2: np.ndarray,
                      agg1: np.ndarray, agg2: np.ndarray, gamma: np.ndarray, g0: float,
                      k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: the loss max_i 2 |W_i - W_hat_i|, the control C and its
    conditional mean EC given (theta, n1); see simulate_interpolation_risk.

    Row r holds theta, psi, the class sizes n1, n2 and the class-1 and
    class-2 counts agg1, agg2 (over all d columns) of one trial.  Every
    (rows, d - 1) value is computed in place in one work buffer.
    """
    last = theta.shape[1] - 1
    th, ps, g = theta[:, :last], psi[:, :last], gamma[:last]
    big_n1, big_n2 = k * n1, k * n2
    s1, s2 = g0 + big_n1, g0 + big_n2
    inv_s1, inv_s2 = 1.0 / s1[:, None], 1.0 / s2[:, None]
    w, a, b, q2, y = np.empty((5, theta.shape[0], last))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _regression_in_place(np.log(th, out=w), np.log(ps, out=a), k)
        theta_hat = np.add(agg2[:, :last], g, out=a)
        theta_hat /= s2[:, None]
        psi_hat = np.add(agg1[:, :last], g, out=b)
        psi_hat /= s1[:, None]
        w_hat = _regression_in_place(np.log(theta_hat, out=a), np.log(psi_hat, out=b), k)
        # both estimates underflow to 0 only at counts 0, where their ratio is s1 / s2
        lost = np.isnan(w_hat)
        w_hat[lost] = 1.0 / (1.0 + np.broadcast_to((s1 / s2)[:, None], lost.shape)[lost] ** k)
        loss = 2.0 * np.abs(np.subtract(w, w_hat, out=b), out=b).max(axis=1)
        # q_i^2 / (2k)^2 = (W_i (1 - W_i))^2; the factor (2k)^2 is applied to
        # the row sums
        np.subtract(1.0, w, out=q2)
        q2 *= w
        q2 *= q2
        inv_th, inv_ps = np.divide(1.0, th, out=a), np.divide(1.0, ps, out=b)
        # r_i = theta_hat_i / theta_i - psi_hat_i / psi_i
        r = np.add(agg2[:, :last], g, out=w)
        r *= inv_th
        r *= inv_s2
        np.add(agg1[:, :last], g, out=y)
        y *= inv_ps
        y *= inv_s1
        r -= y
        r *= r
        r *= q2
        c = r.sum(axis=1)
        # E[r_i | theta, n1] = (g_i / theta_i - g0) / s2 - (g_i / psi_i - g0) / s1
        mean = np.multiply(inv_th, g, out=w)
        mean -= g0
        mean *= inv_s2
        np.multiply(inv_ps, g, out=y)
        y -= g0
        y *= inv_s1
        mean -= y
        mean *= mean
        # Var[r_i | theta, n1] = N2 (1/theta_i - 1) / s2^2 + N1 (1/psi_i - 1) / s1^2
        for inv, big_n, inv_s in ((inv_th, big_n2, inv_s2), (inv_ps, big_n1, inv_s1)):
            inv -= 1.0
            inv *= big_n[:, None] * inv_s * inv_s
            mean += inv
        mean *= q2
        ec = mean.sum(axis=1)
        scale = 4.0 * k * k
        c *= scale
        ec *= scale
    return loss, c, ec


def simulate_interpolation_risk(n: int, family: MultinomialFamily, trials: int,
                                seed: int, **run: int) -> MonteCarloEstimate:
    """Simulated plug-in risk, maximized over the interpolation points.

    Per trial: theta ~ Dir(gamma) parameterizes class 2; class 1 draws from
    the normalized reciprocal vector psi = (1 - theta) / (d - 1) (identical
    to the ratio construction at d = 2); n observations get uniform labels
    and per-class Dirichlet posterior means are plugged into the regression
    function; the loss is max over {k e_1, .., k e_{d-1}} of 2 |W - What|.
    Max over the interpolation set under-covers the sup over all test
    points, so this is one-sided ordering evidence only.  A class draws up
    to k n counts, so k n must not exceed INT64_MAX.

    A trial subtracts a control variate of conditional mean 0 from the loss.
    To first order 2 (W_hat_i - W_i) is -lin_i, with lin_i = q_i r_i,
    q_i = 2k W_i (1 - W_i) and r_i = theta_hat_i / theta_i - psi_hat_i / psi_i
    (that is, u_i (theta_hat_i - theta_i) - v_i (psi_hat_i - psi_i) with
    u_i = q_i / theta_i and v_i = q_i / psi_i), so the loss is close to
    max_i |lin_i| and moves with C = sum_i lin_i^2.
    Given (theta, n1) the class-2 count of category i is
    Bin(N2, theta_i) and the class-1 count Bin(N1, psi_i), N_c = k n_c,
    independent of each other, so with s_c = gamma0 + N_c
    E[C | theta, n1] = EC = sum_i q_i^2 (m_i^2 + v_i),
    m_i = (g_i / theta_i - g0) / s2 - (g_i / psi_i - g0) / s1,
    v_i = N2 (1 / theta_i - 1) / s2^2 + N1 (1 / psi_i - 1) / s1^2.
    The trial is loss - b (C - EC) with b = CONTROL_WEIGHT / (sqrt(EC) (1 + EC)),
    and b = 0 where EC is 0, infinite or not a number (a theta_i or psi_i
    of exactly 0).  Because b is a function of (theta, n1) alone,
    E[b (C - EC) | theta, n1] = b (E[C | theta, n1] - EC) = 0, so the mean is
    the plug-in risk for any prior, k and n.  b must never be fitted to a
    chunk's own draws: a coefficient that depends on the counts breaks that
    identity and biases the mean.
    """
    validate_sample_count(n)
    # k itself is checked too: at n = 0 the product passes whatever k is,
    # and k * n1 then overflows numpy's int64 in the sampler
    if max(family.k, family.k * n) > INT64_MAX:
        raise DomainError(f"k and k * n must be <= 2^63 - 1 to draw the counts, "
                          f"got {family.k} * {n}")
    gamma = np.asarray(family.prior.gamma)
    g0 = family.prior.gamma0
    d, k = family.d, family.k

    def sampler(rng, count):
        theta = sample_dirichlet(gamma, rng, size=count)
        psi = 1.0 - theta
        psi /= d - 1.0
        n1 = rng.binomial(n, 0.5, size=count)
        n2 = n - n1
        agg1 = sample_multinomial(k * n1, psi, rng)
        agg2 = sample_multinomial(k * n2, theta, rng)
        loss, c, ec = _loss_and_control(theta, psi, n1, n2, agg1, agg2, gamma, g0, k)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            control = (c - ec) * (CONTROL_WEIGHT / (np.sqrt(ec) * (1.0 + ec)))
            return loss - np.where((ec > 0.0) & (ec < math.inf), control, 0.0)

    return mc_mean(sampler, trials, seed, **run)
