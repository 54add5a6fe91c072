"""Dirichlet-prior categorical distribution: entropy, mutual information,
Bayes-risk lower bounds, external reference bounds, and a posterior-mean
risk simulator.

The learning problem is estimating an M-outcome distribution theta ~ Dir(gamma)
from n i.i.d. draws; the regression function is theta itself, with a single
interpolation point, so d_star = 1.

It also holds the Dirichlet and multinomial samplers the multinomial
simulator shares, and the L_p loss convention (see simulate_bayes_risk).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._numpy import np
from .errors import DomainError
from .mc import MonteCarloEstimate, mc_mean
from .rdcore import mi_clarke_barron, risk_lower_from_mi
from .specfun import (LossOrder, Nats, checked_fsum, digamma, entropy_terms,
                      log_gamma_remainder, validate_loss_order, validate_sample_count)

# numpy draws counts as int64, so no count above this can be drawn.
INT64_MAX = 2 ** 63 - 1


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

    ln B(gamma) - (M - gamma0) psi(gamma0) - sum_i (gamma_i - 1) psi(gamma_i),
    summed as sum_i T(gamma_i, 1) - T(gamma0, M) with the kernel T of
    specfun.entropy_terms (the x terms add up to 0), so it keeps its digits
    at any gamma.
    """
    terms = [t for gi in prior.gamma for t in entropy_terms(gi, 1)]
    return checked_fsum([*terms, *(-t for t in entropy_terms(prior.gamma0, prior.num_classes))])


def mutual_information(n: int, prior: DirichletPrior) -> Nats:
    """Asymptotic I(Z^n; theta) for the categorical problem (in nats).

    (M-1)/2 ln(n / 2 pi e) + (M-1)/2 psi(gamma0) - 1/2 sum_{i<M} psi(gamma_i)
    + h(theta_1 .. theta_{M-1}); the o(1) remainder is dropped.  The psi terms
    are the published E ln|Fisher|^(1/2) for diag(1/theta_i), i < M; the full
    Fisher matrix diag(1/theta_i) + (1/theta_M) 11^T adds 1/2 (psi(gamma0) - psi(gamma_M)).
    """
    m = prior.num_classes
    g0 = prior.gamma0
    mean_log_sqrt_det = (m - 1) / 2.0 * digamma(g0) \
        - 0.5 * checked_fsum(digamma(gi) for gi in prior.gamma[: m - 1])
    return mi_clarke_barron(n, m - 1, mean_log_sqrt_det, posterior_entropy(prior))


def bayes_risk_lower(n: int, prior: DirichletPrior, p: LossOrder) -> float:
    """L_p Bayes-risk lower bound via the canonical inversion pipeline.

    For p = 1 this evaluates to
    (M-1) sqrt(pi / (2 e n)) exp(sum_{i<M} psi(gamma_i) / (2(M-1))
                                 - psi(gamma0) / 2).
    """
    mi = mutual_information(n, prior)
    h = posterior_entropy(prior)
    return risk_lower_from_mi(mi, h, 1, prior.num_classes, p)


def reference_risk_lower(n: int, prior: DirichletPrior, p: LossOrder) -> float:
    """Closed forms exactly as printed, for side-by-side reporting.

    The p = 1 and p = inf forms agree with bayes_risk_lower to rounding;
    the printed p = 2 exponent lacks the 1/2 weights and differs from the
    pipeline for asymmetric priors (reported, never asserted equal).
    """
    p = validate_loss_order(p)
    validate_sample_count(n, 1)
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

    They bound the L1 risk only, so the CLI prints them at p = 1 alone.
    lower may be negative for small n and is reported as-is.  For large M
    the pair is vacuous: the tail term m (1 - m kappa) / (n + m kappa) is
    negative, so subtracting it adds about m (m kappa - 1) / (n + m kappa).
    At kappa = 1, lower exceeds upper at M = 20 for n from 13 to 359, at
    M = 50 for n from 6 to 29297 and at M = 100 for every n from 4 to at
    least 2e5 (45.90 against 4.78 at n = 100), and it exceeds 2, the
    largest L1 distance between two distributions, up to n = 108, 999 and
    4457.  The values are kept as transcribed, as data.
    """
    if kappa < 1.0:
        raise DomainError(f"reference bounds require kappa >= 1, got {kappa}")
    validate_sample_count(n, 1)
    if m < 2:
        raise DomainError(f"class count must be >= 2, got {m}")
    lead = math.sqrt(2.0 * (m - 1) / (math.pi * n))
    slack = 4.0 * math.sqrt(m) * (m - 1) ** 0.25 / n ** 0.75
    # divided before multiplying by m: m (1 - m kappa) overflows at large kappa
    tail = m * ((1.0 - m * kappa) / (n + m * kappa))
    lower = lead * (1.0 - m / (2.0 * (m - 1) * kappa)) - slack - tail
    upper = lead + slack
    return KamathBounds(lower=lower, upper=upper)


def sample_dirichlet(gamma: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, M) draws from Dir(gamma) by normalized Gamma variates.

    Marginals are Beta(gamma_i, gamma0 - gamma_i).  A row whose Gamma draws
    all underflow to 0 (tiny concentrations) has no normalisation and raises
    DomainError.  A symmetric prior hands numpy its one shape as a scalar,
    which draws the same variates as the array shape at about half the cost.
    """
    raw = rng.gamma(gamma[0] if np.all(gamma == gamma[0]) else gamma, size=(size, gamma.size))
    total = raw.sum(axis=1, keepdims=True)
    if not np.all(total > 0.0):
        raise DomainError("every Gamma draw of a Dirichlet row underflowed to 0; "
                          "gamma is too small to simulate")
    raw /= total
    return raw


def sample_multinomial(n, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Row r of the counts is Multinomial(n_r, theta_r), for n_r in [0, INT64_MAX]
    (a scalar n serves every row): E c_i = n theta_i, Cov(c_i, c_j) =
    n theta_i (1{i=j} - theta_j), and the counts sum to n exactly.  numpy's
    ``Generator.multinomial`` draws them outside the interpreter lock.
    """
    return rng.multinomial(n, theta)


def inner_loss(p: float, w_true: np.ndarray, w_hat: np.ndarray) -> np.ndarray:
    """Pre-exponent loss per row: sum_y |w - what|^p for finite p,
    max_y |w - what| for p = inf, over the last axis."""
    gap = np.abs(w_true - w_hat)
    return gap.max(axis=-1) if math.isinf(p) else (gap ** p).sum(axis=-1)


def beta_mad_scale(s: float) -> float:
    """The factor 2 exp(mu(s)) / sqrt(2 pi s) of beta_mad that depends on s alone."""
    return 2.0 * math.exp(log_gamma_remainder(s)) / math.sqrt(2.0 * math.pi * s)


def beta_mad(ab: np.ndarray, s: float, scale: float) -> np.ndarray:
    """Mean absolute deviation E|X - a/s| of X ~ Beta(a, b), elementwise.

    ``ab`` stacks the a and b arrays on its first axis, every pair has the
    total s = a + b, and ``scale`` is ``beta_mad_scale(s)``, which a caller
    with many pairs at one s computes once.  The closed form
    2 a^a b^b / (B(a, b) s^(s+1)) is evaluated through the Stirling
    remainder mu = specfun.log_gamma_remainder, on arrays and on the float
    s alike, as
    2 exp(mu(s)) / sqrt(2 pi s) * f(a) f(b), f(x) = sqrt(x/s) exp(-mu(x)),
    which cancels no large terms at large a and b, and keeps its range
    when a and b are tiny.
    """
    f = np.sqrt(ab / s) * np.exp(-log_gamma_remainder(ab))
    return scale * f[0] * f[1]


def complements(values) -> list[float]:
    """sum_{j != i} values_j for each i, each the correctly rounded
    ``math.fsum`` of the other values, in O(len(values)).

    Floats whose exact sum is that of ``values`` are peeled off by repeated
    ``math.fsum`` of the remainder; one more ``math.fsum`` with -values_i
    then rounds the exact complement once.  Subtracting values_i from the
    rounded total instead loses the small components next to a large one.
    """
    terms = [math.fsum(values)]
    while terms[-1]:
        terms.append(math.fsum([*values, *(-t for t in terms)]))
    return [math.fsum([*terms, -v]) for v in values]


def simulate_bayes_risk(n: int, prior: DirichletPrior, p: LossOrder,
                        trials: int, seed: int, **run: int) -> MonteCarloEstimate:
    """Simulated L_p risk of the posterior-mean rule.

    Per trial: theta ~ Dir(gamma), counts ~ Multinomial(n, theta),
    theta_hat = (gamma + counts) / (gamma0 + n), and the inner loss
    sum_y |theta - theta_hat|^p (max_y |theta - theta_hat| at p = inf).
    For finite p the 1/p exponent is applied once, to the Monte-Carlo mean,
    with the delta-method stderr stderr / p * mean^(1/p - 1) (0 for a zero
    inner stderr, nan for a mean that is not positive).

    At p = 2 the counts are not drawn: the trial value is their exact
    conditional expectation given theta.  With c_i ~ Bin(n, theta_i),
    E theta_hat_i = (g_i + n theta_i) / (g0 + n) and
    Var theta_hat_i = n theta_i (1 - theta_i) / (g0 + n)^2, so
    E[(theta_hat_i - theta_i)^2 | theta] is the squared bias plus the
    variance, and the trial value is
    sum_i [((g0 theta_i - g_i) / (g0 + n))^2 + n theta_i (1 - theta_i) / (g0 + n)^2].
    Its mean is the same L2 risk with the count noise integrated out, so
    the stderr is smaller.  (g0 + n)^2 overflows a float from n ~ 1.3e154,
    so with g0 + n = m 2^k the sum is scaled by 2^-k, divided by m * m and
    scaled by 2^-k again, which below that rounds as dividing by
    (g0 + n) * (g0 + n) and near the top of the float range does not
    overflow.

    At p = 1, and at p = inf when M = 2, the conditioning goes the other
    way: given the counts, theta_i is Beta(a_i, b_i) with a_i = g_i + c_i
    and b_i = (g0 - g_i) + (n - c_i), and theta_hat_i is its mean, so
    E[|theta_i - theta_hat_i| | counts] is the Beta mean absolute deviation
    MAD(a_i, b_i) (see beta_mad).  A p = 1 trial is sum_i MAD(a_i, b_i),
    with the same theta and count draws as a trial that takes
    |theta_i - theta_hat_i|, and the same mean.  At M = 2 both coordinates
    have the same error and (a_2, b_2) = (b_1, a_1), so only coordinate 1
    is evaluated (a p = inf trial is MAD(a_1, b_1)).
    g0 - g_i is the fsum of the other gammas and n - c_i is formed in int64,
    so no b_i loses its small terms to cancellation.  Other p take the
    inner loss of the drawn counts.  Every p but 2 draws the counts, so
    they need n <= INT64_MAX.
    """
    validate_sample_count(n)
    p = validate_loss_order(p)
    if p != 2.0 and n > INT64_MAX:
        raise DomainError(f"n must be <= 2^63 - 1 to draw the counts at p != 2, got {n}")
    gamma = np.asarray(prior.gamma)
    g0 = prior.gamma0
    m = prior.num_classes
    s = g0 + n
    mantissa, exponent = math.frexp(s)
    posterior_mad = p == 1.0 or (math.isinf(p) and m == 2)
    if posterior_mad:
        scale = beta_mad_scale(s)
        # stacked (a_i, b_i) = (c_i, n - c_i) + (g_i, g0 - g_i)
        offsets = np.array([gamma, complements(prior.gamma)])[:, None, :]

    def sampler(rng, count):
        theta = sample_dirichlet(gamma, rng, size=count)
        if p == 2.0:
            # bias^2 + n theta (1 - theta), in place; theta is not needed after.
            # A loss beyond the float range is inf, which mc_mean rejects.
            with np.errstate(over="ignore"):
                bias, spread = np.empty((2, *theta.shape))
                np.multiply(theta, g0, out=bias)
                bias -= gamma
                bias *= bias
                np.subtract(1.0, theta, out=spread)
                theta *= n
                theta *= spread
                bias += theta
                total = bias.sum(axis=1)
                return np.ldexp(np.ldexp(total, -exponent) / (mantissa * mantissa), -exponent)
        counts = sample_multinomial(n, theta, rng)
        if not posterior_mad:
            return inner_loss(p, theta, (gamma[None, :] + counts) / s)
        if m == 2:
            # columns (g_1 + c_1, g_2 + c_2) are (a_1, b_1)
            mad = beta_mad((counts + gamma).T, s, scale)
            return 2.0 * mad if p == 1.0 else mad
        return beta_mad(np.stack((counts, n - counts)) + offsets, s, scale).sum(axis=1)

    est = mc_mean(sampler, trials, seed, **run)
    if math.isinf(p):
        return est
    stderr = est.stderr
    if stderr != 0.0:
        stderr = stderr / p * est.mean ** (1.0 / p - 1.0) if est.mean > 0.0 else math.nan
    return MonteCarloEstimate(mean=est.mean ** (1.0 / p), stderr=stderr, trials=est.trials)
