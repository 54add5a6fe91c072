"""Binary Gaussian classifier with antipodal means: logistic posterior,
posterior-entropy lower bound nu(d, sigma2), exact and asymptotic mutual
information, L1 Bayes-risk bounds, and a conjugate plug-in simulator.

Model: theta ~ N(0, I/d); class y in {1, 2} has x | y ~ N(+-theta, sigma2 I)
with uniform labels (sign s = 3 - 2y).  Any orthogonal basis of R^d is a
sufficient interpolation set, so d_star = d_interp = d, M = 2, coverage = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from ._numpy import np
from .errors import DomainError
from .mc import MonteCarloEstimate, check_simulation, mc_mean
from .rdcore import InterpolationSpec, risk_lower_from_mi
from .specfun import Nats, digamma, expit, log_gamma


def _check_params(d: int, sigma2: float) -> None:
    if d < 1:
        raise DomainError(f"feature dimension must be >= 1, got {d}")
    if not 0.0 < sigma2 < math.inf:
        raise DomainError(f"sigma2 must be positive and finite, got {sigma2}")


@dataclass(frozen=True)
class GaussianFamily:
    d: int
    sigma2: float
    spec: InterpolationSpec = field(init=False)

    def __post_init__(self):
        _check_params(self.d, self.sigma2)
        spec = InterpolationSpec(d_star=self.d, d_interp=self.d,
                                 num_classes=2, coverage=1.0)
        object.__setattr__(self, "spec", spec)


def posterior(x, theta, sigma2: float) -> float:
    """W(y=1 | x, theta) = logistic(2 x.theta / sigma2), overflow-safe."""
    xv = np.asarray(x, dtype=float)
    th = np.asarray(theta, dtype=float)
    if xv.shape != th.shape:
        raise DomainError(f"dimension mismatch: {xv.shape} vs {th.shape}")
    if not sigma2 > 0.0:
        raise DomainError(f"sigma2 must be positive, got {sigma2}")
    return float(expit(2.0 * float(np.dot(xv, th)) / sigma2))


class EntropyLowerBound(NamedTuple):
    total: float
    per_coord: float


def entropy_lower_nu(d: int, sigma2: float) -> EntropyLowerBound:
    """Closed-form lower bound on the expected posterior entropy.

    total = (d/2) psi(d/2) + (d/2) ln(16 pi (1/(d sigma2) + 1) / (d sigma2))
            - d (Gamma((d+1)/2) / Gamma(d/2)) sqrt(4 (1/(d sigma2) + 1)
                                                   / (pi d sigma2))
            - 3d/2 - 2d ln 2,
    and nu = total / d.  Valid but loose: the gap to the true entropy can
    exceed 2 ln 2 per coordinate.
    """
    _check_params(d, sigma2)
    q = 1.0 / (d * sigma2) + 1.0
    gamma_ratio = math.exp(log_gamma((d + 1) / 2.0) - log_gamma(d / 2.0))
    nu = 0.5 * digamma(d / 2.0) \
        + 0.5 * math.log(16.0 * math.pi * q / (d * sigma2)) \
        - gamma_ratio * math.sqrt(4.0 * q / (math.pi * d * sigma2)) \
        - 1.5 - 2.0 * math.log(2.0)
    if not math.isfinite(nu):
        raise DomainError(f"the entropy bound nu is not finite at d={d}, sigma2={sigma2}; "
                          "d * sigma2 is too small")
    return EntropyLowerBound(total=d * nu, per_coord=nu)


def mutual_information_exact(n: int, d: int, sigma2: float) -> Nats:
    """Exact I(Z^n; theta) = (d/2) ln(1 + n / (d sigma2)); 0 at n = 0."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    _check_params(d, sigma2)
    return (d / 2.0) * _log_snr(n, d, sigma2, math.log1p)


def mutual_information_cb(n: int, d: int, sigma2: float) -> Nats:
    """Asymptotic I(Z^n; theta) = (d/2) ln(n / (d sigma2))."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    _check_params(d, sigma2)
    return (d / 2.0) * _log_snr(n, d, sigma2, math.log)


def _log_snr(n: int, d: int, sigma2: float, log) -> float:
    # log(n / (d sigma2)) by ``log`` (math.log or math.log1p).  The quotient
    # overflows only where log and log1p agree, and is then taken apart.
    snr = n / (d * sigma2)
    return log(snr) if math.isfinite(snr) else math.log(n) - math.log(d * sigma2)


class L1RiskBound(NamedTuple):
    """printed: the published bound (primary for reproduction);
    pipeline: the inversion-pipeline value, exactly printed / 2."""

    printed: float
    pipeline: float


def bayes_risk_lower_l1(n: int, d: int, sigma2: float) -> L1RiskBound:
    """L1 Bayes-risk lower bound, both published and pipeline variants.

    printed = sqrt(sigma2 d / (sigma2 d + n)) * exp(nu(d, sigma2) - 1);
    pipeline inverts the rate-distortion bound at the exact mutual
    information and carries an extra factor 1/2.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    nu = entropy_lower_nu(d, sigma2).per_coord
    printed = math.sqrt(sigma2 * d / (sigma2 * d + n)) * math.exp(nu - 1.0)
    spec = GaussianFamily(d, sigma2).spec
    pipeline = risk_lower_from_mi(mutual_information_exact(n, d, sigma2),
                                  d * nu, spec, 1.0)
    return L1RiskBound(printed=printed, pipeline=pipeline)


def interpolation_scale(d: int, sigma2: float) -> float:
    """Mean norm of a marginal test draw, sqrt(1/d + sigma2) * E[chi_d].

    The marginal of X is N(0, (1/d + sigma2) I); interpolation sets used in
    entropy cross-checks are orthogonal bases scaled to this mean norm.
    """
    _check_params(d, sigma2)
    mean_chi = math.sqrt(2.0) * math.exp(log_gamma((d + 1) / 2.0) - log_gamma(d / 2.0))
    return math.sqrt(1.0 / d + sigma2) * mean_chi


def sample_regression_values(d: int, sigma2: float, draws: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Draws of the d regression values on a fixed orthogonal basis.

    The basis is c * e_i with c = interpolation_scale(d, sigma2); the
    coordinates are independent logistics of N(0, 4 c^2 / (sigma2^2 d)).
    Returns shape (draws, d).
    """
    if draws < 1:
        raise DomainError("need at least one draw")
    c = interpolation_scale(d, sigma2)
    theta = rng.normal(0.0, math.sqrt(1.0 / d), size=(draws, d))
    return expit(2.0 * c * theta / sigma2)


def simulate_bayes_risk(n: int, d: int, sigma2: float, trials: int,
                        test_points: int, seed: int, chunks: int = 64,
                        threads: int = 1) -> MonteCarloEstimate:
    """Simulated L1 risk of the conjugate posterior-mean plug-in rule.

    Per trial: theta ~ N(0, I/d); labels y_i uniform with sign s_i = 3-2y_i
    and x_i ~ N(s_i theta, sigma2 I).  The rule sees the training set only
    through the sufficient statistic sum_i s_i x_i = n theta + sum_i s_i
    eps_i, and s_i eps_i are i.i.d. N(0, sigma2 I) whatever the signs, so it
    equals n theta + sigma sqrt(n) Z with Z ~ N(0, I).  The posterior mean
    is theta_hat = c (n theta + sigma sqrt(n) Z) with c = 1 / (sigma2 d + n).
    The loss averages 2 |W(X; theta) - W(X; theta_hat)| over fresh test
    draws X from the true marginal (uniform label, then the class
    conditional).

    Everything above is rotation invariant, so a trial is drawn in O(1) in
    n and d.  Put theta on the first axis: |theta|^2 = r = chi2_d / d, and Z
    splits into a ~ N(0, 1) along theta and a rest of squared norm
    b ~ chi2_{d-1} (b = 0 at d = 1).  Then theta_hat has the component
    h_par = c (n sqrt(r) + sigma sqrt(n) a) along theta and h_perp =
    c sigma sqrt(n b) across it, so theta.theta_hat = sqrt(r) h_par.  A
    test label of sign -1 maps (x.theta, x.theta_hat) to its negative and
    leaves |W - W_hat| unchanged, so every test point takes sign +1 and
    two normals g1, g2:
        u = x.theta     = r + sigma sqrt(r) g1,
        v = x.theta_hat = sqrt(r) h_par + sigma (h_par g1 + h_perp g2),
    with W = expit(2 u / sigma2) and W_hat = expit(2 v / sigma2).  (h_par
    and h_perp are |theta_hat| cos phi and |theta_hat| sin phi for the angle
    phi between theta and theta_hat; at n = 0 both are 0 and W_hat = 1/2.)
    """
    check_simulation(n, trials)
    if test_points < 100:
        raise DomainError(f"test_points must be >= 100, got {test_points}")
    sigma = math.sqrt(sigma2)
    c = 1.0 / (sigma2 * d + n)

    def sampler(rng, count):
        r = rng.chisquare(d, size=count) / d
        a = rng.normal(size=count)
        b = rng.chisquare(d - 1, size=count) if d > 1 else np.zeros(count)
        root_r = np.sqrt(r)
        h_par = c * (n * root_r + sigma * math.sqrt(n) * a)
        h_perp = c * sigma * np.sqrt(n * b)
        g1 = rng.normal(size=(count, test_points))
        g2 = rng.normal(size=(count, test_points))
        # 2 |W - W_hat| = |tanh(u / sigma2) - tanh(v / sigma2)|; v / sigma2 is
        # built in g2's buffer, then u / sigma2 in g1's.
        v = g2
        v *= (sigma * h_perp / sigma2)[:, None]
        v += (sigma * h_par / sigma2)[:, None] * g1
        v += (root_r * h_par / sigma2)[:, None]
        u = g1
        u *= (sigma * root_r / sigma2)[:, None]
        u += (r / sigma2)[:, None]
        np.tanh(u, out=u)
        u -= np.tanh(v, out=v)
        return np.abs(u, out=u).mean(axis=1)

    return mc_mean(sampler, trials, seed, chunks=chunks, threads=threads)
