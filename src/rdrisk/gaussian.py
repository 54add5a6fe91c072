"""Binary Gaussian classifier with antipodal means: posterior-entropy lower
bound nu(d, sigma2), exact and asymptotic mutual information, L1 Bayes-risk
bounds, and a conjugate plug-in simulator.

Model: theta ~ N(0, I/d); class y in {1, 2} has x | y ~ N(+-theta, sigma2 I)
with uniform labels (sign s = 3 - 2y).  Any orthogonal basis of R^d is a
sufficient interpolation set, so d_star = d and M = 2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._numpy import np
from .errors import DomainError
from .mc import MonteCarloEstimate, check_simulation, mc_mean
from .rdcore import risk_lower_from_mi
from .specfun import Nats, digamma, expit, log_gamma


def _check_params(d: int, sigma2: float) -> None:
    if d < 1:
        raise DomainError(f"feature dimension must be >= 1, got {d}")
    if not 0.0 < sigma2 < math.inf:
        raise DomainError(f"sigma2 must be positive and finite, got {sigma2}")


def _log_gamma_ratio(x: float) -> float:
    """ln Gamma(x + 1/2) - ln Gamma(x) for x > 0.

    A difference of two ln Gamma values loses its digits as x grows (it is
    exactly 0 from x = 5e15 on), so from x = 33 the asymptotic series
    1/2 ln x - 1/(8x) + 1/(192x^3) - 1/(640x^5) + 17/(14336x^7) is used, in
    powers of 1/x so that nothing overflows; it is within 1e-16 there.
    """
    if x < 33.0:
        return log_gamma(x + 0.5) - log_gamma(x)
    z = 1.0 / x
    z2 = z * z
    return 0.5 * math.log(x) - z * (1 / 8 - z2 * (1 / 192 - z2 * (1 / 640 - z2 * 17 / 14336)))


def entropy_lower_nu(d: int, sigma2: float) -> float:
    """Closed-form lower bound d nu on the expected posterior entropy; returns nu.

    d nu = (d/2) psi(d/2) + (d/2) ln(16 pi (1/(d sigma2) + 1) / (d sigma2))
           - d (Gamma((d+1)/2) / Gamma(d/2)) sqrt(4 (1/(d sigma2) + 1)
                                                  / (pi d sigma2))
           - 3d/2 - 2d ln 2.
    Valid but loose: the gap to the true entropy can exceed 2 ln 2 per
    coordinate.
    """
    _check_params(d, sigma2)
    if not math.isfinite(math.pi * d * sigma2):
        raise DomainError(f"the entropy bound nu overflows at d={d}, sigma2={sigma2}; "
                          "d * sigma2 is too large")
    q = 1.0 / (d * sigma2) + 1.0
    gamma_ratio = math.exp(_log_gamma_ratio(d / 2.0))
    nu = 0.5 * digamma(d / 2.0) \
        + 0.5 * math.log(16.0 * math.pi * q / (d * sigma2)) \
        - gamma_ratio * math.sqrt(4.0 * q / (math.pi * d * sigma2)) \
        - 1.5 - 2.0 * math.log(2.0)
    if not math.isfinite(nu):
        raise DomainError(f"the entropy bound nu is not finite at d={d}, sigma2={sigma2}; "
                          "d * sigma2 is too small")
    return nu


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
    nu = entropy_lower_nu(d, sigma2)
    printed = math.sqrt(sigma2 * d / (sigma2 * d + n)) * math.exp(nu - 1.0)
    pipeline = risk_lower_from_mi(mutual_information_exact(n, d, sigma2), d * nu, d, 2, 1.0)
    return L1RiskBound(printed=printed, pipeline=pipeline)


def interpolation_scale(d: int, sigma2: float) -> float:
    """Mean norm of a marginal test draw, sqrt(1/d + sigma2) * E[chi_d].

    The marginal of X is N(0, (1/d + sigma2) I); interpolation sets used in
    entropy cross-checks are orthogonal bases scaled to this mean norm.
    """
    _check_params(d, sigma2)
    mean_chi = math.sqrt(2.0) * math.exp(_log_gamma_ratio(d / 2.0))
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


ANTITHETIC_PAIRS = 64  # most antithetic uniforms per chi-square


def antithetic_chi2(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """``count`` antithetic pairs of chi2_d and of chi2_{d-1} draws, as an
    array of shape (2, count, 2): [0, i, m] is pair member m of trial i at
    d degrees of freedom and [1, i, m] at d - 1.

    chi2_{2k} is -2 sum_j ln U_j over k uniforms.  Member 0 takes
    ln(1 - U_j) and member 1 ln U_j over the same uniforms, so each member
    is exactly chi2_{2k} and the two fall in opposite directions.  At most
    ANTITHETIC_PAIRS uniforms per chi-square are paired; the rest of the
    degrees (an odd one, and all past 2 ANTITHETIC_PAIRS) is one chi-square
    draw that both members share, so the marginals stay exact and the cost
    does not grow with d.  numpy's uniforms are k 2^-53 with 0 <= k < 2^53,
    so 1 - U and U + 2^-53 are exact, never 0, and uniform on the same grid
    {j 2^-53 : 1 <= j <= 2^53}: member 1 takes ln(U + 2^-53) in place of
    ln U, which keeps a uniform of exactly 0 finite and silent.
    """
    k0, k1 = min(d // 2, ANTITHETIC_PAIRS), min((d - 1) // 2, ANTITHETIC_PAIRS)
    u = rng.random(size=(k0 + k1, count, 1))
    # |(1, -2^-53) - U| is (1 - U, U + 2^-53), one column per member
    logs = np.subtract(np.array([1.0, -2.0 ** -53]), u)
    np.log(np.abs(logs, out=logs), out=logs)
    chi2 = np.empty((2, count, 2))
    np.add.reduce(logs[:k0], axis=0, out=chi2[0])
    np.add.reduce(logs[k0:], axis=0, out=chi2[1])
    chi2 *= -2.0
    for j, (dof, k) in enumerate(((d, k0), (d - 1, k1))):
        if dof > 2 * k:
            chi2[j] += rng.chisquare(dof - 2 * k, size=(count, 1))
    return chi2


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

    Most of a trial's spread comes from (r, a, b), not from the test
    points, so a trial is one antithetic pair of (r, a, b) draws, each
    exactly distributed: the pair takes a and -a, and r and b from
    antithetic_chi2 (whose docstring says how a uniform of 0 is kept
    finite).  The T test points are split, ceil(T/2) to member 0 and
    floor(T/2) to member 1, and the trial is the mean of the two members'
    averages, so a trial still costs T test points.  At d = 16 and n = 100
    the variance per trial is about 3.7x lower than with one draw per
    trial; at d = 1, where only a is paired, about 1.2x.  These gains are
    measured for d <= 2 ANTITHETIC_PAIRS = 128 only; past it most degrees
    are shared and the pair gains less (1.4x at d = 200).

    The loss is taken as |tanh((u - v) / sigma2)| (1 - tanh(u / sigma2)
    tanh(v / sigma2)), with u - v formed from sqrt(r) - h_par = sqrt(r)
    c sigma2 d - c sigma sqrt(n) a, so it keeps its digits when theta_hat is
    within rounding of theta (the risk falls as 1/sqrt(n) up to n = 1.8e308).
    """
    _check_params(d, sigma2)
    check_simulation(n, trials)
    if test_points < 100:
        raise DomainError(f"test_points must be >= 100, got {test_points}")
    # 1 - c n and c sqrt(n), with c = 1 / (sigma2 d + n)
    shrink, spread = sigma2 * d / (sigma2 * d + n), math.sqrt(n) / (sigma2 * d + n)
    half, odd = -(-test_points // 2), test_points % 2
    # chi2_d / (d sigma2) is root^2 and c^2 n chi2_{d-1} is perp^2
    scales = np.array([1.0 / d / sigma2, spread * spread])[:, None, None]
    # a is +a for member 0 and -a for member 1, scaled by c sqrt(n)
    signed_a = np.array([spread, -spread])
    # the trial averages member 0's half points and member 1's half - odd
    member_weights = np.array([0.5 / half, 0.5 / (half - odd)])

    def sampler(rng, count):
        # Every coefficient below is in units of sigma, (count, 2) by trial
        # and pair member: root = sqrt(r) / sigma, gap = (sqrt(r) - h_par) /
        # sigma = root (1 - c n) - c sqrt(n) a and perp = h_perp / sigma, so
        # that u / sigma2 = root (root + g1) and (u - v) / sigma2 =
        # gap (root + g1) - perp g2.  gap is formed without taking h_par
        # from sqrt(r), which cancels once theta_hat is within rounding of
        # theta.
        root, perp = np.sqrt(np.multiply(antithetic_chi2(rng, count, d), scales))
        gap = np.multiply(root, shrink)
        gap -= signed_a * rng.standard_normal(size=(count, 1))
        g = rng.standard_normal(size=(2, count, test_points))
        if odd:
            # member 1 takes the last floor(T/2) points and a pad point,
            # whose loss is zeroed below
            g = np.concatenate((g, np.zeros((2, count, 1))), axis=2)
        g1, g2 = g.reshape(2, count, 2, half)
        # 2 |W - W_hat| = |tanh(u / sigma2) - tanh(v / sigma2)|, taken as
        # |tanh((u - v) / sigma2)| (1 - tanh(u / sigma2) tanh(v / sigma2)) so
        # that it does not cancel; g1's buffer takes root + g1, then u /
        # sigma2, then the second factor, and g2's takes perp g2, then
        # v / sigma2.
        g1 += root[:, :, None]
        g2 *= perp[:, :, None]
        diff = g1 * gap[:, :, None]
        diff -= g2
        u = g1
        u *= root[:, :, None]
        v = np.subtract(u, diff, out=g2)
        np.tanh(u, out=u)
        u *= np.tanh(v, out=v)
        np.subtract(1.0, u, out=u)
        loss = np.abs(np.tanh(diff, out=diff), out=diff)
        if odd:
            loss[:, 1, -1] = 0.0
        return np.einsum("ijk,ijk->ij", loss, u) @ member_weights

    return mc_mean(sampler, trials, seed, chunks=chunks, threads=threads)
