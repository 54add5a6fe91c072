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
from .specfun import Nats, digamma, expit, log_gamma, log_gamma_remainder


def _check_params(d: int, sigma2: float) -> None:
    if d < 1:
        raise DomainError(f"feature dimension must be >= 1, got {d}")
    if not 0.0 < sigma2 < math.inf:
        raise DomainError(f"sigma2 must be positive and finite, got {sigma2}")


def _log_gamma_ratio(x: float) -> float:
    """ln Gamma(x + 1/2) - ln Gamma(x) for x > 0.

    A difference of two ln Gamma values loses its digits as x grows (it is
    exactly 0 from x = 5e15 on), so from x = 10 the terms of size x ln x
    cancel in closed form, with mu = log_gamma_remainder:
    1/2 ln x + x ln(1 + 1/(2x)) - 1/2 + mu(x + 1/2) - mu(x).
    """
    if x < 10.0:
        return log_gamma(x + 0.5) - log_gamma(x)
    return math.fsum((0.5 * math.log(x), x * math.log1p(0.5 / x), -0.5,
                      log_gamma_remainder(x + 0.5), -log_gamma_remainder(x)))


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



ANTITHETIC_PAIRS = 8  # most antithetic uniforms per chi-square
MAX_MEMBERS = 50  # most (r, b) members per Gaussian trial
RING_POINTS = 5  # test points per ring of a member's polar grid, about


def antithetic_chi2(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """``count`` antithetic pairs of chi2_d and of chi2_{d-1} draws, as an
    array of shape (2, 2, count): [0, m, i] is member m of pair i at d
    degrees of freedom and [1, m, i] at d - 1.

    chi2_{2k} is -2 sum_j ln U_j over k uniforms.  Member 0 takes
    ln(1 - U_j) and member 1 ln U_j over the same uniforms, so each member
    is exactly chi2_{2k} and the two fall in opposite directions.  At most
    ANTITHETIC_PAIRS uniforms per chi-square are paired; each member draws
    the rest of its degrees (an odd one, and all past 2 ANTITHETIC_PAIRS)
    on its own, one degree as a squared normal and more as one chi-square
    draw, so the marginals stay exact and the cost does not grow with d.
    numpy's uniforms are k 2^-53 with 0 <= k < 2^53, so 1 - U and
    U + 2^-53 are exact, never 0, and uniform on the same grid
    {j 2^-53 : 1 <= j <= 2^53}: member 1 takes ln(U + 2^-53) in place of
    ln U, which keeps a uniform of exactly 0 finite and silent.
    """
    k0, k1 = min(d // 2, ANTITHETIC_PAIRS), min((d - 1) // 2, ANTITHETIC_PAIRS)
    u = rng.random(size=(k0 + k1, count))
    logs = np.empty((2, k0 + k1, count))
    np.subtract(1.0, u, out=logs[0])
    np.add(u, 2.0 ** -53, out=logs[1])
    np.log(logs, out=logs)
    chi2 = np.empty((2, 2, count))
    np.add.reduce(logs[:, :k0], axis=1, out=chi2[0])
    np.add.reduce(logs[:, k0:], axis=1, out=chi2[1])
    chi2 *= -2.0
    for j, rest in enumerate((d - 2 * k0, d - 1 - 2 * k1)):
        if rest == 1:
            chi2[j] += np.square(rng.standard_normal(size=(2, count)))
        elif rest > 1:
            chi2[j] += rng.chisquare(rest, size=(2, count))
    return chi2


class PolarGrid(NamedTuple):
    """How a Gaussian trial lays out its T test points (see polar_grid)."""

    members: int
    rings: int
    hi: np.ndarray
    width: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    weight: np.ndarray


def polar_grid(test_points: int) -> PolarGrid:
    """The members, rings and tables of a trial of T = ``test_points``.

    K = min(2 (T // 20), MAX_MEMBERS) members, an even number so that they
    form antithetic pairs, take T // K or T // K + 1 points each.  Member k
    lays its P_k points on s = round(ceil(T / K) / RING_POINTS) rings of
    P_k // s or P_k // s + 1 points; ring q of size m_q covers the range
    [C_q / P_k, (C_q + m_q) / P_k) of the radius' Rayleigh CDF, where C_q
    counts the points of the rings inside it.  Arrays are (m, s, K, .) for
    the largest ring m: ``hi`` is 1 - C_q / P_k, ``width`` m_q / P_k,
    ``cos`` and ``sin`` those of 2 pi j / m_q, and ``weight`` 1/T for the T
    points and 0 for the pad points of a ring smaller than m.
    """
    members = min(2 * (test_points // 20), MAX_MEMBERS)
    points = test_points // members + (np.arange(members) < test_points % members)
    rings = round(int(points[0]) / RING_POINTS)
    q = np.arange(rings)[:, None]
    sizes = points // rings + (q < points % rings)
    inside = np.cumsum(sizes, axis=0) - sizes
    j = np.arange(sizes.max())[:, None, None, None]
    angle = j * (2.0 * math.pi / sizes[:, :, None])
    return PolarGrid(members, rings,
                     hi=((points - inside) / points)[:, :, None],
                     width=(sizes / points)[:, :, None],
                     cos=np.cos(angle), sin=np.sin(angle),
                     weight=np.where(j < sizes[:, :, None], 1.0 / test_points, 0.0).ravel())


def grid_normals(grid: PolarGrid, rng: np.random.Generator, count: int) -> np.ndarray:
    """The (g1, Z) of every test point of ``count`` trials laid out by
    ``grid`` (pad points included), and a third array of the same shape
    (m, s, K, count) for the caller to reuse: one block of memory serves a
    whole trial.

    Ring q of member k draws w uniform and its points lie at radius
    sqrt(-2 ln(1 - F)) with F = (C_q + w m_q) / P_k.  Member k draws one
    angle phi uniform on the circle, and point j of ring q lies at the
    angle phi + 2 pi j / m_q, turned from (cos phi, sin phi) by the tables
    without a cosine per point.  Whatever phi, each ring has one point in
    each of its m_q sectors, all at the offset (m_q phi / 2 pi) mod 1
    within their sector, which is uniform.  So a member's points are those
    of its P_k cells of probability 1 / P_k, one point each, N(0, I_2)
    conditioned on the cell.
    """
    u = rng.random(size=(grid.rings + 1, grid.members, count))
    radius = np.subtract(grid.hi, np.multiply(u[:-1], grid.width, out=u[:-1]), out=u[:-1])
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    phi = np.multiply(u[-1], 2.0 * math.pi, out=u[-1])
    x = np.multiply(radius, np.cos(phi))
    y = np.multiply(radius, np.sin(phi, out=phi), out=radius)
    g1, z, spare = g = np.empty((3, *np.broadcast_shapes(grid.cos.shape, x.shape)))
    np.multiply(grid.cos, x, out=g1)
    g1 -= np.multiply(grid.sin, y, out=spare)
    np.multiply(grid.sin, x, out=z)
    z += np.multiply(grid.cos, y, out=spare)
    return g


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
    c sigma sqrt(n b) across it.  A test label of sign -1 maps (x.theta,
    x.theta_hat) to its negative and leaves |W - W_hat| unchanged, so every
    test point takes sign +1 and two normals g1, g2:
        u = x.theta     = r + sigma sqrt(r) g1,
        v = x.theta_hat = sqrt(r) h_par + sigma (h_par g1 + h_perp g2),
    with W = expit(2 u / sigma2) and W_hat = expit(2 v / sigma2).

    In units of sigma, root = sqrt(r) / sigma and t = root + g1 give
    u / sigma2 = root t and
        (u - v) / sigma2 = root (1 - c n) t - c sqrt(n) (a t + sqrt(b) g2).
    Given r, b and g1, a t + sqrt(b) g2 is N(0, t^2 + b), so a test point
    takes D = (u - v) / sigma2 = root (1 - c n) t - c sqrt(n) hypot(t,
    sqrt(b)) Z with its own Z ~ N(0, 1), and no a is drawn; a is
    independent of the rest, so the mean is unchanged.  (At n = 0, D =
    u / sigma2, so v = 0 and W_hat = 1/2.)

    A trial spreads its T test points over K members (see polar_grid):
    each member is one exact draw of (r, b), and the members form
    antithetic pairs from antithetic_chi2.  A member's points (g1, Z) lie
    on a randomly rotated polar grid (see grid_normals): ring q takes the
    radius sqrt(-2 ln(1 - F)), F uniform over the ring's part of the
    Rayleigh CDF (one uniform per ring), and its m_q points the angles
    phi + 2 pi j / m_q, j < m_q (one uniform angle phi per member).  Each
    of the member's P_k cells, of probability 1 / P_k, then holds one
    point, N(0, I_2) conditioned on the cell, so the mean of any function
    over the member's P_k points has the function's mean under N(0, I_2).
    The trial is the mean of its T losses, the members' means weighted by
    P_k / T, which sum to 1, so it is unbiased for any K, P_k and weights.
    Against version 9 the variance per trial is 4.8x lower at d = 16,
    n = 100, T = 100 (4.2x at n = 1000), 4-22x at n = 10, T = 100 (d from
    1e12 down to 1) and 14-151x at n = 10, T = 1000 (57x at d = 4), for
    0.8-1.0x version 9's time per row at T = 100 and 0.55-0.7x at T = 1000.

    The loss is taken as |tanh(D)| (1 - tanh(u / sigma2) tanh(v / sigma2))
    with v / sigma2 = u / sigma2 - D, so it keeps its digits when theta_hat
    is within rounding of theta (the risk falls as 1/sqrt(n) up to
    n = 1.8e308).  hypot(t, sqrt(b)) is taken as e sqrt((t/e)^2 + b/e^2)
    with e = max(1, root, sqrt(b)) per member, so t^2 + b never overflows,
    at a tenth of the cost of numpy's hypot.
    """
    _check_params(d, sigma2)
    check_simulation(n, trials)
    if test_points < 100:
        raise DomainError(f"test_points must be >= 100, got {test_points}")
    # 1 - c n and c sqrt(n), with c = 1 / (sigma2 d + n)
    shrink, spread = sigma2 * d / (sigma2 * d + n), math.sqrt(n) / (sigma2 * d + n)
    grid = polar_grid(test_points)
    members = grid.members
    # chi2_d / (d sigma2) is root^2 and chi2_{d-1} is b
    scales = np.array([1.0 / d / sigma2, 1.0])[:, None, None]

    def sampler(rng, count):
        # Member arrays are (K, count), ring arrays (s, K, count) and point
        # arrays (m, s, K, count), so every product broadcasts over leading
        # axes.  e = max(1, root, sqrt(b)) is the unit of tau = t / e.
        chi2 = antithetic_chi2(rng, members // 2 * count, d)
        chi2 *= scales
        root, sqrt_b = np.sqrt(chi2, out=chi2).reshape(2, members, count)
        e = np.maximum(root, sqrt_b)
        np.maximum(e, 1.0, out=e)
        inv_e = np.divide(1.0, e)
        # u / sigma2 = root e tau; root (1 - c n) e is formed in this order
        # so that it stays finite where root e overflows
        u_coef = root * e
        d_coef = np.multiply(root, shrink)
        d_coef *= e
        z_coef = np.multiply(e, spread)
        g1, z, hyp = grid_normals(grid, rng, count)
        tau = np.add(g1, root, out=g1)
        tau *= inv_e
        z *= z_coef
        # c sqrt(n) hypot(t, sqrt(b)) Z, then D
        np.square(tau, out=hyp)
        hyp += np.square(sqrt_b * inv_e)
        np.sqrt(hyp, out=hyp)
        hyp *= z
        diff = np.multiply(tau, d_coef, out=z)
        diff -= hyp
        u = np.multiply(tau, u_coef, out=tau)
        v = np.subtract(u, diff, out=hyp)
        # 2 |W - W_hat| = |tanh(D)| (1 - tanh(u / sigma2) tanh(v / sigma2))
        np.tanh(u, out=u)
        u *= np.tanh(v, out=v)
        np.subtract(1.0, u, out=u)
        loss = np.abs(np.tanh(diff, out=diff), out=diff)
        loss *= u
        return grid.weight @ loss.reshape(-1, count)

    return mc_mean(sampler, trials, seed, chunks=chunks, threads=threads)
