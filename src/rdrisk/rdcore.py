"""Generic rate-distortion bounds on the regression function and their
inversion into Bayes-risk lower bounds.

The lower bounds take the differential entropy of the regression function
sampled on an interpolation set, subtract a distortion penalty per scalar
coordinate, and clamp at zero.  Inverting the chain

    I(Z^n; theta) >= R_p(D)

at a given mutual information yields the smallest Bayes risk any learning
rule can achieve, which is the canonical risk-lower-bound pipeline used by
all family modules.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._numpy import np
from .errors import DomainError
from .mc import MonteCarloEstimate
from .specfun import LossOrder, Nats, cp_constant, log_gamma, validate_loss_order


class InterpolationSpec:
    """Geometry of the interpolation sets a bound is evaluated on.

    d_star: cardinality of the interpolation set the entropy refers to.
    d_interp: interpolation dimension of the family (upper-bound side).
    num_classes: class count M >= 2.
    """

    __slots__ = ("d_star", "d_interp", "num_classes")

    def __init__(self, d_star: int, d_interp: int, num_classes: int):
        if d_star < 1 or d_interp < 1:
            raise DomainError("interpolation cardinality/dimension must be >= 1")
        if num_classes < 2:
            raise DomainError("num_classes must be >= 2")
        self.d_star, self.d_interp, self.num_classes = d_star, d_interp, num_classes


class FisherSummary(NamedTuple):
    """Inputs to the asymptotic mutual-information expansion.

    dim: dimension t of the minimal sufficient statistic.
    mean_log_sqrt_det: E[log |Fisher(alpha)|^(1/2)] over the prior.
    entropy: differential entropy h(alpha) in nats.
    """

    dim: int
    mean_log_sqrt_det: float
    entropy: float


def rd_lower_pointwise(h_ws: Nats, spec: InterpolationSpec, p: LossOrder,
                       distortion: float) -> Nats:
    """Rate-distortion lower bound [h_ws - d_star (M-1) (ln D + C_p)]^+.

    D = ``distortion``.  At the entropy h_ws of the regression values on one
    interpolation set this is the worst-case-over-test-points bound; at an
    expected entropy over the test points it is the average bound.
    """
    if not distortion > 0.0:
        raise DomainError(f"distortion must be positive, got {distortion}")
    m = spec.num_classes
    bracket = h_ws - spec.d_star * (m - 1) * (math.log(distortion) + cp_constant(p, m))
    return max(bracket, 0.0)


def risk_lower_from_mi(mi: Nats, h_ws: Nats, spec: InterpolationSpec,
                       p: LossOrder) -> float:
    """Smallest Bayes risk consistent with a mutual-information budget.

    D_min = exp((h_ws - mi) / (d_star (M-1)) - C_p), the exact algebraic
    inverse of rd_lower_pointwise at an active bracket.  The result may
    exceed 1; callers clamp for reporting if they wish.  Negative mi (an
    asymptotic expansion evaluated at small n) is accepted; the inverse
    simply extrapolates.
    """
    m = spec.num_classes
    return math.exp((h_ws - mi) / (spec.d_star * (m - 1)) - cp_constant(p, m))


def mi_clarke_barron(n: int, fisher: FisherSummary) -> Nats:
    """Asymptotic mutual information between n samples and the parameters.

    (t/2) ln(n / 2 pi e) + E[log |Fisher|^(1/2)] + h(alpha).  The o(1)
    remainder is dropped; consumers label the value asymptotic.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    for name in ("mean_log_sqrt_det", "entropy"):
        if not math.isfinite(getattr(fisher, name)):
            raise DomainError(f"{name} must be finite")
    t = fisher.dim
    return (t / 2.0) * math.log(n / (2.0 * math.pi * math.e)) \
        + fisher.mean_log_sqrt_det + fisher.entropy


def _as_sample_cube(w_samples) -> np.ndarray:
    w = np.asarray(w_samples, dtype=float)
    if w.ndim == 1:
        w = w[:, None, None]
    elif w.ndim == 2:
        w = w[:, :, None]
    if w.ndim != 3:
        raise DomainError("w_samples must have shape (N, d_interp, M-1)")
    if w.shape[0] < 1:
        raise DomainError("w_samples is empty")
    return w


def ratio_coordinates(w_samples) -> np.ndarray:
    """Map regression values to joint-density coordinates, row by row.

    For each interpolation point i with regression row W_i (length M-1) and
    S_i = sum(W_i), the coordinates are N_i = W_i (1 + 2 S_i) / (1 + S_i),
    the normalization fixing the M-th coordinate to 1.  For continuous
    models the per-row Jacobian terms converge on d_interp (M-1) ln 2 as
    the class count grows (not asserted numerically anywhere).
    """
    w = _as_sample_cube(w_samples)
    s = w.sum(axis=2, keepdims=True)
    return w * (1.0 + 2.0 * s) / (1.0 + s)


def ratio_log_jacobian(w_samples) -> np.ndarray:
    """Per-sample ln |J| of the regression-to-coordinates map."""
    w = _as_sample_cube(w_samples)
    n, d_i, m_minus_1 = w.shape
    s = w.sum(axis=2)
    per_point = m_minus_1 * np.log((1.0 + 2.0 * s) / (1.0 + s)) \
        + np.log1p(s / ((1.0 + s) * (1.0 + 2.0 * s)))
    return per_point.sum(axis=1)


def posterior_entropy_change_of_var(w_samples, h_n: Nats) -> MonteCarloEstimate:
    """Monte-Carlo posterior entropy via the Jacobian identity.

    h(W(S)) = -E[ln |J|] + h(N), where h_n = h(N) is supplied externally
    (closed form or a k-NN estimate on ratio_coordinates(w_samples)).
    Returns the estimate with the standard error of the sampled term;
    at least ~1000 samples are needed for a stable value.
    """
    log_jac = ratio_log_jacobian(w_samples)
    n = log_jac.shape[0]
    if n < 2:
        raise DomainError("need at least 2 samples")
    terms = -log_jac
    stderr = float(terms.std(ddof=1) / np.sqrt(n))
    return MonteCarloEstimate(mean=float(terms.mean() + h_n), stderr=stderr, trials=n)


def generalized_gaussian_entropy(p: LossOrder, moment: float) -> Nats:
    """Entropy of the max-entropy density for a p-th absolute moment.

    ln(2 Gamma(1 + 1/p)) + (1/p) ln(p e moment) with moment = E|U|^p > 0.
    Finite p only; the p = inf maximizer is uniform, handled elsewhere.
    The last term is summed as (ln p + 1 + ln moment) / p, because
    p e moment overflows for large p or moment.
    """
    p = validate_loss_order(p)
    if math.isinf(p):
        raise DomainError("p = inf has no generalized-Gaussian form; "
                          "use the uniform entropy instead")
    if not moment > 0.0:
        raise DomainError(f"moment must be positive, got {moment}")
    return log_gamma(1.0 + 1.0 / p) + math.log(2.0) \
        + (math.log(p) + 1.0 + math.log(moment)) / p
