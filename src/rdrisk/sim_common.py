"""Shared samplers and loss evaluation for the family simulators.

Loss convention: for finite p the per-test-point inner value is
sum_y |W - What|^p and the 1/p exponent is applied once to the Monte-Carlo
mean (not per trial); for p = inf the inner value is max_y |W - What| and
no outer exponent is applied.
"""

from __future__ import annotations

import math

from ._numpy import np
from .errors import DomainError
from .specfun import LossOrder, validate_loss_order


def sample_dirichlet(gamma, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Dirichlet draws by normalized Gamma variates.

    Returns shape (M,) for size=None, else (size, M).  Marginals are
    Beta(gamma_i, gamma0 - gamma_i).  A row whose Gamma draws all underflow
    to 0 (possible at tiny concentrations) has no normalisation and raises
    DomainError.  A symmetric prior hands numpy its one shape as a scalar,
    which draws the same variates as the array shape without broadcasting
    it, at about half the cost.
    """
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 1 or g.size < 2 or not np.all(g > 0.0):
        raise DomainError("gamma must be a vector of >= 2 positive reals")
    shape = (g.size,) if size is None else (int(size), g.size)
    raw = rng.gamma(g[0] if np.all(g == g[0]) else g, size=shape)
    total = raw.sum(axis=-1, keepdims=True)
    if not np.all(total > 0.0):
        raise DomainError("every Gamma draw of a Dirichlet row underflowed to 0; "
                          "gamma is too small to simulate")
    return raw / total


def sample_multinomial(n, theta, rng: np.random.Generator) -> np.ndarray:
    """Multinomial counts, one row per probability row.

    ``n`` may be a scalar or a per-row array; ``theta`` is (M,) or (rows, M).
    Row r is Multinomial(n_r, theta_r): E c_i = n theta_i, Var c_i =
    n theta_i (1 - theta_i), Cov(c_i, c_j) = -n theta_i theta_j, and the
    counts sum to ``n`` exactly.  The draws are numpy's own
    ``Generator.multinomial``, which runs outside the interpreter lock.
    """
    th = np.atleast_2d(np.asarray(theta, dtype=float))
    n_arr = np.broadcast_to(np.asarray(n, dtype=np.int64), th.shape[:1])
    if np.any(n_arr < 0):
        raise DomainError("trial counts must be nonnegative")
    counts = rng.multinomial(n_arr, th)
    return counts if np.ndim(theta) == 2 else counts[0]


def inner_loss(p: LossOrder, w_true, w_hat) -> np.ndarray | float:
    """Pre-exponent loss between probability rows of equal length.

    sum_y |w - what|^p for finite p, max_y |w - what| for p = inf;
    reduces over the last axis.
    """
    p = validate_loss_order(p)
    a = np.asarray(w_true, dtype=float)
    b = np.asarray(w_hat, dtype=float)
    if a.shape != b.shape:
        raise DomainError(f"shape mismatch: {a.shape} vs {b.shape}")
    gap = np.abs(a - b)
    if math.isinf(p):
        out = gap.max(axis=-1)
    else:
        out = (gap ** p).sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def outer_risk(p: LossOrder, mean_inner: float) -> float:
    """Apply the outer 1/p exponent to a Monte-Carlo mean of inner losses."""
    p = validate_loss_order(p)
    if math.isinf(p):
        return float(mean_inner)
    return float(mean_inner) ** (1.0 / p)


def outer_stderr(p: LossOrder, mean_inner: float, stderr_inner: float) -> float:
    """Delta-method stderr of mean_inner^(1/p)."""
    p = validate_loss_order(p)
    if math.isinf(p) or stderr_inner == 0.0:
        return float(stderr_inner)
    if mean_inner <= 0.0:
        return float("nan")
    return float(stderr_inner / p * mean_inner ** (1.0 / p - 1.0))
