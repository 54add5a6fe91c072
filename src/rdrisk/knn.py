"""Kozachenko-Leonenko k-nearest-neighbor differential entropy estimation.

Convention: neighbor distances use the max-norm, and eps_i is the full edge
length 2 * (distance from sample i to its k-th neighbor).  The max-norm ball
of edge eps has volume eps^d, so the volume constant ln V_d is 0 and

    h_hat = psi(N) - psi(k) + (d / N) * sum_i ln eps_i.

Equal-distance ties do not affect the estimate (only the k-th distance value
enters); duplicate points that would give eps_i = 0 are broken by adding the
documented deterministic jitter of 1e-12 * (sample index + 1).
"""

from __future__ import annotations

import warnings

from ._numpy import np
from .errors import DomainError
from .mc import MonteCarloEstimate
from .specfun import digamma

JITTER = 1e-12


def _as_matrix(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DomainError(f"samples must be 1-D or 2-D, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise DomainError("samples contain NaN or Inf")
    return x


def _log_eps(x: np.ndarray, k: int) -> np.ndarray:
    # Imported here so that only the k-NN estimator loads scipy.
    from scipy.spatial import cKDTree

    n, d = x.shape
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if n <= k + 1:
        raise DomainError(f"need more than k+1={k + 1} samples, got {n}")
    if n < d + 2:
        raise DomainError(f"need at least d+2={d + 2} samples, got {n}")
    dist, _ = cKDTree(x).query(x, k=k + 1, p=np.inf)
    eps = 2.0 * dist[:, k]
    if np.any(eps == 0.0):
        warnings.warn("duplicate samples: applying 1e-12 index jitter",
                      RuntimeWarning, stacklevel=3)
        x = x + JITTER * (np.arange(n) + 1.0)[:, None]
        dist, _ = cKDTree(x).query(x, k=k + 1, p=np.inf)
        eps = 2.0 * dist[:, k]
    return np.log(eps)


def knn_entropy(samples, k: int = 4) -> float:
    """Differential entropy estimate (nats) of i.i.d. samples.

    ``samples`` is (N, d) or (N,); ``k`` defaults to 4, a common
    bias/variance compromise.
    """
    return knn_entropy_detail(samples, k).mean


def knn_entropy_detail(samples, k: int = 4) -> MonteCarloEstimate:
    """knn_entropy with a naive standard error.

    The stderr is d * std(ln eps_i) / sqrt(N); it ignores correlation
    between neighbor distances and is meant for ordering checks with
    few-stderr slack, not for tight confidence intervals.
    """
    x = _as_matrix(samples)
    n, d = x.shape
    log_eps = _log_eps(x, k)
    value = digamma(n) - digamma(k) + float(d * log_eps.mean())
    stderr = float(d * log_eps.std(ddof=1) / np.sqrt(n))
    return MonteCarloEstimate(mean=value, stderr=stderr, trials=n)


def load_samples_csv(path, header: bool = False) -> np.ndarray:
    """Load a sample matrix from CSV, one row per sample."""
    with warnings.catch_warnings():  # the estimator rejects an empty matrix
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        x = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    return np.asarray(x, dtype=float)
