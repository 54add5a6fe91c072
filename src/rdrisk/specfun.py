"""Scalar special functions that the bound formulas are built from.

Every entropy/information value in this package is in nats; ``Nats`` is a
documentation alias for ``float``.  The loss order ``p`` is a float ``>= 1``
and may be ``math.inf``, which selects the exact limiting form of each
formula rather than a large-float approximation.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np
from scipy import special as _special

from .errors import DomainError

Nats = float
LossOrder = float

EULER_GAMMA = 0.5772156649015329

# harmonic() sums exactly up to this n and uses the asymptotic series above
# it; both branches are within an ulp of H_n there, and the series' first
# omitted term, 1/(252 n^6), is below 1e-32.
_HARMONIC_EXACT_MAX = 100_000


def validate_loss_order(p: LossOrder) -> float:
    """Return ``p`` as a float after checking ``p >= 1`` (inf allowed)."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise DomainError(f"loss order must be >= 1 or inf, got {p}")
    return p


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return float(_special.gammaln(x))


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    return float(_special.psi(x))


def log_beta_multivariate(gamma: Iterable[float]) -> float:
    """ln B(gamma) = sum_i ln Gamma(gamma_i) - ln Gamma(sum_i gamma_i)."""
    g = np.asarray(list(gamma), dtype=float)
    if g.size < 2:
        raise DomainError("log_beta_multivariate needs at least 2 components")
    if not np.all(g > 0.0):
        raise DomainError("log_beta_multivariate requires positive components")
    return float(_special.gammaln(g).sum() - _special.gammaln(g.sum()))


def harmonic(n: int) -> float:
    """n-th harmonic number, sum_{i=1}^{n} 1/i; 0 for n = 0.

    Up to n = 100000 the terms are accumulated from i = n down to 1
    (ascending magnitude) so the small terms are not absorbed by an
    already-large partial sum.  Above that the Euler-Maclaurin series
    ln n + gamma + 1/(2n) - 1/(12n^2) + 1/(120n^4) is used, so time and
    memory stay bounded for any n.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"harmonic requires a nonnegative integer, got {n}")
    n = int(n)
    if n == 0:
        return 0.0
    if n <= _HARMONIC_EXACT_MAX:
        return float(np.sum(1.0 / np.arange(n, 0, -1, dtype=float)))
    inv = 1.0 / n
    inv2 = inv * inv
    return math.log(n) + EULER_GAMMA + inv / 2.0 - inv2 / 12.0 + inv2 * inv2 / 120.0


def cp_constant(p: LossOrder, m: int) -> Nats:
    """Per-coordinate distortion penalty C_p for an M-class problem.

    C_p = ln(2 Gamma(1 + 1/p)) + (1/p) ln(p e / (M - 1)) for finite p;
    the p -> inf limit is ln 2.
    """
    p = validate_loss_order(p)
    if m < 2:
        raise DomainError(f"class count must be >= 2, got {m}")
    if math.isinf(p):
        return math.log(2.0)
    return log_gamma(1.0 + 1.0 / p) + math.log(2.0) + (math.log(p * math.e / (m - 1))) / p
