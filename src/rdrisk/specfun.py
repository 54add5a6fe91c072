"""Scalar special functions that the bound formulas are built from.

Every entropy/information value in this package is in nats; ``Nats`` is a
documentation alias for ``float``.  The loss order ``p`` is a float ``>= 1``
and may be ``math.inf``, which selects the exact limiting form of each
formula rather than a large-float approximation.

Everything here is the standard library, except ``expit``, which is the
only function that uses numpy, through the ``rdrisk._numpy`` stand-in that
imports it on first use; importing the package therefore loads neither
numpy nor scipy:

* ``log_gamma`` is ``ln(math.gamma(x))`` below 10 and ``math.lgamma``
  above; ``log_beta_multivariate`` adds those values with ``math.fsum``.
* ``digamma`` is ``H_{n-1} - gamma`` at the integers n <= 10.  Elsewhere
  the recurrence psi(x) = psi(x + 1) - 1/x (Abramowitz & Stegun 6.3.5)
  shifts x to at least 10, where the asymptotic series (A&S 6.3.18,
  Bernoulli terms to B_16) is used; the shift terms and the series are added with one
  ``math.fsum``.
* ``harmonic`` is the ``math.fsum`` of the float terms 1/i up to n = 1e5,
  so it is the correctly rounded sum of those terms, and the
  Euler-Maclaurin series above that.
* ``expit`` is the logistic ``1/(1 + exp(-x))``, elementwise, with the
  overflow of ``exp`` at large ``-x`` ignored, so it returns exactly 0 and
  1 in the limits.

Measured against 40-digit mpmath on the grid of ``tests/test_specfun.py``
(0.05 <= x <= 1e9), ``log_gamma`` and ``digamma`` are within 3 units of
``ulp(max(|f|, 1))``.  ``log_beta_multivariate`` is a difference of ln Gamma
values, so its error is counted in ulps of its largest term (or of
``max(|f|, 1)`` if that is larger): within 7.5 on the same grid.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable

from ._numpy import np
from .errors import DomainError

Nats = float
LossOrder = float

EULER_GAMMA = 0.5772156649015329

# harmonic() sums exactly up to this n and uses the asymptotic series above
# it; both branches are within an ulp of H_n there, and the series' first
# omitted term, 1/(252 n^6), is below 1e-32.
_HARMONIC_EXACT_MAX = 100_000

# log_gamma uses ln(math.gamma(x)) for x below this (and above the smallest
# normal float, where gamma stays finite): CPython's lgamma is up to ~5 ulp
# off in (0, 3), gamma about 1 ulp.
_LOG_GAMMA_DIRECT_MAX = 10.0

# digamma shifts x to at least this before the asymptotic series.  At 10
# the first omitted term, B_18/(18 x^18), is 3e-18, far below an ulp of
# psi(10) = 2.25.
_DIGAMMA_SHIFT = 10.0

# B_{2k}/(2k), k = 1..8, for psi(x) ~ ln x - 1/(2x) - sum_k B_{2k}/(2k x^{2k}).
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12,
                   -3617 / 8160)


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
    x = float(x)
    if sys.float_info.min <= x < _LOG_GAMMA_DIRECT_MAX:
        return math.log(math.gamma(x))
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"ln Gamma({x}) overflows the float range") from None


def checked_fsum(terms: Iterable[float]) -> float:
    """``math.fsum`` of ``terms``; a sum beyond the float range is a DomainError."""
    try:
        return math.fsum(terms)
    except OverflowError:
        raise DomainError("a sum overflows the float range; "
                          "the parameters are too small or too large") from None


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    x = float(x)
    if x <= _DIGAMMA_SHIFT and x.is_integer():
        return math.fsum(1.0 / i for i in range(1, int(x))) - EULER_GAMMA
    terms = []
    while x < _DIGAMMA_SHIFT:
        terms.append(-1.0 / x)
        x += 1.0
    z = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_DIGAMMA_SERIES):
        series = c + z * series
    terms += (math.log(x), -0.5 / x, -z * series)
    return math.fsum(terms)


def expit(x):
    """Logistic 1/(1 + exp(-x)), elementwise; exactly 0 and 1 in the limits."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def log_beta_multivariate(gamma: Iterable[float]) -> float:
    """ln B(gamma) = sum_i ln Gamma(gamma_i) - ln Gamma(sum_i gamma_i)."""
    g = [float(v) for v in gamma]
    if len(g) < 2:
        raise DomainError("log_beta_multivariate needs at least 2 components")
    if not all(0.0 < v < math.inf for v in g):
        raise DomainError("log_beta_multivariate requires positive finite components")
    return checked_fsum(log_gamma(v) for v in g) - log_gamma(math.fsum(g))


def harmonic(n: int) -> float:
    """n-th harmonic number, sum_{i=1}^{n} 1/i; 0 for n = 0.

    Up to n = 100000 the float terms 1.0 / i are added by ``math.fsum``,
    which rounds their exact sum once.  Above that the Euler-Maclaurin series
    ln n + gamma + 1/(2n) - 1/(12n^2) + 1/(120n^4) is used, so time and
    memory stay bounded for any n.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"harmonic requires a nonnegative integer, got {n}")
    n = int(n)
    if n == 0:
        return 0.0
    if n <= _HARMONIC_EXACT_MAX:
        return math.fsum(1.0 / i for i in range(n, 0, -1))
    inv = 1.0 / n
    inv2 = inv * inv
    return math.log(n) + EULER_GAMMA + inv / 2.0 - inv2 / 12.0 + inv2 * inv2 / 120.0


def cp_constant(p: LossOrder, m: int) -> Nats:
    """Per-coordinate distortion penalty C_p for an M-class problem.

    C_p = ln(2 Gamma(1 + 1/p)) + (1/p) ln(p e / (M - 1)) for finite p;
    the p -> inf limit is ln 2.  The last term is summed as
    (ln p + 1 - ln(M - 1)) / p, because p e overflows for p above ~6.6e307.
    """
    p = validate_loss_order(p)
    if m < 2:
        raise DomainError(f"class count must be >= 2, got {m}")
    if math.isinf(p):
        return math.log(2.0)
    return log_gamma(1.0 + 1.0 / p) + math.log(2.0) + (math.log(p) + 1.0 - math.log(m - 1)) / p
