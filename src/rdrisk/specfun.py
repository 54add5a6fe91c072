"""Scalar special functions that the bound formulas are built from.

Every entropy/information value in this package is in nats; ``Nats`` is a
documentation alias for ``float``.  The loss order ``p`` is a float ``>= 1``
and may be ``math.inf``, which selects the exact limiting form of each
formula rather than a large-float approximation.

Everything here is the standard library, except ``expit`` and
``log_gamma_remainder`` on arrays, which use numpy through the
``rdrisk._numpy`` stand-in that imports it on first use; importing the
package therefore loads neither numpy nor scipy:

* ``log_gamma`` is ``ln(math.gamma(x))`` below 10 and ``math.lgamma``
  above; ``log_beta_multivariate`` adds those values with ``math.fsum``.
* ``digamma`` is ``H_{n-1} - gamma`` at the integers n <= 10.  Elsewhere
  the recurrence psi(x) = psi(x + 1) - 1/x (Abramowitz & Stegun 6.3.5)
  shifts x to at least 10, where the asymptotic series (A&S 6.3.18,
  Bernoulli terms to B_16) is used; the shift terms and the series are added with one
  ``math.fsum``.
* ``log_gamma_remainder`` is mu(x) = ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2
  at every x > 0, on a float or a numpy array: the asymptotic series from
  x = 8, and below it one shift of 8 in numpy.  ``digamma_remainder`` is
  the series of rho(x) = psi(x) - ln x + 1/(2x), for x >= 10.  A caller
  that cancels the leading terms of ln Gamma and psi in closed form adds these.
* ``entropy_terms(x, k)`` sums to T(x, k) = x + ln Gamma(x) - (x - k) psi(x),
  the kernel of every Dirichlet entropy; from x = 10 up in Stirling's form,
  where the terms of size x ln x and x cancel in closed form.
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
``max(|f|, 1)`` if that is larger): within 7.5 on the same grid.  Sums of
``entropy_terms`` (the Dirichlet entropies) are within 12 ulp of max(|f|, 1)
on the gamma sweep (1e-300 to 1e300) of ``tests/test_multinomial.py``, and
``posterior_entropy`` within 29 on 300 random priors at each numpy seed 0-2
(M from {2, 3, 5}, every gamma_i uniform in [0.01, 10)), against 60 digits.
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

# entropy_terms takes Stirling's form at or above this: its plain terms, of
# size x ln x, put a Dirichlet entropy 56 ulp off at (10, 10), 7e4 at (1e4, 1e4).
_ENTROPY_STIRLING_MIN = 10.0

# Asymptotic series of the Stirling remainder, 1/(12x) - 1/(360x^3) + ...,
# in powers of 1/x^2 (Bernoulli terms B_2 .. B_12).  At x >= 8 the first
# omitted term, 1/(156 x^13), is below 1.2e-14.
_STIRLING_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


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
    """``math.fsum`` of ``terms``; a sum beyond the float range, or with a
    term that overflowed to inf, is a DomainError.

    fsum overflows when a partial sum leaves the float range even where the
    exact sum lies inside it; the sum is then retried over the halved terms,
    which rescues partial sums up to twice the largest float and is exact
    save for the last bit of subnormal terms.
    """
    terms = list(terms)
    try:
        try:
            total = math.fsum(terms)
        except OverflowError:  # a partial sum beyond the float range
            total = 2.0 * math.fsum(t / 2.0 for t in terms)
        if math.isfinite(total):
            return total
    except (OverflowError, ValueError):  # ValueError: an inf and a -inf term
        pass
    raise DomainError("a sum overflows the float range; "
                      "the parameters are too small or too large")


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
    terms += (math.log(x), -0.5 / x, digamma_remainder(x))
    return math.fsum(terms)


def digamma_secant_at_2(h: float) -> float:
    """(psi(2 + h) - psi(2)) / h for 0 < h <= 1/2, to a few ulp.

    psi(y + 1) - psi(y) = 1/y turns the difference into the terms
    1/(y (y + h)) for y = 2, ..., 9 and the same difference at y = 10,
    where the asymptotic series of psi is differenced term by term: as
    log1p(h / y) / h for ln y, 1/(2 y (y + h)) for -1/(2y), and
    y^-2j expm1(-2j log1p(h / y)) / h for y^-2j, so no term is a small
    difference of large ones.  The plain (digamma(2 + h) - digamma(2)) / h
    is off by 6e-9 of itself near h = 2^-24.
    """
    if not 0.0 < h <= 0.5:
        raise DomainError(f"digamma_secant_at_2 requires 0 < h <= 1/2, got {h}")
    y = _DIGAMMA_SHIFT
    log_ratio = math.log1p(h / y)
    terms = [1.0 / (x * (x + h)) for x in range(2, int(y))]
    terms += (log_ratio / h, 0.5 / (y * (y + h)))
    terms += (-c * y ** (-2 * j) * math.expm1(-2 * j * log_ratio) / h
              for j, c in enumerate(_DIGAMMA_SERIES, 1))
    return math.fsum(terms)


def power_series(coefficients: tuple[float, ...], z):
    """sum_k coefficients[k] z^k by Horner's rule; z may be a numpy array."""
    total = 0.0
    for c in reversed(coefficients):
        total = c + z * total
    return total


def digamma_remainder(x: float) -> float:
    """rho(x) = psi(x) - ln x + 1/(2x) for x >= 10, by its asymptotic series."""
    if x * x == math.inf:  # x > 1.3e154: rho is -1/(12 x^2) to float precision
        return -(1.0 / x) / (12.0 * x)
    z = 1.0 / (x * x)
    return -z * power_series(_DIGAMMA_SERIES, z)


def log_gamma_remainder(x):
    """mu(x) = ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2 for x > 0, on a
    float or elementwise on a numpy array.

    A float at or above 8 takes the asymptotic series in plain Python.  An
    array, or a float below 8, takes numpy and one shift of 8, mu(x) =
    mu(x + 8) + (x + 15/2) ln(x + 8) - (x + 1/2) ln x - ln prod_{j=1..7} (x + j) - 8,
    evaluated at min(x, 8) so that it stays finite; a mask picks each
    element's path, in a fixed number of numpy calls whatever the mix.
    """
    shift = 0.0
    if not (isinstance(x, float) and x >= 8.0):
        low = x < 8.0
        t = np.minimum(x, 8.0)
        u = t + 8.0
        # (t + j)(t + 8 - j) = t (t + 8) + j (8 - j)
        w = t * u
        shift = np.where(low, (u - 0.5) * np.log(u) - (t + 0.5) * np.log(t)
                         - np.log((w + 7.0) * (w + 12.0) * (w + 15.0) * (t + 4.0)) - 8.0, 0.0)
        x = np.where(low, u, x)
    inv = 1.0 / x
    return inv * power_series(_STIRLING_SERIES, inv * inv) + shift


def entropy_terms(x: float, k: float) -> list[float]:
    """Terms whose sum is T(x, k) = x + ln Gamma(x) - (x - k) psi(x), x > 0: at
    x >= _ENTROPY_STIRLING_MIN, (k - 1/2) ln x + (1 + ln 2 pi)/2 - k/(2x) + mu(x)
    - (x - k) rho(x) (mu = log_gamma_remainder, rho = digamma_remainder), in
    which the terms of size x ln x and x have cancelled in closed form."""
    if x < _ENTROPY_STIRLING_MIN:
        return [x, log_gamma(x), -(x - k) * digamma(x)]
    return [(k - 0.5) * math.log(x), 0.5, 0.5 * math.log(2.0 * math.pi), -k / (2.0 * x),
            log_gamma_remainder(x), -(x - k) * digamma_remainder(x)]


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
