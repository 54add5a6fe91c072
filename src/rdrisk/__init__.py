"""Rate-distortion lower bounds on the Bayes risk of supervised learning.

Four concrete data models (categorical, binary multinomial, binary
Gaussian, noiseless threshold) are equipped with closed-form bound
formulas, an inversion pipeline from mutual information to risk, k-NN
differential-entropy estimation, and seeded Monte-Carlo simulators that
validate every bound.  The ``rdrisk`` CLI exposes the same surface and
emits CSV/JSON risk curves.
"""

from . import categorical, gaussian, knn, mc, multinomial, rdcore, specfun, zero_error
from .errors import DomainError
from .mc import MonteCarloEstimate, mc_mean, rng_stream
from .rdcore import FisherSummary, InterpolationSpec

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DomainError",
    "FisherSummary",
    "InterpolationSpec",
    "MonteCarloEstimate",
    "categorical",
    "gaussian",
    "knn",
    "mc",
    "mc_mean",
    "multinomial",
    "rdcore",
    "rng_stream",
    "specfun",
    "zero_error",
]
