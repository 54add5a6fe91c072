"""Rate-distortion lower bounds on the Bayes risk of supervised learning.

Four concrete data models (categorical, binary multinomial, binary
Gaussian, noiseless threshold) are equipped with closed-form bound
formulas, an inversion pipeline from mutual information to risk, k-NN
differential-entropy estimation, and seeded Monte-Carlo simulators that
validate every bound.  The ``rdrisk`` CLI exposes the same surface and
emits CSV/JSON risk curves.
"""

__version__ = "0.1.0"
