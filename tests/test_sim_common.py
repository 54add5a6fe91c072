import math

import numpy as np
import pytest

from rdrisk.errors import DomainError
from rdrisk.mc import rng_stream
from rdrisk.sim_common import (inner_loss, outer_risk, outer_stderr,
                               sample_dirichlet, sample_multinomial)
from rdrisk.specfun import digamma


def test_dirichlet_sums_to_one():
    draws = sample_dirichlet((0.5, 2.0, 1.5), rng_stream(301, 0), size=2000)
    assert draws.shape == (2000, 3)
    assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-12)
    single = sample_dirichlet((1.0, 1.0), rng_stream(301, 1))
    assert single.shape == (2,)


def test_dirichlet_uniform_marginal_mean():
    draws = sample_dirichlet((1.0, 1.0), rng_stream(302, 0), size=100_000)
    th = draws[:, 0]
    stderr = th.std(ddof=1) / math.sqrt(th.size)
    assert abs(th.mean() - 0.5) < 3 * stderr


def test_dirichlet_expected_log_marginal():
    # E[ln theta_1] for Dir(2,2) is psi(2) - psi(4)
    draws = sample_dirichlet((2.0, 2.0), rng_stream(303, 0), size=100_000)
    logs = np.log(draws[:, 0])
    stderr = logs.std(ddof=1) / math.sqrt(logs.size)
    assert abs(logs.mean() - (digamma(2.0) - digamma(4.0))) < 3 * stderr


def test_dirichlet_validation():
    with pytest.raises(DomainError):
        sample_dirichlet((1.0,), rng_stream(0, 0))
    with pytest.raises(DomainError):
        sample_dirichlet((1.0, -1.0), rng_stream(0, 0))


def test_multinomial_edges():
    rng = rng_stream(304, 0)
    assert np.array_equal(sample_multinomial(0, (0.3, 0.7), rng), [0, 0])
    assert np.array_equal(sample_multinomial(9, (1.0, 0.0), rng), [9, 0])
    counts = sample_multinomial(12, (0.0, 1.0, 0.0), rng)
    assert np.array_equal(counts, [0, 12, 0])


def test_multinomial_counts_sum_and_mean():
    rng = rng_stream(305, 0)
    theta = np.array([0.2, 0.5, 0.3])
    counts = sample_multinomial(50, np.tile(theta, (40_000, 1)), rng)
    assert counts.shape == (40_000, 3)
    assert np.all(counts.sum(axis=1) == 50)
    for j in range(3):
        col = counts[:, j]
        stderr = col.std(ddof=1) / math.sqrt(col.size)
        assert abs(col.mean() - 50 * theta[j]) < 3 * stderr


def test_multinomial_per_row_trials():
    rng = rng_stream(306, 0)
    n = np.array([0, 3, 10])
    counts = sample_multinomial(n, np.tile([0.5, 0.5], (3, 1)), rng)
    assert np.array_equal(counts.sum(axis=1), n)


def test_multinomial_covariance_law():
    # rows alternate between two (n, theta) laws; within each law
    # Var(c_i) = n theta_i (1 - theta_i) and Cov(c_i, c_j) = -n theta_i theta_j
    laws = [(50, np.array([0.2, 0.5, 0.3, 0.0])), (7, np.array([0.05, 0.15, 0.6, 0.2]))]
    rows = 40_000
    n = np.tile([laws[0][0], laws[1][0]], rows)
    theta = np.tile(np.stack([laws[0][1], laws[1][1]]), (rows, 1))
    counts = sample_multinomial(n, theta, rng_stream(308, 0))
    assert counts.shape == theta.shape
    assert np.array_equal(counts.sum(axis=1), n)
    for k, (trials, th) in enumerate(laws):
        dev = counts[k::2] - trials * th
        for i in range(th.size):
            for j in range(i, th.size):
                law = trials * th[i] * ((1.0 - th[i]) if i == j else -th[j])
                prod = dev[:, i] * dev[:, j]
                stderr = prod.std(ddof=1) / math.sqrt(prod.size)
                assert abs(prod.mean() - law) <= 4 * stderr


def test_inner_loss_values():
    assert inner_loss(1.0, [0.3, 0.7], [0.3, 0.7]) == 0.0
    # both coordinates of a binary vector differ by the same delta
    assert inner_loss(1.0, [0.3, 0.7], [0.4, 0.6]) == pytest.approx(0.2, abs=1e-15)
    assert inner_loss(2.0, [0.3, 0.7], [0.4, 0.6]) == pytest.approx(0.02, abs=1e-15)
    assert inner_loss(math.inf, [0.1, 0.5, 0.4], [0.4, 0.5, 0.1]) == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(DomainError):
        inner_loss(1.0, [0.5, 0.5], [1.0])


def test_inner_loss_binary_identity():
    # for M = 2 the L1 inner sum is always 2 |w1 - what1|
    rng = rng_stream(307, 0)
    w = rng.uniform(size=(100, 2))
    w /= w.sum(axis=1, keepdims=True)
    v = rng.uniform(size=(100, 2))
    v /= v.sum(axis=1, keepdims=True)
    assert np.allclose(inner_loss(1.0, w, v), 2 * np.abs(w[:, 0] - v[:, 0]), atol=1e-12)


def test_outer_transform():
    assert outer_risk(2.0, 0.09) == pytest.approx(0.3, rel=1e-13)
    assert outer_risk(math.inf, 0.4) == 0.4
    assert outer_stderr(1.0, 0.5, 0.01) == 0.01
    assert outer_stderr(2.0, 0.09, 0.006) == pytest.approx(0.01, rel=1e-12)
    assert outer_stderr(math.inf, 0.4, 0.02) == 0.02
