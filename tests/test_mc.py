import numpy as np
import pytest

from rdrisk.errors import DomainError
from rdrisk.mc import mc_mean, rng_stream


def test_rng_stream_reproducible():
    a = rng_stream(123, 0).uniform(size=16)
    b = rng_stream(123, 0).uniform(size=16)
    assert np.array_equal(a, b)


def test_rng_stream_distinct_streams_uncorrelated():
    a = rng_stream(123, 0).uniform(size=100_000)
    b = rng_stream(123, 1).uniform(size=100_000)
    assert not np.array_equal(a[:16], b[:16])
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.01


def test_rng_stream_distinct_seeds_differ():
    a = rng_stream(1, 0).uniform()
    b = rng_stream(2, 0).uniform()
    assert a != b


def test_mc_mean_constant_sampler():
    est = mc_mean(lambda rng, m: np.full(m, 3.25), trials=1000, seed=0)
    assert est.mean == 3.25
    assert est.stderr == 0.0
    assert est.trials == 1000


def test_mc_mean_uniform():
    est = mc_mean(lambda rng, m: rng.uniform(size=m), trials=10 ** 6, seed=11)
    assert abs(est.mean - 0.5) < 3 * est.stderr
    assert est.stderr == pytest.approx(1.0 / np.sqrt(12e6), rel=0.05)


def test_mc_mean_fixed_seed_bit_identical():
    runs = [mc_mean(lambda rng, m: rng.normal(size=m), trials=5000, seed=9)
            for _ in range(2)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("threads", [1, 4, 8])
def test_mc_mean_thread_invariant(threads):
    base = mc_mean(lambda rng, m: rng.normal(size=m) ** 2, trials=20_000,
                   seed=4, chunks=16, threads=1)
    run = mc_mean(lambda rng, m: rng.normal(size=m) ** 2, trials=20_000,
                  seed=4, chunks=16, threads=threads)
    assert run == base


def test_mc_mean_exact_trial_count():
    seen = []

    def sampler(rng, m):
        seen.append(m)
        return np.zeros(m)

    mc_mean(sampler, trials=1003, seed=0, chunks=10)
    assert sum(seen) == 1003
    assert len(seen) == 10


def test_mc_mean_rejects_tiny_trials():
    with pytest.raises(DomainError):
        mc_mean(lambda rng, m: np.zeros(m), trials=1, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mc_mean_rejects_non_finite_chunk(bad):
    def sampler(rng, m):
        values = rng.uniform(size=m)
        if m == 250:  # chunk sizes are 251, 251, 251, 250
            values[7] = bad
        return values

    with pytest.raises(DomainError, match="non-finite values in chunk 3"):
        mc_mean(sampler, trials=1003, seed=0, chunks=4)

