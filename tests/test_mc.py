import math
import threading
import time
import warnings

import numpy as np
import pytest

import rdrisk.mc as mc
from rdrisk.errors import DomainError
from rdrisk.gaussian import simulate_bayes_risk
from rdrisk.mc import MAX_THREADS, mc_mean, rng_stream


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


def test_antithetic_log_uniforms_pair_one_uniform_on_one_grid():
    # numpy's uniforms are U = k 2^-53 with 0 <= k < 2^53; the members are
    # exactly the logs of the grid points j 2^-53 with j = 2^53 - k and
    # j = k + 1, both in [1, 2^53], from one U
    u = rng_stream(770, 0).random((3, 1000))
    logs = mc.antithetic_log_uniforms(rng_stream(770, 0), (3, 1000))
    assert logs.shape == (2, 3, 1000)
    k = u * 2.0 ** 53
    assert (k == np.floor(k)).all()
    j = np.stack([2.0 ** 53 - k, k + 1.0])
    assert ((1.0 <= j) & (j <= 2.0 ** 53)).all()
    assert (logs == np.log(j * 2.0 ** -53)).all()


class EdgeUniforms:
    """Generator stand-in whose uniforms are 0 and 1 - 2^-53, the two ends."""

    def random(self, size):
        return np.array([0.0, 1.0 - 2.0 ** -53]).reshape(size)


def test_antithetic_log_uniforms_are_finite_at_both_ends():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logs = mc.antithetic_log_uniforms(EdgeUniforms(), (2,))
    log_grid = np.log(2.0 ** -53)
    assert (logs == [[0.0, log_grid], [log_grid, 0.0]]).all()


def test_mc_mean_constant_sampler():
    est = mc_mean(lambda rng, m: np.full(m, 3.25), trials=1000, seed=0)
    assert est.mean == 3.25
    assert est.stderr == 0.0
    assert est.trials == 1000


@pytest.mark.parametrize("threads", [1, 2])
def test_mc_mean_constant_sampler_whose_sum_rounds(threads):
    # 625 copies of these values do not sum exactly, so a chunk's pairwise
    # mean is off by rounding; the chunk's value is still the mean
    for value in (0.1, 0.5000000000000007):
        est = mc_mean(lambda rng, m: np.full(m, value), trials=40_000, seed=0,
                      threads=threads)
        assert est.mean == value
        assert est.stderr == 0.0


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


@pytest.mark.parametrize("trials,chunks", [(1000, 1), (100, 100)])
def test_mc_mean_accepts_chunks_at_the_edges(trials, chunks):
    seen = []
    mc_mean(lambda rng, m: seen.append(m) or np.zeros(m), trials=trials, seed=0,
            chunks=chunks)
    assert len(seen) == chunks and sum(seen) == trials


def test_mc_mean_rejects_tiny_trials():
    calls = []
    with pytest.raises(DomainError, match="^trials must be >= 100, got 99$"):
        mc_mean(lambda rng, m: calls.append(m) or np.zeros(m), trials=99, seed=0, chunks=1)
    assert calls == []


def test_mc_mean_caps_trials_at_2_to_the_40(monkeypatch):
    # the cap is checked before any chunk runs: numpy could not even shape
    # one chunk of 10^30 trials
    calls = []

    def sampler(rng, m):
        calls.append(m)
        return np.zeros(m)

    for trials in (10 ** 30, mc.MAX_TRIALS + 1):
        with pytest.raises(DomainError, match=rf"^trials must be <= 2\^40, got {trials}$"):
            mc_mean(sampler, trials, 0)
    assert calls == []
    monkeypatch.setattr(mc, "MAX_TRIALS", 1000)
    assert mc_mean(sampler, 1000, 0).trials == 1000
    with pytest.raises(DomainError, match=r"<= 2\^40"):
        mc_mean(sampler, 1001, 0)


def test_mc_mean_caps_chunks_at_2_to_the_16(monkeypatch):
    calls = []

    def sampler(rng, m):
        calls.append(m)
        return np.zeros(m)

    above = mc.MAX_CHUNKS + 1
    with pytest.raises(DomainError, match=rf"^chunks must be <= 2\^16, got {above}$"):
        mc_mean(sampler, above, 0, chunks=above)
    assert calls == []
    monkeypatch.setattr(mc, "MAX_CHUNKS", 8)
    mc_mean(sampler, 1000, 0, chunks=8)
    assert len(calls) == 8
    with pytest.raises(DomainError, match="chunks must be <= 2"):
        mc_mean(sampler, 1000, 0, chunks=9)


@pytest.mark.parametrize("trials,chunks", [(1000, 0), (1000, -3), (100, 101), (100, 1000)])
def test_mc_mean_rejects_chunks_outside_one_to_trials(trials, chunks):
    with pytest.raises(DomainError, match="chunks"):
        mc_mean(lambda rng, m: np.zeros(m), trials=trials, seed=0, chunks=chunks)


@pytest.mark.parametrize("option,value", [("threads", 0), ("threads", -1),
                                          ("threads", MAX_THREADS + 1), ("seed", -1)])
def test_mc_mean_rejects_bad_threads_and_seed_before_sampling(option, value):
    calls = []
    kwargs = {"seed": 0, "threads": 1, option: value}
    with pytest.raises(DomainError, match=option):
        mc_mean(lambda rng, m: calls.append(m) or np.zeros(m), trials=1000, chunks=4,
                **kwargs)
    assert calls == []


def test_mc_mean_starts_no_more_threads_than_chunks(monkeypatch):
    # chunk 0 runs on the calling thread, which then waits on the pool:
    # with the pool forced on, it starts at most min(threads, chunks - 1)
    # threads, capped by the chunks left at (3, MAX_THREADS) and by
    # threads at (9, 2)
    monkeypatch.setattr(mc, "POOL_MIN_CHUNK_S", 0.0)
    caller = threading.get_ident()
    for chunks, threads in [(3, MAX_THREADS), (9, 2)]:
        before = threading.active_count()
        seen = []

        def sampler(rng, m):
            seen.append((threading.get_ident(), threading.active_count()))
            return np.zeros(m)

        est = mc_mean(sampler, trials=1000, seed=0, chunks=chunks, threads=threads)
        assert est.trials == 1000 and len(seen) == chunks
        assert seen[0] == (caller, before)
        cap = min(threads, chunks - 1)
        pool = {ident for ident, _ in seen[1:]}
        assert caller not in pool and len(pool) <= cap
        assert max(alive for _, alive in seen) <= before + cap


@pytest.mark.parametrize("threads", [2, 3, 8])
@pytest.mark.parametrize("pool_min", [0.0, math.inf], ids=["pool", "no-pool"])
def test_mc_mean_pool_rule_changes_no_bytes(monkeypatch, pool_min, threads):
    # the pool rule decides where chunks run, never what they draw, on 2, 3
    # or 8 threads
    def sampler(rng, m):
        return rng.standard_normal(size=m) ** 2

    base = mc_mean(sampler, trials=20_000, seed=4, chunks=16, threads=1)
    gauss = simulate_bayes_risk(10, 4, 1.0, trials=200, test_points=1000, seed=5, chunks=8)
    monkeypatch.setattr(mc, "POOL_MIN_CHUNK_S", pool_min)
    starts = []
    monkeypatch.setattr(threading.Thread, "start", lambda self, start=threading.Thread.start:
                        starts.append(self) or start(self))
    assert mc_mean(sampler, trials=20_000, seed=4, chunks=16, threads=threads) == base
    assert simulate_bayes_risk(10, 4, 1.0, trials=200, test_points=1000, seed=5, chunks=8,
                               threads=threads) == gauss
    assert bool(starts) == (pool_min == 0.0)


def test_mc_mean_runs_cheap_chunks_on_the_calling_thread():
    caller = threading.get_ident()
    seen = set()
    mc_mean(lambda rng, m: seen.add(threading.get_ident()) or np.zeros(m), trials=1000,
            seed=0, chunks=8, threads=2)
    assert seen == {caller}


def test_mc_mean_rejects_sampler_of_wrong_shape():
    with pytest.raises(DomainError, match=r"shape \(250, 2\), expected \(250,\)"):
        mc_mean(lambda rng, m: np.zeros((m, 2)), trials=1000, seed=0, chunks=4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mc_mean_rejects_non_finite_chunk(bad):
    def sampler(rng, m):
        values = rng.uniform(size=m)
        if m == 250:  # chunk sizes are 251, 251, 251, 250
            values[7] = bad
        return values

    with pytest.raises(DomainError, match="non-finite values in chunk 3"):
        mc_mean(sampler, trials=1003, seed=0, chunks=4)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_mc_mean_reports_the_first_failing_chunk_at_any_thread_count(monkeypatch, threads):
    # chunks 2 and 6 both fail, and chunk 2 is slow, so on a pool chunk 6
    # fails first: the error still names chunk 2, as on one thread
    monkeypatch.setattr(mc, "rng_stream", lambda seed, idx: idx)
    monkeypatch.setattr(mc, "POOL_MIN_CHUNK_S", 0.0)

    def sampler(idx, m):
        if idx == 2:
            time.sleep(0.05)
        return np.full(m, np.nan if idx in (2, 6) else 1.0)

    with pytest.raises(DomainError, match="non-finite values in chunk 2"):
        mc_mean(sampler, trials=800, seed=0, chunks=8, threads=threads)


def unscaled_mc_mean(sampler, trials, seed, chunks):
    """mc_mean's reduction without power-of-two scaling: chunk M2 as the
    plain sum of squared deviations, merged in chunk order."""
    parts = []
    base, extra = divmod(trials, chunks)
    for idx in range(chunks):
        values = sampler(rng_stream(seed, idx), base + (idx < extra))
        mean = float(values.mean())
        parts.append((values.size, mean, float(((values - mean) ** 2).sum())))
    n, mean, m2 = parts[0]
    for nb, mb, sb in parts[1:]:
        delta = mb - mean
        total = n + nb
        mean, m2 = mean + delta * (nb / total), m2 + sb + delta * delta * (n * nb / total)
        n = total
    return mean, float(np.sqrt(m2 / (n - 1)) / np.sqrt(n))


@pytest.mark.parametrize("scale", [1.0, 1e-3, 3.7, 1e5, 1e-100])
@pytest.mark.parametrize("draw", ["random", "standard_exponential", "standard_normal"])
def test_mc_mean_scaling_changes_no_bits_at_ordinary_magnitudes(scale, draw):
    def sampler(rng, m):
        return scale * getattr(rng, draw)(size=m)

    for trials, chunks in ((1000, 64), (12_345, 7), (100_000, 64)):
        est = mc_mean(sampler, trials, seed=760, chunks=chunks)
        assert (est.mean, est.stderr) == unscaled_mc_mean(sampler, trials, 760, chunks)


@pytest.mark.parametrize("scale, unscaled", [(1e-200, 0.0), (1e200, np.inf)])
def test_mc_mean_stderr_of_tiny_and_huge_values(scale, unscaled):
    # squared deviations of values near 1e-200 underflow to 0 unscaled, and
    # of values near 1e200 overflow to inf
    def sampler(rng, m):
        return scale * rng.random(size=m)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc_mean(sampler, trials=10_000, seed=761)
    ref = mc_mean(lambda rng, m: rng.random(size=m), trials=10_000, seed=761)
    assert est.stderr > 0.0
    assert est.stderr == pytest.approx(scale * ref.stderr, rel=0.01)
    with np.errstate(over="ignore"):
        assert unscaled_mc_mean(sampler, 10_000, 761, 64)[1] == unscaled
