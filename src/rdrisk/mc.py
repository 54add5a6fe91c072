"""Seeded, chunk-deterministic Monte-Carlo harness.

Trials are split into a fixed number of chunks, each drawing from its own
counter-based RNG stream, and chunk statistics are merged in chunk order.
The result is therefore bit-identical for a fixed (seed, trials, chunks)
no matter how many worker threads evaluate the chunks, as long as the
samplers draw the same way (see SAMPLER_VERSION).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ._numpy import np
from .errors import DomainError

Sampler = Callable[["np.random.Generator", int], "np.ndarray"]

# Version of the simulators' draw sequences, one for every family.  It is
# bumped whenever any sampler draws differently, so seeded outputs are
# byte-stable only for a fixed (seed, trials, chunks, SAMPLER_VERSION).
SAMPLER_VERSION = 3


class MonteCarloEstimate(NamedTuple):
    """Mean and standard error of a simulated quantity.

    ``stderr`` is the sample standard deviation divided by sqrt(trials).
    """

    mean: float
    stderr: float
    trials: int


def check_simulation(n: int, trials: int, min_trials: int = 100) -> None:
    """Reject a simulator's sample count n < 0 or trials below its floor."""
    if trials < min_trials:
        raise DomainError(f"trials must be >= {min_trials}, got {trials}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent generator for (seed, stream_id).

    Streams are Philox counter-based generators keyed through
    ``SeedSequence(seed, spawn_key=(stream_id,))``, so distinct stream ids
    under one seed are statistically independent and reproducible.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(stream_id),))
    return np.random.Generator(np.random.Philox(ss))


def _chunk_sizes(trials: int, chunks: int) -> list[int]:
    chunks = max(1, min(int(chunks), trials))
    base, extra = divmod(trials, chunks)
    return [base + (1 if i < extra else 0) for i in range(chunks)]


def _merge(a, b):
    # Chan et al. pairwise combination of (count, mean, M2).
    na, ma, sa = a
    nb, mb, sb = b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * (nb / n)
    m2 = sa + sb + delta * delta * (na * nb / n)
    return n, mean, m2


def mc_mean(sampler: Sampler, trials: int, seed: int,
            chunks: int = 64, threads: int = 1) -> MonteCarloEstimate:
    """Mean/stderr of ``sampler`` over exactly ``trials`` draws.

    ``sampler(rng, count)`` must return a 1-D array of ``count`` values and
    must depend only on the generator handed to it.  Chunks may run on up to
    ``threads`` workers; the reduction is always performed in chunk order,
    so the output is reproducible bit-for-bit.
    """
    trials = int(trials)
    if trials < 2:
        raise DomainError(f"mc_mean requires trials >= 2, got {trials}")
    sizes = _chunk_sizes(trials, chunks)

    def run_chunk(args):
        idx, size = args
        rng = rng_stream(seed, idx)
        values = np.asarray(sampler(rng, size), dtype=float)
        if values.shape != (size,):
            raise DomainError(
                f"sampler returned shape {values.shape}, expected ({size},)")
        if not np.isfinite(values).all():
            raise DomainError(f"sampler returned non-finite values in chunk {idx}")
        mean = float(values.mean())
        m2 = float(((values - mean) ** 2).sum())
        return size, mean, m2

    jobs = list(enumerate(sizes))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            parts = list(pool.map(run_chunk, jobs))
    else:
        parts = [run_chunk(j) for j in jobs]

    total = parts[0]
    for part in parts[1:]:
        total = _merge(total, part)
    n, mean, m2 = total
    stderr = float(np.sqrt(m2 / (n - 1)) / np.sqrt(n))
    return MonteCarloEstimate(mean=float(mean), stderr=stderr, trials=trials)
