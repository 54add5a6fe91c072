"""Seeded, chunk-deterministic Monte-Carlo harness.

Trials are split into a fixed number of chunks, each drawing from its own
counter-based RNG stream, and chunk statistics are merged in chunk order.
The result is therefore bit-identical for a fixed (seed, trials, chunks)
no matter how many worker threads evaluate the chunks, as long as the
samplers draw the same way (see SAMPLER_VERSION).  The simulators pass
``chunks`` and ``threads`` on to mc_mean unchanged, so their defaults live
here alone, and ``provenance`` names what a run's output must record.
"""

from __future__ import annotations

import math
import time
from typing import Callable, NamedTuple

from ._numpy import np
from .errors import DomainError

Sampler = Callable[["np.random.Generator", int], "np.ndarray"]

# Version of the simulators' draw sequences, one for every family.  It is
# bumped whenever any sampler draws differently, so seeded outputs are
# byte-stable only for a fixed (seed, trials, chunks, SAMPLER_VERSION).
# Version 13 draws the zero-error pairs, as the Gaussian ones already were,
# through antithetic_log_uniforms, on uniforms of (0, 1] that are never 0.
SAMPLER_VERSION = 13

# Most threads mc_mean may compute on.  Its pool starts at most
# min(threads, chunks - 1) threads, one per chunk after the first, while the
# calling thread waits.
MAX_THREADS = 256

# mc_mean starts a thread pool only when its first chunk, run on the calling
# thread, took longer than this many seconds.  Below it the pool's start-up
# and the handing over of the interpreter lock between numpy calls cost more
# than a second thread wins: on 2 cores, two threads ran Gaussian chunks of
# 0.40, 0.71, 1.7 and 2.4 ms at 0.54, 0.90, 1.15 and 1.57 times the speed
# of one, and zero-error chunks of 0.11, 0.46 and 1.1 ms at 0.52, 0.89 and
# 1.82 times.
POOL_MIN_CHUNK_S = 1e-3

# Fewest and most trials, and most chunks, of an mc_mean run.  At 2^40
# trials each sampler's arrays of (trial, test point or component) stay
# within numpy's index range for up to 2^16 points or components per trial,
# so an oversize run fails as a MemoryError, not as a ValueError of the
# shape.  A run of 2^16 chunks of a zero sampler peaked at 20.6 MB under
# tracemalloc, about 314 B a chunk for its job and result.
MIN_TRIALS = 100
MAX_TRIALS = 2 ** 40
MAX_CHUNKS = 2 ** 16


class MonteCarloEstimate(NamedTuple):
    """Mean and standard error of a simulated quantity.

    ``stderr`` is the sample standard deviation divided by sqrt(trials).
    """

    mean: float
    stderr: float
    trials: int


def provenance(trials: int, seed: int, chunks: int) -> dict:
    """What determines a simulation's bytes besides its model and n, in the
    order outputs record it: the run's seed, trials and chunks, the
    samplers' SAMPLER_VERSION and the version of numpy, whose ``Generator``
    draws the samples (so this loads numpy)."""
    return {"seed": seed, "trials": trials, "chunks": chunks,
            "sampler_version": SAMPLER_VERSION, "numpy": np.__version__}


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent generator for (seed, stream_id).

    Streams are Philox counter-based generators keyed through
    ``SeedSequence(seed, spawn_key=(stream_id,))``, so distinct stream ids
    under one seed are statistically independent and reproducible.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(stream_id),))
    return np.random.Generator(np.random.Philox(ss))


def antithetic_log_uniforms(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """[ln(1 - U), ln(U + 2^-53)] over one array of uniforms U of ``shape``,
    stacked on a new first axis: the antithetic pair that every sampler
    draws its uniforms through.

    numpy's uniforms are k 2^-53 with 0 <= k < 2^53, so 1 - U and
    U + 2^-53 are exact, never 0, and uniform on the same grid
    {j 2^-53 : 1 <= j <= 2^53}.  Each member is the log of a uniform on
    (0, 1], the two fall in opposite directions, and U = 0 gives finite
    logs without a warning.
    """
    # The output is allocated before U: the other order made each chunk of
    # zero_error.mi_monte_carlo(5, 10^6, 1) page-fault about 850 kB anew,
    # at 1.5x its time (glibc, 2-core x86 machine).
    logs = np.empty((2, *shape))
    u = rng.random(size=shape)
    np.subtract(1.0, u, out=logs[0])
    np.add(u, 2.0 ** -53, out=logs[1])
    return np.log(logs, out=logs)


def _exponent(x: float) -> int:
    """The e that brings x >= 0 into [1/2, 1) as x * 2^-e; -1022 at x = 0
    and for subnormal x, so that 2^-e stays a finite float."""
    return max(math.frexp(x)[1], -1022) if x else -1022


def _merge(a, b, exponent):
    # Chan et al. pairwise combination of (count, mean, M2), with the M2s
    # held at the scale 4^-exponent.
    na, ma, sa = a
    nb, mb, sb = b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * (nb / n)
    scaled = math.ldexp(delta, -exponent)
    m2 = sa + sb + scaled * scaled * (na * nb / n)
    return n, mean, m2


def _whole(name: str, value) -> int:
    """``value`` as an int; a DomainError names option ``name`` unless
    ``value`` is a whole number (1e5 is, 1000.9, inf and nan are not)."""
    try:
        if int(value) == value:
            return int(value)
    except (OverflowError, ValueError):  # int() of inf or nan
        pass
    raise DomainError(f"{name} must be a whole number, got {value}")


def mc_mean(sampler: Sampler, trials: int, seed: int,
            chunks: int = 64, threads: int = 1) -> MonteCarloEstimate:
    """Mean/stderr of ``sampler`` over exactly ``trials`` draws.

    ``sampler(rng, count)`` must return a 1-D array of ``count`` values and
    must depend only on the generator handed to it.  ``trials``, ``chunks``,
    ``threads`` and ``seed`` must be whole numbers (1e5 is one); ``trials``
    must lie in [MIN_TRIALS, MAX_TRIALS], ``chunks`` in [1, trials] and at
    most MAX_CHUNKS, ``threads`` in [1, MAX_THREADS] and ``seed`` must be
    >= 0, all checked before any chunk runs.  Chunk 0 runs on the calling
    thread and is timed; when ``threads`` > 1 and it took longer than
    POOL_MIN_CHUNK_S, the other chunks run on a pool of up to
    min(``threads``, ``chunks`` - 1) threads while the calling thread
    waits, else on the calling thread alone.  The timing decides only where
    chunks run, never what they draw, and chunks are reduced, and a failing
    chunk reported, in chunk order, so the output is bit-reproducible and
    the error names the same chunk at any thread count.

    Squared deviations of tiny values underflow, and of huge ones
    overflow, so each chunk sums them scaled by the power of two that
    brings its largest deviation into [1/2, 1); the merge and the square
    root run at one common power of two.  Such scaling is exact away from
    the subnormals, so it changes no bit of a result at ordinary
    magnitudes.  A chunk of equal values has that value as its mean and no
    spread, so a constant sampler has stderr 0.
    """
    trials, chunks, threads, seed = map(_whole, ("trials", "chunks", "threads", "seed"),
                                        (trials, chunks, threads, seed))
    if trials < MIN_TRIALS:
        raise DomainError(f"trials must be >= {MIN_TRIALS}, got {trials}")
    if trials > MAX_TRIALS:
        raise DomainError(f"trials must be <= 2^40, got {trials}")
    if not 1 <= chunks <= trials:
        raise DomainError(f"chunks must be in [1, trials={trials}], got {chunks}")
    if chunks > MAX_CHUNKS:
        raise DomainError(f"chunks must be <= 2^16, got {chunks}")
    if not 1 <= threads <= MAX_THREADS:
        raise DomainError(f"threads must be in [1, {MAX_THREADS}], got {threads}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")

    def run_chunk(job):
        idx, size = job
        values = np.asarray(sampler(rng_stream(seed, idx), size), dtype=float)
        if values.shape != (size,):
            raise DomainError(
                f"sampler returned shape {values.shape}, expected ({size},)")
        if not np.isfinite(values).all():
            raise DomainError(f"sampler returned non-finite values in chunk {idx}")
        mean = float(values.mean())
        dev = values - mean
        hi, lo = float(dev.max()), float(dev.min())
        if hi == lo:
            # Equal values: their mean may round away from the value.
            return size, float(values[0]), 0.0, _exponent(0.0)
        exponent = _exponent(max(hi, -lo))
        dev *= math.ldexp(1.0, -exponent)
        return size, mean, float((dev ** 2).sum()), exponent

    base, extra = divmod(trials, chunks)
    jobs = [(i, base + (1 if i < extra else 0)) for i in range(chunks)]
    # Reading np.random loads numpy and numpy.random before the clock
    # starts, so that a first call's imports are not taken for chunk work.
    np.random
    start = time.perf_counter()
    parts = [run_chunk(jobs[0])]
    workers = min(threads, chunks - 1)
    if workers > 1 and time.perf_counter() - start > POOL_MIN_CHUNK_S:
        from concurrent.futures import ThreadPoolExecutor

        # The calling thread waits while the pool runs the other chunks;
        # map hands back results, and raises, in chunk order.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts += pool.map(run_chunk, jobs[1:])
    else:
        parts += map(run_chunk, jobs[1:])

    # One scale for the merge, no finer than any chunk's and bounding every
    # gap between chunk means, so no scaled term can overflow.
    means = [part[1] for part in parts]
    common = max(max(part[3] for part in parts), _exponent(max(means) - min(means)))
    scaled = [(size, mean, math.ldexp(m2, 2 * (exponent - common)))
              for size, mean, m2, exponent in parts]
    total = scaled[0]
    for part in scaled[1:]:
        total = _merge(total, part, common)
    n, mean, m2 = total
    stderr = math.ldexp(float(np.sqrt(m2 / (n - 1)) / np.sqrt(n)), common)
    return MonteCarloEstimate(mean=float(mean), stderr=stderr, trials=trials)
