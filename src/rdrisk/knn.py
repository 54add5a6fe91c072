"""Kozachenko-Leonenko k-nearest-neighbor differential entropy estimation.

Convention: neighbor distances use the max-norm, and eps_i is the full edge
length 2 * (distance from sample i to its k-th neighbor).  The max-norm ball
of edge eps has volume eps^d, so the volume constant ln V_d is 0 and

    h_hat = psi(N) - psi(k) + (d / N) * sum_i ln eps_i.

Equal-distance ties do not affect the estimate (only the k-th distance value
enters); duplicate points that would give eps_i = 0 are broken by adding the
documented deterministic jitter of 1e-12 * (sample index + 1).

The k-th neighbor distance is found exactly, in numpy, with a k-d tree:

* Build: level by level, each node's rows are sorted on the node's widest
  axis and split at the median, down to leaves of at most ``LEAF`` rows.
  One ``argsort`` per level does every node at once: its key is the node
  index times n plus the row's rank along the node's axis.  Every node
  keeps the bounding box of its rows.
* First bound: each row's (k+1)-th smallest distance, self included, to the
  ``k + 1 + 2 * LEAF`` rows around it in tree order.  It is the (k+1)-th
  smallest over a subset of the rows, so it is at or above the true one.
* Descent: each row goes down the tree keeping only the nodes whose
  max-norm gap from the row to the node's box is at or below its bound.
  Rows whose bound is 0 (duplicates) are done and skip it.
* Finish: the rows of each row's remaining leaves form a dense distance
  block, and ``np.partition`` picks its (k+1)-th smallest entry.  Rows are
  blocked in order of their leaf count, so padding the count of each block
  to its largest wastes little.

Exactness: the gap ``max(lo - x, x - hi)`` on an axis is at most
``|x - y|`` for every y in [lo, hi], and rounding to nearest is monotone, so
the computed gap is at most the computed distance.  No row within the bound
is dropped, at least k+1 rows lie within it, and the distances
``max_j |x_ij - x_lj|`` are the float operations ``cKDTree`` performs at
``p=inf``: the result is bit for bit ``cKDTree(x).query(x, k + 1,
p=np.inf)[0][:, k]``.

Memory: O(n d) for the sorted rows, the boxes and the bounds, plus work
arrays capped near ``BLOCK`` entries.  The descent splits its rows in two
whenever they hold more than ``BLOCK // 2`` (row, node) pairs, and the
finish builds its distance blocks ``BLOCK`` entries at a time.  A single
row that keeps more leaves than that (an outlier whose bound spans the
sample) takes a block of its own, at most n + 2^depth entries.
"""

from __future__ import annotations

import warnings

from ._numpy import np
from .errors import DomainError
from .mc import MonteCarloEstimate
from .specfun import digamma

JITTER = 1e-12
LEAF = 16  # most rows in a leaf of the k-d tree
BLOCK = 1 << 16  # entries in one work array of the neighbor search


def _as_matrix(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DomainError(f"samples must be 1-D or 2-D, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise DomainError("samples contain NaN or Inf")
    return x


def _tree_order(cols: np.ndarray, depth: int) -> np.ndarray:
    """Row order in which node j of level t holds rows [j n >> t, (j+1) n >> t).

    ``cols`` is the sample as one contiguous row per axis, shape (d, n).
    """
    d, n = cols.shape
    rank = np.empty((d, n), dtype=np.int64)  # rank of each row along each axis
    for a in range(d):
        rank[a][np.argsort(cols[a])] = np.arange(n)
    rank = rank.ravel()
    order = np.arange(n)
    for t in range(depth):
        starts = ((np.arange((1 << t) + 1) * n) >> t)[:-1]
        span = np.empty((d, 1 << t))
        for a in range(d):
            v = cols[a][order]
            span[a] = np.maximum.reduceat(v, starts) - np.minimum.reduceat(v, starts)
        node = np.repeat(np.arange(1 << t), np.diff(np.append(starts, n)))
        key = node * n + rank[span.argmax(axis=0)[node] * n + order]
        order = order[np.argsort(key)]
    return order


def _first_bound(cols: np.ndarray, k: int) -> np.ndarray:
    """(k+1)-th smallest distance from each row to the rows around it in tree order."""
    d, n = cols.shape
    width = min(n, k + 1 + 2 * LEAF)
    windows = [np.lib.stride_tricks.sliding_window_view(c, width) for c in cols]
    start = np.clip(np.arange(n) - width // 2, 0, n - width)
    bound = np.empty(n)
    step = max(1, BLOCK // width)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        dist = np.abs(windows[0][start[rows]] - cols[0][rows, None])
        for a in range(1, d):
            np.maximum(dist, np.abs(windows[a][start[rows]] - cols[a][rows, None]), out=dist)
        bound[rows] = np.partition(dist, k, axis=1)[:, k]
    return bound


def _near_leaves(cols, lo, hi, bound, rows):
    """Yield (row, leaf) pairs, grouped by row, whose point-box gap is <= bound[row].

    ``lo[t]`` and ``hi[t]``, shape (d, 2^t), bound the boxes of level t.
    """
    depth = len(lo) - 1
    stack = [(rows, np.zeros_like(rows), 0)]
    while stack:
        row, node, t = stack.pop()
        while t < depth:
            t += 1
            row = np.repeat(row, 2)
            node = np.repeat(2 * node, 2)
            node[1::2] += 1
            gap = np.full(len(row), -np.inf)
            for a, column in enumerate(cols):
                v = column[row]
                below = lo[t][a][node]
                np.maximum(gap, np.subtract(below, v, out=below), out=gap)
                above = hi[t][a][node]
                np.maximum(gap, np.subtract(v, above, out=above), out=gap)
            keep = gap <= bound[row]
            row, node = row[keep], node[keep]
            if len(row) > BLOCK // 2 and row[0] != row[-1]:
                cut = np.searchsorted(row, row[len(row) // 2])
                cut = cut or np.searchsorted(row, row[0], side="right")
                stack.append((row[cut:], node[cut:], t))
                row, node = row[:cut], node[:cut]
        yield row, node


def _kth_smallest(cols, cells, row, leaf, k, out) -> None:
    """out[r] = (k+1)-th smallest distance from row r to the rows of its leaves.

    ``row`` and ``leaf`` are the (row, leaf) pairs, grouped by row.
    ``cells[a]`` holds each leaf's values on axis a, padded with inf, and
    one more leaf of inf.
    """
    size = cells.shape[2]
    first = np.flatnonzero(np.diff(row, prepend=-1))
    count = np.diff(np.append(first, len(row)))
    by_count = np.argsort(count, kind="stable")
    first, count, row = first[by_count], count[by_count], row[first[by_count]]
    i = 0
    while i < len(row):
        # rows i..j-1, padded to the largest count among them (the last)
        fits = np.arange(1, len(row) - i + 1) * count[i:] * size <= BLOCK
        j = i + max(1, int(np.searchsorted(~fits, True)))
        width = int(count[j - 1])
        leaves = np.full((j - i, width), cells.shape[1] - 1)
        slot = np.arange(width)
        used = slot < count[i:j, None]
        leaves[used] = leaf[(first[i:j, None] + slot)[used]]
        dist = cells[0][leaves]
        dist -= cols[0][row[i:j], None, None]
        np.abs(dist, out=dist)
        for a in range(1, len(cols)):
            part = cells[a][leaves]
            part -= cols[a][row[i:j], None, None]
            np.maximum(dist, np.abs(part, out=part), out=dist)
        out[row[i:j]] = np.partition(dist.reshape(j - i, -1), k, axis=1)[:, k]
        i = j


def _kth_neighbor_distance(x: np.ndarray, k: int) -> np.ndarray:
    """Entry k of each row of the row-sorted max-norm distance matrix of x."""
    n, d = x.shape
    depth = ((n - 1) // LEAF).bit_length()
    cols = np.ascontiguousarray(x.T)
    order = _tree_order(cols, depth)
    cols = np.stack([c[order] for c in cols])
    starts = (np.arange((1 << depth) + 1) * n) >> depth
    lo = [np.stack([np.minimum.reduceat(c, starts[:-1]) for c in cols])]
    hi = [np.stack([np.maximum.reduceat(c, starts[:-1]) for c in cols])]
    for _ in range(depth):
        lo.insert(0, np.minimum(lo[0][:, 0::2], lo[0][:, 1::2]))
        hi.insert(0, np.maximum(hi[0][:, 0::2], hi[0][:, 1::2]))
    sizes = np.diff(starts)
    cells = np.full((d, (1 << depth) + 1, int(sizes.max())), np.inf)
    leaf_of = np.repeat(np.arange(1 << depth), sizes)
    cells[:, leaf_of, np.arange(n) - starts[leaf_of]] = cols
    bound = _first_bound(cols, k)
    out = np.zeros(n)  # a row whose bound is 0 has k duplicates: its distance is 0
    for row, leaf in _near_leaves(cols, lo, hi, bound, np.flatnonzero(bound > 0)):
        _kth_smallest(cols, cells, row, leaf, k, out)
    result = np.empty(n)
    result[order] = out
    return result


def _log_eps(x: np.ndarray, k: int) -> np.ndarray:
    n, d = x.shape
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if n <= k + 1:
        raise DomainError(f"need more than k+1={k + 1} samples, got {n}")
    if n < d + 2:
        raise DomainError(f"need at least d+2={d + 2} samples, got {n}")
    eps = 2.0 * _kth_neighbor_distance(x, k)
    if np.any(eps == 0.0):
        warnings.warn("duplicate samples: applying 1e-12 index jitter",
                      RuntimeWarning, stacklevel=3)
        x = x + JITTER * (np.arange(n) + 1.0)[:, None]
        eps = 2.0 * _kth_neighbor_distance(x, k)
    return np.log(eps)


def knn_entropy(samples, k: int = 4) -> float:
    """Differential entropy estimate (nats) of i.i.d. samples.

    ``samples`` is (N, d) or (N,); ``k`` defaults to 4, a common
    bias/variance compromise.
    """
    return knn_entropy_detail(samples, k).mean


def knn_entropy_detail(samples, k: int = 4) -> MonteCarloEstimate:
    """knn_entropy with a naive standard error.

    The stderr is d * std(ln eps_i) / sqrt(N); it ignores correlation
    between neighbor distances and is meant for ordering checks with
    few-stderr slack, not for tight confidence intervals.
    """
    x = _as_matrix(samples)
    n, d = x.shape
    log_eps = _log_eps(x, k)
    value = digamma(n) - digamma(k) + float(d * log_eps.mean())
    stderr = float(d * log_eps.std(ddof=1) / np.sqrt(n))
    return MonteCarloEstimate(mean=value, stderr=stderr, trials=n)


def load_samples_csv(path, header: bool = False) -> np.ndarray:
    """Load a sample matrix from CSV, one row per sample."""
    with warnings.catch_warnings():  # the estimator rejects an empty matrix
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        x = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    return np.asarray(x, dtype=float)
