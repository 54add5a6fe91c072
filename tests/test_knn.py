import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.spatial import cKDTree

from rdrisk.errors import DomainError
from rdrisk.knn import _kth_neighbor_distance, knn_entropy, knn_entropy_detail, load_samples_csv
from rdrisk.mc import rng_stream

N = 100_000


def beta_entropy_quadrature(a: float, b: float) -> float:
    # independent oracle: -integral f ln f for the Beta(a, b) density
    from scipy.special import betaln

    def f(x):
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - betaln(a, b))

    val, err = integrate.quad(lambda x: -f(x) * math.log(f(x)), 1e-12, 1 - 1e-12)
    assert err < 1e-8
    return val


def test_uniform_entropy():
    x = rng_stream(101, 0).uniform(size=N)
    assert abs(knn_entropy(x, k=4) - 0.0) < 0.02


def test_normal_entropy():
    x = rng_stream(102, 0).normal(size=N)
    assert abs(knn_entropy(x, k=4) - 0.5 * math.log(2 * math.pi * math.e)) < 0.02


def test_beta22_entropy_matches_quadrature_oracle():
    target = beta_entropy_quadrature(2.0, 2.0)
    assert target == pytest.approx(-math.log(6.0) + 5.0 / 3.0, abs=1e-9)
    x = rng_stream(103, 0).beta(2.0, 2.0, size=N)
    assert abs(knn_entropy(x, k=4) - target) < 0.02


def test_permutation_invariance():
    rng = rng_stream(104, 0)
    x = rng.normal(size=2000)
    perm = rng.permutation(2000)
    assert knn_entropy(x, k=4) == pytest.approx(knn_entropy(x[perm], k=4), abs=1e-12)


def test_affine_shift():
    x = rng_stream(105, 0).uniform(size=N)
    a, b = 2.5, -0.7
    h0 = knn_entropy(x, k=4)
    h1 = knn_entropy(a * x + b, k=4)
    assert abs(h1 - h0 - math.log(abs(a))) < 0.02


def test_duplicate_points_jitter_warning():
    x = np.concatenate([np.zeros(50), rng_stream(106, 0).uniform(size=200)])
    with pytest.warns(RuntimeWarning):
        value = knn_entropy(x, k=4)
    assert np.isfinite(value)


def test_input_validation():
    with pytest.raises(DomainError):
        knn_entropy(np.array([1.0, np.nan, 2.0]), k=1)
    with pytest.raises(DomainError):
        knn_entropy(np.arange(4.0), k=4)
    with pytest.raises(DomainError):
        knn_entropy(np.arange(10.0), k=0)
    # more than k+1 samples, but fewer than d+2
    with pytest.raises(DomainError, match=r"^need at least d\+2=5 samples, got 4$"):
        knn_entropy(np.eye(4, 3), k=1)
    with pytest.raises(DomainError, match="^samples must be 1-D or 2-D, got ndim=3$"):
        knn_entropy(np.zeros((10, 2, 2)), k=1)


def test_detail_stderr_scaling():
    est = knn_entropy_detail(rng_stream(107, 0).normal(size=N), k=4)
    assert 0.0 < est.stderr < 0.02
    assert est.trials == N


def test_csv_loader(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,4.0\n", encoding="utf-8")
    x = load_samples_csv(path, header=True)
    assert x.shape == (2, 2)
    assert x[1, 0] == 3.0


def benchmark_sample(seed: int = 1) -> np.ndarray:
    # the 20000 x 3 correlated Gaussian that the benchmark's `entropy` calls read
    mix = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.2, -0.3, 0.7]])
    return np.random.default_rng([seed, 3]).standard_normal((20000, 3)) @ mix.T


@st.composite
def lattice_samples(draw):
    n = draw(st.integers(3, 64))
    d = draw(st.integers(1, 4))
    side = draw(st.integers(1, 4))  # values in [-side, side]: ties and duplicates are common
    raw = np.frombuffer(draw(st.binary(min_size=n * d, max_size=n * d)), dtype=np.uint8)
    x = (raw % (2 * side + 1)).astype(float).reshape(n, d) - side
    return x, draw(st.integers(1, n - 2))


@settings(max_examples=200, deadline=None)
@given(lattice_samples())
def test_kth_neighbor_distance_equals_brute_force(case):
    x, k = case
    brute = np.sort(np.abs(x[:, None, :] - x[None, :, :]).max(axis=2), axis=1)[:, k]
    assert _kth_neighbor_distance(x, k).tobytes() == brute.tobytes()


def _battery_sample(name: str) -> np.ndarray:
    rng = rng_stream(110, 0)
    if name.startswith("gaussian-"):
        n, d = (int(v) for v in name.split("-")[1].split("x"))
        return rng.normal(size=(n, d))
    x = rng.normal(size=(4000, 3))
    if name == "constant-column":
        x[:, 1] = 2.5
    elif name == "outlier":
        x[17, 0] = 1e300
    elif name == "duplicates":
        x = x[:, :2]
        x[:1000] = x[0]
    elif name == "lattice":
        x = np.round(4.0 * x) / 4.0
    elif name == "cauchy":
        x = rng.standard_cauchy(size=(4000, 3))
    elif name == "clusters":
        x[2000:] += 1e6
    elif name == "scales":
        x *= np.array([1e-200, 1.0, 1e200])
    elif name == "collinear":
        x = x[:, :1] * np.array([1.0, 2.0, -1.0])
    return x


@pytest.mark.parametrize("name,k", [
    ("benchmark", 2), ("benchmark", 4), ("benchmark", 8),
    *((f"gaussian-{n}x{d}", 4) for n in (2000, 8000) for d in (1, 2, 3)),
    ("gaussian-4000x5", 4), ("gaussian-1000x8", 4),
    ("constant-column", 4), ("outlier", 4), ("duplicates", 4), ("lattice", 4),
    ("cauchy", 4), ("clusters", 4), ("scales", 4), ("collinear", 4),
])
def test_kth_neighbor_distance_matches_ckdtree(name, k):
    x = benchmark_sample() if name == "benchmark" else _battery_sample(name)
    expected = cKDTree(x).query(x, k + 1, p=np.inf)[0][:, k]
    assert np.array_equal(_kth_neighbor_distance(x, k), expected)


# The 20000 x 3 sample is 0.48 MB.  The neighbor search keeps O(n d) arrays
# plus work arrays capped near knn.BLOCK entries, about 7 MB in all; an
# n x n distance matrix (3.2 GB) or work arrays that grow with n would not
# stay under this bound.
PEAK_BYTES = 10_000_000


@pytest.mark.parametrize("name", ["gaussian-20000x3", "duplicates-20000x2"])
def test_knn_entropy_peak_memory(name):
    if name == "gaussian-20000x3":
        x = benchmark_sample(2)
    else:
        x = rng_stream(111, 0).normal(size=(20000, 2))
        x[:5000] = x[0]
    tracemalloc.start()
    try:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            knn_entropy_detail(x, k=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bool(seen) == name.startswith("duplicates")  # the jitter path ran
    assert peak < PEAK_BYTES
