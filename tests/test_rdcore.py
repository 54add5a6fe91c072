import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdrisk.errors import DomainError
from rdrisk.knn import knn_entropy
from rdrisk.mc import rng_stream
from rdrisk.rdcore import (FisherSummary, InterpolationSpec, generalized_gaussian_entropy,
                           mi_clarke_barron, posterior_entropy_change_of_var,
                           ratio_coordinates, ratio_log_jacobian, rd_lower_pointwise,
                           risk_lower_from_mi)
from rdrisk.specfun import cp_constant

SPEC_1_2 = InterpolationSpec(d_star=1, d_interp=1, num_classes=2)


# The paper's upper side of R(D), kept here as reference formulas that the
# lower bound is checked against.
def rd_upper(spec, distortion):
    """-d_interp (M-1) ln(min{D, 1/(M-1)})."""
    m = spec.num_classes
    return -spec.d_interp * (m - 1) * math.log(min(distortion, 1.0 / (m - 1)))


def posterior_entropy_upper(spec):
    """Maximum-entropy ceiling -d_interp (M-1) ln(M-1) for any posterior."""
    m = spec.num_classes
    return -spec.d_interp * (m - 1) * math.log(m - 1.0)


def test_spec_validation():
    with pytest.raises(DomainError):
        InterpolationSpec(d_star=0, d_interp=1, num_classes=2)
    with pytest.raises(DomainError):
        InterpolationSpec(d_star=1, d_interp=1, num_classes=1)


def test_rd_lower_pointwise_examples():
    # bracket exactly zero at D = 1/(2e) when h = 0
    assert rd_lower_pointwise(0.0, SPEC_1_2, 1.0, 1.0 / (2 * math.e)) == pytest.approx(0.0, abs=1e-12)
    assert rd_lower_pointwise(0.0, SPEC_1_2, 1.0, 0.01) == pytest.approx(
        2.91202300542814605861875078791, rel=1e-14)
    assert rd_lower_pointwise(0.0, SPEC_1_2, 1.0, 10.0) == 0.0
    with pytest.raises(DomainError):
        rd_lower_pointwise(0.0, SPEC_1_2, 1.0, 0.0)


def test_rd_upper_examples():
    assert rd_upper(SPEC_1_2, 1.0) == 0.0
    assert rd_upper(SPEC_1_2, 0.5) == pytest.approx(math.log(2.0), rel=1e-14)
    spec = InterpolationSpec(d_star=2, d_interp=2, num_classes=3)
    assert rd_upper(spec, 0.1) == pytest.approx(9.21034037197618273607196581874, rel=1e-14)


def test_corollary_forms_random_grid():
    # p in {1, 2, inf} closed forms against the generic formula, 100 points
    rng = rng_stream(201, 0)
    for _ in range(100):
        h = rng.uniform(-3.0, 6.0)
        d_star = int(rng.integers(1, 4))
        m = int(rng.integers(2, 6))
        dist = float(rng.uniform(0.001, 0.2))
        spec = InterpolationSpec(d_star=d_star, d_interp=d_star, num_classes=m)
        c = d_star * (m - 1)
        core1 = h - c * math.log(2 * math.e * dist / (m - 1))
        core2 = h - c * math.log(math.sqrt(2 * math.pi * math.e / (m - 1)) * dist)
        coreinf = h - c * math.log(2 * dist)
        assert rd_lower_pointwise(h, spec, 1.0, dist) == pytest.approx(max(core1, 0.0), abs=1e-12)
        assert rd_lower_pointwise(h, spec, 2.0, dist) == pytest.approx(max(core2, 0.0), abs=1e-12)
        assert rd_lower_pointwise(h, spec, math.inf, dist) == pytest.approx(max(coreinf, 0.0), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(h=st.floats(-5, 5), p=st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]),
       d1=st.floats(1e-3, 0.9), d2=st.floats(1e-3, 0.9))
def test_rd_lower_monotone_in_distortion(h, p, d1, d2):
    lo, hi = sorted((d1, d2))
    assert rd_lower_pointwise(h, SPEC_1_2, p, lo) >= rd_lower_pointwise(h, SPEC_1_2, p, hi)
    assert rd_upper(SPEC_1_2, lo) >= rd_upper(SPEC_1_2, hi)


@settings(max_examples=60, deadline=None)
@given(h1=st.floats(-5, 5), h2=st.floats(-5, 5), d=st.floats(1e-3, 0.9))
def test_rd_lower_monotone_in_entropy(h1, h2, d):
    lo, hi = sorted((h1, h2))
    assert rd_lower_pointwise(lo, SPEC_1_2, 1.0, d) <= rd_lower_pointwise(hi, SPEC_1_2, 1.0, d)


@pytest.mark.parametrize("m,d_i", [(2, 1), (3, 1), (4, 2), (6, 3)])
def test_lower_below_upper_at_max_entropy(m, d_i):
    spec = InterpolationSpec(d_star=d_i, d_interp=d_i, num_classes=m)
    h = posterior_entropy_upper(spec)
    for dist in np.linspace(1e-4, 1.0 / (m - 1), 50):
        for p in (1.0, 2.0, math.inf):
            assert rd_lower_pointwise(h, spec, p, float(dist)) <= rd_upper(spec, float(dist)) + 1e-12


def test_risk_lower_from_mi_collapse():
    # mi = h makes the exponent collapse to exp(-C_p)
    assert risk_lower_from_mi(2.0, 2.0, SPEC_1_2, 1.0) == pytest.approx(
        0.183939720585721160797761885081, rel=1e-14)


def test_risk_lower_from_mi_monotone_limit():
    values = [risk_lower_from_mi(mi, 0.0, SPEC_1_2, 1.0) for mi in (1.0, 5.0, 20.0, 80.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-30


@settings(max_examples=100, deadline=None)
@given(h=st.floats(-4, 4), mi=st.floats(0.1, 30),
       d_star=st.integers(1, 4), m=st.integers(2, 6),
       p=st.sampled_from([1.0, 1.7, 2.0, math.inf]))
def test_inversion_round_trip(h, mi, d_star, m, p):
    spec = InterpolationSpec(d_star=d_star, d_interp=d_star, num_classes=m)
    dmin = risk_lower_from_mi(mi, h, spec, p)
    assert rd_lower_pointwise(h, spec, p, dmin) == pytest.approx(mi, abs=1e-10)


def test_mi_clarke_barron_examples():
    f = FisherSummary(dim=1, mean_log_sqrt_det=0.0, entropy=0.0)
    assert mi_clarke_barron(17, f) == pytest.approx(0.5 * math.log(17 / (2 * math.pi * math.e)), rel=1e-14)
    f3 = FisherSummary(dim=3, mean_log_sqrt_det=0.0, entropy=0.0)
    slope1 = mi_clarke_barron(1000, f) - mi_clarke_barron(100, f)
    slope3 = mi_clarke_barron(1000, f3) - mi_clarke_barron(100, f3)
    assert slope3 == pytest.approx(3 * slope1, rel=1e-12)
    with pytest.raises(DomainError):
        mi_clarke_barron(0, f)


def _risk_at_clarke_barron_mi(n, t, c1, c2, spec, p):
    # The sample-complexity bound: risk_lower_from_mi at the asymptotic MI
    # with E log|Fisher|^(1/2) = c1 and entropy term 0, posterior entropy c2.
    mi = mi_clarke_barron(n, FisherSummary(dim=t, mean_log_sqrt_det=c1, entropy=0.0))
    return risk_lower_from_mi(mi, c2, spec, p)


def test_risk_lower_at_clarke_barron_mi():
    # c1 = c2, t = d_star (M-1), p = 1, M = 2 collapses to (1/2e) sqrt(2 pi e / n)
    for n in (10, 100, 1000):
        got = _risk_at_clarke_barron_mi(n, 1, 0.7, 0.7, SPEC_1_2, 1.0)
        assert got == pytest.approx(math.sqrt(2 * math.pi * math.e / n) / (2 * math.e), rel=1e-13)
    # doubling n scales by 2^{-t/(2 d_star (M-1))}
    spec = InterpolationSpec(d_star=2, d_interp=2, num_classes=3)
    r1 = _risk_at_clarke_barron_mi(50, 3, 0.2, -0.4, spec, 2.0)
    r2 = _risk_at_clarke_barron_mi(100, 3, 0.2, -0.4, spec, 2.0)
    assert r2 / r1 == pytest.approx(2 ** (-3 / (2 * 2 * 2)), rel=1e-12)


def test_posterior_entropy_upper():
    assert posterior_entropy_upper(SPEC_1_2) == 0.0
    assert posterior_entropy_upper(
        InterpolationSpec(d_star=1, d_interp=1, num_classes=3)) == pytest.approx(-2 * math.log(2), rel=1e-14)
    assert posterior_entropy_upper(
        InterpolationSpec(d_star=2, d_interp=2, num_classes=4)) == pytest.approx(
        -6.59167373200865814837147142154, rel=1e-14)


def test_change_of_var_degenerate_rows():
    w = np.zeros((2000, 1, 1))
    est = posterior_entropy_change_of_var(w, h_n=1.75)
    assert est.mean == pytest.approx(1.75, abs=1e-14)
    assert est.stderr == 0.0


def test_change_of_var_uniform_cross_check():
    # M = 2, d_interp = 1, W ~ U(0,1): both entropy routes agree within 0.05
    w = rng_stream(202, 0).uniform(size=100_000)
    coords = ratio_coordinates(w)
    h_n = knn_entropy(coords[:, 0, 0], k=4)
    est = posterior_entropy_change_of_var(w, h_n=h_n)
    direct = knn_entropy(w, k=4)
    assert abs(est.mean - direct) < 0.05


def test_ratio_map_shapes_and_jacobian_positive():
    w = rng_stream(203, 0).uniform(0.0, 0.3, size=(500, 2, 3))
    coords = ratio_coordinates(w)
    assert coords.shape == (500, 2, 3)
    assert np.all(ratio_log_jacobian(w) > 0.0)
    with pytest.raises(DomainError):
        posterior_entropy_change_of_var(np.empty((0, 1, 1)), 0.0)


def test_generalized_gaussian_entropy_known():
    for m in (0.2, 1.0, 3.0):
        assert generalized_gaussian_entropy(1.0, m) == pytest.approx(
            math.log(2 * math.e * m), rel=1e-13)
    # Gaussian case: moment sigma^2 gives (1/2) ln(2 pi e sigma^2)
    for s2 in (0.5, 1.0, 2.0):
        assert generalized_gaussian_entropy(2.0, s2) == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e * s2), rel=1e-13)
    with pytest.raises(DomainError):
        generalized_gaussian_entropy(math.inf, 1.0)
    with pytest.raises(DomainError):
        generalized_gaussian_entropy(2.0, 0.0)


def test_generalized_gaussian_entropy_huge_arguments():
    # p e moment overflows above ~6.6e307; the value must not jump to inf.
    assert generalized_gaussian_entropy(7e307, 1.0) == generalized_gaussian_entropy(1e307, 1.0)
    assert math.isfinite(generalized_gaussian_entropy(2.0, 1e308))


def test_entropy_identity_with_cp_constant():
    # moment D^p/(M-1) makes the per-coordinate entropy ln D + C_p exactly
    rng = rng_stream(204, 0)
    for _ in range(100):
        p = float(rng.uniform(1.0, 8.0))
        m = int(rng.integers(2, 7))
        dist = float(rng.uniform(1e-3, 2.0))
        h = generalized_gaussian_entropy(p, dist ** p / (m - 1))
        assert h == pytest.approx(math.log(dist) + cp_constant(p, m), abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_max_entropy_among_fixed_moment_laws(p):
    # uniform and triangular rescaled to p-th absolute moment 1 stay below
    rng = rng_stream(207, 0)
    n = 200_000
    target = generalized_gaussian_entropy(p, 1.0)
    a = (p + 1.0) ** (1.0 / p)
    uni = rng.uniform(-a, a, size=n)
    b = ((p + 1.0) * (p + 2.0) / 2.0) ** (1.0 / p)
    tri = b * (rng.uniform(size=n) + rng.uniform(size=n) - 1.0)
    for sample in (uni, tri):
        assert np.mean(np.abs(sample) ** p) == pytest.approx(1.0, rel=0.02)
        from rdrisk.knn import knn_entropy_detail

        est = knn_entropy_detail(sample, k=4)
        assert target - est.mean > 3 * est.stderr
