import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import stats

from rdrisk.errors import DomainError
from rdrisk.mc import antithetic_log_uniforms, mc_mean, rng_stream
from rdrisk.rdcore import rd_lower_pointwise
from rdrisk.specfun import EULER_GAMMA, harmonic
from rdrisk import zero_error
from rdrisk.zero_error import (CONTROL_MAX_N, _interval_widths, control_weight,
                               estimator_risk_exact, estimator_risk_rederived,
                               mi_monte_carlo, mutual_information_exact, risk_lower_l1,
                               sample_complexity, simulate_estimator_risk)

# The threshold posterior has one interpolation point (theta) and two
# classes, so THRESHOLD = (d_star, M) = (1, 2).  The published
# rate-distortion bound is rd_lower_pointwise at posterior entropy 0; the
# re-derived one, from maximizing the entropy at moment D^p / 2, is the
# same bound at entropy (ln 2) / p.
THRESHOLD = (1, 2)

# The estimator control's shift, 2 (1 + E[ln V]) for V uniform on the grid
# j 2^-53, 1 <= j <= 2^53, of the uniform pairs
DELTA = (math.log(2.0 * math.pi) + 53.0 * math.log(2.0)) * 2.0 ** -53


def test_mutual_information_exact_values():
    assert mutual_information_exact(0) == 0.0
    assert mutual_information_exact(1) == pytest.approx(0.5, rel=1e-15)
    assert mutual_information_exact(10) == pytest.approx(
        2.01987734487734487734487734488, rel=1e-13)


def test_mutual_information_asymptote():
    n = 10 ** 6
    gap = mutual_information_exact(n) - math.log(n) - (EULER_GAMMA - 1.0)
    assert abs(gap) < 1e-5


def test_mi_monte_carlo_matches_exact():
    for n in (1, 10):
        est = mi_monte_carlo(n, trials=200_000, seed=701)
        assert abs(est.mean - mutual_information_exact(n)) < 3 * est.stderr
    with pytest.raises(DomainError):
        mi_monte_carlo(1, trials=10, seed=0)


class PinnedUniforms:
    """Generator stand-in: real uniforms with the entries at ``pins`` set to
    ``value``."""

    def __init__(self, rng, pins, value=0.0):
        self.rng, self.pins, self.value, self.calls = rng, pins, value, []

    def random(self, size=None):
        u = self.rng.random(size)
        for index in self.pins:
            u[index] = self.value
        self.calls.append(u.shape)
        return u


def pinned_streams(monkeypatch, pins, value=0.0):
    """Make chunk 0 of every mc_mean run draw through PinnedUniforms."""
    import rdrisk.mc as mc

    real, stubs = mc.rng_stream, []

    def stream(seed, stream_id):
        rng = real(seed, stream_id)
        if stream_id == 0:
            rng = PinnedUniforms(rng, pins, value)
            stubs.append(rng)
        return rng

    monkeypatch.setattr(mc, "rng_stream", stream)
    return stubs


def test_mi_monte_carlo_zero_width_raises(monkeypatch):
    # U1 = U2 = 0 gives member 0 of trial 0 the uniforms 1 - U = 1 twice,
    # so E1 = E2 = 0, its width is exactly 0 and -ln 0 = inf; the run must
    # fail, not redraw.
    stubs = pinned_streams(monkeypatch, [(0, 0), (1, 0)])
    with np.errstate(divide="ignore"), \
            pytest.raises(DomainError, match="non-finite values in chunk 0"):
        mi_monte_carlo(10, trials=1000, seed=1)
    assert [stub.calls for stub in stubs] == [[(2, 16)]]


@pytest.mark.parametrize("simulate, pins, draws", [
    pytest.param(simulate_estimator_risk, [(0,)], (1000,), id="simulate_estimator_risk"),
    pytest.param(mi_monte_carlo, [(0, 0), (1, 1)], (2, 1000), id="mi_monte_carlo")])
def test_edge_uniforms_give_finite_trials_without_warning(monkeypatch, simulate, pins, draws):
    # U = 0 and U = 1 - 2^-53, the two ends of numpy's uniforms, enter a
    # pair as V = 1 in one member and 2^-53 in the other, so E = -ln V is 0 in one and 53 ln 2 in the
    # other: every width lies in (0, 1), every trial stays finite, and no
    # log warns.  The MI draws (U1, U2) for each trial and the estimator
    # one U.
    u = rng_stream(730, 0).random((2, 1000))
    for member, value in enumerate((0.0, 1.0 - 2.0 ** -53)):
        widths = _interval_widths(PinnedUniforms(rng_stream(730, 0), [(0, 0), (1, 1)], value),
                                  10, 1000)
        assert np.isfinite(widths).all() and (widths > 0.0).all() and (widths < 1.0).all()
        # E1 = 0 in this member of trial 0, so its width is 1 - exp(-E2 / n)
        v2 = (1.0 - u[1, 0], u[1, 0] + 2.0 ** -53)[member]
        assert widths[member, 0] == -np.expm1(np.log(v2) / 10)
        with monkeypatch.context() as patch:
            stubs = pinned_streams(patch, pins, value)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = simulate(10, trials=1000, seed=731, chunks=1)
        assert [stub.calls for stub in stubs] == [[draws]]
        assert math.isfinite(est.mean) and est.stderr > 0.0
        if simulate is simulate_estimator_risk:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trials = drawn_estimator_trials(
                    monkeypatch, 10, PinnedUniforms(rng_stream(731, 0), pins, value), 1000)
            # E[W | E1] / 4 at E1 = 0 and 53 ln 2, less the control at
            # ln V + ln V' = -53 ln 2: the same trial at either end, whose
            # members swap
            log_grid = -53.0 * math.log(2.0)
            assert trials[0] == pytest.approx(
                0.25 / 11.0 - 0.125 * (10.0 / 11.0) * math.expm1(log_grid / 11.0)
                - control_weight(10) * (log_grid + 2.0 - DELTA), rel=1e-14)
            assert est.mean == trials.mean()


def test_mi_monte_carlo_stderr_scales():
    small = mi_monte_carlo(5, trials=10_000, seed=702)
    large = mi_monte_carlo(5, trials=160_000, seed=702)
    assert large.stderr == pytest.approx(small.stderr / 4.0, rel=0.15)


def test_rd_lower_values():
    # published: [-ln(2 Gamma(1 + 1/p)) - (1/p) ln(p e) - ln D]^+
    assert rd_lower_pointwise(0.0, *THRESHOLD, 1.0, 1.0 / (2.0 * math.e)) == pytest.approx(
        0.0, abs=1e-12)
    assert rd_lower_pointwise(0.0, *THRESHOLD, 1.0, 0.01) == pytest.approx(
        2.91202300542814605861875078791, rel=1e-13)
    assert rd_lower_pointwise(0.0, *THRESHOLD, 1.0, 1.0) == 0.0
    assert rd_lower_pointwise(0.0, *THRESHOLD, 1.0, 2.0) == 0.0
    with pytest.raises(DomainError):
        rd_lower_pointwise(0.0, *THRESHOLD, 1.0, 0.0)


def test_rd_lower_at_huge_finite_p():
    # p e overflows above about 6.6e307; the bound must not collapse to 0
    at_1e307 = rd_lower_pointwise(0.0, *THRESHOLD, 1e307, 1e-3)
    assert rd_lower_pointwise(0.0, *THRESHOLD, 7e307, 1e-3) == pytest.approx(at_1e307,
                                                                          rel=1e-15)
    assert at_1e307 == pytest.approx(-math.log(2e-3), rel=1e-12)
    assert rd_lower_pointwise(math.log(2.0) / 7e307, *THRESHOLD, 7e307, 1e-3) \
        == pytest.approx(at_1e307, rel=1e-15)


def test_rd_lower_rederived_offset():
    # the entropy-maximizing route adds exactly (1/p) ln 2 pre-clamp
    for p in (1.0, 2.0, 4.0):
        for dist in (0.001, 0.01):
            published = rd_lower_pointwise(0.0, *THRESHOLD, p, dist)
            rederived = rd_lower_pointwise(math.log(2.0) / p, *THRESHOLD, p, dist)
            assert rederived - published == pytest.approx(math.log(2.0) / p, abs=1e-12)


def test_chain_discrepancy_logged():
    # displayed chain: mi >= -ln(2 e L1); inline chain drops the ln 2.
    # Both n-thresholds are reproduced; the displayed one is primary.
    l1 = 0.01
    displayed = math.exp(-EULER_GAMMA) / (2.0 * l1) - 1.0
    inline = math.exp(-EULER_GAMMA) / l1 - 1.0
    got = sample_complexity(l1).n_necessary
    assert got == pytest.approx(displayed, rel=1e-12)
    print(f"n_necessary displayed={displayed:.6f} inline-variant={inline:.6f}")


def test_estimator_risk_exact_published_values():
    assert estimator_risk_exact(0) == 0.25
    assert estimator_risk_exact(1) == 0.125
    assert estimator_risk_exact(99) == 1.0 / 400.0


def test_estimator_risk_rederived_values():
    # size-biased width: E[width] = 2/(n+2), so e_abs = 1/(2(n+2))
    assert estimator_risk_rederived(0) == 0.25
    assert estimator_risk_rederived(1) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert estimator_risk_rederived(99) == pytest.approx(1.0 / 202.0, rel=1e-15)


def reference_interval(rng, n, count):
    """Brute-force (theta, theta_l, theta_r): draws all n training points."""
    theta = rng.uniform(size=count)
    x = rng.uniform(size=(count, n))
    right = x >= theta[:, None]
    theta_r = np.where(right, x, 1.0).min(axis=1)
    theta_l = np.where(~right, x, 0.0).max(axis=1)
    return theta, theta_l, theta_r


def test_simulated_width_is_size_biased():
    # E[theta_r - theta_l] = 2/(n+2), not the unweighted spacing 1/(n+1)
    n = 9
    _, theta_l, theta_r = reference_interval(rng_stream(703, 0), n, 200_000)
    width = theta_r - theta_l
    stderr = width.std(ddof=1) / math.sqrt(width.size)
    assert abs(width.mean() - 2.0 / (n + 2)) < 3 * stderr
    assert abs(width.mean() - 1.0 / (n + 1)) > 30 * stderr


@pytest.mark.parametrize("n", [1, 7, 50])
def test_widths_match_brute_force_reference(n):
    # the exact Beta(2, n) width law of both pair members against the O(n)
    # construction, and theta at a uniform fraction of the interval,
    # independent of its width
    theta, theta_l, theta_r = reference_interval(rng_stream(710, n), n, 20_000)
    width = theta_r - theta_l
    for drawn in _interval_widths(rng_stream(711, n), n, 20_000):
        assert stats.ks_2samp(drawn, width).pvalue > 1e-3
    fraction = (theta - theta_l) / width
    assert stats.kstest(fraction, "uniform").pvalue > 1e-3
    assert abs(stats.spearmanr(fraction, width).statistic) < 4.0 / math.sqrt(width.size)


def beta_2_n_cdf(n):
    """P(W <= w) = 1 - (1 - w)^n (1 + n w) for W ~ Beta(2, n)."""
    return lambda w: 1.0 - np.exp(n * np.log1p(-w)) * (1.0 + n * w)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 10 ** 6])
def test_both_pair_members_are_beta_2_n(n):
    widths = _interval_widths(rng_stream(740, n), n, 20_000)
    for member in widths:
        assert stats.kstest(member, beta_2_n_cdf(n)).pvalue > 1e-3
    # antithetic: the members are negatively correlated
    assert stats.spearmanr(widths[0], widths[1]).statistic < -0.5


def test_laws_at_a_million_points():
    # O(1)-in-n samplers make n = 10^6 as cheap as n = 1
    n = 10 ** 6
    risk = simulate_estimator_risk(n, trials=10 ** 6, seed=712)
    assert abs(risk.mean - 1.0 / (2.0 * (n + 2))) < 4 * risk.stderr
    mi = mi_monte_carlo(n, trials=10 ** 6, seed=713)
    assert abs(mi.mean - (harmonic(n + 1) - 1.0)) < 4 * mi.stderr


@pytest.mark.parametrize("n", [0, 1, 9, 99])
def test_simulator_matches_rederived_law(n):
    est = simulate_estimator_risk(n, trials=200_000, seed=704)
    if n == 0:
        # the width is 1, so every trial returns 1/4 exactly
        assert est.mean == 0.25 and est.stderr == 0.0
    else:
        assert abs(est.mean - estimator_risk_rederived(n)) < 3 * est.stderr


def antithetic_logs(u):
    """ln V and ln V' of the pair (V, V') = (1 - U, U + 2^-53) at uniforms ``u``."""
    return np.log(np.stack([1.0 - u, u + 2.0 ** -53]))


def controlled_trials(u, n):
    """Estimator trials at uniforms ``u``, written out from their definition,
    and the largest of their terms: the mean of E[W | E1] / 4 at
    E1 = -ln V and at E1 = -ln V', where
    E[W | E1] = 1/(n+1) - (n/(n+1)) expm1(-E1 / (n + 1)), less
    control_weight(n) (ln V + ln V' + 2 - delta)."""
    logs = antithetic_logs(u)
    x = np.expm1(logs / float(n + 1))
    control = logs.sum(axis=0) + 2.0 - DELTA
    terms = np.stack([np.full_like(u, 0.25 / (n + 1)), -0.125 * (n / (n + 1)) * x[0],
                      -0.125 * (n / (n + 1)) * x[1], -control_weight(n) * control])
    return terms.sum(axis=0), np.abs(terms).max(axis=0)


def drawn_estimator_trials(monkeypatch, n, rng, count):
    """The ``count`` trials simulate_estimator_risk draws from ``rng``."""
    samplers = []
    with monkeypatch.context() as patch:
        patch.setattr(zero_error, "mc_mean", lambda sampler, *args, **kw: samplers.append(
            sampler) or mc_mean(sampler, *args, **kw))
        simulate_estimator_risk(n, trials=1000, seed=0)
    return samplers[0](rng, count)


def uncontrolled_trials(u, n):
    """The estimator trials at uniforms ``u`` without the control, written
    out: the mean of E[W | E1] / 4 at E1 = -ln V and at E1 = -ln V'."""
    x = np.expm1(antithetic_logs(u) / float(n + 1))
    return 0.25 / (n + 1) - 0.125 * (n / (n + 1)) * (x[0] + x[1])


@pytest.mark.parametrize("n", [0, 1, 1000, CONTROL_MAX_N, CONTROL_MAX_N + 1])
def test_simulator_trial_is_the_mean_width_given_e1(monkeypatch, n):
    # one chunk draws the uniforms of stream 0 and nothing else; a trial is
    # the antithetic mean of E[W | E1] / 4 less its control, to within
    # rounding of its largest term.  At n = 0 and above the cutoff the
    # weight is 0 and the trial is the uncontrolled one, bit for bit.
    u = rng_stream(720, 0).random(10_000)
    trials = drawn_estimator_trials(monkeypatch, n, rng_stream(720, 0), u.size)
    est = simulate_estimator_risk(n, trials=u.size, seed=720, chunks=1)
    if n == 0 or n > CONTROL_MAX_N:
        assert control_weight(n) == 0.0
        expected = uncontrolled_trials(u, n)
        assert (trials == expected).all()
        assert est.mean == expected.mean()
        assert est.stderr == pytest.approx(expected.std(ddof=1) / math.sqrt(u.size),
                                           rel=1e-12, abs=0.0)
    else:
        expected, largest = controlled_trials(u, n)
        error = 8 * np.spacing(largest)
        assert (np.abs(trials - expected) <= error).all()
        # centring shrinks a difference of trials, so the standard
        # deviations differ by no more than the largest error
        assert abs(est.mean - expected.mean()) <= error.max()
        stderr = expected.std(ddof=1) / math.sqrt(u.size)
        assert abs(est.stderr - stderr) <= (error.max() * math.sqrt(u.size / (u.size - 1.0))
                                            / math.sqrt(u.size) + 1e-12 * stderr)


def control_weight_mp(n):
    """b(n) = Cov(trial, c) / Var(c) in 50-digit mpmath, at a = 1/(n+1)."""
    with mpmath.workdps(50):
        a = mpmath.mpf(1) / (n + 1)
        slope = mpmath.mpf(n) / (8 * (n + 1))
        cov = -2 * slope * (a / (a + 1) ** 2
                            - (mpmath.digamma(2 + a) - mpmath.digamma(2)) / (a + 1))
        return cov / (4 - mpmath.pi ** 2 / 3)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 10, 11, 100, 1000, 10 ** 6, CONTROL_MAX_N - 1,
                               CONTROL_MAX_N])
def test_control_weight_matches_mpmath(n):
    assert control_weight(n) == pytest.approx(float(control_weight_mp(n)), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [0, CONTROL_MAX_N + 1, 2 ** 63 - 1, 1e300, 1.5e308])
def test_control_weight_is_zero_at_n_0_and_above_the_cutoff(n):
    assert control_weight(n) == 0.0


def test_control_has_mean_zero():
    # on draws, within 4 stderr of 0 ...
    control = antithetic_log_uniforms(rng_stream(760, 0), (10 ** 6,)).sum(axis=0) + 2.0 - DELTA
    assert abs(control.mean()) < 4 * control.std(ddof=1) / math.sqrt(control.size)
    # ... and over the whole grid j 2^-53, 1 <= j <= 2^53, on which both
    # members are uniform: E[ln V] = (ln N! - N ln N) / N at N = 2^53 by
    # ln Gamma, which leaves 2e-33 at the exact delta and 2e-31 at the
    # float one that the sampler uses
    assert zero_error._GRID_DELTA == DELTA
    with mpmath.workdps(60):
        grid = mpmath.mpf(2) ** 53
        mean_log = (mpmath.loggamma(grid + 1) - grid * mpmath.log(grid)) / grid
        assert abs(2 * mean_log + 2 - mpmath.mpf(DELTA)) < 1e-30


@pytest.mark.parametrize("n", [2 ** 63 - 1, 1e300])
def test_simulator_at_huge_n(n):
    # both terms of E[W | E1] stay positive, so nothing cancels to 0
    est = simulate_estimator_risk(n, trials=100_000, seed=723)
    assert math.isfinite(est.mean) and est.stderr > 0.0
    assert abs(est.mean - estimator_risk_rederived(n)) < 4 * est.stderr


def simulate_model_risk(n, trials, seed):
    """The model, trial by trial: a Beta(2, n) width and theta's uniform
    place U in the interval, for |theta - midpoint| = width * |U - 1/2|."""
    def sampler(rng, count):
        widths = rng.beta(2.0, n, size=count)
        return widths * np.abs(rng.uniform(size=count) - 0.5)

    return mc_mean(sampler, trials, seed)


@pytest.mark.parametrize("n", [1, 2, 5, 100, 1000])
def test_simulator_agrees_with_place_drawing_sampler(n):
    # the model's law at ``gain`` times less variance per trial (6.3e3,
    # 3.1e3, 3.5e3, 3.4e5 and 3.1e7 measured on these rows)
    gain = {1: 5000.0, 2: 2500.0, 5: 2800.0, 100: 2.7e5, 1000: 2.5e7}[n]
    est = simulate_estimator_risk(n, trials=100_000, seed=721)
    ref = simulate_model_risk(n, 100_000, seed=722)
    assert abs(est.mean - ref.mean) <= 4 * math.hypot(est.stderr, ref.stderr)
    assert (ref.stderr / est.stderr) ** 2 >= gain


@pytest.mark.parametrize("n, gain", [(1, 8.0), (2, 1.8), (5, 1.8), (100, 1.8), (1000, 1.8)])
def test_simulator_agrees_with_width_pair_sampler(n, gain):
    # a trial is (W + W') / 8 over the antithetic pair of widths that
    # _interval_widths draws, with E2 integrated out (Rao-Blackwell) and a
    # mean-zero control subtracted: the same law at less variance per trial
    est = simulate_estimator_risk(n, trials=200_000, seed=752)
    ref = mc_mean(lambda rng, count: 0.125 * _interval_widths(rng, n, count).sum(axis=0),
                  200_000, seed=753)
    assert abs(est.mean - ref.mean) <= 4 * math.hypot(est.stderr, ref.stderr)
    assert (ref.stderr / est.stderr) ** 2 >= gain


@pytest.mark.parametrize("n", [1, 2, 5, 100, 1000])
def test_antithetic_pairs_agree_with_one_width_samplers(n):
    # the laws of the one-width trials, width / 4 and -ln width for a
    # Beta(2, n) width: means 1/(2(n+2)) and H_{n+1} - 1, variances
    # (E W^2 - (E W)^2) / 16 with E W^k = (k+1)! (n+1)! / (n+k+1)!, and
    # psi'(2) - psi'(n+2).  The estimator's controlled pair has at least
    # 1.2e3x-1e7x less variance per trial (1.5e3, 9.6e2, 1.3e3, 1.4e5 and
    # 1.3e7 measured on these rows) and the MI's antithetic pair 4.5x-9x
    # (4.9, 6.5, 8.2, 9.7 and 9.8)
    estimator_gain = {1: 1200.0, 2: 770.0, 5: 1000.0, 100: 1.1e5, 1000: 1e7}[n]
    mi_gain = {1: 4.5, 2: 6.0, 5: 7.5, 100: 9.0, 1000: 9.0}[n]
    width_variance = (6.0 / ((n + 2) * (n + 3)) - 4.0 / (n + 2) ** 2) / 16.0
    log_variance = float(mpmath.psi(1, 2) - mpmath.psi(1, n + 2))
    for simulate, law, variance, gain in (
            (simulate_estimator_risk, estimator_risk_rederived(n), width_variance,
             estimator_gain),
            (mi_monte_carlo, mutual_information_exact(n), log_variance, mi_gain)):
        est = simulate(n, trials=200_000, seed=750)
        assert abs(est.mean - law) <= 4 * est.stderr
        assert variance / (est.stderr ** 2 * est.trials) >= gain


def test_simulator_decreasing_in_n():
    means = [simulate_estimator_risk(n, trials=20_000, seed=705).mean
             for n in (1, 5, 25, 125)]
    assert all(b < a for a, b in zip(means, means[1:]))


def test_risk_lower_l1_below_achievable():
    for n in (0, 1, 10, 100):
        assert risk_lower_l1(n) <= 2.0 * estimator_risk_rederived(n)
        assert risk_lower_l1(n) <= 2.0 * estimator_risk_exact(n)


def test_risk_lower_l1_from_mi_is_exp_minus_harmonic():
    # exp(-(I + 1)) / 2 rounds to the same float as exp(-H_{n+1}) / 2, so
    # taking the row's mutual information leaves every bounds byte as it was
    grid = [int(round(10 * 1e6 ** (i / 23))) for i in range(24)]
    for n in [*range(2001), *grid, 99_999, 100_000, 100_001, 10**6, 10**7, 10**9]:
        expected = math.exp(-harmonic(n + 1)) / 2.0
        assert risk_lower_l1(n) == expected
        assert risk_lower_l1(n, mutual_information_exact(n)) == expected
    with pytest.raises(DomainError):
        risk_lower_l1(-1, 0.0)


def test_sample_complexity():
    got = sample_complexity(0.01)
    assert got.n_sufficient == pytest.approx(49.0, rel=1e-14)
    assert got.n_necessary == pytest.approx(27.0729741783442584912071607395, rel=1e-13)
    assert got.n_necessary <= got.n_sufficient
    for l1 in (0.4999, 0.3, 0.01, 1e-6):
        pair = sample_complexity(l1)
        ratio = (pair.n_sufficient + 1.0) / (pair.n_necessary + 1.0)
        assert ratio == pytest.approx(math.exp(EULER_GAMMA), abs=1e-12)
    assert sample_complexity(0.499999).n_sufficient == pytest.approx(0.0, abs=1e-5)
    with pytest.raises(DomainError):
        sample_complexity(0.5)
    with pytest.raises(DomainError):
        sample_complexity(0.0)


def test_exact_risk_slope_is_minus_one():
    ns = np.unique(np.round(np.geomspace(10, 10 ** 4, 40)).astype(int))
    y = np.log([estimator_risk_exact(int(n)) for n in ns])
    slope = np.polyfit(np.log(ns), y, 1)[0]
    assert abs(slope + 1.0) < 0.01


def test_harmonic_consistency():
    # the MI formula is the harmonic partial sum shifted by one
    for n in (0, 1, 5, 50):
        assert mutual_information_exact(n) == pytest.approx(harmonic(n + 1) - 1.0, abs=1e-15)
