import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdrisk
from rdrisk import categorical, gaussian, mc
from rdrisk.cli import FAMILIES, MAX_GRID_COUNT, UsageError, _parse_n_grid, _parse_p, main
from rdrisk.mc import MAX_THREADS, rng_stream

# main must turn every warning into its one-line message: a stray warning
# is an error here, as it is on the stderr of the installed script.  The
# DeprecationWarning of libcst, which Hypothesis imports to write the patch
# for a failing example, is not rdrisk's, and as an error it would stop
# the session.
pytestmark = pytest.mark.filterwarnings("error", "ignore::DeprecationWarning:libcst")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, rows


def test_parse_p():
    assert _parse_p("1") == 1.0
    assert _parse_p("2.5") == 2.5
    assert math.isinf(_parse_p("inf"))
    assert math.isinf(_parse_p("+inf"))
    from rdrisk.cli import UsageError

    for text in ("0.3", "two", "1e400"):
        with pytest.raises(UsageError):
            _parse_p(text)


def test_parse_n_grid():
    assert _parse_n_grid("100") == [100]
    assert _parse_n_grid("10,100,1000") == [10, 100, 1000]
    grid = _parse_n_grid("1:1000:10log")
    assert grid[0] == 1 and grid[-1] == 1000
    assert all(b > a for a, b in zip(grid, grid[1:]))
    from rdrisk.cli import UsageError

    with pytest.raises(UsageError):
        _parse_n_grid("100,10")
    with pytest.raises(UsageError):
        _parse_n_grid("0,5")
    with pytest.raises(UsageError):
        _parse_n_grid("1:100:xlog")


def test_bounds_categorical_fixture(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--family", "categorical",
                           "--gamma", "1,1", "--p", "1", "--n-grid", "100")
    assert code == 0
    meta, rows = parse_csv(out)
    assert meta["family"] == "categorical"
    assert meta["mi_method"] == "clarke_barron_asymptotic"
    assert "sampler_version" not in meta and "numpy" not in meta
    assert len(rows) == 1
    assert float(rows[0]["rd_lower_risk"]) == pytest.approx(0.04610685044478946, rel=1e-15)
    assert float(rows[0]["mi"]) == pytest.approx(1.383646559789373, rel=1e-15)
    assert rows[0]["simulated_mean"] == ""


def test_bounds_zero_error_mi_column(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--family", "zero-error",
                           "--n-grid", "1:1000:10log", "--p", "1")
    assert code == 0
    _, rows = parse_csv(out)
    from rdrisk.specfun import harmonic

    for row in rows:
        n = int(row["n"])
        assert float(row["mi"]) == pytest.approx(harmonic(n + 1) - 1.0, rel=1e-13)


def test_bounds_single_n_shorthand(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--family", "zero-error", "--n", "10")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1 and rows[0]["n"] == "10"
    code2, _, err = run_cli(capsys, "bounds", "--family", "zero-error")
    assert code2 == 1
    assert "--n" in err
    # --n and --n-grid exclude each other
    code3, out3, err3 = run_cli(capsys, "bounds", "--family", "zero-error", "--n", "10",
                                "--n-grid", "1,2")
    assert code3 == 1
    assert out3 == ""
    assert err3.startswith("rdrisk: error: ") and err3.count("\n") == 1


@pytest.mark.parametrize("argv,option", [
    (("bounds", "--family", "categorical", "--gamma", "1,1", "--d", "3", "--n", "10"), "--d"),
    (("bounds", "--family", "zero-error", "--sigma2", "1", "--n", "10"), "--sigma2"),
    (("simulate", "--family", "gaussian", "--d", "2", "--sigma2", "1", "--k", "2",
      "--n", "10", "--trials", "1000"), "--k"),
    (("compare", "--family", "multinomial", "--d", "2", "--k", "1", "--gamma", "1,1",
      "--sigma2", "1", "--n", "10", "--trials", "1000"), "--sigma2"),
    (("mi", "--family", "gaussian", "--d", "2", "--sigma2", "1", "--n", "10",
      "--gamma", "1,2"), "--gamma"),
    (("mi", "--family", "categorical", "--gamma", "1,1", "--k", "3", "--n", "10"), "--k"),
    (("simulate", "--family", "zero-error", "--n", "3", "--trials", "1000",
      "--test-points", "5"), "--test-points"),
    (("compare", "--family", "categorical", "--gamma", "1,1", "--n", "3",
      "--trials", "1000", "--test-points", "1000"), "--test-points"),
    (("simulate", "--family", "multinomial", "--d", "2", "--k", "1", "--gamma", "1,1",
      "--n", "3", "--trials", "1000", "--test-points", "1000"), "--test-points"),
], ids=["bounds-categorical-d", "bounds-zero-error-sigma2", "simulate-gaussian-k",
        "compare-multinomial-sigma2", "mi-gaussian-gamma", "mi-categorical-k",
        "simulate-zero-error-test-points", "compare-categorical-test-points",
        "simulate-multinomial-test-points"])
def test_rejects_family_option_that_does_not_apply(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("rdrisk: error: ") and err.count("\n") == 1 and option in err


def test_bounds_missing_family_param(capsys):
    code, _, err = run_cli(capsys, "bounds", "--family", "categorical",
                           "--n-grid", "100")
    assert code == 1
    assert "gamma" in err


@pytest.mark.parametrize("argv", [
    ("bounds", "--family", "categorical", "--n-grid", "10"),
    ("simulate", "--family", "categorical", "--n-grid", "10", "--trials", "1000"),
    ("bounds", "--family", "multinomial", "--d", "2", "--k", "1", "--n-grid", "10"),
    ("mi", "--family", "categorical", "--n", "10"),
])
@pytest.mark.parametrize("gamma", ["1,inf", "nan,1", "1e308,1e308"])
def test_rejects_non_finite_gamma(capsys, argv, gamma):
    code, out, err = run_cli(capsys, *argv, "--gamma", gamma)
    assert code == 1
    assert out == ""
    assert err.startswith("rdrisk: ") and err.count("\n") == 1 and "finite" in err


@pytest.mark.parametrize("argv,message", [
    (("bounds", "--family", "zero-error", "--n-grid", "1:10:5"), "grid spec must be"),
    (("bounds", "--family", "zero-error", "--n-grid", "5:2:3log"), "start <= stop"),
    (("bounds", "--family", "zero-error", "--n-grid", "1,x"), "invalid n grid"),
    (("bounds", "--family", "categorical", "--gamma", "1,x", "--n", "10"),
     "invalid gamma vector"),
    (("simulate", "--family", "zero-error", "--n", "1", "--trials", "abc"),
     "invalid --trials"),
    (("entropy", "--input", "words.csv"), "as numeric CSV"),
    (("bounds", "--family", "categorical", "--gamma", "1", "--n", "10"), ">= 2 positive"),
    (("bounds", "--family", "multinomial", "--d", "3", "--k", "1", "--gamma", "1,1",
      "--n", "10"), "d=3 components, got 2"),
], ids=["grid-spec", "grid-start-after-stop", "grid-list", "gamma-text", "trials-text",
        "entropy-text", "gamma-one-component", "multinomial-gamma-length"])
def test_rejects_malformed_input(capsys, monkeypatch, tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "words.csv").write_text("a,b\nc,d\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("rdrisk: ") and err.count("\n") == 1 and message in err


def test_bounds_usage_error_unknown_flag(capsys):
    code, _, err = run_cli(capsys, "bounds", "--family", "categorical",
                           "--gamma", "1,1", "--n-grid", "100", "--bogus")
    assert code == 1


def test_gaussian_requires_l1(capsys):
    code, _, err = run_cli(capsys, "bounds", "--family", "gaussian", "--d", "2",
                           "--sigma2", "1", "--p", "2", "--n-grid", "10")
    assert code == 1
    assert "L1" in err


def test_simulate_deterministic_bytes(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(capsys, "simulate", "--family", "zero-error",
                             "--n-grid", "1,4", "--trials", "2000",
                             "--seed", "5", "--output", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# One call down every sampler path: categorical at p = 1 and 3 (the counts,
# then the posterior MAD or the inner loss), p = 2 (no counts) and p = inf
# at M = 2; multinomial at d = 20; Gaussian at an odd and at a large number
# of test points; zero-error compare on both sides of the control
# variate's cutoff n = 2^24, and its Monte-Carlo mi.
POOL_CASES = {
    "categorical-p1": ("simulate", "--family", "categorical", "--gamma", "0.5,2,3", "--p", "1",
                       "--n-grid", "1,10,100", "--trials", "1e4"),
    "categorical-p2": ("simulate", "--family", "categorical", "--gamma", "0.5,2,3", "--p", "2",
                       "--n-grid", "1,10,100", "--trials", "1e4"),
    "categorical-p3": ("simulate", "--family", "categorical", "--gamma", "0.5,2,3", "--p", "3",
                       "--n-grid", "1,10,100", "--trials", "1e4"),
    "categorical-pinf": ("simulate", "--family", "categorical", "--gamma", "0.5,2", "--p", "inf",
                         "--n-grid", "1,10,100", "--trials", "1e4"),
    "multinomial-d20": ("simulate", "--family", "multinomial", "--d", "20", "--k", "3",
                        "--gamma", ",".join(["1"] * 20), "--n-grid", "10,1000", "--trials", "1e4"),
    "gaussian-T101": ("simulate", "--family", "gaussian", "--d", "3", "--sigma2", "2",
                      "--n-grid", "1,10,100", "--trials", "1000", "--test-points", "101"),
    "gaussian-T1000": ("simulate", "--family", "gaussian", "--d", "4", "--sigma2", "1",
                       "--n-grid", "1,10", "--trials", "2000", "--test-points", "1000"),
    "zero-error-compare": ("compare", "--family", "zero-error", "--n-grid", "1,10,100",
                           "--trials", "1e4"),
    "zero-error-compare-cutoff": ("compare", "--family", "zero-error",
                                  "--n-grid", "16777215,16777216,16777217,16777218",
                                  "--trials", "1e4"),
    "zero-error-mi": ("mi", "--family", "zero-error", "--n", "100", "--method", "monte-carlo",
                      "--trials", "1e4"),
}


@pytest.mark.parametrize("argv", list(POOL_CASES.values()), ids=list(POOL_CASES))
def test_sampler_writes_the_same_bytes_on_the_pool(capsys, monkeypatch, argv):
    # With POOL_MIN_CHUNK_S = 0 the seven chunks after the first run on the
    # pool whenever --threads > 1; stdout, and stderr, where compare prints
    # its violation summary, must not depend on the thread count.
    monkeypatch.setattr(mc, "POOL_MIN_CHUNK_S", 0.0)
    started = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    outputs = []
    for threads in ("1", "2", "3"):
        started.clear()
        code, out, err = run_cli(capsys, *argv, "--chunks", "8", "--threads", threads)
        assert code == 0, err
        assert bool(started) == (threads != "1")
        outputs.append((out, err))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("pool_min", [math.inf], ids=["no-pool"])
def test_simulate_multinomial_same_bytes_at_any_thread_count(capsys, monkeypatch, pool_min):
    # with no pool, the chunks of --threads 2 and 3 run on the calling thread
    # and write the one-thread bytes (the forced-pool test covers the pool)
    monkeypatch.setattr(mc, "POOL_MIN_CHUNK_S", pool_min)
    argv = ("simulate", "--family", "multinomial", "--d", "5", "--k", "3",
            "--gamma", "1,1,1,1,1", "--n-grid", "1,10,100", "--trials", "4000",
            "--chunks", "8", "--seed", "6")
    outputs = []
    for threads in ("1", "2", "3"):
        code, out, _ = run_cli(capsys, *argv, "--threads", threads)
        assert code == 0
        outputs.append(out)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_simulate_zero_error_estimator_value(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--family", "zero-error",
                           "--n-grid", "1", "--trials", "100000", "--seed", "8")
    assert code == 0
    _, rows = parse_csv(out)
    mean = float(rows[0]["simulated_mean"])
    stderr = float(rows[0]["simulated_stderr"])
    # simulated column reports E|theta - thetahat|, the size-biased law 1/6
    assert abs(mean - 1.0 / 6.0) < 3 * stderr


MC_COMMANDS = {
    "simulate": ("simulate", "--family", "zero-error", "--n-grid", "1"),
    "compare": ("compare", "--family", "zero-error", "--n-grid", "1"),
    "mi": ("mi", "--family", "zero-error", "--n", "1", "--method", "monte-carlo"),
}


@pytest.mark.parametrize("command", sorted(MC_COMMANDS))
@pytest.mark.parametrize("option,value", [
    ("trials", "10"), ("trials", "nan"), ("trials", "inf"), ("trials", "2500.5"),
    ("chunks", "0"), ("chunks", "-3"), ("chunks", "2000000"), ("threads", "0"),
    ("seed", "-1")])
def test_rejects_bad_mc_options(capsys, command, option, value):
    code, out, err = run_cli(capsys, *MC_COMMANDS[command], f"--{option}", value)
    assert code == 1
    assert out == ""
    assert err.startswith("rdrisk: ") and err.count("\n") == 1 and option in err


@pytest.mark.parametrize("command", sorted(MC_COMMANDS))
def test_threads_are_capped(capsys, monkeypatch, command):
    # mc_mean rejects the thread count before any chunk draws from its
    # stream; a run on one thread draws from one stream per chunk.
    streams = []

    def counting(seed, stream_id):
        streams.append(stream_id)
        return rng_stream(seed, stream_id)

    monkeypatch.setattr(rdrisk.mc, "rng_stream", counting)
    argv = (*MC_COMMANDS[command], "--trials", "1000", "--chunks", "4")
    code, out, err = run_cli(capsys, *argv, "--threads", str(MAX_THREADS + 1))
    assert code == 1
    assert out == ""
    assert err.startswith("rdrisk: domain error: ") and err.count("\n") == 1
    assert "threads" in err
    assert streams == []
    code, _, _ = run_cli(capsys, *argv, "--threads", "1")
    assert code == 0 and streams == [0, 1, 2, 3]


@pytest.mark.parametrize("option,value", [("chunks", "2000000"), ("threads", "999"),
                                          ("seed", "-1")])
@pytest.mark.parametrize("argv", [
    ("mi", "--family", "zero-error", "--n", "10", "--method", "exact"),
    ("mi", "--family", "gaussian", "--d", "2", "--sigma2", "1", "--n", "10"),
    ("mi", "--family", "gaussian", "--d", "2", "--sigma2", "1", "--n", "10",
     "--method", "clarke-barron"),
    ("mi", "--family", "categorical", "--gamma", "1,2", "--n", "10"),
    ("mi", "--family", "zero-error", "--n", "10")])
def test_mi_without_simulation_ignores_mc_options(capsys, argv, option, value):
    # Only a simulation checks --seed, --chunks and --threads; the
    # zero-error mi is exact unless --method says otherwise.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, f"--{option}", value) == (0, out, "")


def test_compare_ok_and_negative_control(capsys, monkeypatch):
    args = ["compare", "--family", "categorical", "--gamma", "1,1",
            "--n-grid", "10,100", "--trials", "1000", "--seed", "11"]
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert "0 violation(s)" in err
    # a bound ten times too high must be reported as a violation
    bound = rdrisk.categorical.bayes_risk_lower
    monkeypatch.setattr(rdrisk.categorical, "bayes_risk_lower",
                        lambda *a: 10.0 * bound(*a))
    code2, _, err2 = run_cli(capsys, *args)
    assert code2 == 2
    assert "violation" in err2


def test_bounds_categorical_p_inf(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--family", "categorical",
                           "--gamma", "1,1", "--p", "inf", "--n-grid", "100")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["printed_bound"]) == pytest.approx(
        float(rows[0]["rd_lower_risk"]), rel=1e-14)


def test_bounds_categorical_huge_finite_p(capsys):
    # p e overflows above about 6.6e307; C_p must not, so the bound at
    # p = 7e307 stays positive, between its neighbours at 1e307 and inf
    def risk(p):
        code, out, _ = run_cli(capsys, "bounds", "--family", "categorical",
                               "--gamma", "1,1", "--n-grid", "10", "--p", p)
        assert code == 0
        return float(parse_csv(out)[1][0]["rd_lower_risk"])

    low, huge, limit = risk("1e307"), risk("7e307"), risk("inf")
    assert huge > 0.0
    assert min(low, limit) <= huge <= max(low, limit)


def test_simulate_multinomial_requires_l1(capsys):
    code, _, err = run_cli(capsys, "simulate", "--family", "multinomial",
                           "--d", "2", "--k", "1", "--gamma", "1,1",
                           "--p", "2", "--n-grid", "10", "--trials", "200")
    assert code == 1
    assert "L1" in err


def test_compare_gaussian_ok(capsys):
    code, out, err = run_cli(capsys, "compare", "--family", "gaussian",
                             "--d", "2", "--sigma2", "1", "--n-grid", "10,100",
                             "--trials", "400", "--test-points", "200",
                             "--seed", "13")
    assert code == 0
    assert "0 violation(s)" in err


def test_compare_gaussian_ok_at_huge_n(capsys):
    # at n = 1e307 theta_hat is within rounding of theta; the simulated risk
    # (about 2.3e-154) must not round to 0 below the printed bound
    code, out, err = run_cli(capsys, "compare", "--family", "gaussian",
                             "--d", "4", "--sigma2", "1", "--n-grid", str(10 ** 307),
                             "--trials", "200", "--test-points", "100", "--seed", "14")
    assert code == 0
    assert "0 violation(s)" in err


def test_compare_json_metadata(capsys):
    code, out, _ = run_cli(capsys, "compare", "--family", "zero-error",
                           "--n-grid", "2", "--trials", "2000", "--seed", "1",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["violations"] == 0
    assert payload["metadata"]["sampler_version"] == 13
    assert payload["metadata"]["numpy"] == np.__version__
    assert payload["rows"][0]["n"] == 2
    assert payload["rows"][0]["printed_bound"] is None


def test_mi_exact_gaussian(capsys):
    code, out, _ = run_cli(capsys, "mi", "--family", "gaussian", "--d", "2",
                           "--sigma2", "1", "--n", "100", "--method", "exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "exact"
    assert payload["value"] == pytest.approx(math.log(51.0), rel=1e-14)


def test_mi_monte_carlo_zero_error(capsys):
    code, out, _ = run_cli(capsys, "mi", "--family", "zero-error", "--n", "1",
                           "--method", "monte-carlo", "--trials", "1e5",
                           "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "monte_carlo"
    # the payload records what determines its bytes, in the header's order
    assert list(payload) == ["value", "method", "stderr", "seed", "trials", "chunks",
                             "sampler_version", "numpy"]
    assert (payload["seed"], payload["trials"], payload["chunks"]) == (2, 100000, 64)
    assert payload["sampler_version"] == 13
    assert payload["numpy"] == np.__version__
    assert abs(payload["value"] - 0.5) < 3 * payload["stderr"]


@pytest.mark.parametrize("argv", [
    ("mi", "--family", "zero-error", "--n", "1000000000"),
    ("bounds", "--family", "zero-error", "--n-grid", "1000000000", "--format", "json")])
def test_zero_error_exact_mi_at_huge_n(capsys, argv):
    # H_{n+1} - 1 in bounded memory: an O(n) harmonic sum would need 16 GB
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    value = payload["value"] if argv[0] == "mi" else payload["rows"][0]["mi"]
    assert value == pytest.approx(20.300481503347942, rel=1e-15)


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ("mi", "--family", "zero-error", "--method", "exact"),
    ("mi", "--family", "zero-error", "--method", "monte-carlo", "--trials", "1000"),
    ("mi", "--family", "gaussian", "--d", "2", "--sigma2", "1", "--method", "exact")])
def test_mi_at_n_zero_and_below(capsys, argv, n):
    # n = 0 carries no information: every zero-error width is 1, so the
    # Monte-Carlo trials do not spread
    code, out, err = run_cli(capsys, *argv, "--n", n)
    if n == "-1":
        assert (code, out, err) == (1, "", "rdrisk: domain error: n must be >= 0, got -1\n")
        return
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["value"] == 0.0 and payload.get("stderr", 0.0) == 0.0


def test_mi_rejects_exact_for_categorical(capsys):
    code, _, err = run_cli(capsys, "mi", "--family", "categorical",
                           "--gamma", "1,1", "--n", "10", "--method", "exact")
    assert code == 1


def test_entropy_command(tmp_path, capsys):
    path = tmp_path / "normal.csv"
    x = rng_stream(901, 0).normal(size=100_000)
    np.savetxt(path, x[:, None], delimiter=",")
    code, out, _ = run_cli(capsys, "entropy", "--input", str(path), "--k", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "knn"
    assert abs(payload["value"] - 0.5 * math.log(2 * math.pi * math.e)) < 0.05


def test_entropy_missing_file(capsys):
    code, _, err = run_cli(capsys, "entropy", "--input", "/nonexistent.csv")
    assert code == 1


@pytest.mark.parametrize("text,flags", [("", ()), ("x,y\n", ("--header",))])
def test_entropy_without_data_prints_one_line(capsys, tmp_path, text, flags):
    # numpy warns about a file without data rows; with warnings turned into
    # errors, that warning would escape main
    path = tmp_path / "samples.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, "entropy", "--input", str(path), *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("rdrisk: domain error: ") and err.count("\n") == 1


def test_csv_float_full_precision(capsys):
    _, out, _ = run_cli(capsys, "bounds", "--family", "categorical",
                        "--gamma", "1,1", "--n-grid", "100")
    _, rows = parse_csv(out)
    text = rows[0]["rd_lower_risk"]
    from rdrisk.categorical import DirichletPrior, bayes_risk_lower

    assert float(text) == bayes_risk_lower(100, DirichletPrior((1.0, 1.0)), 1.0)


def test_commands_run_without_scipy(tmp_path):
    # In a fresh interpreter where any scipy import raises, entropy, simulate
    # and compare exit 0, and entropy prints the estimate that cKDTree's
    # neighbor distances give.
    from scipy.spatial import cKDTree

    from rdrisk.specfun import digamma

    path = tmp_path / "samples.csv"
    np.savetxt(path, rng_stream(902, 0).normal(size=(500, 2)), delimiter=",")
    calls = [["entropy", "--input", str(path), "--k", "4"],
             ["simulate", "--family", "zero-error", "--n-grid", "1,10", "--trials", "1000"],
             ["compare", "--family", "zero-error", "--n-grid", "1,10", "--trials", "1000"]]
    code = ("import contextlib, io, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from rdrisk.cli import main\n"
            "seen = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        status = main(argv)\n"
            "    seen.append([status, out.getvalue()])\n"
            "print(json.dumps(seen))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(rdrisk.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code, json.dumps(calls)],
                          capture_output=True, text=True, check=True, env=env)
    seen = json.loads(done.stdout)
    assert [status for status, _ in seen] == [0, 0, 0]
    x = np.loadtxt(path, delimiter=",")
    n, d = x.shape
    log_eps = np.log(2.0 * cKDTree(x).query(x, 5, p=np.inf)[0][:, 4])
    payload = json.loads(seen[0][1])
    assert payload["value"] == digamma(n) - digamma(4) + float(d * log_eps.mean())
    assert payload["stderr"] == float(d * log_eps.std(ddof=1) / np.sqrt(n))


# The package modules each family's CLI calls load: the multinomial model is
# built on the categorical Dirichlet prior.
FAMILY_MODULES = {"categorical": {"rdrisk.categorical"},
                  "multinomial": {"rdrisk.categorical", "rdrisk.multinomial"},
                  "gaussian": {"rdrisk.gaussian"}, "zero-error": {"rdrisk.zero_error"}}


def loaded_by(argv):
    """The modules of rdrisk, numpy, json and dataclasses that one CLI call
    leaves loaded in a fresh interpreter; the call must exit 0."""
    code = ("import contextlib, io, sys\n"
            "from rdrisk.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        status = main(sys.argv[1:])\n"
            "    except SystemExit as exc:\n"
            "        status = exc.code\n"
            "tops = ('rdrisk', 'numpy', 'json', 'dataclasses')\n"
            "print(status, *[m for m in sys.modules if m.partition('.')[0] in tops])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(rdrisk.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, check=True, env=env)
    status, *modules = done.stdout.split()
    assert status == "0", done.stderr
    return set(modules)


def test_each_command_loads_only_its_modules():
    # One fresh interpreter per call.  --version loads no family module, no
    # mc and no json; bounds and the exact and Clarke-Barron mi load their
    # own family's modules only, and neither knn, numpy nor dataclasses;
    # json only where they write JSON.  simulate loads numpy.
    assert loaded_by(["--version"]) == {"rdrisk", "rdrisk.cli", "rdrisk.errors"}
    calls = [(f, ["bounds", "--family", f, *FAMILY_ARGS[f], "--n-grid", "1,5"])
             for f in FAMILY_ARGS]
    calls += [(f, ["mi", "--family", f, *FAMILY_ARGS[f], "--n", "10", "--method", method])
              for f, methods in (("categorical", ["clarke-barron"]),
                                 ("multinomial", ["clarke-barron"]),
                                 ("gaussian", ["exact", "clarke-barron"]),
                                 ("zero-error", ["exact"]))
              for method in methods]
    every_family = set().union(*FAMILY_MODULES.values())
    for family, argv in calls:
        loaded = loaded_by(argv)
        assert loaded & every_family == FAMILY_MODULES[family], argv
        assert not loaded & {"rdrisk.knn", "numpy", "dataclasses"}, argv
        assert ("json" in loaded) == (argv[0] == "mi"), argv
    assert "numpy" in loaded_by(["simulate", "--family", "zero-error", "--n-grid", "1,10",
                                 "--trials", "1000"])


def test_multinomial_compare_zero_components_warn_nothing():
    # gamma 0.01 draws components that are exactly 0 or 1; under -W error a
    # log(0) warning would end the run with a traceback.
    env = dict(os.environ, PYTHONPATH=str(Path(rdrisk.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "rdrisk.cli", "compare",
                           "--family", "multinomial", "--d", "2", "--k", "3",
                           "--gamma", "0.01,0.01", "--n-grid", "10,100", "--trials", "1000",
                           "--seed", "1"], capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert "Warning" not in done.stderr


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                 st.text(alphabet="0123456789.-+eEinfaINFoO ", max_size=8)))
def test_parse_p_property(text):
    try:
        p = _parse_p(text)
    except UsageError:
        return
    assert p >= 1.0  # never nan, never below 1
    if math.isfinite(p):
        assert p == float(text)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.integers(0, 10**6), st.integers(1, 200))
def test_parse_n_grid_log_property(start, span, count):
    stop = start + span
    grid = _parse_n_grid(f"{start}:{stop}:{count}log")
    assert grid[0] == start and grid[-1] == (stop if count > 1 else start)
    assert 1 <= len(grid) <= count
    assert all(b > a for a, b in zip(grid, grid[1:]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-5, 10**9), min_size=1, max_size=20))
def test_parse_n_grid_list_property(values):
    text = ",".join(str(v) for v in values)
    if all(v >= 1 for v in values) and all(b > a for a, b in zip(values, values[1:])):
        assert _parse_n_grid(text) == values
    else:
        with pytest.raises(UsageError):
            _parse_n_grid(text)


FLOAT_MAX_INT = int(sys.float_info.max)


@pytest.mark.parametrize("spec,start,stop", [
    *((f"1:{FLOAT_MAX_INT}:{count}log", 1, FLOAT_MAX_INT) for count in (60, 100, 101, 10000)),
    (f"1:{2**63 - 1}:2log", 1, 2**63 - 1),
    ("3:1000000000000007:30log", 3, 1000000000000007)])
def test_log_grid_runs_from_start_to_stop(capsys, spec, start, stop):
    # No point overflows or rounds past stop, and the curve ends at stop.
    grid = _parse_n_grid(spec)
    assert grid[0] == start and grid[-1] == stop
    assert all(start <= a < b <= stop for a, b in zip(grid, grid[1:]))
    if stop == 2**63 - 1:
        for argv in (("simulate", "--family", "categorical", "--gamma", "1,1", "--trials", "1000"),
                     ("bounds", "--family", "zero-error")):
            code, out, _ = run_cli(capsys, *argv, "--n-grid", spec)
            assert code == 0 and parse_csv(out)[1][-1]["n"] == str(stop)


def test_grid_count_is_capped(capsys):
    code, out, err = run_cli(capsys, "bounds", "--family", "zero-error",
                             "--n-grid", f"1:100:{MAX_GRID_COUNT + 1}log")
    assert code == 1
    assert out == ""
    assert err.startswith("rdrisk: ") and err.count("\n") == 1
    assert len(_parse_n_grid(f"1:100000:{MAX_GRID_COUNT}log")) > 1


@pytest.mark.parametrize("command", ["bounds", "simulate", "mi"])
@pytest.mark.parametrize("d,sigma2", [("0", "1"), ("2", "0"), ("2", "-1"), ("2", "inf"),
                                      ("2", "nan")])
def test_gaussian_parameters_exit_cleanly(capsys, command, d, sigma2):
    argv = [command, "--family", "gaussian", "--d", d, "--sigma2", sigma2, "--n", "10"]
    if command == "simulate":
        argv += ["--trials", "200", "--test-points", "100"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("rdrisk: ") and err.count("\n") == 1


BEYOND_FLOAT = "1" + "0" * 400  # an integer option no float can hold
# A run the machine cannot hold: a sampler stage raises MemoryError, with
# numpy's message, from a monkeypatch, so the test asks for no memory.
OUT_OF_MEMORY = ("simulate", "--family", "categorical", "--gamma", "1,1", "--n", "5",
                 "--trials", "1000")


@pytest.mark.parametrize("argv", [
    # every Gamma draw of some Dirichlet row underflows to 0
    ("simulate", "--family", "categorical", "--gamma", "1e-6,1e-6", "--n-grid", "10",
     "--trials", "1000"),
    ("compare", "--family", "categorical", "--gamma", "1e-3,1e-3", "--n-grid", "10",
     "--trials", "1000"),
    # the Gaussian entropy bound nu overflows to NaN, or pi d sigma2 to inf
    ("bounds", "--family", "gaussian", "--d", "1", "--sigma2", "1e-160", "--n-grid", "10"),
    ("compare", "--family", "gaussian", "--d", "1", "--sigma2", "1e-160", "--n-grid", "10",
     "--trials", "200", "--test-points", "100"),
    ("bounds", "--family", "gaussian", "--d", "1000", "--sigma2", "1e306", "--n", "10"),
    # digamma terms near -1e308 overflow the Dirichlet entropy at
    # (1e-308, 1e-308, 1e-308), the multinomial mutual information there at
    # k = 1, and at k = 3 the multinomial entropy bound of the header, which
    # the pipeline uses;
    # the published X-Bayes bound, printed_bound, overflows at 5e307 (its
    # sum) and at (1e155, 2, 3e158) (its exp)
    ("bounds", "--family", "categorical", "--gamma", "1e-308,1e-308,1e-308", "--n", "10"),
    ("mi", "--family", "categorical", "--gamma", "1e-308,1e-308,1e-308", "--n", "10"),
    ("bounds", "--family", "multinomial", "--d", "3", "--k", "1",
     "--gamma", "1e-308,1e-308,1e-308", "--n", "10"),
    ("bounds", "--family", "multinomial", "--d", "2", "--k", "1", "--gamma", "5e307,5e307",
     "--n", "10"),
    ("bounds", "--family", "categorical", "--gamma", "1e-320,1e-320", "--n", "10"),
    ("bounds", "--family", "multinomial", "--d", "3", "--k", "2", "--gamma", "1e155,2,3e158",
     "--n", "1"),
    ("bounds", "--family", "multinomial", "--d", "3", "--k", "3",
     "--gamma", "1e-308,1e-308,1e-308", "--n", "10"),
    # integer options beyond the float range
    ("bounds", "--family", "zero-error", "--n", BEYOND_FLOAT),
    ("bounds", "--family", "categorical", "--gamma", "1,1", "--n-grid", "1," + BEYOND_FLOAT),
    ("bounds", "--family", "gaussian", "--d", "2", "--sigma2", "1",
     "--n-grid", "1:" + BEYOND_FLOAT + ":3log"),
    ("mi", "--family", "gaussian", "--d", "2", "--sigma2", "1", "--n", BEYOND_FLOAT),
    ("bounds", "--family", "gaussian", "--d", BEYOND_FLOAT, "--sigma2", "1", "--n", "10"),
    ("bounds", "--family", "multinomial", "--d", "2", "--k", BEYOND_FLOAT, "--gamma", "1,1",
     "--n", "10"),
    ("simulate", "--family", "zero-error", "--n", "10", "--trials", "1000",
     "--chunks", BEYOND_FLOAT),
    # the pipeline's D_min = exp((h - mi) / (d - 1) - C_p) overflows where
    # tiny and huge components meet; simulate and compare print the bound too
    ("bounds", "--family", "multinomial", "--d", "5", "--k", "1",
     "--gamma", "1e-20,0.5,1e15,1e15,1e-20", "--n", "10"),
    ("compare", "--family", "multinomial", "--d", "3", "--k", "2",
     "--gamma", "1e200,1e200,1e-300", "--n", "1", "--trials", "200", "--chunks", "4"),
    ("simulate", "--family", "multinomial", "--d", "3", "--k", "100",
     "--gamma", "1.7e308,0.01,1e-308", "--n", "10", "--trials", "200", "--chunks", "4"),
    # more than 2^40 trials, and more than 2^16 Gaussian test points, are
    # rejected before a chunk's arrays pass numpy's index range
    ("simulate", "--family", "zero-error", "--n", "5", "--trials", "1e30"),
    ("compare", "--family", "zero-error", "--n", "5", "--trials", "1e30"),
    ("mi", "--family", "zero-error", "--n", "5", "--method", "monte-carlo",
     "--trials", "1e30"),
    ("simulate", "--family", "gaussian", "--d", "2", "--sigma2", "1", "--n", "5",
     "--trials", "200", "--test-points", "100000000000000"),
    OUT_OF_MEMORY,
])
def test_extreme_parameters_exit_with_one_message(capsys, monkeypatch, argv):
    # an integer option beyond the float range is a usage error
    kind = "error" if BEYOND_FLOAT in "".join(argv) else "domain error"
    if argv == OUT_OF_MEMORY:
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.33 GiB for an array with shape "
                              "(2, 156250000) and data type float64")
        monkeypatch.setattr(categorical, "sample_dirichlet", exhausted)
        kind = "out of memory"
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"rdrisk: {kind}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    # m (1 - m kappa) in the reference lower bound overflows at 5e307
    ("bounds", "--family", "categorical", "--gamma", "5e307,5e307", "--n", "10"),
    # the entropy bound's ln B and psi terms grow like gamma ln gamma and
    # cancel here; summed plainly they gave a bound of 9.2e5
    ("bounds", "--family", "multinomial", "--d", "2", "--k", "1", "--gamma", "1e15,1e15",
     "--n", "10"),
    # k n = 2^63 - 2: the control variate rests on count variances near 1e-19
    ("simulate", "--family", "multinomial", "--d", "2", "--k", "3", "--gamma", "1,1",
     "--n", "3074457345618258602", "--trials", "1000"),
    # the chi-square draws pair at most 8 uniforms and draw the rest per member
    ("simulate", "--family", "gaussian", "--d", "1000000000000", "--sigma2", "1", "--n", "10",
     "--trials", "200", "--test-points", "100"),
], ids=["categorical-huge-kappa", "multinomial-1e15", "multinomial-k-n-max",
        "gaussian-huge-d"])
def test_extreme_parameters_print_finite_rows(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    row = parse_csv(out)[1][0]
    assert all(math.isfinite(float(cell)) for cell in row.values() if cell)
    assert 0.0 <= float(row["rd_lower_risk"]) < 1.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bounds_print_where_the_published_entropy_overflows(capsys, fmt):
    # at (1e300, 1e-300) only the published entropy bound, a header value
    # kept for reporting, is beyond the float range: it is left empty (null
    # in JSON) with a note, and every column prints
    code, out, err = run_cli(capsys, "bounds", "--family", "multinomial", "--d", "2",
                             "--k", "1", "--gamma", "1e300,1e-300", "--n", "10",
                             "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "json":
        payload = json.loads(out)
        meta, row = payload["metadata"], payload["rows"][0]
        assert meta["entropy_lower_printed"] is None
    else:
        meta, rows = parse_csv(out)
        row = {key: float(value) for key, value in rows[0].items() if value}
        assert meta["entropy_lower_printed"] == ""
    assert meta["note"].startswith("entropy_lower_printed is not printed")
    assert float(meta["entropy_lower"]) == pytest.approx(-1e300, rel=1e-12)
    assert row["rd_lower_risk"] == 0.0 and math.isfinite(row["mi"])


@pytest.mark.parametrize("p", ["1", "2", "inf"])
def test_kamath_pair_printed_at_p1_only(capsys, p):
    # the pair bounds the L1 risk; at 1x100 its lower is above its upper
    code, out, _ = run_cli(capsys, "bounds", "--family", "categorical",
                           "--gamma", ",".join(["1"] * 100), "--p", p, "--n", "100")
    assert code == 0
    _, rows = parse_csv(out)
    cells = rows[0]["reference_lower"], rows[0]["reference_upper"]
    if p == "1":
        assert float(cells[0]) > float(cells[1])
    else:
        assert cells == ("", "")


def test_gaussian_bound_at_huge_d(capsys):
    # Gamma((d+1)/2) / Gamma(d/2) ~ sqrt(d/2), so nu tends to
    # ln(8 pi)/2 - sqrt(2/pi) - 3/2 - 2 ln 2 = -2.0721 and printed_bound to
    # exp(nu - 1) = 0.0463; the direct ln Gamma difference overflowed here.
    code, out, err = run_cli(capsys, "bounds", "--family", "gaussian",
                             "--d", "100000000000000000000000", "--sigma2", "1", "--n-grid", "10")
    assert code == 0 and err == ""
    nu = 0.5 * math.log(8 * math.pi) - math.sqrt(2 / math.pi) - 1.5 - 2 * math.log(2)
    assert float(parse_csv(out)[1][0]["printed_bound"]) == pytest.approx(math.exp(nu - 1),
                                                                        rel=1e-12)


def test_bounds_where_partial_sums_overflow(capsys):
    # at (1e-308, 1e-308) the Clarke-Barron terms reach 1e308 and their
    # partial sums leave the float range, while the mutual information is
    # -7.5e307 (mpmath: -7.500000000000001e307); the bound is then 0
    code, out, err = run_cli(capsys, "bounds", "--family", "categorical",
                             "--gamma", "1e-308,1e-308", "--n", "10")
    assert code == 0 and err == ""
    row = parse_csv(out)[1][0]
    assert float(row["mi"]) == pytest.approx(-7.5e307, rel=1e-15)
    assert float(row["rd_lower_risk"]) == 0.0


# categorical and multinomial priors draw each component on its own from
# these, so tiny and huge components meet at M, d >= 3
EDGE_COMPONENTS = ("1e-308", "1e-300", "1e-20", "1e-6", "0.01", "0.5", "1", "3", "1e15",
                   "1e200", "1e308")
EDGE_SIGMA2 = ("1e-160", "1e-300", "5e-324")
# just above the caps, which are checked before any chunk runs
ABOVE_MAX_TRIALS = str(mc.MAX_TRIALS + 1)
ABOVE_MAX_CHUNKS = str(mc.MAX_CHUNKS + 1)
ABOVE_MAX_TEST_POINTS = str(gaussian.MAX_TEST_POINTS + 1)
# (--trials, --chunks) of a Monte-Carlo run: the fewest trials, more, and
# each cap + 1
RUNS = (("100", "4"), ("1000", "4"), (ABOVE_MAX_TRIALS, "4"),
        (ABOVE_MAX_CHUNKS, ABOVE_MAX_CHUNKS))
MI_METHODS = ("exact", "clarke-barron", "monte-carlo")


def often(draw, usual, edges):
    """``usual`` in about two draws of three, else one of ``edges``, so that
    a line with several options still often passes them all."""
    return draw(st.sampled_from(edges)) if draw(st.integers(0, 2)) == 2 else usual


@st.composite
def command_lines(draw):
    """bounds, mi and small simulate and compare command lines at edge parameters."""
    command = draw(st.sampled_from(["bounds", "mi", "simulate", "compare"]))
    family = draw(st.sampled_from(sorted(FAMILY_ARGS)))
    argv = [command, "--family", family]
    if family in ("categorical", "multinomial"):
        m = draw(st.sampled_from([2, 3, 5]))
        argv += ["--gamma", ",".join(draw(st.lists(st.sampled_from(EDGE_COMPONENTS),
                                                   min_size=m, max_size=m)))]
        if family == "multinomial":
            argv += ["--d", str(m), "--k", str(draw(st.integers(1, 10 ** 6)))]
    elif family == "gaussian":
        argv += ["--d", draw(st.sampled_from(["1", "3"])),
                 "--sigma2", often(draw, "1", EDGE_SIGMA2)]
    # 1 is the only order that every family simulates
    p = often(draw, "1", ("2", "inf"))
    if command == "bounds":
        argv += ["--n-grid", str(draw(st.integers(1, 10 ** 9))), "--p", p]
        return command, argv
    trials, chunks = draw(st.sampled_from(RUNS))
    argv += ["--trials", trials, "--chunks", chunks]
    if command == "mi":
        # mostly a method of the family's own, so that its lines run to the end
        own = FAMILIES[family].mi_methods
        foreign = tuple(m for m in MI_METHODS if m not in own)
        argv += ["--n", str(draw(st.integers(1, 10 ** 9))),
                 "--method", often(draw, draw(st.sampled_from(own)), foreign)]
    else:
        argv += ["--n-grid", str(draw(st.integers(1, 1000))), "--p", p]
        if family == "gaussian":
            argv += ["--test-points", draw(st.sampled_from(["100", ABOVE_MAX_TEST_POINTS]))]
    return command, argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command_lines())
def test_exit_code_contract(command_line):
    # No exception escapes main; bad input exits 1 with one message, and a
    # successful run prints only finite numbers (a CSV cell may be empty).
    command, argv = command_line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in ((0, 1, 2) if command == "compare" else (0, 1))
    if code == 1:
        assert out == ""
        assert err.startswith("rdrisk: ") and err.count("\n") == 1
        return
    if command == "mi":
        values = [v for v in json.loads(out).values() if isinstance(v, float)]
    else:
        values = [float(cell) for row in parse_csv(out)[1] for cell in row.values() if cell]
    assert values and all(math.isfinite(v) for v in values)


FAMILY_ARGS = {
    "categorical": ("--gamma", "1,2"),
    "multinomial": ("--d", "3", "--k", "2", "--gamma", "1,1,1"),
    "gaussian": ("--d", "2", "--sigma2", "1"),
    "zero-error": (),
}
SIMULATE_ARGS = {
    "categorical": ("--trials", "1000", "--chunks", "4"),
    "multinomial": ("--trials", "1000", "--chunks", "4"),
    "gaussian": ("--trials", "200", "--chunks", "4", "--test-points", "100"),
    "zero-error": ("--trials", "1000", "--chunks", "4"),
}
HEADER_KEYS = {
    "categorical": ["gamma", "mi_method", "bound_variants"],
    "multinomial": ["gamma", "d", "k", "mi_method", "bound_variants", "entropy_lower",
                    "entropy_lower_printed"],
    "gaussian": ["d", "sigma2", "test_points", "mi_method", "bound_variants"],
    "zero-error": ["mi_method", "simulated_units", "reference_upper"],
}
# bounds simulates nothing, so its header omits the keys about the simulation
BOUNDS_HEADER_KEYS = {
    **HEADER_KEYS,
    "gaussian": ["d", "sigma2", "mi_method", "bound_variants"],
    "zero-error": ["mi_method", "reference_upper"],
}


@pytest.mark.parametrize("command", ["bounds", "simulate"])
@pytest.mark.parametrize("family", sorted(FAMILY_ARGS))
def test_header_key_order(capsys, family, command):
    argv = [command, "--family", family, *FAMILY_ARGS[family], "--n-grid", "1,5"]
    if command == "simulate":
        argv += SIMULATE_ARGS[family]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    keys = [line[2:].partition("=")[0] for line in out.splitlines() if line.startswith("# ")]
    common = ["tool", "version", "command", "family", "p", "n_grid"]
    if command == "simulate":
        common += ["seed", "trials", "chunks", "sampler_version", "numpy"]
    assert keys == common + (HEADER_KEYS if command == "simulate" else BOUNDS_HEADER_KEYS)[family]


@pytest.mark.parametrize("family", sorted(FAMILY_ARGS))
def test_every_family_simulates_from_100_trials(capsys, family):
    argv = ["simulate", "--family", family, *FAMILY_ARGS[family], "--n", "5", "--chunks", "4"]
    if family == "gaussian":
        argv += ["--test-points", "100"]
    code, out, err = run_cli(capsys, *argv, "--trials", "100")
    assert (code, err) == (0, "") and "\n# trials=100\n" in out
    assert run_cli(capsys, *argv, "--trials", "99") == (
        1, "", "rdrisk: domain error: trials must be >= 100, got 99\n")


# Attributes of each family module that the per-layer trace (bench/layers.py)
# wraps: the bound function called once per curve row, and the simulator.
ROW_FUNCTIONS = {"categorical": "bayes_risk_lower", "multinomial": "xbayes_risk_lower",
                 "gaussian": "bayes_risk_lower_l1", "zero-error": "risk_lower_l1"}
SIMULATORS = {"categorical": "simulate_bayes_risk",
              "multinomial": "simulate_interpolation_risk",
              "gaussian": "simulate_bayes_risk", "zero-error": "simulate_estimator_risk"}


@pytest.mark.parametrize("command", ["bounds", "simulate"])
@pytest.mark.parametrize("family", sorted(FAMILY_ARGS))
def test_module_functions_called_once_per_row(capsys, monkeypatch, family, command):
    module = importlib.import_module("rdrisk." + family.replace("-", "_"))
    calls = {}

    def counting(name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(ROW_FUNCTIONS[family])
    counting(SIMULATORS[family])
    argv = [command, "--family", family, *FAMILY_ARGS[family], "--n-grid", "1,5,20"]
    if command == "simulate":
        argv += SIMULATE_ARGS[family]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = 3
    assert calls.get(ROW_FUNCTIONS[family]) == rows
    assert calls.get(SIMULATORS[family], 0) == (0 if command == "bounds" else rows)


# The sampler stages each simulator calls through its module's attributes,
# with the calls per chunk, by family and --p: the trace wraps these
# attributes by name, so a simulator that bound one of them locally would
# hide its calls.  Categorical p = 1 takes the posterior MAD of the counts,
# other p (but 2) the inner loss.
SAMPLER_STAGES = {
    "categorical": ("1", {"sample_dirichlet": 1, "sample_multinomial": 1, "beta_mad": 1,
                          "inner_loss": 0}),
    "categorical-p3": ("3", {"sample_dirichlet": 1, "sample_multinomial": 1, "beta_mad": 0,
                             "inner_loss": 1}),
    "multinomial": ("1", {"sample_dirichlet": 1, "sample_multinomial": 2}),
}


@pytest.mark.parametrize("case", sorted(SAMPLER_STAGES))
def test_sampler_stages_called_through_module_attributes(capsys, monkeypatch, case):
    family = case.partition("-")[0]
    p, stages = SAMPLER_STAGES[case]
    module = importlib.import_module("rdrisk." + family)
    calls = dict.fromkeys(stages, 0)

    def counting(name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in calls:
        counting(name)
    code, _, _ = run_cli(capsys, "simulate", "--family", family, *FAMILY_ARGS[family],
                         "--p", p, "--n-grid", "1,5,20", "--trials", "1000", "--chunks", "4")
    assert code == 0
    chunks = 3 * 4  # 3 rows of 4 chunks
    assert calls == {name: per * chunks for name, per in stages.items()}


@pytest.mark.parametrize("argv", [
    ("simulate", "--family", "categorical", "--gamma", "1,1", "--p", "1",
     "--n", "9223372036854775808", "--trials", "100"),
    ("compare", "--family", "categorical", "--gamma", "1,1", "--p", "inf",
     "--n", "9223372036854775808", "--trials", "100"),
    ("simulate", "--family", "multinomial", "--d", "2", "--k", "45000000000000000",
     "--gamma", "1,1", "--n", "1000", "--trials", "1000"),
    ("simulate", "--family", "multinomial", "--d", "2", "--k", "3",
     "--gamma", "1,1", "--n", "9223372036854775807", "--trials", "1000"),
], ids=["categorical-simulate-p1", "categorical-compare-pinf", "multinomial-k-wraps",
        "multinomial-k-n-negative"])
def test_rejects_counts_beyond_int64(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("rdrisk: ") and err.count("\n") == 1 and "2^63 - 1" in err


@pytest.mark.parametrize("gamma,n_grid", [("1,1e-20", "1,10"), ("1,1e-20,1e-20", "1,10"),
                                          ("1,1", "9223372036854775807")])
def test_categorical_l1_keeps_tiny_and_huge_posteriors_finite(capsys, gamma, n_grid):
    # b_i = g0 - g_i + n - c_i, formed as (fsum of the other gammas) + (n - c_i
    # in int64): gamma0 - 1 rounds to 0 at gamma (1, 1e-20), and
    # (gamma0 + n) - a_i rounds badly at n = 2^63 - 1
    code, out, err = run_cli(capsys, "simulate", "--family", "categorical", "--gamma", gamma,
                             "--n-grid", n_grid, "--trials", "1000")
    assert code == 0, err
    for row in parse_csv(out)[1]:
        assert 0.0 < float(row["simulated_mean"]) < math.inf


@pytest.mark.parametrize("command", ["bounds", "mi", "compare"])
@pytest.mark.parametrize("d,gamma", [("2", "1,1e-20"), ("3", "1,1e-17,1e-17")])
def test_multinomial_tiny_components_stay_finite(capsys, command, d, gamma):
    # gamma0 - gamma_1 rounds to 0 next to the tiny components; it enters
    # ln B and psi as the fsum of the other components instead
    argv = [command, "--family", "multinomial", "--d", d, "--k", "2", "--gamma", gamma]
    argv += ["--n", "10"] if command == "mi" else ["--n-grid", "10,100"]
    if command == "compare":
        argv += ["--trials", "1000"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    if command == "mi":
        assert math.isfinite(json.loads(out)["value"])
        return
    meta, rows = parse_csv(out)
    assert math.isfinite(float(meta["entropy_lower"]))
    assert math.isfinite(float(meta["entropy_lower_printed"]))
    cells = [row[c] for row in rows for c in ("rd_lower_risk", "printed_bound", "mi")]
    assert all(math.isfinite(float(cell)) for cell in cells)
    if command == "compare":
        assert meta["violations"] == "0"
        assert all(math.isfinite(float(row["simulated_mean"])) for row in rows)


def test_categorical_l2_accepts_n_beyond_int64(capsys):
    # p = 2 draws no counts
    code, out, _ = run_cli(capsys, "simulate", "--family", "categorical", "--gamma", "1,1",
                           "--p", "2", "--n", "9223372036854775808", "--trials", "100")
    assert code == 0
    assert float(parse_csv(out)[1][0]["simulated_mean"]) > 0


@pytest.mark.parametrize("n", [10 ** 200, int(1.5e308), 2**63 - 1])
@pytest.mark.parametrize("family", [("categorical", "--gamma", "1,1", "--p", "2"),
                                    ("categorical", "--gamma", ",".join(["1"] * 100), "--p", "2"),
                                    ("zero-error",)])
def test_simulate_at_n_beyond_squared_float_range(capsys, family, n):
    # (gamma0 + n)^2 overflows a float and the trial values are near 1/n,
    # whose squared deviations underflow unscaled; near the top of the
    # float range the trial sum over 100 categories divided by the squared
    # mantissa of gamma0 + n alone would overflow.  At n = 2^63 - 1, the
    # largest count, the trials must still spread.
    code, out, err = run_cli(capsys, "simulate", "--family", *family,
                             "--n", str(n), "--trials", "1000")
    assert code == 0, err
    row = parse_csv(out)[1][0]
    assert float(row["simulated_mean"]) > 0
    assert float(row["simulated_stderr"]) > 0
