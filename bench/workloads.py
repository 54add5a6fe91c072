"""The benchmark's workloads: seeded `rdrisk` command lists.

Each workload is a fixed list of CLI calls.  The workload seed picks the
`--seed` of every simulating call and the samples of the `entropy` input,
so one seed always gives the same inputs and the same output bytes.

* large-n: few long calls at n = 100..1000, where the per-trial training
  set (O(n) per trial) does most of the work.
* many-trials: few long calls with 2e3..1e6 trials at small n, where the
  Dirichlet/multinomial draws, the Gaussian test-point loss and the chunk
  reduction do most of the work.
* cli-sweep: many short single-thread calls over every subcommand and
  family, where import and per-call set-up dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("large-n", "many-trials", "cli-sweep")

ENTROPY_SAMPLES = 20000
LOG_GRID_12 = "10:10000000:12log"
LOG_GRID_24 = "10:10000000:24log"


def ones(count: int) -> str:
    return ",".join(["1"] * count)


@dataclass(frozen=True)
class Call:
    """One CLI call: its arguments and where its output lands.

    ``output`` is the file named by ``--output`` (relative to the run's
    work directory), or None when the call writes to stdout.
    """

    argv: tuple[str, ...]
    output: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, name: str, default: str | None = None) -> str | None:
        flag = "--" + name
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return default

    @property
    def simulated_trials(self) -> int:
        """Trials x rows the call simulates (simulating grids are explicit lists)."""
        if self.command in ("simulate", "compare"):
            return int(float(self.option("trials"))) * len(self.option("n-grid").split(","))
        if self.option("method") == "monte-carlo":
            return int(float(self.option("trials")))
        return 0

    def with_threads(self, threads: int) -> "Call":
        argv = list(self.argv)
        argv[argv.index("--threads") + 1] = str(threads)
        return Call(tuple(argv), self.output)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    threads: int
    # Index of the call whose output is re-made at another thread count.
    determinism_call: int


def _call(*argv, output: str | None = None) -> Call:
    args = [str(a) for a in argv]
    if output is not None:
        args += ["--output", output]
    return Call(tuple(args), output)


def write_inputs(seed: int, workdir: Path) -> None:
    """The `entropy` inputs: a correlated 3-D Gaussian sample, written with
    and without a header row."""
    rng = np.random.default_rng([seed, 3])
    mix = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.2, -0.3, 0.7]])
    x = rng.standard_normal((ENTROPY_SAMPLES, 3)) @ mix.T
    body = "\n".join(",".join(repr(float(v)) for v in row) for row in x) + "\n"
    (workdir / "samples.csv").write_text(body, encoding="utf-8")
    (workdir / "samples_header.csv").write_text("x,y,z\n" + body, encoding="utf-8")


def _large_n(seed: int, threads: int) -> Workload:
    base = 1000 * seed  # per-call --seed values
    t = ("--threads", threads)
    calls = (
        _call("compare", "--family", "zero-error", "--n-grid", "100,1000",
              "--trials", "1e5", "--seed", base + 0, *t),
        _call("mi", "--family", "zero-error", "--n", 1000, "--method", "monte-carlo",
              "--trials", "1e5", "--seed", base + 1, *t),
        _call("compare", "--family", "gaussian", "--d", 16, "--sigma2", 1,
              "--n-grid", "100,1000", "--trials", 2000, "--test-points", 100,
              "--seed", base + 2, *t),
    )
    return Workload("large-n", calls, threads, determinism_call=2)


def _many_trials(seed: int, threads: int) -> Workload:
    base = 1000 * seed  # per-call --seed values
    t = ("--threads", threads)
    calls = (
        _call("simulate", "--family", "categorical", "--gamma", ones(100), "--p", 2,
              "--n-grid", "10,1000", "--trials", "5e4", "--seed", base + 0, *t),
        _call("compare", "--family", "multinomial", "--d", 20, "--k", 3,
              "--gamma", ones(20), "--n-grid", "10,1000", "--trials", "1e5",
              "--seed", base + 1, *t),
        _call("simulate", "--family", "gaussian", "--d", 4, "--sigma2", 1,
              "--n-grid", "1,10", "--trials", 2000, "--test-points", 1000,
              "--seed", base + 2, *t),
        _call("compare", "--family", "zero-error", "--n-grid", "1,2,5",
              "--trials", "1e6", "--seed", base + 3, *t),
    )
    return Workload("many-trials", calls, threads, determinism_call=3)


def _cli_sweep(seed: int) -> Workload:
    base = 1000 * seed  # per-call --seed values
    t = ("--threads", 1)
    cat = ("--family", "categorical")
    mult5 = ("--family", "multinomial", "--d", 5, "--k", 3, "--gamma", ones(5))
    mult20 = ("--family", "multinomial", "--d", 20, "--k", 3, "--gamma", ones(20))
    gauss4 = ("--family", "gaussian", "--d", 4, "--sigma2", 1)
    zero = ("--family", "zero-error")
    determinism = _call("simulate", *cat, "--gamma", "0.5,2,3", "--p", 2,
                        "--n-grid", "1,10,100", "--trials", "1e4", "--seed", base + 1, *t)
    calls = (
        # bounds: 12- and 24-point log grids up to n = 1e7
        _call("bounds", *cat, "--gamma", "1,1", "--n-grid", LOG_GRID_12),
        _call("bounds", *cat, "--gamma", "0.5,2,3", "--p", 2, "--n-grid", LOG_GRID_24,
              "--format", "json"),
        _call("bounds", *cat, "--gamma", ones(10), "--p", "inf", "--n-grid", LOG_GRID_12,
              output="b_cat_inf.csv"),
        _call("bounds", *cat, "--gamma", ones(100), "--n-grid", LOG_GRID_24,
              "--format", "json", output="b_cat_100.json"),
        _call("bounds", *mult5, "--n-grid", LOG_GRID_12),
        _call("bounds", *mult20, "--n-grid", LOG_GRID_24, "--format", "json",
              output="b_mult_20.json"),
        _call("bounds", "--family", "multinomial", "--d", 3, "--k", 1,
              "--gamma", "0.5,1,2", "--p", 2, "--n-grid", LOG_GRID_12, output="b_mult_3.csv"),
        _call("bounds", *gauss4, "--n-grid", LOG_GRID_12),
        _call("bounds", "--family", "gaussian", "--d", 16, "--sigma2", 0.5,
              "--n-grid", LOG_GRID_24, "--format", "json"),
        _call("bounds", "--family", "gaussian", "--d", 64, "--sigma2", 2,
              "--n-grid", LOG_GRID_12, output="b_gauss_64.csv"),
        _call("bounds", *zero, "--n-grid", LOG_GRID_12),
        _call("bounds", *zero, "--n-grid", LOG_GRID_24, "--format", "json"),
        _call("bounds", *zero, "--n-grid", LOG_GRID_24, output="b_zero_24.csv"),
        _call("bounds", *zero, "--n-grid", LOG_GRID_12, "--format", "json",
              output="b_zero_12.json"),
        # mi: exact, clarke-barron and a short monte-carlo run
        _call("mi", "--family", "gaussian", "--n", 1000, "--d", 4, "--sigma2", 1),
        _call("mi", "--family", "gaussian", "--n", 1000000, "--d", 16, "--sigma2", 1,
              "--method", "clarke-barron"),
        _call("mi", *zero, "--n", 10000000),
        _call("mi", *zero, "--n", 100, output="mi_zero_100.json"),
        _call("mi", *cat, "--gamma", "1,1", "--n", 100),
        _call("mi", *cat, "--gamma", ones(100), "--n", 1000000, output="mi_cat_100.json"),
        _call("mi", *mult5, "--n", 1000),
        _call("mi", *mult20, "--n", 100000, output="mi_mult_20.json"),
        _call("mi", *zero, "--n", 100, "--method", "monte-carlo", "--trials", "1e4",
              "--seed", base + 0, *t),
        # entropy on the seeded 20000 x 3 sample
        _call("entropy", "--input", "samples.csv", "--k", 4),
        _call("entropy", "--input", "samples.csv", "--k", 2, output="entropy_k2.json"),
        _call("entropy", "--input", "samples.csv", "--k", 8),
        _call("entropy", "--input", "samples_header.csv", "--header", "--k", 4),
        # simulate / compare at <= 1e4 trials
        determinism,
        _call("simulate", *cat, "--gamma", "1,1", "--n-grid", "10,100", "--trials", "1e4",
              "--seed", base + 2, "--format", "json", *t, output="sim_cat.json"),
        _call("simulate", *mult5, "--n-grid", "10,100", "--trials", "1e4",
              "--seed", base + 3, *t),
        _call("simulate", *gauss4, "--n-grid", "10,100", "--trials", 1000,
              "--test-points", 100, "--seed", base + 4, "--format", "json", *t),
        _call("simulate", "--family", "gaussian", "--d", 2, "--sigma2", 0.5,
              "--n-grid", "1,10", "--trials", 1000, "--test-points", 100,
              "--seed", base + 5, *t, output="sim_gauss_2.csv"),
        _call("simulate", *zero, "--n-grid", "1,10,100", "--trials", "1e4",
              "--seed", base + 6, *t, output="sim_zero.csv"),
        _call("simulate", *zero, "--n-grid", "5,50", "--trials", "1e4", "--seed", base + 7,
              "--format", "json", *t),
        _call("compare", *cat, "--gamma", "1,1", "--n-grid", "10,100,1000",
              "--trials", "1e4", "--seed", base + 8, *t),
        _call("compare", *cat, "--gamma", "2,2,2", "--n-grid", "10,100", "--trials", "1e4",
              "--seed", base + 9, "--format", "json", *t, output="cmp_cat.json"),
        _call("compare", *mult5, "--n-grid", "10,100", "--trials", "1e4",
              "--seed", base + 10, "--format", "json", *t),
        _call("compare", *gauss4, "--n-grid", "10,100,1000", "--trials", 1000,
              "--test-points", 100, "--seed", base + 11, *t),
        _call("compare", *zero, "--n-grid", "1,10,100,1000", "--trials", "1e4",
              "--seed", base + 12, "--format", "json", *t),
        _call("compare", *zero, "--n-grid", "2,20", "--trials", "1e4", "--seed", base + 13,
              *t, output="cmp_zero.csv"),
    )
    return Workload("cli-sweep", calls, 1, determinism_call=calls.index(determinism))


def build(name: str, seed: int, threads: int) -> Workload:
    """The workload ``name`` for ``seed``; long calls run at ``threads``."""
    if name == "large-n":
        return _large_n(seed, threads)
    if name == "many-trials":
        return _many_trials(seed, threads)
    if name == "cli-sweep":
        return _cli_sweep(seed)
    raise ValueError(f"unknown workload {name!r}")


def small_n_probe(seed: int, threads: int) -> tuple[Call, ...]:
    """compare runs at small n where the Clarke-Barron bound is known to fail.

    The asymptotic mutual information is negative there, so the inverted
    "lower bound" exceeds the simulated risk.  The benchmark reports the
    violation count; it is not a failed call.
    """
    t = ("--threads", threads)
    return (
        _call("compare", "--family", "categorical", "--gamma", ones(100), "--p", 2,
              "--n-grid", "10,30,100,300,1000", "--trials", 2000,
              "--seed", 1000 * seed + 900, *t),
        _call("compare", "--family", "categorical", "--gamma", ones(10),
              "--n-grid", "1,2,3,5,10", "--trials", 2000, "--seed", 1000 * seed + 901, *t),
    )

