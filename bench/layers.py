"""Per-layer timings of rdrisk: the benchmark's traced, in-process run.

The benchmark process imports the checkout's `rdrisk` and replaces, in its
own memory only, the module attributes through which each layer is called
with wrappers that record spans (name, start, end, parent, call id):

* cli:         one span per `rdrisk.cli.main(argv)` call;
* bounds:      the family bound functions as `cli` calls them (rdcore and
               specfun are reached through these);
* families:    the simulate functions as `cli` calls them;
* mc:          `mc_mean` as each family imported it, with its sampler
               wrapped so that every chunk is a span (parented explicitly:
               pool threads do not inherit the caller's span);
* sim_common:  `sample_dirichlet`, `sample_multinomial`, `inner_loss` as
               `categorical` and `multinomial` imported them;
* knn:         the `knn` functions as `cli` calls them.

Nothing under `src/` changes.  Part A runs the workload's own calls to
warm up, then untraced, traced and untraced again, for the cli/mc span
totals and the tracing overhead.  Part B measures per-unit costs that do not depend on the
workload (import, bound rows, samplers per trial, chunk overhead, thread
scaling, k-NN entropy); stages that are inline numpy inside a sampler are
found by differencing direct calls to the public simulators.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
import workloads
from workloads import Call, Workload

BOUND_FUNCTIONS = {
    "categorical": ("bayes_risk_lower", "reference_risk_lower", "mutual_information",
                    "kamath_bounds"),
    "multinomial": ("xbayes_risk_lower", "reference_risk_lower", "mutual_information",
                    "entropy_lower", "reference_entropy_lower_printed"),
    "gaussian": ("bayes_risk_lower_l1", "mutual_information_exact", "mutual_information_cb"),
    "zero_error": ("risk_lower_l1", "mutual_information_exact", "estimator_risk_rederived"),
}
# The bound function `cli` calls once per curve row.
ROW_FUNCTIONS = {"categorical": "bayes_risk_lower", "multinomial": "xbayes_risk_lower",
                 "gaussian": "bayes_risk_lower_l1", "zero_error": "risk_lower_l1"}
SIMULATORS = {"categorical": ("simulate_bayes_risk",),
              "multinomial": ("simulate_interpolation_risk",),
              "gaussian": ("simulate_bayes_risk",),
              "zero_error": ("simulate_estimator_risk", "mi_monte_carlo")}
SIM_COMMON = {"categorical": ("sample_dirichlet", "sample_multinomial", "inner_loss"),
              "multinomial": ("sample_dirichlet", "sample_multinomial")}
SIM_COMMON_ROWS = {
    "sample_dirichlet": lambda gamma, rng, size=None: 1 if size is None else int(size),
    "sample_multinomial": lambda n, theta, rng: len(theta) if np.ndim(theta) == 2 else 1,
    "inner_loss": lambda p, w_true, w_hat: len(w_true) if np.ndim(w_true) > 1 else 1,
}
KNN_FUNCTIONS = ("load_samples_csv", "knn_entropy_detail")

# Sizes of the Part B probes.
LARGE_N = 1000
PROBE_TRIALS = 20000
GAUSS_TRAIN = dict(d=16, sigma2=1.0, test_points=100, trials=200)
GAUSS_TEST = dict(d=4, sigma2=1.0, trials=1000)
BOUND_GRID = workloads.LOG_GRID_24
BOUND_PROBES = {
    "categorical": ("--family", "categorical", "--gamma", "1,1"),
    "multinomial": ("--family", "multinomial", "--d", "5", "--k", "3",
                    "--gamma", workloads.ones(5)),
    "gaussian": ("--family", "gaussian", "--d", "4", "--sigma2", "1"),
    "zero_error": ("--family", "zero-error"),
}
REPEATS = 3


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    call: int | None
    rows: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; a thread-local stack supplies implicit parents."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._calls = itertools.count(1)
        self._local = threading.local()

    def new_call(self) -> int:
        return next(self._calls)

    @contextlib.contextmanager
    def span(self, name: str, parent: tuple[int, int | None] | None = None,
             call: int | None = None, rows: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        parent_id, call = parent if parent is not None else (None, call)
        me = (next(self._ids), call)
        stack.append(me)
        start = time.perf_counter()
        try:
            yield me
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(me[0], name, start, end, parent_id, call, rows))


def _wrap(tracer: Tracer, fn, name: str, rows=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name, rows=rows(*args, **kwargs) if rows else None):
            return fn(*args, **kwargs)
    return traced


def _wrap_mc_mean(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(sampler, trials, seed, chunks=64, threads=1):
        with tracer.span("mc.mc_mean", rows=int(trials)) as me:
            def chunk(rng, count):
                with tracer.span("mc.chunk", parent=me, rows=int(count)):
                    return sampler(rng, count)
            return fn(chunk, trials, seed, chunks=chunks, threads=threads)
    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer, rd: dict):
    """Wrap the layer boundaries listed in the module docstring."""
    saved = []

    def put(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    for fam, names in BOUND_FUNCTIONS.items():
        for attr in names:
            put(rd[fam], attr, _wrap(tracer, getattr(rd[fam], attr), f"bounds.{fam}.{attr}"))
    for fam, names in SIMULATORS.items():
        for attr in names:
            put(rd[fam], attr, _wrap(tracer, getattr(rd[fam], attr), f"{fam}.{attr}"))
        put(rd[fam], "mc_mean", _wrap_mc_mean(tracer, getattr(rd[fam], "mc_mean")))
    for fam, names in SIM_COMMON.items():
        for attr in names:
            put(rd[fam], attr, _wrap(tracer, getattr(rd[fam], attr), f"sim_common.{attr}",
                                     rows=SIM_COMMON_ROWS[attr]))
    for attr in KNN_FUNCTIONS:
        put(rd["knn"], attr, _wrap(tracer, getattr(rd["knn"], attr), f"knn.{attr}"))
    try:
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = s.duration - covered
    return out


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class InProcess:
    """Runs CLI calls through rdrisk.cli.main in this process."""

    def __init__(self, rd: dict, tracer: Tracer):
        self.main = rd["cli"].main
        self.tracer = tracer
        self.output_bytes = 0  # stdout and --output bytes of every call so far

    def call(self, call: Call, traced: bool = False) -> tuple[int, str]:
        """(exit code, output text) of one call; an exception counts as exit 1."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if traced:
                    with self.tracer.span(f"cli.{call.command}", call=self.tracer.new_call()):
                        code = self.main(list(call.argv))
                else:
                    code = self.main(list(call.argv))
            except Exception:  # a crash is a failed call, reported with its traceback
                traceback.print_exc()
                code = 1
        if code == 1:
            print(f"# stderr of {' '.join(call.argv[:3])}: {err.getvalue()[-2000:]}",
                  file=sys.stderr)
        text = out.getvalue()
        self.output_bytes += len(text.encode())
        if call.output is not None:
            path = Path(call.output)
            self.output_bytes += path.stat().st_size if path.exists() else 0
            text = path.read_text(encoding="utf-8") if path.exists() else ""
        return code, text

    def run_list(self, calls, traced: bool) -> tuple[float, list[tuple[int, str]], int]:
        """(wall seconds, (exit, text) per call, output bytes) of a call list."""
        results, bytes_before = [], self.output_bytes
        start = time.perf_counter()
        for call in calls:
            results.append(self.call(call, traced))
        return time.perf_counter() - start, results, self.output_bytes - bytes_before


class _ImportNode(NamedTuple):
    name: str
    cumulative_us: int
    children: list


def _import_tree(report: str) -> list[_ImportNode]:
    """Roots of the `-X importtime` tree (lines come in post-order)."""
    pending: list[tuple[int, _ImportNode]] = []
    for line in report.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 \
                or not fields[1].strip().isdigit():
            continue
        indent = len(fields[2]) - len(fields[2].lstrip())
        children = [node for depth, node in pending if depth > indent]
        pending = [(depth, node) for depth, node in pending if depth <= indent]
        pending.append((indent, _ImportNode(fields[2].strip(), int(fields[1]), children)))
    return [node for _, node in pending]


def _cumulative_us(nodes: list[_ImportNode], module: str) -> int:
    """Import time of ``module`` and its submodules, each counted once."""
    total = 0
    for node in nodes:
        if node.name == module or node.name.startswith(module + "."):
            total += node.cumulative_us
        else:
            total += _cumulative_us(node.children, module)
    return total


def import_ms(src: Path) -> dict:
    """Cumulative import ms of the set-up layers, from `-X importtime`.

    scipy.special is imported through scipy's lazy loader and prints no
    line of its own, so a package's time is the sum over its outermost
    lines.  A module that `import rdrisk.cli` does not import reads 0.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    targets = {"numpy": "numpy", "scipy_special": "scipy.special",
               "scipy_spatial": "scipy.spatial", "rdrisk": "rdrisk"}
    samples = defaultdict(list)
    for _ in range(REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rdrisk.cli"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        roots = _import_tree(done.stderr)
        for key, module in targets.items():
            samples[key].append(_cumulative_us(roots, module) / 1000.0)
    return {f"setup.import_ms.{k}": (statistics.median(v), "ms") for k, v in samples.items()}


def _import_rdrisk(src: Path) -> dict:
    """The checkout's rdrisk modules by short name."""
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"rdrisk.{name}") for name in
               ("cli", "categorical", "multinomial", "gaussian", "zero_error", "knn", "mc",
                "specfun")}
    where = Path(modules["cli"].__file__).resolve().parent
    if where != (src / "rdrisk").resolve():
        raise RuntimeError(f"imported rdrisk from {where}, not from {src}")
    return modules


def _peak_bytes(fn) -> int:
    """Peak bytes allocated while ``fn`` runs (numpy reports to tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _span_cost_us(calls: int = 20000) -> float:
    """Added cost of one span: a wrapped no-op call minus a plain one."""
    def noop():
        return None
    wrapped = _wrap(Tracer(), noop, "noop")
    plain = _median_time(lambda: [noop() for _ in range(calls)])
    traced = _median_time(lambda: [wrapped() for _ in range(calls)])
    return (traced - plain) / calls * 1e6


def part_a(wl: Workload, runner: InProcess, tracer: Tracer, rd: dict):
    """cli/mc span totals of the workload's own calls, and tracing overhead.

    Returns (metrics, the checked outcome of each traced call).
    """
    runner.run_list(wl.calls, traced=False)  # warm-up: lazy imports, first-use caches
    # Untraced runs on both sides of the traced one, so a steady drift in
    # machine speed cancels out of the difference.
    untraced_1, plain, _ = runner.run_list(wl.calls, traced=False)
    first = len(tracer.spans)
    with instrumented(tracer, rd):
        traced_wall, results, out_bytes = runner.run_list(wl.calls, traced=True)
    spans = tracer.spans[first:]
    untraced_2, _, _ = runner.run_list(wl.calls, traced=False)
    untraced = (untraced_1 + untraced_2) / 2.0
    span_us = _span_cost_us()
    own = self_times(spans)
    cli_spans = [s for s in spans if s.name.startswith("cli.")]
    mc_spans = [s for s in spans if s.name == "mc.mc_mean"]
    chunks = [s for s in spans if s.name == "mc.chunk"]
    row_names = {f"bounds.{fam}.{fn}" for fam, fn in ROW_FUNCTIONS.items()}
    metrics = {
        "cli.self_s": (sum(own[s.id] for s in cli_spans), "s"),
        "cli.calls": (len(cli_spans), "count"),
        "cli.output_bytes": (out_bytes, "B"),
        "bounds.rows": (sum(1 for s in spans if s.name in row_names), "count"),
        "mc.self_s": (sum(own[s.id] for s in mc_spans), "s"),
        "mc.sampler_s": (sum(s.duration for s in chunks), "s"),
        "mc.chunks": (len(chunks), "count"),
        "mc.trials": (sum(s.rows for s in mc_spans), "count"),
        "trace.untraced_s": (untraced, "s"),
        "trace.traced_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced, "s"),
        "trace.overhead_frac": ((traced_wall - untraced) / untraced, "ratio"),
        "trace.spans": (len(spans), "count"),
        "trace.span_cost_us": (span_us, "us"),
        "trace.overhead_est_s": (len(spans) * span_us * 1e-6, "s"),
    }
    outcomes = []
    for call, (code, text), (_, plain_text) in zip(wl.calls, results, plain):
        outcome = checks.check(call, code, text)
        if text != plain_text:
            outcome.problems.append("traced output differs from untraced")
        outcomes.append(outcome)
    return metrics, outcomes


def part_b_traced(rd: dict, runner: InProcess, tracer: Tracer, seed: int) -> dict:
    """Bound rows, categorical/multinomial samplers with their sim_common
    stages, and k-NN entropy, from traced calls on fixed inputs."""
    m = {}
    with instrumented(tracer, rd):
        for fam, opts in BOUND_PROBES.items():
            call = Call(("bounds", *opts, "--n-grid", BOUND_GRID,
                         "--output", "probe_bounds.csv"), "probe_bounds.csv")
            per_row = []
            for _ in range(REPEATS):
                first = len(tracer.spans)
                runner.call(call, traced=True)
                spans = tracer.spans[first:]
                cli_ids = {s.id for s in spans if s.name.startswith("cli.")}
                top = [s for s in spans if s.name.startswith("bounds.") and s.parent in cli_ids]
                rows = sum(1 for s in top if s.name == f"bounds.{fam}.{ROW_FUNCTIONS[fam]}")
                per_row.append(sum(s.duration for s in top) / rows * 1e6)
            m[f"bounds.{fam}.us_per_row"] = (statistics.median(per_row), "us")

        cat, mult = rd["categorical"], rd["multinomial"]
        prior100 = cat.DirichletPrior((1.0,) * 100)
        fam20 = mult.MultinomialFamily(d=20, k=3, prior=cat.DirichletPrior((1.0,) * 20))
        sims = {
            "categorical": lambda: cat.simulate_bayes_risk(
                LARGE_N, prior100, 2.0, PROBE_TRIALS, seed),
            "multinomial": lambda: mult.simulate_interpolation_risk(
                LARGE_N, fam20, PROBE_TRIALS, seed),
        }
        stage_s = defaultdict(lambda: [0.0] * REPEATS)
        stage_rows = defaultdict(int)
        for fam, fn in sims.items():
            per_trial = []
            for rep in range(REPEATS):
                first = len(tracer.spans)
                per_trial.append(_median_time(fn, 1) / PROBE_TRIALS * 1e6)
                for s in tracer.spans[first:]:
                    if s.name.startswith("sim_common."):
                        stage_s[s.name][rep] += s.duration
                        stage_rows[s.name] += s.rows if rep == 0 else 0
            m[f"{fam}.sampler_us_per_trial"] = (statistics.median(per_trial), "us")
        for attr in SIM_COMMON["categorical"]:
            name = f"sim_common.{attr}"
            m[f"{name}_s"] = (statistics.median(stage_s[name]), "s")
            m[f"{name}.rows"] = (stage_rows[name], "count")

        entropy = Call(("entropy", "--input", "samples.csv", "--k", "4"))
        durations, samples = [], 0
        for _ in range(REPEATS):
            first = len(tracer.spans)
            _, text = runner.call(entropy, traced=True)
            durations.append(sum(s.duration for s in tracer.spans[first:]
                                 if s.name == "knn.knn_entropy_detail"))
            samples = json.loads(text)["samples"]
        m["knn.entropy_s"] = (statistics.median(durations), "s")
        m["knn.samples"] = (samples, "count")
    return m


def part_b_direct(rd: dict, runner: InProcess, seed: int) -> dict:
    """Untraced per-unit costs: special functions, the mc harness, thread
    scaling, and the zero-error/gaussian stages found by differencing."""
    m = {"specfun.harmonic_ms_1e7": (
        _median_time(lambda: rd["specfun"].harmonic(10_000_000), 5) * 1e3, "ms")}

    mc = rd["mc"]
    m["mc.rng_stream_us"] = (
        _median_time(lambda: [mc.rng_stream(seed, i) for i in range(2000)]) / 2000 * 1e6, "us")
    m["mc.overhead_us_per_chunk"] = (_median_time(lambda: mc.mc_mean(
        lambda rng, count: np.zeros(count), 1_000_000, seed, chunks=16384)) / 16384 * 1e6, "us")
    # Thread scaling of many-trials commands: the numpy-bound zero-error
    # compare as is, and the categorical simulate (a Python loop of binomial
    # draws per chunk) scaled to 1e4 trials.
    for key, argv in (("", ("compare", "--family", "zero-error", "--n-grid", "1,2,5",
                            "--trials", "1e6")),
                      (".categorical", ("simulate", "--family", "categorical",
                                        "--gamma", workloads.ones(100), "--p", "2",
                                        "--n-grid", "10,1000", "--trials", "1e4"))):
        call = Call((*argv, "--seed", str(seed), "--threads", "1",
                     "--output", "probe_threads.csv"), "probe_threads.csv")
        t1 = _median_time(lambda: runner.call(call))
        t2 = _median_time(lambda: runner.call(call.with_threads(2)))
        m[f"mc.thread1_s{key}"] = (t1, "s")
        m[f"mc.thread2_s{key}"] = (t2, "s")
        m[f"mc.thread_speedup{key}"] = (t1 / t2, "ratio")

    zero, gauss = rd["zero_error"], rd["gaussian"]
    z_n = _median_time(lambda: zero.simulate_estimator_risk(LARGE_N, PROBE_TRIALS, seed))
    z_0 = _median_time(lambda: zero.simulate_estimator_risk(0, PROBE_TRIALS, seed))
    z_mi = _median_time(lambda: zero.mi_monte_carlo(LARGE_N, PROBE_TRIALS, seed))
    m["zero_error.sampler_us_per_trial"] = (z_n / PROBE_TRIALS * 1e6, "us")
    m["zero_error.train_us_per_trial"] = ((z_n - z_0) / PROBE_TRIALS * 1e6, "us")
    m["zero_error.mi_sampler_us_per_trial"] = (z_mi / PROBE_TRIALS * 1e6, "us")
    m["zero_error.bytes_per_trial"] = (_peak_bytes(
        lambda: zero.simulate_estimator_risk(LARGE_N, 2000, seed, chunks=1)) / 2000, "B")

    g, t = GAUSS_TRAIN, GAUSS_TEST
    g_n = _median_time(lambda: gauss.simulate_bayes_risk(
        LARGE_N, g["d"], g["sigma2"], g["trials"], g["test_points"], seed))
    g_0 = _median_time(lambda: gauss.simulate_bayes_risk(
        0, g["d"], g["sigma2"], g["trials"], g["test_points"], seed))
    t_1000 = _median_time(lambda: gauss.simulate_bayes_risk(
        0, t["d"], t["sigma2"], t["trials"], 1000, seed))
    t_100 = _median_time(lambda: gauss.simulate_bayes_risk(
        0, t["d"], t["sigma2"], t["trials"], 100, seed))
    m["gaussian.sampler_us_per_trial"] = (g_n / g["trials"] * 1e6, "us")
    m["gaussian.train_us_per_trial"] = ((g_n - g_0) / g["trials"] * 1e6, "us")
    m["gaussian.test_us_per_trial"] = ((t_1000 - t_100) / t["trials"] * 1e6, "us")
    m["gaussian.bytes_per_trial"] = (_peak_bytes(lambda: gauss.simulate_bayes_risk(
        LARGE_N, g["d"], g["sigma2"], 100, g["test_points"], seed, chunks=1)) / 100, "B")
    return m


def traced_run(wl: Workload, probe: tuple[Call, ...], seed: int, workdir: Path, src: Path,
               spans_path: Path) -> dict:
    """Per-layer metrics for ``wl``; the spans are written to ``spans_path``."""
    rd = _import_rdrisk(src)
    tracer = Tracer()
    runner = InProcess(rd, tracer)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        metrics, outcomes = part_a(wl, runner, tracer, rd)
        metrics |= import_ms(src)
        metrics |= part_b_traced(rd, runner, tracer, seed)
        metrics |= part_b_direct(rd, runner, seed)
        probe_outcomes = [checks.check(call, *runner.call(call), probe=True) for call in probe]
    finally:
        os.chdir(cwd)
    violations = sum(o.violations or 0 for o in probe_outcomes)
    metrics["compare.small_n_violations"] = (violations, "count")

    t0 = min((s.start for s in tracer.spans), default=0.0)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in sorted(tracer.spans, key=lambda s: s.start):
            fh.write(json.dumps({"id": s.id, "name": s.name, "start_s": s.start - t0,
                                 "end_s": s.end - t0, "parent": s.parent, "call": s.call,
                                 "rows": s.rows}) + "\n")
    return {
        "metrics": metrics,
        "attempted": len(outcomes) + len(probe_outcomes),
        "failed": sum(1 for o in outcomes + probe_outcomes if o.problems),
        "small_n_violations": violations,
        "problems": [f"call {i}: {p}" for i, o in enumerate(outcomes) for p in o.problems]
                    + [f"probe: {p}" for o in probe_outcomes for p in o.problems],
        "samples": {"spans": f"{len(tracer.spans)} spans in {spans_path.name}"},
    }
