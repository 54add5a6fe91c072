"""rdrisk benchmark: end-to-end and per-layer timings of the `rdrisk` CLI.

    python3 bench/run.py --workload large-n --seed 1 --seconds 15 --trace 0

Run from a checkout; the benchmark measures that checkout's `src/`
(`python -m rdrisk.cli` with `src` on PYTHONPATH), never an installed copy.

--trace 0 (end to end): one generator process runs the workload's calls
one after another, each in a fresh interpreter, and repeats the whole list
("a pass") until --seconds have elapsed.  Every output is checked (see
checks.py), and after timing one call is re-made at another thread count
and must give the same bytes.  Reported: setup_s, wall_s, trials_per_s,
time_to_1pct_s, call_p50_s, call_p75_s and peak_rss_mb; a call's wall
time is its median over the passes.

--trace 1 (per layer): the calls run in-process through rdrisk.cli.main
with the layers' public functions wrapped in spans (see layers.py).

Both modes print provenance and each metric with its unit, write the
result (and, traced, the spans) under bench/out/, and end with one JSON
line {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import workloads
from workloads import Call, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

SETUP_STARTS = 5
CALL_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "time_to_1pct_s": "s",
    "call_p50_s": "s",
    "call_p75_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Record:
    """One timed call and what its checks found."""

    index: int
    pass_no: int
    wall_s: float
    rss_kb: int
    exit_code: int
    outcome: checks.Outcome = field(repr=False)


class Cli:
    """Runs `python -m rdrisk.cli` in fresh processes, in ``workdir``."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv) -> tuple[int, float, int, bytes]:
        """(exit code, wall seconds, max RSS in KiB, stdout bytes) of one call.

        The wall time runs from just before the process is spawned until it
        has been reaped; RSS is the child's own ru_maxrss from wait4.
        """
        stdout = self.workdir / "stdout.txt"
        with open(stdout, "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "rdrisk.cli", *argv],
                                    cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, 2):  # 2 is a compare violation, checked elsewhere
            tail = (self.workdir / "stderr.txt").read_text(errors="replace")[-2000:]
            print(f"# stderr of {' '.join(argv[:3])}: {tail}", file=sys.stderr)
        return proc.returncode, wall, usage.ru_maxrss, stdout.read_bytes()

    def call(self, call: Call) -> tuple[int, float, int, str]:
        """Like run, with the text the call produced (its --output file, if any)."""
        if call.output is not None:
            (self.workdir / call.output).unlink(missing_ok=True)
        code, wall, rss, stdout = self.run(call.argv)
        if call.output is not None:
            path = self.workdir / call.output
            text = path.read_text(encoding="utf-8") if path.exists() else ""
        else:
            text = stdout.decode("utf-8", errors="replace")
        return code, wall, rss, text


def time_to_1pct(simulated: list[tuple[int, float, float]], trials_per_s: float) -> float:
    """Projected seconds for every row to reach 1 % relative stderr."""
    needed = sum(t * (se / abs(m) / 0.01) ** 2 for t, m, se in simulated if m != 0.0)
    return needed / trials_per_s


def end_to_end(wl: Workload, seconds: float, cli: Cli, probe: tuple[Call, ...]) -> dict:
    cli.run(["--version"])  # writes bytecode; users pay that once, not per call
    # Start-up samples are spread over the run (before every call of a
    # short list, about 8 per pass of a long one, topped up to SETUP_STARTS)
    # so that a slow spell of the machine does not land on all of them.
    setup_every = max(1, len(wl.calls) // 8)
    setup: list[float] = []
    records: list[Record] = []
    first_text: dict[int, str] = {}
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        passes += 1
        for i, call in enumerate(wl.calls):
            if i % setup_every == 0:
                setup.append(cli.run(["--version"])[1])
            code, wall, rss, text = cli.call(call)
            outcome = checks.check(call, code, text)
            if passes == 1:
                first_text[i] = text
            elif text != first_text[i]:
                outcome.problems.append("output bytes differ from pass 1")
            records.append(Record(i, passes, wall, rss, code, outcome))
    while len(setup) < SETUP_STARTS:
        setup.append(cli.run(["--version"])[1])

    # Determinism: the same call at another thread count, same bytes.
    det = wl.calls[wl.determinism_call]
    other = det.with_threads(2 if det.option("threads") == "1" else 1)
    _, _, _, text = cli.call(other)
    if text != first_text[wl.determinism_call]:
        records[wl.determinism_call].outcome.problems.append(
            f"output at --threads {other.option('threads')} differs from "
            f"--threads {det.option('threads')}")

    probe_outcomes = []
    for call in probe:
        code, _, _, text = cli.call(call)
        probe_outcomes.append(checks.check(call, code, text, probe=True))

    # A call's wall is its median over the passes, so one slow pass moves
    # neither the sum nor the percentiles.  The pass-1 outcome carries the
    # simulated rows (every pass makes the same bytes).
    call_wall = [statistics.median(r.wall_s for r in records if r.index == i)
                 for i in range(len(wl.calls))]
    simulating = [i for i, call in enumerate(wl.calls) if call.simulated_trials]
    trials_per_s = (sum(wl.calls[i].simulated_trials for i in simulating)
                    / sum(call_wall[i] for i in simulating))
    rows = [row for r in records[:len(wl.calls)] for row in r.outcome.simulated]
    quart = statistics.quantiles(call_wall, n=4)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(call_wall),
        "trials_per_s": trials_per_s,
        "time_to_1pct_s": time_to_1pct(rows, trials_per_s),
        "call_p50_s": quart[1],
        "call_p75_s": quart[2],
        "peak_rss_mb": max(r.rss_kb for r in records) / 1024.0,
    }
    failed = [r for r in records if r.outcome.problems] + \
        [o for o in probe_outcomes if o.problems]
    return {
        "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "attempted": len(records) + len(probe_outcomes),
        "failed": len(failed),
        "small_n_violations": sum(o.violations or 0 for o in probe_outcomes),
        "samples": {
            "setup_s": f"median of {len(setup)} starts of `rdrisk --version`",
            "wall_s": f"sum over {len(wl.calls)} calls of each call's median over "
                      f"{passes} pass(es)",
            "call_percentiles": f"{len(wl.calls)} calls, each the median of {passes} "
                                f"pass(es); statistics.quantiles n=4",
            "trials_per_s": f"{len(simulating)} simulating calls per pass",
            "time_to_1pct_s": f"{len(rows)} simulated rows",
            "peak_rss_mb": f"max over {len(records)} child processes",
        },
        "problems": [f"call {r.index} pass {r.pass_no}: {p}" for r in records
                     for p in r.outcome.problems]
                    + [f"probe: {p}" for o in probe_outcomes for p in o.problems],
        "calls": [{"index": r.index, "pass": r.pass_no, "wall_s": r.wall_s,
                   "rss_kb": r.rss_kb, "exit": r.exit_code} for r in records],
    }


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rdrisk").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, wl: Workload) -> dict:
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": wl.threads,
        "calls_per_pass": len(wl.calls),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "rdrisk" / "cli.py").is_file():
        print(f"bench: no rdrisk sources at {SRC / 'rdrisk'}; run from a checkout",
              file=sys.stderr)
        return 2

    threads = min(2, len(os.sched_getaffinity(0)))
    wl = workloads.build(args.workload, args.seed, threads)
    probe = workloads.small_n_probe(args.seed, threads)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workloads.write_inputs(args.seed, workdir)

    prov = provenance(args, wl)
    print(f"# rdrisk benchmark {tag}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    if args.trace:
        import layers
        result = layers.traced_run(wl, probe, args.seed, workdir, SRC,
                                   OUT / f"spans-{tag}.jsonl")
    else:
        result = end_to_end(wl, args.seconds, Cli(workdir), probe)
    shutil.rmtree(workdir, ignore_errors=True)

    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    for note, text in result.get("samples", {}).items():
        print(f"# samples {note}: {text}")
    if "compare.small_n_violations" not in result["metrics"]:
        print(f"compare.small_n_violations = {result['small_n_violations']} count")
    print(f"failed_frac = {result['failed'] / result['attempted']!r} ratio "
          f"({result['failed']} of {result['attempted']} calls)")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value!r} {unit}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"provenance": prov, **result}, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
