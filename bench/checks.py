"""Output checks for the benchmark's CLI calls.

A call passes when it exits 0, its output parses, every emitted float is
finite, `compare` reports no violation, and the simulated values that have
an exact law lie within 4 stderr of it:

* zero-error simulate/compare: E|theta - midpoint| = 1 / (2(n+2));
* zero-error mi monte-carlo: H_{n+1} - 1;
* categorical at p = 2: sqrt(sum_i g_i (g0 - g_i) / (g0 (g0 + 1) (g0 + n))),
  the posterior-mean rule's exact L2 risk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from workloads import ENTROPY_SAMPLES, Call

Z_LIMIT = 4.0


@dataclass
class Outcome:
    """What one call produced, as far as the metrics need it."""

    problems: list[str] = field(default_factory=list)
    # (trials, mean, stderr) per simulated row, for time_to_1pct_s.
    simulated: list[tuple[int, float, float]] = field(default_factory=list)
    violations: int | None = None


def _number(text: str | None) -> float | None:
    return None if text in (None, "") else float(text)


def parse_curve(text: str, fmt: str) -> tuple[dict, list[dict]]:
    """(metadata, rows) of a curve in the CLI's CSV or JSON format."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["metadata"], doc["rows"]
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append({k: _number(v) for k, v in zip(header, line.split(","))})
    return meta, rows


def _harmonic(n: int) -> float:
    return math.fsum(1.0 / i for i in range(1, n + 1))


def _categorical_l2_law(gamma: list[float], n: int) -> float:
    g0 = math.fsum(gamma)
    return math.sqrt(math.fsum(g * (g0 - g) for g in gamma) / (g0 * (g0 + 1.0) * (g0 + n)))


def _z_check(out: Outcome, label: str, value: float, stderr: float, law: float) -> None:
    if not abs(value - law) <= Z_LIMIT * stderr:
        out.problems.append(f"{label}: {value!r} is not within {Z_LIMIT} x {stderr!r} "
                            f"of {law!r}")


def _check_curve(call: Call, text: str, out: Outcome, probe: bool) -> None:
    meta, rows = parse_curve(text, call.option("format", "csv"))
    grid = call.option("n-grid")
    if ":" not in grid and len(rows) != len(grid.split(",")):
        out.problems.append(f"expected {len(grid.split(','))} rows, got {len(rows)}")
    if not rows:
        out.problems.append("no rows")
    for row in rows:
        for key, value in row.items():
            if value is not None and not math.isfinite(value):
                out.problems.append(f"n={row['n']}: {key} is not finite: {value!r}")
    if call.command == "bounds":
        return
    family = call.option("family")
    trials = int(float(call.option("trials")))
    for row in rows:
        n, mean, stderr = int(row["n"]), row["simulated_mean"], row["simulated_stderr"]
        if mean is None or stderr is None:
            out.problems.append(f"n={n}: no simulated value")
            continue
        out.simulated.append((trials, mean, stderr))
        if family == "zero-error":
            _z_check(out, f"n={n}", mean, stderr, 1.0 / (2.0 * (n + 2)))
        elif family == "categorical" and float(call.option("p", "1")) == 2.0:
            gamma = [float(g) for g in call.option("gamma").split(",")]
            _z_check(out, f"n={n}", mean, stderr, _categorical_l2_law(gamma, n))
    if call.command == "compare":
        out.violations = int(meta["violations"])
        if out.violations and not probe:
            out.problems.append(f"compare reported {out.violations} violation(s)")


def _check_scalar(call: Call, text: str, out: Outcome) -> None:
    doc = json.loads(text)
    value = float(doc["value"])
    if not math.isfinite(value):
        out.problems.append(f"value is not finite: {value!r}")
    if call.command == "entropy" and doc["samples"] != ENTROPY_SAMPLES:
        out.problems.append(f"entropy used {doc['samples']} of {ENTROPY_SAMPLES} samples")
    if call.option("method") == "monte-carlo":
        trials, stderr = int(float(call.option("trials"))), float(doc["stderr"])
        out.simulated.append((trials, value, stderr))
        n = int(call.option("n"))
        _z_check(out, f"mi n={n}", value, stderr, _harmonic(n + 1) - 1.0)


def check(call: Call, exit_code: int, text: str, probe: bool = False) -> Outcome:
    """Check one call's exit code and output text (stdout or --output file).

    A ``probe`` is a compare run expected to violate: its violation count
    is the result, so violations and the matching exit code 2 pass.
    """
    out = Outcome()
    try:
        if call.command in ("bounds", "simulate", "compare"):
            _check_curve(call, text, out, probe)
        else:
            _check_scalar(call, text, out)
    except (ValueError, KeyError, TypeError) as exc:
        out.problems.append(f"unparseable output: {type(exc).__name__}: {exc}")
    expected_exit = 2 if probe and out.violations else 0
    if exit_code != expected_exit:
        out.problems.insert(0, f"exit code {exit_code}, expected {expected_exit}")
    return out
