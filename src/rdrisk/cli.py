"""Command-line surface: evaluate bounds, run simulations, compare them,
and emit CSV/JSON risk curves.

Exit codes: 0 success, 1 usage or domain error, 2 comparison violation.
Outputs carry a metadata header (CSV comment lines / JSON object) and are
byte-identical for a fixed (seed, trials, chunks, sampler_version) at any
thread count; no timestamps are written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from . import __version__, categorical, gaussian, knn, multinomial, zero_error
from .categorical import DirichletPrior
from .errors import DomainError
from .mc import SAMPLER_VERSION
from .multinomial import MultinomialFamily

COLUMNS = ("n", "rd_lower_risk", "printed_bound", "simulated_mean",
           "simulated_stderr", "mi", "reference_lower", "reference_upper")

FAMILIES = ("categorical", "multinomial", "gaussian", "zero-error")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_p(text: str) -> float:
    t = text.strip().lower()
    if t in ("inf", "infinity", "oo"):
        return math.inf
    try:
        p = float(t)
    except ValueError:
        raise UsageError(f"invalid loss order: {text!r}") from None
    if p < 1.0:
        raise UsageError(f"loss order must be >= 1 or inf, got {text!r}")
    return p


def _parse_n_grid(text: str) -> list[int]:
    """Explicit list '10,100,1000' or geometric 'start:stop:COUNTlog'."""
    t = text.strip()
    if ":" in t:
        parts = t.split(":")
        if len(parts) != 3 or not parts[2].lower().endswith("log"):
            raise UsageError(f"grid spec must be start:stop:countlog, got {text!r}")
        try:
            start, stop = int(parts[0]), int(parts[1])
            count = int(parts[2][:-3])
        except ValueError:
            raise UsageError(f"invalid grid spec: {text!r}") from None
        if start < 1 or stop < start or count < 1:
            raise UsageError(f"grid needs 1 <= start <= stop and count >= 1: {text!r}")
        ratio = (stop / start) ** (1.0 / max(count - 1, 1))
        values = sorted({int(round(start * ratio ** i)) for i in range(count)})
        return [v for v in values if v >= 1]
    try:
        values = [int(v) for v in t.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"invalid n grid: {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise UsageError("n values must be positive integers")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise UsageError("n values must be strictly increasing")
    return values


def _parse_gamma(text: str) -> tuple[float, ...]:
    try:
        gamma = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise UsageError(f"invalid gamma vector: {text!r}") from None
    if len(gamma) < 2:
        raise UsageError("gamma needs at least 2 components")
    return gamma


def _parse_count(name: str, value) -> int:
    """A whole number >= 1; text such as '1e5' is accepted for --trials."""
    try:
        count = float(value)
    except ValueError:
        raise UsageError(f"invalid --{name}: {value!r}") from None
    if not (math.isfinite(count) and count >= 1 and count.is_integer()):
        raise UsageError(f"--{name} must be a whole number >= 1, got {value!r}")
    return int(count)


def _mc_options(args) -> tuple[int, int, int]:
    """Validated (trials, chunks, threads) of a simulating command."""
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    trials, chunks = _parse_count("trials", args.trials), _parse_count("chunks", args.chunks)
    if chunks > trials:
        raise UsageError(f"--chunks must not exceed --trials, got {chunks} > {trials}")
    return trials, chunks, _parse_count("threads", args.threads)


@dataclass
class RunConfig:
    family: str
    gamma: tuple[float, ...] | None = None
    d: int | None = None
    k: int | None = None
    sigma2: float | None = None
    p: float = 1.0
    n_grid: list[int] = field(default_factory=list)
    trials: int = 10000
    seed: int = 0
    chunks: int = 64
    threads: int = 1
    test_points: int = 1000
    inflate_bound: float = 1.0


def _config(args) -> RunConfig:
    cfg = RunConfig(family=args.family)
    cfg.p = _parse_p(getattr(args, "p", "1"))
    if args.n_grid is None and getattr(args, "n", None) is None:
        raise UsageError("one of --n-grid or --n is required")
    cfg.n_grid = _parse_n_grid(args.n_grid if args.n_grid is not None else args.n)
    for name in ("d", "k", "seed", "test_points"):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, int(getattr(args, name)))
    if hasattr(args, "trials"):
        cfg.trials, cfg.chunks, cfg.threads = _mc_options(args)
    if getattr(args, "sigma2", None) is not None:
        cfg.sigma2 = float(args.sigma2)
    if getattr(args, "gamma", None) is not None:
        cfg.gamma = _parse_gamma(args.gamma)
    if getattr(args, "inflate_bound", None) is not None:
        cfg.inflate_bound = float(args.inflate_bound)

    if cfg.family == "categorical":
        if cfg.gamma is None:
            raise UsageError("--gamma is required for the categorical family")
    elif cfg.family == "multinomial":
        if cfg.gamma is None or cfg.d is None or cfg.k is None:
            raise UsageError("--d, --k and --gamma are required for the "
                             "multinomial family")
        if len(cfg.gamma) != cfg.d:
            raise UsageError(f"gamma must have d={cfg.d} components")
    elif cfg.family == "gaussian":
        if cfg.d is None or cfg.sigma2 is None:
            raise UsageError("--d and --sigma2 are required for the gaussian family")
        if cfg.p != 1.0:
            raise UsageError("the gaussian family provides L1 bounds only")
    elif cfg.family == "zero-error":
        if cfg.p != 1.0:
            raise UsageError("the zero-error family provides L1 bounds only")
    else:
        raise UsageError(f"unknown family {cfg.family!r}")
    return cfg


def _metadata(cfg: RunConfig, command: str) -> dict:
    meta = {
        "tool": "rdrisk",
        "version": __version__,
        "command": command,
        "family": cfg.family,
        "p": "inf" if math.isinf(cfg.p) else cfg.p,
        "n_grid": ",".join(str(n) for n in cfg.n_grid),
        "seed": cfg.seed,
        "trials": cfg.trials,
        "chunks": cfg.chunks,
    }
    if command != "bounds":
        meta["sampler_version"] = SAMPLER_VERSION
    if cfg.gamma is not None:
        meta["gamma"] = ",".join(repr(g) for g in cfg.gamma)
    if cfg.d is not None:
        meta["d"] = cfg.d
    if cfg.k is not None:
        meta["k"] = cfg.k
    if cfg.sigma2 is not None:
        meta["sigma2"] = cfg.sigma2
    if cfg.family == "gaussian":
        meta["test_points"] = cfg.test_points
        meta["mi_method"] = "exact"
        meta["bound_variants"] = ("printed_bound=published form; "
                                  "rd_lower_risk=pipeline (printed/2)")
    elif cfg.family == "zero-error":
        meta["mi_method"] = "exact_harmonic"
        meta["simulated_units"] = "E|theta-thetahat| (half the L1 risk)"
        meta["reference_upper"] = ("midpoint-estimator L1 from the size-biased "
                                   "width, 1/(n+2); published variant 1/(2(n+1))")
    else:
        meta["mi_method"] = "clarke_barron_asymptotic"
        if cfg.family == "multinomial":
            fam = _mult_family(cfg)
            meta["bound_variants"] = ("rd_lower_risk=pipeline; printed_bound="
                                      "published closed form (unbalanced "
                                      "bracket read best-effort)")
            meta["entropy_lower"] = repr(multinomial.entropy_lower(fam))
            meta["entropy_lower_printed"] = repr(
                multinomial.reference_entropy_lower_printed(fam))
        else:
            meta["bound_variants"] = ("rd_lower_risk=pipeline; printed_bound="
                                      "published closed form (equal at p=1,inf)")
    if cfg.inflate_bound != 1.0:
        meta["inflate_bound"] = cfg.inflate_bound
    return meta


def _mult_family(cfg: RunConfig) -> MultinomialFamily:
    return MultinomialFamily(d=cfg.d, k=cfg.k, prior=DirichletPrior(cfg.gamma))


def _bound_row(cfg: RunConfig, n: int) -> dict:
    row = dict.fromkeys(COLUMNS)
    row["n"] = n
    if cfg.family == "categorical":
        prior = DirichletPrior(cfg.gamma)
        row["rd_lower_risk"] = categorical.bayes_risk_lower(n, prior, cfg.p)
        if cfg.p in (1.0, 2.0) or math.isinf(cfg.p):
            row["printed_bound"] = categorical.reference_risk_lower(n, prior, cfg.p)
        row["mi"] = categorical.mutual_information(n, prior)
        g = cfg.gamma
        if len(set(g)) == 1 and g[0] >= 1.0:
            ref = categorical.kamath_bounds(n, len(g), g[0])
            row["reference_lower"], row["reference_upper"] = ref.lower, ref.upper
    elif cfg.family == "multinomial":
        fam = _mult_family(cfg)
        row["rd_lower_risk"] = multinomial.xbayes_risk_lower(n, fam, cfg.p)
        if cfg.p == 1.0:
            row["printed_bound"] = multinomial.reference_risk_lower(n, fam)
        row["mi"] = multinomial.mutual_information(n, fam)
    elif cfg.family == "gaussian":
        bound = gaussian.bayes_risk_lower_l1(n, cfg.d, cfg.sigma2)
        row["rd_lower_risk"] = bound.pipeline
        row["printed_bound"] = bound.printed
        row["mi"] = gaussian.mutual_information_exact(n, cfg.d, cfg.sigma2)
    else:
        row["rd_lower_risk"] = zero_error.risk_lower_l1(n)
        row["mi"] = zero_error.mutual_information_exact(n)
        row["reference_upper"] = zero_error.estimator_risk_rederived(n).l1
    return row


def _simulate_row(cfg: RunConfig, n: int, row_seed: int) -> tuple[float, float]:
    if cfg.family == "categorical":
        est = categorical.simulate_bayes_risk(
            n, DirichletPrior(cfg.gamma), cfg.p, cfg.trials, row_seed,
            chunks=cfg.chunks, threads=cfg.threads)
    elif cfg.family == "multinomial":
        est = multinomial.simulate_interpolation_risk(
            n, _mult_family(cfg), cfg.trials, row_seed,
            chunks=cfg.chunks, threads=cfg.threads)
    elif cfg.family == "gaussian":
        est = gaussian.simulate_bayes_risk(
            n, cfg.d, cfg.sigma2, cfg.trials, cfg.test_points, row_seed,
            chunks=cfg.chunks, threads=cfg.threads)
    else:
        est = zero_error.simulate_estimator_risk(
            n, cfg.trials, row_seed, chunks=cfg.chunks, threads=cfg.threads)
    return est.mean, est.stderr


def _rows(cfg: RunConfig, simulate: bool) -> list[dict]:
    rows = []
    for idx, n in enumerate(cfg.n_grid):
        row = _bound_row(cfg, n)
        if simulate:
            mean, stderr = _simulate_row(cfg, n, cfg.seed + idx)
            row["simulated_mean"], row["simulated_stderr"] = mean, stderr
        rows.append(row)
    return rows


def _violations(cfg: RunConfig, rows: list[dict]) -> list[str]:
    report = []
    for row in rows:
        bound = row["printed_bound"] if cfg.family == "gaussian" else row["rd_lower_risk"]
        bound = bound * cfg.inflate_bound
        mean, stderr = row["simulated_mean"], row["simulated_stderr"]
        if cfg.family == "zero-error":
            mean, stderr = 2.0 * mean, 2.0 * stderr
        if mean + 3.0 * stderr < bound:
            report.append(f"n={row['n']}: simulated {mean:.6g} + 3*{stderr:.3g} "
                          f"< bound {bound:.6g}")
    return report


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(value, ".17g")


def _emit(meta: dict, rows: list[dict], fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = json.dumps({"metadata": meta, "rows": rows}, indent=2) + "\n"
    else:
        lines = [f"# {key}={value}" for key, value in meta.items()]
        lines.append(",".join(COLUMNS))
        lines.extend(",".join(_fmt_cell(row[c]) for c in COLUMNS) for row in rows)
        text = "\n".join(lines) + "\n"
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_scalar(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_bounds(args) -> int:
    cfg = _config(args)
    _emit(_metadata(cfg, "bounds"), _rows(cfg, simulate=False), args.format, args.output)
    return 0


def _check_simulation_config(cfg: RunConfig, command: str) -> None:
    if cfg.trials < 100:
        raise UsageError(f"{command} requires trials >= 100, got {cfg.trials}")
    if cfg.family == "multinomial" and cfg.p != 1.0:
        raise UsageError("the multinomial simulator measures the L1 "
                         "interpolation-point loss; use --p 1")


def _cmd_simulate(args) -> int:
    cfg = _config(args)
    _check_simulation_config(cfg, "simulate")
    _emit(_metadata(cfg, "simulate"), _rows(cfg, simulate=True), args.format, args.output)
    return 0


def _cmd_compare(args) -> int:
    cfg = _config(args)
    _check_simulation_config(cfg, "compare")
    rows = _rows(cfg, simulate=True)
    report = _violations(cfg, rows)
    meta = _metadata(cfg, "compare")
    meta["violations"] = len(report)
    _emit(meta, rows, args.format, args.output)
    for line in report:
        print(f"violation: {line}", file=sys.stderr)
    print(f"compare: {len(report)} violation(s) across {len(rows)} row(s)",
          file=sys.stderr)
    return 2 if report else 0


def _cmd_mi(args) -> int:
    family = args.family
    n = int(args.n)
    trials, chunks, threads = _mc_options(args)
    method = args.method
    if method is None:
        method = "exact" if family in ("gaussian", "zero-error") else "clarke-barron"
    if family == "gaussian":
        if args.d is None or args.sigma2 is None:
            raise UsageError("--d and --sigma2 are required for the gaussian family")
        d, s2 = int(args.d), float(args.sigma2)
        if method == "exact":
            payload = {"value": gaussian.mutual_information_exact(n, d, s2),
                       "method": "exact"}
        elif method == "clarke-barron":
            payload = {"value": gaussian.mutual_information_cb(n, d, s2),
                       "method": "clarke_barron"}
        else:
            raise UsageError("gaussian mi supports exact or clarke-barron")
    elif family == "zero-error":
        if method == "exact":
            payload = {"value": zero_error.mutual_information_exact(n),
                       "method": "exact"}
        elif method == "monte-carlo":
            est = zero_error.mi_monte_carlo(n, trials, int(args.seed),
                                            chunks=chunks, threads=threads)
            payload = {"value": est.mean, "method": "monte_carlo",
                       "stderr": est.stderr, "sampler_version": SAMPLER_VERSION}
        else:
            raise UsageError("zero-error mi supports exact or monte-carlo")
    elif family == "categorical":
        if method != "clarke-barron":
            raise UsageError("categorical mi is asymptotic; use clarke-barron")
        if args.gamma is None:
            raise UsageError("--gamma is required for the categorical family")
        prior = DirichletPrior(_parse_gamma(args.gamma))
        payload = {"value": categorical.mutual_information(n, prior),
                   "method": "clarke_barron"}
    elif family == "multinomial":
        if method != "clarke-barron":
            raise UsageError("multinomial mi is asymptotic; use clarke-barron")
        if args.gamma is None or args.d is None or args.k is None:
            raise UsageError("--d, --k and --gamma are required")
        fam = MultinomialFamily(d=int(args.d), k=int(args.k),
                                prior=DirichletPrior(_parse_gamma(args.gamma)))
        payload = {"value": multinomial.mutual_information(n, fam),
                   "method": "clarke_barron"}
    else:
        raise UsageError(f"unknown family {family!r}")
    _emit_scalar(payload, args.output)
    return 0


def _cmd_entropy(args) -> int:
    try:
        samples = knn.load_samples_csv(args.input, header=args.header)
    except OSError as exc:
        raise UsageError(f"cannot read {args.input!r}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"cannot parse {args.input!r} as numeric CSV "
                         f"(use --header to skip a header row): {exc}") from exc
    est = knn.knn_entropy_detail(samples, k=int(args.k))
    _emit_scalar({"value": est.mean, "method": "knn", "stderr": est.stderr,
                  "samples": est.trials, "k": int(args.k),
                  "metric": "max-norm, eps = 2 x k-th neighbor distance"},
                 args.output)
    return 0


def _add_family_options(sub, simulation: bool) -> None:
    sub.add_argument("--family", required=True, choices=FAMILIES)
    sub.add_argument("--gamma", help="comma-separated Dirichlet concentration")
    sub.add_argument("--d", type=int, help="category count / feature dimension")
    sub.add_argument("--k", type=int, help="trials per multinomial observation")
    sub.add_argument("--sigma2", type=float, help="Gaussian noise variance")
    sub.add_argument("--p", default="1", help="loss order >= 1 or 'inf'")
    sub.add_argument("--n-grid",
                     help="'10,100,1000' or geometric 'start:stop:COUNTlog'")
    sub.add_argument("--n", help="single sample count (shorthand for --n-grid N)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", help="file path (default stdout)")
    if simulation:
        sub.add_argument("--trials", default="10000")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--chunks", type=int, default=64)
        sub.add_argument("--threads", type=int, default=1)
        sub.add_argument("--test-points", type=int, default=1000, dest="test_points")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rdrisk", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("bounds", help="deterministic bound/MI curves")
    _add_family_options(b, simulation=False)
    b.set_defaults(func=_cmd_bounds)

    s = subs.add_parser("simulate", help="seeded Monte-Carlo risk curves")
    _add_family_options(s, simulation=True)
    s.set_defaults(func=_cmd_simulate)

    c = subs.add_parser("compare", help="join bounds and simulation; "
                                        "exit 2 on lower-bound violations")
    _add_family_options(c, simulation=True)
    c.add_argument("--inflate-bound", type=float, default=1.0,
                   help="test hook: scale the bound column before checking")
    c.set_defaults(func=_cmd_compare)

    m = subs.add_parser("mi", help="mutual information for one n")
    m.add_argument("--family", required=True, choices=FAMILIES)
    m.add_argument("--n", required=True, type=int)
    m.add_argument("--method", choices=("exact", "clarke-barron", "monte-carlo"))
    m.add_argument("--gamma")
    m.add_argument("--d", type=int)
    m.add_argument("--k", type=int)
    m.add_argument("--sigma2", type=float)
    m.add_argument("--trials", default="1000000")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--chunks", type=int, default=64)
    m.add_argument("--threads", type=int, default=1)
    m.add_argument("--output")
    m.set_defaults(func=_cmd_mi)

    e = subs.add_parser("entropy", help="k-NN differential entropy of CSV samples")
    e.add_argument("--input", required=True, help="CSV, one row per sample")
    e.add_argument("--k", type=int, default=4)
    e.add_argument("--header", action="store_true",
                   help="first CSV row is a header")
    e.add_argument("--output")
    e.set_defaults(func=_cmd_entropy)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"rdrisk: error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"rdrisk: domain error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"rdrisk: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
