"""Command-line surface: evaluate bounds, run simulations, compare them,
and emit CSV/JSON risk curves.

Exit codes: 0 success, 1 usage or domain error, 2 comparison violation.
Outputs carry a metadata header (CSV comment lines / JSON object) and are
byte-identical for a fixed (seed, trials, chunks, sampler_version) at any
thread count; no timestamps are written.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .errors import DomainError

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    import json

    from . import categorical, gaussian, knn, mc, multinomial, zero_error
else:
    class _Module:
        """Module ``name``, imported on the first attribute read.  Every read
        goes to ``sys.modules[name]`` and nothing is copied, so wrappers
        installed on the module later see every call."""

        def __init__(self, name):
            self._name = name

        def __getattr__(self, attr):
            __import__(self._name)
            return getattr(sys.modules[self._name], attr)

    json = _Module("json")
    categorical, gaussian, knn, mc, multinomial, zero_error = (
        _Module(f"{__package__}.{name}")
        for name in ("categorical", "gaussian", "knn", "mc", "multinomial", "zero_error"))

COLUMNS = ("n", "rd_lower_risk", "printed_bound", "simulated_mean",
           "simulated_stderr", "mi", "reference_lower", "reference_upper")

# Largest COUNT of a 'start:stop:COUNTlog' grid; parsing costs O(COUNT).
MAX_GRID_COUNT = 10_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_p(text: str) -> float:
    t = text.strip().lower()
    if t.removeprefix("+") in ("inf", "infinity", "oo"):
        return math.inf
    try:
        p = float(t)
    except ValueError:
        raise UsageError(f"invalid loss order: {text!r}") from None
    if not 1.0 <= p < math.inf:
        raise UsageError(f"loss order must be a finite number >= 1 or inf, got {text!r}")
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
        _check_float_range("n", stop)
        if count > MAX_GRID_COUNT:
            raise UsageError(f"grid count must be <= {MAX_GRID_COUNT}: {text!r}")
        # Exact ends; inner points clamped to them, as ratio ** (count - 1) may overflow.
        ratio = (stop / start) ** (1.0 / max(count - 1, 1))
        inner = (round(min(max(start * ratio ** i, start), stop)) for i in range(1, count - 1))
        return sorted({start, *inner, stop if count > 1 else start})
    try:
        values = [int(v) for v in t.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"invalid n grid: {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise UsageError("n values must be positive integers")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise UsageError("n values must be strictly increasing")
    _check_float_range("n", values[-1])
    return values


def _check_float_range(name: str, value: int) -> None:
    """The formulas compute with floats, so an integer option must fit one."""
    if abs(value) > sys.float_info.max:
        raise UsageError(f"--{name} must be within the float range (about 1.8e308)")


def _parse_gamma(text: str) -> tuple[float, ...]:
    try:
        gamma = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise UsageError(f"invalid gamma vector: {text!r}") from None
    return gamma


def _parse_trials(text: str) -> int:
    """--trials, a whole number such as '1e5'; mc_mean checks its range."""
    try:
        count = float(text)
    except ValueError:
        raise UsageError(f"invalid --trials: {text!r}") from None
    if not count.is_integer():
        raise UsageError(f"--trials must be a whole number, got {text!r}")
    return int(count)


def _require(args, names: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    """The family options ``names`` are all given and none is given that is
    neither in ``names`` nor in ``optional``."""
    if any(getattr(args, name) is None for name in names):
        flags = [f"--{name}" for name in names]
        listed = ", ".join(flags[:-1]) + " and " + flags[-1] if len(flags) > 1 else flags[0]
        verb = "are" if len(flags) > 1 else "is"
        raise UsageError(f"{listed} {verb} required for the {args.family} family")
    for name in dict.fromkeys(o for f in FAMILIES.values() for o in f.options + f.optional):
        if name not in names + optional and getattr(args, name) is not None:
            flag = name.replace("_", "-")
            raise UsageError(f"--{flag} does not apply to the {args.family} family")


def _reported(form, *args):
    """A published form, reported beside the pipeline: ``form(*args)``, or
    None (an empty cell, null in JSON) where the library rejects the
    arguments, as where the form is not defined at p or leaves the float range."""
    try:
        return form(*args)
    except DomainError:
        return None


class _Family:
    """One data model's CLI contract.

    The constructor checks which family options the parsed ``args`` give
    and builds the model object a family's functions take, if any; the
    library calls check the option values.  A family provides ``header()``
    (its metadata keys), ``bound_row(row, n, p)``, ``simulate(n, p, run)``
    and ``mi(method, n, run)``, ``run`` being the simulator keywords of
    ``_run``; ``mi`` returns a number or an ``mc.MonteCarloEstimate``.
    Family functions are read through the module stand-ins at call time,
    so a call loads only the modules of the family it names.
    """

    options: tuple[str, ...] = ()  # the family options it takes, all required
    optional: tuple[str, ...] = ()  # the family options it also takes, with a default
    l1_only: tuple[str, ...] = ()  # the commands whose rows exist at p = 1 only
    simulation_keys: tuple[str, ...] = ()  # header keys that bounds omits
    compare_column = "rd_lower_risk"  # the bound compare checks
    simulated_scale = 1.0  # puts the simulated value on the bound's scale
    mi_methods: tuple[str, ...] = ("clarke-barron",)  # the first is the default

    def __init__(self, args):
        _require(args, self.options, self.optional)


class _Categorical(_Family):
    options = ("gamma",)

    def __init__(self, args):
        super().__init__(args)
        self.prior = categorical.DirichletPrior(_parse_gamma(args.gamma))

    def header(self) -> dict:
        return {"gamma": ",".join(repr(g) for g in self.prior.gamma),
                "mi_method": "clarke_barron_asymptotic",
                "bound_variants": "rd_lower_risk=pipeline; printed_bound="
                                  "published closed form (equal at p=1,inf)"}

    def bound_row(self, row, n, p):
        row["rd_lower_risk"] = categorical.bayes_risk_lower(n, self.prior, p)
        row["printed_bound"] = _reported(categorical.reference_risk_lower, n, self.prior, p)
        row["mi"] = categorical.mutual_information(n, self.prior)
        g = self.prior.gamma
        if p == 1.0 and len(set(g)) == 1:
            ref = _reported(categorical.kamath_bounds, n, len(g), g[0])
            row["reference_lower"], row["reference_upper"] = ref or (None, None)

    def simulate(self, n, p, run):
        return categorical.simulate_bayes_risk(n, self.prior, p, **run)

    def mi(self, method, n, run):
        return categorical.mutual_information(n, self.prior)


class _Multinomial(_Family):
    options = ("d", "k", "gamma")
    l1_only = ("simulate", "compare")  # its simulator measures the L1 loss

    def __init__(self, args):
        super().__init__(args)
        prior = categorical.DirichletPrior(_parse_gamma(args.gamma))
        self.model = multinomial.MultinomialFamily(d=args.d, k=args.k, prior=prior)

    def header(self) -> dict:
        header = {"gamma": ",".join(repr(g) for g in self.model.prior.gamma),
                  "d": self.model.d, "k": self.model.k,
                  "mi_method": "clarke_barron_asymptotic",
                  "bound_variants": "rd_lower_risk=pipeline; printed_bound=published "
                                    "closed form (unbalanced bracket read best-effort)",
                  "entropy_lower": repr(multinomial.entropy_lower(self.model))}
        printed = _reported(multinomial.reference_entropy_lower_printed, self.model)
        if printed is not None:
            return {**header, "entropy_lower_printed": repr(printed)}
        return {**header, "entropy_lower_printed": None,
                "note": "entropy_lower_printed is not printed: the published form "
                        "overflows the float range"}

    def bound_row(self, row, n, p):
        row["rd_lower_risk"] = multinomial.xbayes_risk_lower(n, self.model, p)
        if p == 1.0:
            row["printed_bound"] = _reported(multinomial.reference_risk_lower, n, self.model)
        row["mi"] = multinomial.mutual_information(n, self.model)

    def simulate(self, n, p, run):
        return multinomial.simulate_interpolation_risk(n, self.model, **run)

    def mi(self, method, n, run):
        return multinomial.mutual_information(n, self.model)


class _Gaussian(_Family):
    options = ("d", "sigma2")
    optional = ("test_points",)
    l1_only = ("bounds", "simulate", "compare")
    simulation_keys = ("test_points",)
    compare_column = "printed_bound"
    mi_methods = ("exact", "clarke-barron")

    def __init__(self, args):
        super().__init__(args)
        self.d, self.sigma2 = args.d, args.sigma2
        self.test_points = 1000 if args.test_points is None else args.test_points

    def header(self) -> dict:
        return {"d": self.d, "sigma2": self.sigma2,
                "test_points": self.test_points, "mi_method": "exact",
                "bound_variants": "printed_bound=published form; "
                                  "rd_lower_risk=pipeline (printed/2)"}

    def bound_row(self, row, n, p):
        bound = gaussian.bayes_risk_lower_l1(n, self.d, self.sigma2)
        row["rd_lower_risk"] = bound.pipeline
        row["printed_bound"] = bound.printed
        row["mi"] = gaussian.mutual_information_exact(n, self.d, self.sigma2)

    def simulate(self, n, p, run):
        return gaussian.simulate_bayes_risk(n, self.d, self.sigma2,
                                            test_points=self.test_points, **run)

    def mi(self, method, n, run):
        if method == "exact":
            return gaussian.mutual_information_exact(n, self.d, self.sigma2)
        return gaussian.mutual_information_cb(n, self.d, self.sigma2)


class _ZeroError(_Family):
    l1_only = ("bounds", "simulate", "compare")
    simulation_keys = ("simulated_units",)
    simulated_scale = 2.0  # the simulator reports E|theta - thetahat|
    mi_methods = ("exact", "monte-carlo")

    def header(self) -> dict:
        return {"mi_method": "exact_harmonic",
                "simulated_units": "E|theta-thetahat| (half the L1 risk)",
                "reference_upper": "midpoint-estimator L1 from the size-biased "
                                   "width, 1/(n+2); published variant 1/(2(n+1))"}

    def bound_row(self, row, n, p):
        row["mi"] = zero_error.mutual_information_exact(n)
        row["rd_lower_risk"] = zero_error.risk_lower_l1(n, row["mi"])
        row["reference_upper"] = 2.0 * zero_error.estimator_risk_rederived(n)

    def simulate(self, n, p, run):
        return zero_error.simulate_estimator_risk(n, **run)

    def mi(self, method, n, run):
        if method == "exact":
            return zero_error.mutual_information_exact(n)
        return zero_error.mi_monte_carlo(n, **run)


FAMILIES = {"categorical": _Categorical, "multinomial": _Multinomial,
            "gaussian": _Gaussian, "zero-error": _ZeroError}


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(value, ".17g")


def _json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _write(text: str, output: str | None) -> None:
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit(meta: dict, rows: list[dict], fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = _json({"metadata": meta, "rows": rows})
    else:
        lines = [f"# {key}={'' if value is None else value}" for key, value in meta.items()]
        lines.append(",".join(COLUMNS))
        lines.extend(",".join(_fmt_cell(row[c]) for c in COLUMNS) for row in rows)
        text = "\n".join(lines) + "\n"
    _write(text, output)


def _run(args) -> dict:
    """The run options a family passes on to its simulator as keywords."""
    return {"trials": args.trials, "seed": args.seed, "chunks": args.chunks,
            "threads": args.threads}


def _cmd_curve(args) -> int:
    """bounds, simulate and compare: one row per n of the grid."""
    p = _parse_p(args.p)
    n_grid = _parse_n_grid(args.n_grid)
    simulating = args.command != "bounds"
    family = FAMILIES[args.family](args)
    if p != 1.0 and args.command in family.l1_only:
        raise UsageError(f"{args.command} --family {args.family} supports the L1 loss "
                         "only; use --p 1")
    header = {key: value for key, value in family.header().items()
              if simulating or key not in family.simulation_keys}

    run = _run(args) if simulating else None
    rows = []
    for idx, n in enumerate(n_grid):
        row = dict.fromkeys(COLUMNS)
        row["n"] = n
        family.bound_row(row, n, p)
        if simulating:
            est = family.simulate(n, p, {**run, "seed": args.seed + idx})
            row["simulated_mean"], row["simulated_stderr"] = est.mean, est.stderr
        rows.append(row)
    meta = {"tool": "rdrisk", "version": __version__, "command": args.command,
            "family": args.family, "p": "inf" if math.isinf(p) else p,
            "n_grid": ",".join(str(n) for n in n_grid)}
    if simulating:
        meta.update(mc.provenance(args.trials, args.seed, args.chunks))
    meta.update(header)
    if args.command != "compare":
        _emit(meta, rows, args.format, args.output)
        return 0

    report = []
    for row in rows:
        bound = row[family.compare_column]
        mean = family.simulated_scale * row["simulated_mean"]
        stderr = family.simulated_scale * row["simulated_stderr"]
        if mean + 3.0 * stderr < bound:
            report.append(f"n={row['n']}: simulated {mean:.6g} + 3*{stderr:.3g} "
                          f"< bound {bound:.6g}")
    meta["violations"] = len(report)
    _emit(meta, rows, args.format, args.output)
    for line in report:
        print(f"violation: {line}", file=sys.stderr)
    print(f"compare: {len(report)} violation(s) across {len(rows)} row(s)",
          file=sys.stderr)
    return 2 if report else 0


def _cmd_mi(args) -> int:
    family = FAMILIES[args.family](args)
    method = args.method or family.mi_methods[0]
    if method not in family.mi_methods:
        raise UsageError(f"{args.family} mi supports {' or '.join(family.mi_methods)}")
    result = family.mi(method, args.n, _run(args))
    payload = {"value": result, "method": method.replace("-", "_")}
    if isinstance(result, mc.MonteCarloEstimate):
        # value keeps its place; what determines the bytes follows method
        payload.update(value=result.mean, stderr=result.stderr,
                       **mc.provenance(args.trials, args.seed, args.chunks))
    _write(_json(payload), args.output)
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
    payload = {"value": est.mean, "method": "knn", "stderr": est.stderr,
               "samples": est.trials, "k": int(args.k),
               "metric": "max-norm, eps = 2 x k-th neighbor distance"}
    _write(_json(payload), args.output)
    return 0


def _add_family_options(sub) -> None:
    sub.add_argument("--family", required=True, choices=FAMILIES)
    sub.add_argument("--gamma", help="comma-separated Dirichlet concentration")
    sub.add_argument("--d", type=int, help="category count / feature dimension")
    sub.add_argument("--k", type=int, help="trials per multinomial observation")
    sub.add_argument("--sigma2", type=float, help="Gaussian noise variance")
    sub.add_argument("--output", help="file path (default stdout)")
    sub.set_defaults(test_points=None)


def _add_curve_options(sub) -> None:
    _add_family_options(sub)
    sub.add_argument("--p", default="1", help="loss order >= 1 or 'inf'")
    grid = sub.add_mutually_exclusive_group(required=True)
    grid.add_argument("--n-grid",
                      help="'10,100,1000' or geometric 'start:stop:COUNTlog'")
    grid.add_argument("--n", dest="n_grid", metavar="N",
                      help="single sample count (shorthand for --n-grid N)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.set_defaults(func=_cmd_curve)


def _add_mc_options(sub, trials: str) -> None:
    sub.add_argument("--trials", type=_parse_trials, default=trials)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--chunks", type=int, default=64)
    sub.add_argument("--threads", type=int, default=1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rdrisk", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    _add_curve_options(subs.add_parser("bounds", help="deterministic bound/MI curves"))

    s = subs.add_parser("simulate", help="seeded Monte-Carlo risk curves")
    c = subs.add_parser("compare", help="join bounds and simulation; "
                                        "exit 2 on lower-bound violations")
    for sub in (s, c):
        _add_curve_options(sub)
        _add_mc_options(sub, "10000")
        sub.add_argument("--test-points", type=int, dest="test_points",
                         help="test points per trial (default 1000), split between "
                              "the trial's (r, b) members")

    m = subs.add_parser("mi", help="mutual information for one n")
    _add_family_options(m)
    m.add_argument("--n", required=True, type=int)
    m.add_argument("--method", choices=("exact", "clarke-barron", "monte-carlo"))
    _add_mc_options(m, "1000000")
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
        for name, value in vars(args).items():
            if isinstance(value, int):
                _check_float_range(name.replace("_", "-"), value)
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
    except MemoryError as exc:
        # numpy's message names the allocation; a bare MemoryError has none
        print(f"rdrisk: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
