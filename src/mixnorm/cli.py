"""Command-line front end: constants, verification suites, and sweeps.

Three subcommands:

* ``constants`` prints the sharp Hausdorff-Young constants.
* ``verify`` runs a seeded property suite for one inequality and emits
  JSON-lines (or CSV) reports.
* ``sweep`` runs one scaling-law sweep and emits its CSV with a JSON
  footer (or a single JSON document).

An artifact echoes the configuration its run resolves, defaults filled
in. Nothing in an artifact depends on the clock, so identical
configurations produce byte-identical files.

Exit codes: 0 all checks pass, 1 an inequality or slope check failed,
2 usage or exponent-gate error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .exponents import (
    ExponentTuple,
    InadmissibleExponents,
    admissible,
    as_exponent,
    beckner_constant,
    beckner_power,
)
from .grids import GridSpec
from .inequalities import (
    INEQUALITY_IDS,
    RatioReport,
    ensemble_trials,
    random_admissible_tuples,
    reports_to_csv,
    reports_to_jsonl,
    run_suite,
)
from .sampling import GenerationError
from .sweeps import SweepReport, blowup_sweep, delta_divergence_demo, necessity_sweep

__all__ = ["RunConfig", "main", "entry"]

DEFAULT_SEED = 7
DEFAULT_TRIALS = 100
DEFAULT_N = 256
DEFAULT_EXTENT = 16.0

#: Command-line spelling (dashes) of each inequality id (underscores).
_VERIFY_NAMES = {name.replace("_", "-"): name for name in INEQUALITY_IDS}


@dataclass(frozen=True)
class RunConfig:
    """A run's settings as its artifact echoes them, resolved from the flags."""

    command: str
    target: str
    n: int = DEFAULT_N
    extent: float = DEFAULT_EXTENT
    d1: int = 1
    d2: int = 1
    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    exponents: dict = field(default_factory=dict)
    format: str = "json"
    out: str | None = None

    def echo_json(self) -> str:
        return json.dumps({"config": asdict(self)}, sort_keys=True)

    def grid(self) -> GridSpec:
        return GridSpec(self.d1, self.d2, self.n, self.extent)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixnorm",
        description="Numerical checks for mixed-norm Fourier inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    constants = sub.add_parser(
        "constants", help="print sharp Hausdorff-Young constants C_r"
    )
    constants.add_argument("--r", nargs="+", required=True, help="exponents in [1, 2]")
    constants.add_argument(
        "--dim", nargs="+", type=int, default=[1], help="dimensions for C_r^d columns"
    )
    constants.add_argument("--format", choices=["json", "csv"], default=None)
    constants.add_argument("--out", default=None, help="output path (default stdout)")

    verify = sub.add_parser("verify", help="run a seeded suite for one inequality")
    verify.add_argument("inequality", choices=sorted(_VERIFY_NAMES))
    _add_exponent_flags(verify)
    _add_run_flags(verify)

    sweep = sub.add_parser("sweep", help="run a scaling-law sweep")
    sweep.add_argument("kind", choices=["blowup", "delta", "necessity"])
    _add_exponent_flags(sweep)
    _add_run_flags(sweep)
    return parser


def _add_exponent_flags(parser: argparse.ArgumentParser) -> None:
    for name in ("p", "s", "q", "t", "r"):
        parser.add_argument(
            f"--{name}", default=None, help=f"exponent {name} (fraction like 4/3, or inf)"
        )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d1", type=int, default=1, help="first-group dimension")
    parser.add_argument("--d2", type=int, default=1, help="second-group dimension")
    parser.add_argument("--grid-n", type=int, default=DEFAULT_N, help="points per axis")
    parser.add_argument(
        "--grid-l", type=float, default=DEFAULT_EXTENT, help="domain extent per axis"
    )
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--format", choices=["json", "csv"], default=None)
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _exponent_args(args, names) -> dict:
    got = {}
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            got[name] = str(as_exponent(value))
    return got


def _exponent_tuple(args) -> ExponentTuple:
    return ExponentTuple(args.p or 2, args.s or 2, args.q or 2, args.t or 2, args.r or 2)


def _run_config(args, command: str, target: str, default_format: str) -> RunConfig:
    return RunConfig(
        command=command,
        target=target,
        n=args.grid_n,
        extent=args.grid_l,
        d1=args.d1,
        d2=args.d2,
        seed=args.seed,
        trials=args.trials,
        exponents=_exponent_args(args, ("p", "s", "q", "t", "r")),
        format=args.format or default_format,
        out=args.out,
    )


def _cmd_constants(args) -> int:
    exponents = [as_exponent(raw) for raw in args.r]
    dims = list(args.dim)
    rows = []
    for r in exponents:
        c = beckner_constant(r)
        row = {"r": str(r), "conjugate": str(r.conjugate()), "C_r": c}
        for d in dims:
            row[f"C_r^{d}"] = beckner_power(r, d)
        rows.append(row)

    config = {"r": [str(r) for r in exponents], "dim": dims, "format": args.format,
              "out": args.out}
    if args.format == "json":
        text = "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in [{"config": config}, *rows])
    elif args.format == "csv":
        header = ["r", "conjugate", "C_r"] + [f"C_r^{d}" for d in dims]
        lines = ["# config: " + json.dumps(config, sort_keys=True), ",".join(header)]
        for row in rows:
            lines.append(",".join(str(row[key]) for key in header))
        text = "\n".join(lines) + "\n"
    else:
        header = f"{'r':>8} {'r_conj':>8} {'C_r':>18}" + "".join(
            f" {'C_r^' + str(d):>18}" for d in dims
        )
        lines = [header]
        for row in rows:
            line = f"{row['r']:>8} {row['conjugate']:>8} {row['C_r']:>18.15f}"
            for d in dims:
                line += f" {row[f'C_r^{d}']:>18.15f}"
            lines.append(line)
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _verify_config(args) -> RunConfig:
    """The exponents a verify run reads, 2 for each one not given (none for
    random bilinear tuples), and its grid: d2 = 0 for hausdorff-young."""
    config = _run_config(args, "verify", args.inequality, "json")
    inequality = _VERIFY_NAMES[args.inequality]
    if inequality == "bilinear":
        exponents = _exponent_tuple(args).as_dict() if config.exponents else {}
    else:
        names = ("p", "s") if inequality in ("variant", "same_order") else ("p",)
        exponents = {name: str(as_exponent(getattr(args, name) or 2)) for name in names}
    d2 = 0 if inequality == "hausdorff_young" else config.d2
    return replace(config, exponents=exponents, d2=d2)


def _sweep_config(args) -> RunConfig:
    """The exponents a sweep reads, defaults filled in: p = 2 and s = 4/3
    for blowup, p = 2 for delta, all five (2 each) for necessity."""
    config = _run_config(args, "sweep", args.kind, "csv")
    if args.kind == "necessity":
        return replace(config, exponents=_exponent_tuple(args).as_dict())
    defaults = {"p": "2", "s": "4/3"} if args.kind == "blowup" else {"p": "2"}
    exponents = {name: str(as_exponent(getattr(args, name) or d)) for name, d in defaults.items()}
    return replace(config, exponents=exponents)


def _collect_verify_reports(config: RunConfig) -> list[RatioReport]:
    inequality = _VERIFY_NAMES[config.target]
    grid = config.grid()
    exponents = config.exponents
    tuples = None
    if inequality == "bilinear":
        if exponents:
            exps = ExponentTuple(**exponents)
            verdict = admissible(exps)
            if not verdict:
                raise InadmissibleExponents(verdict.reason, exps)
            tuples = [exps]
        else:
            tuples = random_admissible_tuples(10, config.seed)
    functions = ensemble_trials(grid, config.trials, config.seed)
    return run_suite(inequality, functions, exponents.get("p"), exponents.get("s"), tuples)


def _cmd_verify(args) -> int:
    config = _verify_config(args)
    reports = _collect_verify_reports(config)
    failures = [r for r in reports if not r.degenerate and not r.passed]
    degenerate = [r for r in reports if r.degenerate]
    summary = {
        "summary": {
            "trials": len(reports),
            "failures": len(failures),
            "degenerate": len(degenerate),
        }
    }
    if config.format == "csv":
        text = "# config: " + json.dumps(asdict(config), sort_keys=True) + "\n"
        text += reports_to_csv(reports)
        text += "# " + json.dumps(summary, sort_keys=True) + "\n"
    else:
        text = config.echo_json() + "\n"
        text += reports_to_jsonl(reports)
        text += json.dumps(summary, sort_keys=True) + "\n"
    _emit(text, config.out)
    return 1 if failures else 0


def _sweep_text(report: SweepReport, config: RunConfig) -> str:
    if config.format == "json":
        payload = json.loads(report.to_json())
        payload["config"] = asdict(config)
        return json.dumps(payload, sort_keys=True) + "\n"
    return (
        "# config: "
        + json.dumps(asdict(config), sort_keys=True)
        + "\n"
        + report.to_csv()
    )


def _with_suffix(out: str | None, tag: str) -> str | None:
    if out is None:
        return None
    path = Path(out)
    return str(path.with_name(f"{path.stem}_{tag}{path.suffix}"))


def _cmd_sweep(args) -> int:
    config = _sweep_config(args)
    if args.kind == "blowup":
        p, s = as_exponent(config.exponents["p"]), as_exponent(config.exponents["s"])
        if not s < p:
            raise ValueError(
                f"blowup needs s < p strictly (got p={p}, s={s}); "
                "at s >= p the ratio stays bounded"
            )
        report = blowup_sweep(p, s)
        _emit(_sweep_text(report, config), config.out)
        return 0 if report.passed else 1
    if args.kind == "delta":
        report = delta_divergence_demo(as_exponent(config.exponents["p"]), grid=config.grid())
        _emit(_sweep_text(report, config), config.out)
        return 0 if report.passed else 1
    exps = ExponentTuple(**config.exponents)
    grid = config.grid()
    all_pass = True
    chunks = []
    for axis in ("first", "second"):
        report = necessity_sweep(exps, grid=grid, axis=axis)
        all_pass = all_pass and report.passed
        out = _with_suffix(config.out, axis)
        if out is None:
            chunks.append(_sweep_text(report, config))
        else:
            _emit(_sweep_text(report, config), out)
    if chunks:
        sys.stdout.write("\n".join(chunks))
    return 0 if all_pass else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "constants":
            return _cmd_constants(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_sweep(args)
    except (InadmissibleExponents, GenerationError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
