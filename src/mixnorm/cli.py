"""Command-line front end: constants, verification suites, and sweeps.

Three subcommands:

* ``constants`` prints the sharp Hausdorff-Young constants.
* ``verify`` runs a seeded property suite for one inequality and emits
  JSON-lines (or CSV) reports.
* ``sweep`` runs one scaling-law sweep and emits its CSV with a JSON
  footer (or a single JSON document).

An artifact echoes the configuration its run resolves, defaults filled
in. This module alone lays artifacts out: the echo, one line per row,
then an optional footer, except for a sweep's single JSON document and
the plain ``constants`` table. Nothing in an artifact depends on the
clock, so identical configurations produce byte-identical files.

Exit codes: 0 all checks pass, 1 an inequality or slope check failed,
2 usage or exponent-gate error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
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
    ensemble_stream,
    random_admissible_tuples,
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


def _render(
    config: dict, fmt: str, records: list[dict], table: list[list], footer: dict | None
) -> str:
    """An artifact: the config echo, one line per row, then ``footer`` unless None.

    JSON writes each of ``{"config": config}``, ``records`` and the footer
    as one sorted-key object per line. CSV writes a ``# config:`` comment,
    then ``table`` (header row first) through ``csv.writer``, which gives
    a float its repr and None an empty cell, then the footer as a ``#``
    comment.
    """
    if fmt == "json":
        objects = [{"config": config}, *records, *([] if footer is None else [footer])]
        return "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objects)
    buffer = io.StringIO()
    buffer.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    csv.writer(buffer, lineterminator="\n").writerows(table)
    if footer is not None:
        buffer.write("# " + json.dumps(footer, sort_keys=True) + "\n")
    return buffer.getvalue()


def _exponent_tuple(args) -> ExponentTuple:
    """The five exponent flags, 2 for each one not given."""
    return ExponentTuple(*(2 if getattr(args, n) is None else getattr(args, n) for n in "psqtr"))


def _run_config(
    args, command: str, target: str, default_format: str, exponents: dict
) -> RunConfig:
    _exponent_tuple(args)  # a malformed exponent flag is an error even where the run ignores it
    return RunConfig(
        command=command,
        target=target,
        n=args.grid_n,
        extent=args.grid_l,
        d1=args.d1,
        d2=args.d2,
        seed=args.seed,
        trials=args.trials,
        exponents=exponents,
        format=args.format or default_format,
        out=args.out,
    )


def _cmd_constants(args) -> int:
    exponents = [as_exponent(raw) for raw in args.r]
    dims = list(args.dim)
    header = ["r", "conjugate", "C_r"] + [f"C_r^{d}" for d in dims]
    table = [
        [str(r), str(r.conjugate()), beckner_constant(r)] + [beckner_power(r, d) for d in dims]
        for r in exponents
    ]
    if args.format is None:
        lines = [f"{'r':>8} {'r_conj':>8}" + "".join(f" {name:>18}" for name in header[2:])]
        for r, conjugate, *constants in table:
            lines.append(f"{r:>8} {conjugate:>8}" + "".join(f" {c:>18.15f}" for c in constants))
        text = "\n".join(lines) + "\n"
    else:
        config = {"r": [str(r) for r in exponents], "dim": dims, "format": args.format,
                  "out": args.out}
        records = [dict(zip(header, row)) for row in table]
        text = _render(config, args.format, records, [header, *table], None)
    _emit(text, args.out)
    return 0


def _verify_config(args) -> RunConfig:
    """The exponents a verify run reads, 2 for each one not given (none for
    random bilinear tuples), and its grid: d2 = 0 for hausdorff-young."""
    inequality = _VERIFY_NAMES[args.inequality]
    if inequality == "bilinear":
        given = any(getattr(args, name) is not None for name in "psqtr")
        exponents = _exponent_tuple(args).as_dict() if given else {}
    else:
        names = ("p", "s") if inequality in ("variant", "same_order") else ("p",)
        exponents = {name: str(as_exponent(getattr(args, name) or 2)) for name in names}
    config = _run_config(args, "verify", args.inequality, "json", exponents)
    return replace(config, d2=0) if inequality == "hausdorff_young" else config


def _sweep_config(args) -> RunConfig:
    """The exponents a sweep reads, defaults filled in: p = 2 and s = 4/3
    for blowup, p = 2 for delta, all five (2 each) for necessity."""
    if args.kind == "necessity":
        exponents = _exponent_tuple(args).as_dict()
    else:
        defaults = {"p": "2", "s": "4/3"} if args.kind == "blowup" else {"p": "2"}
        exponents = {
            name: str(as_exponent(getattr(args, name) or d)) for name, d in defaults.items()
        }
    return _run_config(args, "sweep", args.kind, "csv", exponents)


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
    functions = ensemble_stream(grid, config.trials, config.seed)
    return run_suite(inequality, functions, exponents.get("p"), exponents.get("s"), tuples)


def _cmd_verify(args) -> int:
    config = _verify_config(args)
    reports = _collect_verify_reports(config)
    failures = sum(not r.degenerate and not r.passed for r in reports)
    degenerate = sum(r.degenerate for r in reports)
    summary = {"summary": {"trials": len(reports), "failures": failures, "degenerate": degenerate}}
    table = [["inequality_id", "exponents", "ratio", "pass"]]
    for r in reports:
        exps = r.descriptors.get("exponents", {})
        cell = " ".join(f"{k}={v}" for k, v in exps.items())
        table.append([r.inequality_id, cell, r.ratio, r.passed])
    records = [r.json_dict() for r in reports]
    _emit(_render(asdict(config), config.format, records, table, summary), config.out)
    return 1 if failures else 0


def _sweep_text(report: SweepReport, config: RunConfig) -> str:
    """The sweep's fields and config as one JSON document, or its points as
    CSV with the fit as the footer."""
    fields = asdict(report)
    if config.format == "json":
        return json.dumps({**fields, "config": asdict(config)}, sort_keys=True) + "\n"
    table = [["parameter", "observed", "log_parameter", "log_observed"]]
    for x, y in zip(report.parameter_values, report.observed):
        table.append([x, y, math.log(x), math.log(y)])
    for name in ("parameter_values", "observed", "details"):
        del fields[name]
    return _render(asdict(config), "csv", [], table, fields)


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
