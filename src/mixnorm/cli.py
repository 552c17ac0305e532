"""Command-line front end: constants, verification suites, and sweeps.

Three subcommands:

* ``constants`` prints the sharp Hausdorff-Young constants.
* ``verify`` runs a seeded property suite for one inequality and emits
  JSON-lines (or CSV) reports.
* ``sweep`` runs one scaling-law sweep and emits its CSV with a JSON
  footer (or a single JSON document).

Each ``verify`` inequality and ``sweep`` kind is a target with its own
parser, built from ``_TARGETS``: it accepts only the flags its run reads,
spelled in full, and any other flag is a usage error. An artifact echoes
every parsed value, defaults filled in, so it states the configuration
its run used. This module alone lays artifacts out: the echo, one line
per row, then an optional footer, except for a sweep's single JSON
document and the plain ``constants`` table. Nothing in an artifact
depends on the clock, so identical configurations produce byte-identical
files.

Exit codes: 0 all checks pass, 1 an inequality or slope check failed,
2 usage or exponent-gate error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import shutil
import stat
import sys
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

from .exponents import ExponentTuple, as_exponent, beckner_constant, beckner_power
from .grids import GridSpec
from .inequalities import INEQUALITIES, ensemble_stream, random_admissible_tuples, run_suite
from .sweeps import SweepReport, blowup_sweep, delta_divergence_demo, necessity_sweep

__all__ = ["main", "entry"]

#: The argparse settings of each non-exponent flag; ``dest`` is its echo key.
_FLAGS = {
    "d1": dict(type=int, default=1, help="first-group dimension"),
    "d2": dict(type=int, default=1, help="second-group dimension"),
    "grid-n": dict(dest="n", type=int, default=256, help="points per axis"),
    "grid-l": dict(dest="extent", type=float, default=16.0, help="domain extent per axis"),
    "trials": dict(type=int, default=100),
    "seed": dict(type=int, default=7),
}


class _Target(NamedTuple):
    """What one ``verify`` inequality or ``sweep`` kind reads: its exponent
    flags with their defaults, its other flags besides ``--format`` and
    ``--out``, and values it fixes without a flag."""

    exponents: dict
    flags: tuple = ()
    fixed: dict = {}


_SUITE = ("d1", "d2", "grid-n", "grid-l", "trials", "seed")

#: Every target by subcommand. The ``verify`` targets are the inequalities
#: of ``INEQUALITIES``, each exponent defaulting to 2; one whose functions
#: have a single coordinate group fixes d2 = 0 in place of its flag.
_TARGETS = {
    "verify": {
        inequality_id.replace("_", "-"): _Target(
            dict.fromkeys(entry.exponents, "2"),
            tuple(flag for flag in _SUITE if not (entry.one_group and flag == "d2")),
            {"d2": 0} if entry.one_group else {},
        )
        for inequality_id, entry in INEQUALITIES.items()
    },
    "sweep": {
        "blowup": _Target({"p": "2", "s": "4/3"}),
        "delta": _Target({"p": "2"}, ("grid-n", "grid-l")),
        "necessity": _Target(dict.fromkeys("psqtr", "2"), ("grid-n", "grid-l")),
    },
}


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand parser that reports an argument it does not take
    itself, so the usage printed is its own, not the root parser's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, unread = super().parse_known_args(args, namespace)
        if unread:
            self.error(f"unrecognized arguments: {' '.join(unread)}")
        return namespace, unread


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mixnorm",
        description="Numerical checks for mixed-norm Fourier inequalities.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    constants = sub.add_parser(
        "constants", help="print sharp Hausdorff-Young constants C_r", allow_abbrev=False
    )
    constants.add_argument("--r", nargs="+", required=True, help="exponents in [1, 2]")
    constants.add_argument(
        "--dim", nargs="+", type=int, default=[1], help="dimensions for C_r^d columns"
    )
    constants.add_argument("--format", choices=["json", "csv"], default=None)
    constants.add_argument("--out", default=None, help="output path (default stdout)")

    for command, help, default_format in (
        ("verify", "run a seeded suite for one inequality", "json"),
        ("sweep", "run a scaling-law sweep", "csv"),
    ):
        command_parser = sub.add_parser(command, help=help, allow_abbrev=False)
        target_parsers = command_parser.add_subparsers(dest="target", required=True)
        for name, target in _TARGETS[command].items():
            target_parser = target_parsers.add_parser(name, allow_abbrev=False)
            for exponent, default in target.exponents.items():
                target_parser.add_argument(
                    f"--{exponent}", help=f"exponent {exponent}, as 4/3 or inf (default {default})"
                )
            for flag in target.flags:
                target_parser.add_argument(f"--{flag}", **_FLAGS[flag])
            target_parser.add_argument(
                "--format", choices=["json", "csv"], default=default_format
            )
            target_parser.add_argument("--out", default=None, help="output path (default stdout)")
            target_parser.set_defaults(**target.fixed)
    return parser


def _echo(args) -> dict:
    """Every parsed value, with the exponent flags resolved into one
    ``exponents`` dict: defaults filled in, in lowest terms."""
    defaults = _TARGETS[args.command][args.target].exponents
    echo = {key: value for key, value in vars(args).items() if key not in defaults}
    echo["exponents"] = {
        name: str(as_exponent(default if getattr(args, name) is None else getattr(args, name)))
        for name, default in defaults.items()
    }
    return echo


def _destinations(out: str | None, tags: tuple = (None,)) -> dict | None:
    """Each tag's artifact file: ``out`` for the tag None, else ``out`` with
    ``_tag`` ending its stem; None for stdout. Checked before the run, so an
    unwritable ``--out`` fails at once, without creating any file."""
    if out is None:
        return None
    out = Path(out)
    paths = {tag: out.with_stem(f"{out.stem}_{tag}") if tag else out for tag in tags}
    for path in paths.values():
        if path.is_dir() or not path.parent.is_dir():
            raise OSError(f"cannot write {path}: it is a directory or its directory is missing")
        if not os.access(path if path.exists() else path.parent, os.W_OK) or (
            not _in_place(path) and not os.access(path.parent, os.W_OK)
        ):
            raise OSError(f"cannot write {path}: it or its directory is read-only")
    return paths


def _in_place(path: Path) -> bool:
    """Whether ``path`` exists and is not a regular file (a FIFO, a symlink,
    a device), so that it is written where it is rather than replaced."""
    return os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode)


def _emit(texts: dict, paths: dict | None) -> None:
    """Write each tag's text to its file, or all of them to stdout, once the
    run has succeeded. A new or regular file is written to a temporary file
    beside it, and the temporary files replace their targets only once all
    are written, so a failed write leaves every target as it was."""
    if paths is None:
        sys.stdout.write("\n".join(texts.values()))
        return
    staged = {}  # temporary file: target
    try:
        for tag, text in texts.items():
            path = paths[tag]
            if _in_place(path):
                path.write_text(text)
                continue
            temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(temporary, "x") as stream:  # a new file's mode, as open(path, "w") gives
                staged[temporary] = path
                if path.exists():
                    shutil.copymode(path, temporary)
                stream.write(text)
        for temporary, path in staged.items():
            temporary.replace(path)
    except BaseException:
        for temporary in staged:
            temporary.unlink(missing_ok=True)
        raise


def _render(config: dict, fmt: str, rows: list, footer: dict | None) -> str:
    """An artifact: the config echo, one line per row, then ``footer`` unless None.

    JSON writes each of ``{"config": config}``, the rows (dicts) and the
    footer as one sorted-key object per line. CSV writes a ``# config:``
    comment, then the rows (lists, header first) through ``csv.writer``,
    which gives a float its repr and None an empty cell, then the footer
    as a ``#`` comment.
    """
    if fmt == "json":
        objects = [{"config": config}, *rows, *([] if footer is None else [footer])]
        return "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objects)
    buffer = io.StringIO()
    buffer.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    if footer is not None:
        buffer.write("# " + json.dumps(footer, sort_keys=True) + "\n")
    return buffer.getvalue()


def _cmd_constants(args) -> int:
    paths = _destinations(args.out)
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
        if args.format == "json":
            rows = [dict(zip(header, row)) for row in table]
        else:
            rows = [header, *table]
        text = _render(config, args.format, rows, None)
    _emit({None: text}, paths)
    return 0


def _cmd_verify(args) -> int:
    paths = _destinations(args.out)
    config = _echo(args)
    inequality = args.target.replace("-", "_")
    if args.d2 < 1 and not INEQUALITIES[inequality].one_group:
        raise ValueError(f"--d2 must be at least 1 for {args.target}, got {args.d2}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    selection = config["exponents"]
    if INEQUALITIES[inequality].pairs:
        if any(getattr(args, name) is not None for name in selection):
            selection = {"exponent_tuples": [ExponentTuple(**selection)]}
        else:  # no exponent given: ten random tuples, echoed as {}
            config["exponents"] = {}
            selection = {"exponent_tuples": random_admissible_tuples(10, args.seed)}
    grid = GridSpec(args.d1, args.d2, args.n, args.extent)
    functions = ensemble_stream(grid, args.trials, args.seed)
    reports = run_suite(inequality, functions, **selection)
    failures = sum(not r.degenerate and not r.passed for r in reports)
    degenerate = sum(r.degenerate for r in reports)
    summary = {"summary": {"trials": args.trials, "checks": len(reports), "failures": failures,
                           "degenerate": degenerate}}
    if args.format == "json":
        rows = [r.json_dict() for r in reports]
    else:
        rows = [["inequality_id", "exponents", "ratio", "pass"]]
        for r in reports:
            exps = r.descriptors.get("exponents", {})
            cell = " ".join(f"{k}={v}" for k, v in exps.items())
            rows.append([r.inequality_id, cell, r.ratio, r.passed])
    _emit({None: _render(config, args.format, rows, summary)}, paths)
    return 1 if failures else 0


def _sweep_text(report: SweepReport, config: dict) -> str:
    """The sweep's fields and config as one JSON document, or its points as
    CSV with the fit as the footer."""
    fields = asdict(report)
    if config["format"] == "json":
        return json.dumps({**fields, "config": config}, sort_keys=True) + "\n"
    table = [["parameter", "observed", "log_parameter", "log_observed"]]
    for x, y in zip(report.parameter_values, report.observed):
        table.append([x, y, math.log(x), math.log(y)])
    for name in ("parameter_values", "observed", "details"):
        del fields[name]
    return _render(config, "csv", table, fields)


def _cmd_sweep(args) -> int:
    axes = ("first", "second")
    paths = _destinations(args.out, axes if args.target == "necessity" else (None,))
    config = _echo(args)
    exponents = config["exponents"]
    if args.target == "blowup":
        p, s = as_exponent(exponents["p"]), as_exponent(exponents["s"])
        if not s < p:
            raise ValueError(
                f"blowup needs s < p strictly (got p={p}, s={s}); "
                "at s >= p the ratio stays bounded"
            )
        reports = {None: blowup_sweep(p, s)}
    else:
        grid = GridSpec(1, 1, args.n, args.extent)
        if args.target == "delta":
            reports = {None: delta_divergence_demo(as_exponent(exponents["p"]), grid=grid)}
        else:
            exps = ExponentTuple(**exponents)
            reports = {axis: necessity_sweep(exps, grid=grid, axis=axis) for axis in axes}
    _emit({tag: _sweep_text(report, config) for tag, report in reports.items()}, paths)
    return 0 if all(report.passed for report in reports.values()) else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "constants":
            return _cmd_constants(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_sweep(args)
    except (ValueError, OSError) as error:  # bad exponents, sampling errors, unwritable --out
        print(f"error: {error}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
