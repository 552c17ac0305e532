"""The benchmark's workloads: what one timed pass runs through mixnorm's public API.

Each workload builds its inputs from a seed, runs one pass and returns an
``Outcome`` that lists every ratio evaluation with its verdict. Library calls
go through module attributes (``inequalities.run_suite``, ``cli.main``) so
that the traced pass can wrap them where the calling modules bind them.

Why these three workloads:

* ``suite`` -- many small arrays (1 MiB each, inside a per-core L2), each
  reused across about 30 exponent selections. Transform reuse, a
  restructured ``run_suite`` and cheaper powers show here.
* ``sweeps`` -- few large arrays, up to about 60 MiB, each transformed once
  and checked against a closed-form oracle. A transform-reuse cache should
  not change it.
* ``cli_fine`` -- the CLI path on 16 MiB arrays with one exponent selection
  per function, so nothing can be reused; sampling and transform-then-slice
  split the time.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import traceback
from dataclasses import dataclass, field

import numpy as np

from mixnorm import cli, inequalities, sweeps
from mixnorm.exponents import ExponentTuple, as_exponent
from mixnorm.grids import GridSpec
from mixnorm.transform import fourier, marginal_second, slice_second_zero

#: The acceptance exponent grid of criterion 5.
EXPONENT_GRID = ("1", "4/3", "3/2", "2")

#: Criterion 3 bound on the slice-of-transform versus transform-of-marginal error.
TWO_PATH_TOL = 1e-8
#: Criterion 8 bound on the DFT versus closed-form transform error.
CLOSED_FORM_TOL = 1e-6

SUITE_SEED = 500
SWEEPS_SEED = 0
CLI_SEED = 7
CLI_GRID_N = 1024
CLI_TRIALS = 20


@dataclass
class Outcome:
    """What one pass produced.

    ``evaluations`` holds one ``[label, ratio, passed, degenerate]`` row per
    ratio evaluation, in a fixed order. ``raised`` counts evaluations lost
    to an exception. ``sweep_summaries`` holds, per sweep, its slope,
    verdict and closed-form oracle errors.
    """

    evaluations: list = field(default_factory=list)
    raised: int = 0
    largest_array_bytes: int = 0
    sweep_summaries: list = field(default_factory=list)
    bytes_written: int = 0

    @property
    def attempted(self) -> int:
        return len(self.evaluations) + self.raised

    @property
    def failed(self) -> int:
        bad = sum(1 for _, _, passed, degenerate in self.evaluations if degenerate or not passed)
        return bad + self.raised


def _report_rows(reports) -> list:
    """Evaluation rows from report dicts, as ``RatioReport.json_dict`` gives them."""
    rows = []
    for r in reports:
        exps = r["descriptors"].get("exponents", {})
        label = r["inequality_id"] + ":" + ",".join(f"{k}={v}" for k, v in sorted(exps.items()))
        rows.append([label, r["ratio"], bool(r["pass"]), bool(r["degenerate"])])
    return rows


# --------------------------------------------------------------------- suite

def suite_seeds(seed: int) -> tuple[int, int, int]:
    """Ensemble seeds for the 2-D and 1-D functions and the bilinear tuple seed.

    The default seed 500 gives the acceptance seeds (500, 900, 77).
    """
    return seed, seed + 400, (seed - 423) % 2**32


def suite_selections(seed: int):
    """Every ``run_suite`` call of criterion 5, as (grid, inequality, kwargs)."""
    _, _, tuple_seed = suite_seeds(seed)
    selections = []
    for p in EXPONENT_GRID:
        selections.append(("1d", "hausdorff_young", {"p": p}))
        selections.append(("2d", "restriction", {"p": p}))
    for p, s in itertools.product(EXPONENT_GRID, EXPONENT_GRID):
        selections.append(("2d", "variant", {"p": p, "s": s}))
        if not as_exponent(p) > as_exponent(s):
            selections.append(("2d", "same_order", {"p": p, "s": s}))
    tuples = inequalities.random_admissible_tuples(10, tuple_seed)
    selections.append(("2d", "bilinear", {"exponent_tuples": tuples}))
    return selections


def run_suite_pass(seed: int, count: int = 100) -> Outcome:
    """The criterion-5 suite: ``count`` ensembles per grid, every selection."""
    seed2, seed1, _ = suite_seeds(seed)
    grid2, grid1 = GridSpec.default(), GridSpec.default(d2=0)
    functions = {
        "2d": inequalities.ensemble_trials(grid2, count, seed2),
        "1d": inequalities.ensemble_trials(grid1, count, seed1),
    }
    outcome = Outcome(largest_array_bytes=functions["2d"][0].values.nbytes)
    for which, inequality_id, kwargs in suite_selections(seed):
        try:
            reports = inequalities.run_suite(inequality_id, functions[which], **kwargs)
        except Exception:
            traceback.print_exc()
            outcome.raised += count * len(kwargs.get("exponent_tuples", [None]))
            continue
        outcome.evaluations += _report_rows(r.json_dict() for r in reports)
    return outcome


def suite_two_path_error(seed: int, outcomes) -> float:
    """Worst slice-of-transform against transform-of-marginal error, untimed."""
    seed2, _, _ = suite_seeds(seed)
    return _two_path_error(inequalities.ensemble_trials(GridSpec.default(), 100, seed2))


def _two_path_error(functions) -> float:
    worst = 0.0
    for F in functions:
        sliced = slice_second_zero(fourier(F))
        direct = fourier(marginal_second(F))
        worst = max(worst, float(np.max(np.abs(sliced.values - direct.values))))
    return worst


# -------------------------------------------------------------------- sweeps

def sweep_parameters(seed: int) -> dict:
    """Parameter values for the seeded sweeps.

    The default seed keeps every library default. Another seed scales the
    near-delta widths up by a factor in [1, 1.1) and the necessity dilations
    by a factor in [0.9, 1.1); both act on fixed 256-point grids, so the
    work per pass does not depend on the seed. The blowup dilations stay at
    their defaults because they set the auto-sized grids.
    """
    if seed == SWEEPS_SEED:
        return {"epsilon_values": None, "lambda_values": None}
    rng = np.random.default_rng(seed)
    eps_factor = 1.0 + 0.1 * float(rng.random())
    lam_factor = 0.9 + 0.2 * float(rng.random())
    return {
        "epsilon_values": tuple(eps_factor * e for e in sweeps.default_epsilon_values()),
        "lambda_values": tuple(lam_factor * v for v in sweeps.default_lambda_values()),
    }


def _sweep_calls(seed: int):
    params = sweep_parameters(seed)
    eps, lams = params["epsilon_values"], params["lambda_values"]
    admissible_tuple = ExponentTuple(2, 2, 2, 2, "inf")
    return [
        ("blowup 2,4/3", lambda: sweeps.blowup_sweep(2, "4/3")),
        ("blowup 2,2", lambda: sweeps.blowup_sweep(2, 2)),
        ("delta shear", lambda: sweeps.delta_divergence_demo(2, eps)),
        ("delta control", lambda: sweeps.delta_divergence_demo(2, eps, shear=False)),
        ("necessity flat first", lambda: sweeps.necessity_sweep(admissible_tuple, lams, axis="first")),
        ("necessity flat second", lambda: sweeps.necessity_sweep(admissible_tuple, lams, axis="second")),
        ("necessity broken r", lambda: sweeps.necessity_sweep(ExponentTuple(2, 2, 2, 2, 2), lams, axis="first")),
        ("necessity broken s-t", lambda: sweeps.necessity_sweep(ExponentTuple(2, 4, 2, 4, "inf"), lams, axis="second")),
    ]


def _grid_points(report) -> int:
    grids = report.details.get("grids") or [report.details["grid"]]
    return max(g["n"] ** 2 for g in grids)


def run_sweeps_pass(seed: int) -> Outcome:
    """The sweeps of criteria 7 to 10: 8 sweeps, 42 points at the defaults."""
    outcome = Outcome()
    for label, call in _sweep_calls(seed):
        try:
            report = call()
        except Exception:
            traceback.print_exc()
            outcome.raised += 1
            outcome.sweep_summaries.append({"sweep": label, "raised": True})
            continue
        for value in report.observed:
            outcome.evaluations.append([label, value, bool(report.passed), False])
        outcome.largest_array_bytes = max(outcome.largest_array_bytes, 16 * _grid_points(report))
        outcome.sweep_summaries.append({
            "sweep": label,
            "points": len(report.observed),
            "max_grid_points": _grid_points(report),
            "fitted_slope": report.fitted_slope,
            "passed": bool(report.passed),
            "oracle_max_error": report.details.get("oracle_max_error", []),
        })
    return outcome


# ------------------------------------------------------------------ cli_fine

def cli_argv(seed: int, trials: int, out: str) -> list[str]:
    return ["verify", "restriction", "--p", "4/3", "--grid-n", str(CLI_GRID_N),
            "--trials", str(trials), "--seed", str(seed), "--out", out]


def run_cli_pass(seed: int, trials: int = CLI_TRIALS, workdir: str = ".") -> Outcome:
    """``mixnorm verify restriction`` at 1024 points per axis, in-process.

    The JSONL artifact is read back for the ratios, then deleted.
    """
    outcome = Outcome(largest_array_bytes=16 * CLI_GRID_N**2)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = os.path.join(tmp, "verify.jsonl")
        try:
            code = cli.main(cli_argv(seed, trials, path))
            if code not in (0, 1):
                raise RuntimeError(f"mixnorm verify exited with code {code}")
            with open(path) as handle:
                lines = [json.loads(line) for line in handle]
        except Exception:
            traceback.print_exc()
            outcome.raised = trials
            return outcome
        outcome.bytes_written = os.path.getsize(path)
    outcome.evaluations = _report_rows(line for line in lines if "inequality_id" in line)
    outcome.raised = trials - len(outcome.evaluations)
    return outcome


def cli_two_path_error(seed: int, outcomes) -> float:
    grid = GridSpec.default(n=CLI_GRID_N)
    return _two_path_error(inequalities.ensemble_trials(grid, CLI_TRIALS, seed))


def sweeps_closed_form_error(seed: int, outcomes) -> float:
    """Worst DFT against closed-form transform error over the blowup points."""
    errors = [e for o in outcomes for s in o.sweep_summaries for e in s.get("oracle_max_error", [])]
    return max(errors) if errors else float("inf")


# ----------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    run: object  # (seed, small: bool, workdir) -> Outcome
    oracle: object  # (seed, outcomes) -> worst oracle error, evaluated untimed
    oracle_tol: float


WORKLOADS = {
    "suite": Workload(
        "suite",
        "criterion-5 suite: 4,400 checks on 1 MiB arrays, each reused across ~30 "
        "exponent selections; transform and mixed_norms dominate",
        SUITE_SEED,
        lambda seed, small, workdir: run_suite_pass(seed, 2 if small else 100),
        suite_two_path_error,
        TWO_PATH_TOL,
    ),
    "sweeps": Workload(
        "sweeps",
        "criteria 7-10 sweeps: 42 points on few large auto-sized grids (up to 1980^2, "
        "60 MiB), each transformed once and checked against a closed form",
        SWEEPS_SEED,
        lambda seed, small, workdir: run_sweeps_pass(seed),
        sweeps_closed_form_error,
        CLOSED_FORM_TOL,
    ),
    "cli_fine": Workload(
        "cli_fine",
        "mixnorm verify restriction in-process at 1024^2 (16 MiB arrays), one selection "
        "per function so nothing is reused; sampling and transform-then-slice split the time",
        CLI_SEED,
        lambda seed, small, workdir: run_cli_pass(seed, 2 if small else CLI_TRIALS, workdir),
        cli_two_path_error,
        TWO_PATH_TOL,
    ),
}
