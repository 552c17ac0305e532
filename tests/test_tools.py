"""The scripts under tools/ stay in step with the command line and the benchmark."""

import importlib.util
from pathlib import Path

import pytest

from mixnorm import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"
DIGESTS = TOOLS / "artifact_digests.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_digest_invocation_parses():
    invocations = _load(DIGESTS).INVOCATIONS
    assert len({tuple(argv) for argv in invocations}) == len(invocations) == 40
    parser = cli._build_parser()
    for argv in invocations:
        parser.parse_args(argv)  # argparse exits on an unknown flag or choice


def test_digests_run_every_target():
    """A new ``verify`` or ``sweep`` target cannot ship without digest coverage."""
    invocations = _load(DIGESTS).INVOCATIONS
    covered = {tuple(argv[:2]) for argv in invocations}
    for command, targets in cli._TARGETS.items():
        assert {(command, target) for target in targets} <= covered
    assert any(argv[0] == "constants" for argv in invocations)


def test_digests_pass_every_flag_of_every_target(target_flags):
    invocations = _load(DIGESTS).INVOCATIONS
    for (command, target), flags in target_flags.items():
        used = {
            arg for argv in invocations if argv[:2] == [command, target]
            for arg in argv if arg.startswith("--")
        }
        assert flags <= used, (command, target, flags - used)


PAIRS = TOOLS / "bench_pairs.py"
#: Ten pairs of wall times; the change loses the sixth.
PARENT_WALLS = [2.20, 2.14, 2.39, 2.23, 2.36, 2.18, 2.25, 2.30, 2.21, 2.27]
CHANGE_WALLS = [1.92, 1.94, 1.96, 1.99, 1.95, 2.30, 1.93, 1.97, 1.98, 1.91]


def test_pair_summary_on_fixed_numbers():
    summarize = _load(PAIRS).summarize
    s = summarize(PARENT_WALLS, CHANGE_WALLS, "lower", 0.25)
    assert s["parent"] == pytest.approx((2.2025, 2.24, 2.2925))
    assert s["change"] == pytest.approx((1.9325, 1.955, 1.9775))
    assert (s["wins"], s["pairs"], s["verdict"]) == (9, 10, "gain")
    assert s["relative"] == pytest.approx(1.955 / 2.24 - 1)
    # a rate, where higher is better, reads the same pairs the other way
    rates = summarize([1 / w for w in PARENT_WALLS], [1 / w for w in CHANGE_WALLS], "higher", 0.25)
    assert (rates["wins"], rates["verdict"]) == (9, "gain")
    # eight wins in ten is no gain, however large the medians' gap
    lost = summarize(PARENT_WALLS, CHANGE_WALLS[:9] + [2.5], "lower", 0.25)
    assert (lost["wins"], lost["verdict"]) == (8, "within bound")
    # swapped sides: 14.6% worse than a 5% bound
    assert summarize(CHANGE_WALLS, PARENT_WALLS, "lower", 0.05)["verdict"] == "regression"
    # the parent's own spread exceeds the bound and the runs overlap
    wide = summarize([1.0, 2.0, 3.0, 4.0], [2.5] * 4, "lower", 0.25)
    assert (wide["parent"], wide["verdict"]) == ((1.75, 2.5, 3.25), "unresolved")
    assert summarize([3.0], [3.0], "lower", 0.25)["parent"] == (3.0, 3.0, 3.0)


def test_each_workload_prints_its_own_block(monkeypatch, capsys):
    pairs = _load(PAIRS)
    walls = {
        ("old", "suite"): iter(PARENT_WALLS[:4]),
        ("new", "suite"): iter(CHANGE_WALLS[:4]),
        ("old", "cli_fine"): iter([1.0, 1.1, 0.9, 1.0]),
        ("new", "cli_fine"): iter([1.5, 1.4, 1.6, 1.5]),
    }
    calls = []

    def run_once(checkout, workload, seconds, seed):
        calls.append((checkout, workload, seconds, seed))
        wall = next(walls[checkout, workload])
        metrics = {"wall_s": wall, "checks_per_s": 10 / wall, "setup_s": 0.2, "peak_rss_mb": 60.0}
        return {"correct": workload == "suite", "metrics": {k: {"value": v} for k, v in metrics.items()}}

    monkeypatch.setattr(pairs, "run_once", run_once)
    argv = ["old", "new", "--workload", "suite", "--workload", "cli_fine", "--workload", "suite",
            "--pairs", "4", "--seconds", "2", "--seed", "11"]
    assert pairs.main(argv) == 0
    # a repeated workload runs once; pairs alternate which side goes first
    order = ["old", "new", "new", "old"] * 4
    assert [c[:2] for c in calls] == list(zip(order, ["suite"] * 8 + ["cli_fine"] * 8))
    assert {c[2:] for c in calls} == {(2.0, 11)}
    suite, cli_fine = capsys.readouterr().out.split("\n\n")
    assert suite.splitlines()[:5] == [
        "workload suite, seed 11, 4 pairs of 2 s runs",
        "wall_s (s, lower is better, bound 25%)",
        "  parent  median 2.215  quartiles 2.185 .. 2.27",
        "  change  median 1.95  quartiles 1.935 .. 1.968",
        "  change won 4/4 pairs, median -12.0%: gain",
    ]
    assert "  change won 0/4 pairs, median +0.0%: within bound" in suite  # setup_s
    assert suite.splitlines()[-2:] == [
        "correct (parent): true true true true", "correct (change): true true true true",
    ]
    assert cli_fine.splitlines()[0] == "workload cli_fine, seed 11, 4 pairs of 2 s runs"
    assert cli_fine.splitlines()[4] == "  change won 0/4 pairs, median +50.0%: regression"
    assert cli_fine.splitlines()[-1] == "correct (change): false false false false"
