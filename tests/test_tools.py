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
    assert len({tuple(argv) for argv in invocations}) == len(invocations)
    parser = cli._build_parser()
    for argv in invocations:
        parser.parse_args(argv)  # argparse exits on an unknown flag or choice


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
