"""The scripts under tools/ stay in step with the command line."""

import importlib.util
from pathlib import Path

from mixnorm import cli

DIGESTS = Path(__file__).resolve().parent.parent / "tools" / "artifact_digests.py"


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
