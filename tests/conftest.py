"""Fixtures shared by the command-line and tools tests."""

import argparse

import pytest

from mixnorm import cli


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.fixture
def target_flags() -> dict[tuple[str, str], set[str]]:
    """The option strings each ``verify`` and ``sweep`` target accepts,
    read from the parser ``main`` uses, by (command, target)."""
    commands = _subparsers(cli._build_parser())
    return {
        (command, target): {
            option for action in parser._actions for option in action.option_strings
        } - {"-h", "--help"}
        for command in ("verify", "sweep")
        for target, parser in _subparsers(commands[command]).items()
    }
