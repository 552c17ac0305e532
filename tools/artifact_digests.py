"""Digest a fixed set of ``mixnorm`` command-line runs, one line per run.

Each invocation runs as ``python3 -m mixnorm ...`` in a fresh interpreter
with the caller's ``PYTHONPATH`` (relative entries made absolute) and an
empty temporary working directory. The line gives the exit code, the
sha256 of stdout and of stderr, the sha256 of every file the run left in
its working directory (its ``--out`` files), then the argv.

Artifacts are clock-free, so two checkouts that write the same artifacts
print the same lines. To compare a change with its parent:

    PYTHONPATH=/path/to/parent/src python3 tools/artifact_digests.py > parent.txt
    PYTHONPATH=src python3 tools/artifact_digests.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

INVOCATIONS: list[list[str]] = [
    *(
        ["verify", inequality, "--trials", "3", "--format", fmt]
        for inequality in ("restriction", "bilinear", "variant", "same-order", "hausdorff-young")
        for fmt in ("json", "csv")
    ),
    *(
        ["verify", "bilinear", "--p", "2", "--s", "2", "--q", "2", "--t", "2", "--r", "inf",
         "--trials", "2", "--format", fmt]
        for fmt in ("json", "csv")
    ),
    *(
        ["sweep", kind, "--format", fmt]
        for kind in ("blowup", "delta", "necessity")
        for fmt in ("csv", "json")
    ),
    ["constants", "--r", "1", "4/3", "3/2", "2", "--dim", "1", "2", "--format", "json"],
    ["constants", "--r", "1", "4/3", "3/2", "2", "--dim", "1", "2"],
    # error exits
    ["verify", "restriction", "--trials", "0"],
    ["verify", "restriction", "--trials", "-3"],
    ["verify", "restriction", "--p", "3", "--trials", "2"],
    ["verify", "same-order", "--p", "2", "--s", "4/3", "--trials", "2"],
    ["verify", "bilinear", "--p", "2", "--s", "3", "--q", "2", "--t", "3", "--r", "inf"],
    ["verify", "restriction", "--grid-n", "64", "--trials", "2"],
    # artifacts written to files
    ["verify", "variant", "--p", "4/3", "--s", "3/2", "--trials", "3", "--out", "variant.jsonl"],
    ["sweep", "necessity", "--r", "inf", "--out", "necessity.csv"],
    # a grid of several reduction blocks, with a spectrum miss that fills both groups
    ["verify", "variant", "--p", "4/3", "--s", "3/2", "--grid-n", "1024", "--trials", "2"],
    # every flag of every target, defaults spelled out where another value costs more
    *(
        ["verify", inequality, *exponents, "--d1", "1", *d2, "--grid-n", "192", "--grid-l", "16",
         "--trials", "2", "--seed", "11", "--format", "csv", "--out", f"{inequality}.csv"]
        for inequality, exponents, d2 in (
            ("restriction", ["--p", "4/3"], ["--d2", "1"]),
            ("hausdorff-young", ["--p", "3/2"], []),
            ("variant", ["--p", "3/2", "--s", "4/3"], ["--d2", "1"]),
            ("same-order", ["--p", "4/3", "--s", "3/2"], ["--d2", "1"]),
            ("bilinear", ["--p", "2", "--s", "2", "--q", "2", "--t", "2", "--r", "inf"],
             ["--d2", "1"]),
        )
    ),
    ["sweep", "blowup", "--p", "2", "--s", "4/3", "--format", "csv", "--out", "blowup.csv"],
    ["sweep", "delta", "--p", "4/3", "--grid-n", "256", "--grid-l", "12", "--format", "json",
     "--out", "delta.json"],
    ["sweep", "necessity", "--p", "2", "--s", "2", "--q", "2", "--t", "2", "--r", "inf",
     "--grid-n", "192", "--grid-l", "16", "--format", "json", "--out", "necessity.json"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    entries = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(str(Path(e).resolve()) for e in entries if e)
    return env


def digest_line(argv: list[str], env: dict[str, str]) -> str:
    """Run one invocation in a fresh interpreter and temporary directory."""
    with tempfile.TemporaryDirectory(prefix="mixnorm_digest_") as workdir:
        run = subprocess.run(
            [sys.executable, "-m", "mixnorm", *argv], cwd=workdir, env=env, capture_output=True
        )
        files = [
            f"{path.name}={_sha(path.read_bytes())}" for path in sorted(Path(workdir).iterdir())
        ]
    fields = [str(run.returncode), _sha(run.stdout), _sha(run.stderr), *files]
    return " ".join(fields) + " mixnorm " + shlex.join(argv)


def main() -> None:
    env = _environment()
    for argv in INVOCATIONS:
        print(digest_line(argv, env), flush=True)


if __name__ == "__main__":
    main()
