# The command-line front end produces seeded, clock-free artifacts:
# identical configurations give byte-identical files. This script drives
# the CLI in-process and checks that property directly.

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from mixnorm.cli import main

with tempfile.TemporaryDirectory(prefix="mixnorm_demo_") as tmp:
    workdir = Path(tmp)

    # ------------------------------------------------------------------
    # A constants table, a verification suite, and a sweep, all to files

    main(["constants", "--r", "4/3", "3/2", "2", "--format", "csv",
          "--out", str(workdir / "constants.csv")])
    main(["verify", "restriction", "--trials", "5", "--p", "4/3",
          "--out", str(workdir / "restriction.jsonl")])
    main(["sweep", "necessity", "--r", "inf", "--out", str(workdir / "necessity.csv")])

    for path in sorted(workdir.iterdir()):
        head = path.read_text().splitlines()[0]
        print(f"{path.name:>22}: {head[:90]}")

    # ------------------------------------------------------------------
    # Determinism: run the same configuration again and hash both artifacts

    digests = []
    for _ in range(2):
        main(["verify", "restriction", "--trials", "5", "--p", "4/3",
              "--out", str(workdir / "again.jsonl")])
        digests.append(hashlib.sha256((workdir / "again.jsonl").read_bytes()).hexdigest())
    print()
    print(f"first run:  {digests[0]}")
    print(f"second run: {digests[1]}")
    print(f"byte-identical: {digests[0] == digests[1]}")

# ----------------------------------------------------------------------
# Exit codes: 0 clean, 2 on an exponent-gate error (shown here with an
# inadmissible bilinear tuple; the message lands on stderr)

stderr = io.StringIO()
with contextlib.redirect_stderr(stderr):
    code = main(["verify", "bilinear", "--p", "2", "--s", "3", "--q", "2",
                 "--t", "3", "--r", "inf", "--trials", "1"])
print()
print(f"inadmissible tuple exit code: {code}")
print(f"stderr was: {stderr.getvalue().strip()}")
