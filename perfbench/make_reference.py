#!/usr/bin/env python3
"""Write the reference results the benchmark checks ratios against.

Runs one pass of each workload at its default seed and stores every ratio
and verdict, plus each sweep's slope and closed-form oracle errors, in
``perfbench/reference/<workload>.jsonl``: a header line, then one
``[label, ratio, passed, degenerate]`` row per line. Regenerate only when a
change is meant to move ratios, and say so in the change.

    python3 perfbench/make_reference.py [workload ...]
"""

from __future__ import annotations

import json
import os
import sys

import run


def main(names) -> int:
    run.pin_threads()
    workloads = run.import_program()
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        outcome = workload.run(workload.default_seed, False, run.OUT_DIR)
        if outcome.failed:
            print(f"{name}: {outcome.failed} of {outcome.attempted} evaluations failed; "
                  "not writing a reference", file=sys.stderr)
            return 1
        header = {"workload": name, "seed": workload.default_seed, "sweeps": outcome.sweep_summaries}
        path = os.path.join(run.REFERENCE_DIR, f"{name}.jsonl")
        with open(path, "w") as handle:
            for line in [header, *outcome.evaluations]:
                handle.write(json.dumps(line) + "\n")
        print(f"{name}: {outcome.attempted} evaluations -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
