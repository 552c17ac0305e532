"""Compare two checkouts on benchmark workloads, in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--workload W2 ...]
        --pairs N --seconds S [--seed K]

PARENT and CHANGE are the roots of two checkouts. Each pair runs
``perfbench/run.py --workload W --seconds S --trace 0`` once in each, in a
fresh interpreter; the parent goes first in even pairs and the change in
odd ones, so drift of the host does not favour one side. The workloads run
one after another, in the order given, and each gets its own block of
output. For every end-to-end metric that ``BENCHMARK.json`` lists, the
block gives each side's median and quartiles, how many pairs the change
won (ties count for neither side) and a verdict:

* ``gain``: the change won at least nine pairs in ten and its median is
  better than the parent's by more than the parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's interquartile range exceeds the bound, and
  not every change run beats every parent run;
* ``within bound``: none of these.

Each block ends with every run's ``correct`` flag. A run that exits
non-zero stops the tool.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare one metric's runs, ``parent[i]`` paired with ``change[i]``.

    ``better`` is "lower" or "higher"; ``bound`` is the relative change of
    the median by which the metric may worsen.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change run per pair")
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0: b is better
    p1, p_median, p3 = quartiles(parent)
    c1, c_median, c3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gain = sign * (p_median - c_median)
    spread = p3 - p1
    if 10 * wins >= 9 * len(parent) and gain > spread:
        verdict = "gain"
    elif -gain > bound * abs(p_median):
        verdict = "regression"
    elif spread > bound * abs(p_median) and not all(
        sign * (p - c) > 0 for p in parent for c in change
    ):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": (p1, p_median, p3),
        "change": (c1, c_median, c3),
        "wins": wins,
        "pairs": len(parent),
        "relative": (c_median - p_median) / p_median if p_median else float("nan"),
        "verdict": verdict,
    }


def run_once(checkout: str, workload: str, seconds: float, seed: int | None) -> dict:
    """One untraced benchmark run: the result object of its last output line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--trace", "0"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: benchmark exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pairs(args, workload: str) -> dict[str, list[dict]]:
    """The result objects of ``args.pairs`` alternating pairs of runs."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), workload, args.seconds, args.seed)
            runs[side].append(result)
            wall = result["metrics"]["wall_s"]["value"]
            print(f"{workload} pair {index + 1}/{args.pairs} {side}: wall_s {wall:.4g}",
                  file=sys.stderr)
    return runs


def print_block(args, workload: str, runs: dict[str, list[dict]]) -> None:
    """One workload's summary of every end-to-end metric."""
    print(f"workload {workload}, seed {args.seed if args.seed is not None else 'default'}, "
          f"{args.pairs} pairs of {args.seconds:g} s runs")
    for metric in json.loads(BENCHMARK.read_text())["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        s = summarize(values["parent"], values["change"], metric["better"], metric["bound"])
        print(f"{name} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:.0%})")
        for side in ("parent", "change"):
            q1, median, q3 = s[side]
            print(f"  {side:6}  median {median:.4g}  quartiles {q1:.4g} .. {q3:.4g}")
        print(f"  change won {s['wins']}/{s['pairs']} pairs, median {s['relative']:+.1%}: "
              f"{s['verdict']}")
    for side in ("parent", "change"):
        print(f"correct ({side}): {' '.join(str(r['correct']).lower() for r in runs[side])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload to compare; repeat for more than one")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    for number, workload in enumerate(dict.fromkeys(args.workload)):
        if number:
            print()
        print_block(args, workload, run_pairs(args, workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
