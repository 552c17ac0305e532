#!/usr/bin/env python3
"""Benchmark for mixnorm: times one workload and checks every result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 500 --seconds 30 --trace 0

With ``--trace 0`` it measures the end-to-end metrics: set-up time (median
of several fresh interpreters), then a small warm-up pass, then as many timed
passes as fit in ``--seconds``, at least one. With ``--trace 1`` it runs
one untraced and one traced pass and reports the per-layer metrics of the
traced one. Either way the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the details (environment, correctness figures, pass
times). Spans and results are written under ``perfbench/out/``.

The program is imported from ``src/`` of the same checkout, never from an
installed copy, and runs single-threaded: BLAS and OpenMP thread variables
are pinned to 1 before NumPy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: ROADMAP aim 1: a ratio must match its reference to this absolute bound.
RATIO_TOL = 1e-12

SETUP_REPEATS = 7
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import mixnorm
f = mixnorm.gaussian_product(mixnorm.GridSpec.default(d2=0, n=128), [1.0])
sys.exit(0 if mixnorm.check_hausdorff_young(f, "4/3").passed else 1)
"""

# name, unit, better (and bound for end-to-end metrics); BENCHMARK.json lists the same.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("checks_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]
PER_LAYER = [
    ("transform.calls", "count", "lower"),
    ("transform.self_s", "s", "lower"),
    ("transform.points", "count", "lower"),
    ("transform.fft_gflop", "GFLOP-computed", "lower"),
    ("transform.gbytes", "GB-computed", "lower"),
    ("transform.useful_frac", "ratio", "higher"),
    ("transform.kept_frac", "ratio", "higher"),
    ("transform.slice_calls", "count", "lower"),
    ("transform.marginal_calls", "count", "higher"),
    ("mixed_norms.calls", "count", "lower"),
    ("mixed_norms.self_s", "s", "lower"),
    ("mixed_norms.points", "count", "lower"),
    ("mixed_norms.useful_frac", "ratio", "higher"),
    ("sampling.calls", "count", "lower"),
    ("sampling.self_s", "s", "lower"),
    ("sampling.points", "count", "lower"),
    ("gaussians.self_s", "s", "lower"),
    ("grids.calls", "count", "lower"),
    ("grids.self_s", "s", "lower"),
    ("exponents.self_s", "s", "lower"),
    ("inequalities.checks", "count", "higher"),
    ("harness.self_s", "s", "lower"),
    ("check.ms_p50", "ms", "lower"),
    ("check.ms_p99", "ms", "lower"),
    ("sweeps.points", "count", "higher"),
    ("sweeps.max_grid_points", "count", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("bench.other_s", "s", "lower"),
    ("bench.trace_s", "s", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.untraced_wall_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["suite", "sweeps", "cli_fine"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's acceptance seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def pin_threads() -> dict:
    for name in THREAD_VARS:
        os.environ[name] = "1"
    return {name: os.environ[name] for name in THREAD_VARS}


def keep_heap() -> bool:
    """Serve every allocation from the heap and never give freed memory back.

    Large NumPy arrays otherwise come from fresh ``mmap`` regions, so each
    pass page-faults its arrays in again. On a shared host the cost of those
    faults depends on the neighbours' memory traffic and swung ``cli_fine``
    pass times by a quarter; with the heap kept, only the first pass at a
    new size faults. Applies to glibc only; elsewhere nothing changes.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_max = -1, -4
    return mallopt(m_mmap_max, 0) == 1 and mallopt(m_trim_threshold, 2**31 - 1) == 1


def import_program():
    """Import mixnorm from this checkout's ``src/``; exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "mixnorm", "__init__.py")):
        print(f"error: no mixnorm sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import mixnorm
    if not os.path.abspath(mixnorm.__file__).startswith(SRC + os.sep):
        print(f"error: imported mixnorm from {mixnorm.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads
    return workloads


# --------------------------------------------------------------- environment

def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as handle:
                level = handle.read().strip()
            with open(os.path.join(base, entry, "type")) as handle:
                kind = handle.read().strip()
            with open(os.path.join(base, entry, "size")) as handle:
                text = handle.read().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
        sizes[f"L{level}_bytes"] = int(text.rstrip("KM")) * scale
    return sizes


def environment(threads: dict, heap_kept: bool, largest_array_bytes: int) -> dict:
    import numpy
    import scipy
    caches = _cache_sizes()
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_vars": threads,
        "heap_kept": heap_kept,
        **caches,
        "largest_array_bytes": largest_array_bytes,
    }
    for level in ("L2", "L3"):
        if f"{level}_bytes" in caches:
            env[f"largest_array_per_{level}"] = largest_array_bytes / caches[f"{level}_bytes"]
    return env


# ------------------------------------------------------------------ measuring

def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing mixnorm and making one check."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC],
                              stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up check exited with {done.returncode}")
    return statistics.median(times)


def timed_pass(workload, seed: int):
    start = time.perf_counter()
    outcome = workload.run(seed, False, OUT_DIR)
    return time.perf_counter() - start, outcome


def max_deviation(rows, reference) -> tuple[float, bool]:
    """Largest |ratio - reference ratio|, and whether labels and verdicts all match."""
    if len(rows) != len(reference):
        return float("inf"), False
    worst, same = 0.0, True
    for (label, ratio, passed, degenerate), (ref_label, ref_ratio, ref_passed, ref_degenerate) in zip(rows, reference):
        same = same and label == ref_label and passed == ref_passed and degenerate == ref_degenerate
        if ratio is None or ref_ratio is None:
            if ratio is not ref_ratio:
                worst = float("inf")
        else:
            worst = max(worst, abs(ratio - ref_ratio))
    return worst, same


def load_reference(name: str) -> tuple[list, list]:
    """Stored evaluation rows and sweep summaries, as ``make_reference.py`` writes them."""
    with open(os.path.join(REFERENCE_DIR, f"{name}.jsonl")) as handle:
        header, *rows = [json.loads(line) for line in handle]
    return rows, header["sweeps"]


def check_results(workload, seed: int, outcomes) -> dict:
    """Correctness figures over every pass of one run.

    At the workload's default seed each pass is compared with the stored
    reference; at any other seed, with the first pass of this run. The
    oracle is the closed-form transform on ``sweeps`` and the two-path
    slice/marginal identity elsewhere, evaluated outside the timed passes.
    """
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if seed == workload.default_seed:
        (ref_rows, ref_sweeps), source = load_reference(workload.name), "stored"
    else:
        ref_rows, ref_sweeps, source = outcomes[0].evaluations, outcomes[0].sweep_summaries, "first-pass"
    dev, verdicts_match = 0.0, True
    for outcome in outcomes:
        d, same = max_deviation(outcome.evaluations, ref_rows)
        dev, verdicts_match = max(dev, d), verdicts_match and same
        for got, want in zip(outcome.sweep_summaries, ref_sweeps):
            if "fitted_slope" in got and "fitted_slope" in want:
                dev = max(dev, abs(got["fitted_slope"] - want["fitted_slope"]))
    oracle = workload.oracle(seed, outcomes)
    fail_frac = failed / attempted if attempted else 1.0
    correct = (attempted > 0 and failed == 0 and verdicts_match
               and dev <= RATIO_TOL and oracle <= workload.oracle_tol)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": fail_frac,
        "ratio_max_dev": dev,
        "ratio_reference": source,
        "verdicts_match": verdicts_match,
        "oracle_max_err": oracle,
        "oracle_tol": workload.oracle_tol,
    }


def percentile(values, q: float) -> float:
    import numpy
    return float(numpy.percentile(values, q)) if values else 0.0


def layer_metrics(recorder, traced_wall: float, untraced_wall: float, outcome) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and details for the log."""
    import tracer
    selfs = recorder.self_times()
    counts = recorder.counts
    other = traced_wall - recorder.top_level_time()
    checks = sum(1 for s in recorder.spans if s[0] in tracer.CHECK_NAMES)
    latencies = recorder.check_latencies_ms()
    points = sum(s.get("points", 0) for s in outcome.sweep_summaries)
    if recorder.sweep_point_count() != points:
        raise RuntimeError(f"traced {recorder.sweep_point_count()} sweep points, expected {points}")
    transform_calls = counts["transform.calls"]
    norm_calls = counts["mixed_norms.calls"]
    values = {
        "transform.calls": transform_calls,
        "transform.self_s": selfs.get("transform", 0.0),
        "transform.points": counts["transform.points"],
        "transform.fft_gflop": counts["transform.fft_flop"] / 1e9,
        "transform.gbytes": counts["transform.bytes"] / 1e9,
        "transform.useful_frac": len(recorder.transform_inputs) / transform_calls if transform_calls else 0.0,
        "transform.kept_frac": (counts["transform.slice_out_points"] / counts["transform.slice_in_points"]
                                if counts["transform.slice_in_points"] else 0.0),
        "transform.slice_calls": counts["transform.slice_calls"],
        "transform.marginal_calls": counts["transform.marginal_calls"],
        "mixed_norms.calls": norm_calls,
        "mixed_norms.self_s": selfs.get("mixed_norms", 0.0),
        "mixed_norms.points": counts["mixed_norms.points"],
        "mixed_norms.useful_frac": len(recorder.norm_inputs) / norm_calls if norm_calls else 0.0,
        "sampling.calls": counts["sampling.calls"],
        "sampling.self_s": selfs.get("sampling", 0.0),
        "sampling.points": counts["sampling.points"],
        "gaussians.self_s": selfs.get("gaussians", 0.0),
        "grids.calls": counts["grids.calls"],
        "grids.self_s": selfs.get("grids", 0.0),
        "exponents.self_s": selfs.get("exponents", 0.0),
        "inequalities.checks": checks,
        "harness.self_s": sum(selfs.get(layer, 0.0) for layer in tracer.HARNESS),
        "check.ms_p50": percentile(latencies, 50),
        "check.ms_p99": percentile(latencies, 99),
        "sweeps.points": points,
        "sweeps.max_grid_points": max((s.get("max_grid_points", 0) for s in outcome.sweep_summaries), default=0),
        "cli.bytes_written": outcome.bytes_written,
        "bench.other_s": other,
        "bench.trace_s": selfs.get("bench.trace", 0.0),
        "bench.traced_wall_s": traced_wall,
        "bench.untraced_wall_s": untraced_wall,
        "bench.trace_overhead_s": traced_wall - untraced_wall,
    }
    detail = {
        "self_s_by_layer": selfs,
        "self_plus_other_s": sum(selfs.values()) + other,
        "spans": len(recorder.spans),
        "check_latency_samples": len(latencies),
    }
    return values, detail


def emit(result: dict, detail: dict, name: str) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}.json"), "w") as handle:
        json.dump({"detail": detail, "result": result}, handle, indent=1, sort_keys=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    heap = keep_heap()
    workload = import_program().WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload.name}-seed{seed}-trace{args.trace}"

    setup_s = measure_setup() if args.trace == 0 else None
    workload.run(seed, True, OUT_DIR)  # warm-up: every code path, small inputs

    if args.trace == 0:
        # Timed passes fill --seconds without overrunning it, at least one.
        walls, outcomes = [], []
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + walls[-1] <= args.seconds:
            wall, outcome = timed_pass(workload, seed)
            walls.append(wall)
            outcomes.append(outcome)
        after = resource.getrusage(resource.RUSAGE_SELF)
        wall_s = statistics.median(walls)
        per_pass = outcomes[0].attempted
        metrics = {
            "wall_s": wall_s,
            "checks_per_s": per_pass / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
        checks = check_results(workload, seed, outcomes)
        detail = {
            "pass_walls_s": walls,
            "evaluations_per_pass": per_pass,
            "timed_user_s": after.ru_utime - before.ru_utime,
            "timed_sys_s": after.ru_stime - before.ru_stime,
            "timed_minor_faults": after.ru_minflt - before.ru_minflt,
        }
    else:
        from tracer import Tracer
        untraced_wall, untraced = timed_pass(workload, seed)
        recorder = Tracer()
        with recorder:
            traced_wall, traced = timed_pass(workload, seed)
        recorder.write(os.path.join(OUT_DIR, f"{tag}-spans.json"))
        metrics, layer_detail = layer_metrics(recorder, traced_wall, untraced_wall, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
        outcomes = [untraced, traced]
        checks = check_results(workload, seed, outcomes)
        same_ratios = max_deviation(traced.evaluations, untraced.evaluations) == (0.0, True)
        checks["traced_equals_untraced"] = same_ratios
        checks["correct"] = checks["correct"] and same_ratios
        detail = layer_detail

    detail.update({
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "trace": args.trace,
        "checks": checks,
        "environment": environment(threads, heap, max(o.largest_array_bytes for o in outcomes)),
    })
    result = {
        "correct": bool(checks["correct"]),
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    emit(result, detail, tag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
