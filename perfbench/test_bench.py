"""Self-tests of the benchmark. Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import re

import pytest

import run

workloads = run.import_program()
import tracer  # noqa: E402  (needs the import path set up above)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small_pass(name: str, seed: int):
    return workloads.WORKLOADS[name].run(seed, True, run.OUT_DIR)


@pytest.fixture(scope="module", autouse=True)
def out_dir():
    os.makedirs(run.OUT_DIR, exist_ok=True)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_pass_gives_identical_ratios(name):
    seed = workloads.WORKLOADS[name].default_seed
    untraced = small_pass(name, seed)
    spans = tracer.Tracer()
    with spans:
        traced = small_pass(name, seed)
    assert traced.evaluations == untraced.evaluations
    assert spans.spans, "the traced pass recorded no spans"
    assert workloads.inequalities.fourier is workloads.fourier, "tracer left a wrapper installed"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_non_default_seed_changes_inputs_and_passes(name):
    default = workloads.WORKLOADS[name].default_seed
    base = small_pass(name, default)
    other = small_pass(name, default + 1)
    assert [row[1] for row in other.evaluations] != [row[1] for row in base.evaluations]
    assert other.attempted == base.attempted
    assert other.failed == 0


def test_self_times_and_other_add_up_to_traced_wall():
    spans = tracer.Tracer()
    with spans:
        wall, outcome = run.timed_pass(workloads.WORKLOADS["sweeps"], workloads.SWEEPS_SEED)
    values, detail = run.layer_metrics(spans, wall, wall, outcome)
    assert detail["self_plus_other_s"] == pytest.approx(wall, rel=1e-9)
    assert values["bench.other_s"] >= 0.0
    assert values["sweeps.points"] == 42
    assert detail["check_latency_samples"] == 42


def test_names_match_the_contract_and_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert names[: len(spec["workloads"])] == list(workloads.WORKLOADS)
    assert [tuple(m.values()) for m in spec["end_to_end"]] == run.END_TO_END
    assert [tuple(m.values()) for m in spec["per_layer"]] == run.PER_LAYER
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
