"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from checks import result_violations  # noqa: E402
from layers import LAYER_UNITS, LayerTracer, SpanRecorder, layer_metrics, self_times  # noqa: E402
from run import summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro import api  # noqa: E402
from repro.spec import DagSpec, MachineSpec, ProblemSpec, SolveRequest  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small(scheduler: str, machine: dict, n: int = 10) -> SolveRequest:
    return SolveRequest(
        spec=ProblemSpec(
            dag=DagSpec.generator("spmv", n=n, q=0.3, seed=3), machine=MachineSpec(**machine)
        ),
        scheduler=scheduler,
    )


def _traced(requests):
    recorder = SpanRecorder()
    with LayerTracer(recorder):
        results = [recorder.call("api.solve", api.solve, (r,), {}) for r in requests]
    return results, recorder.spans


# ----------------------------------------------------------------------
# Every named metric is emitted, for every workload
# ----------------------------------------------------------------------
def test_manifest_names_the_code_workloads_and_metrics():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    for entry in MANIFEST["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
def test_summarize_emits_every_manifest_metric(trace):
    layers = {name: [1.0, 2.0] for name in LAYER_UNITS if name != "trace.overhead"}
    report = {
        "plain_seconds": [10.0, 12.0],
        "traced_seconds": [11.0, 13.0],
        "costs": [500.0, 500.0],
        "peak_rss_mb": 80.0,
        "layers": layers,
    }
    metrics = summarize(report, [0.5, 0.4, 0.6], trace=trace)
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(value) for value, _ in metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_metrics_cover_every_layer_on_each_workload_scheduler(name):
    workload = WORKLOADS[name]
    _, spans = _traced([workload.warmup_request()])
    metrics = layer_metrics(spans)
    assert set(metrics) == set(LAYER_UNITS) - {"trace.overhead"}
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["api.overhead_s"] >= 0.0
    assert metrics["graphs.build_s"] > 0.0
    if workload.scheduler.startswith("multilevel"):
        assert metrics["multilevel.coarsen_s"] > 0.0
    else:
        assert metrics["multilevel.coarsen_s"] == 0.0
    if "heuristics" in workload.scheduler:
        assert metrics["ilp.calls"] == 0.0


def test_requests_depend_only_on_the_seed():
    workload = WORKLOADS["framework-1k"]
    assert workload.requests(4) == workload.requests(4)
    assert workload.requests(4) != workload.requests(5)
    seeds = {workload.generator_seed(s, k) for s in range(5) for k in range(len(workload.instances))}
    assert len(seeds) == 5 * len(workload.instances)


# ----------------------------------------------------------------------
# Tracing is result-neutral and removes its wrappers
# ----------------------------------------------------------------------
def test_wrappers_are_result_neutral_and_removed():
    exact = "preset=heuristics, hc_time_limit=none, hccs_time_limit=none"
    requests = [
        _small(f"framework({exact})", {"P": 4, "g": 3, "l": 5, "delta": 2}),
        _small(f"multilevel({exact})", {"P": 4, "g": 2, "l": 20}, n=14),
    ]
    before = LayerTracer.bound_targets()
    plain = [api.solve(r) for r in requests]
    traced, spans = _traced(requests)
    assert [r.to_dict() for r in traced] == [r.to_dict() for r in plain]
    assert LayerTracer.bound_targets() == before
    assert {s["name"] for s in spans} >= {"api.solve", "scheduler.schedule", "localsearch.hc"}


def test_wrappers_are_removed_when_the_body_raises():
    before = LayerTracer.bound_targets()
    with pytest.raises(RuntimeError):
        with LayerTracer():
            assert LayerTracer.bound_targets() != before
            raise RuntimeError("boom")
    assert LayerTracer.bound_targets() == before


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 0, "parent": None, "name": "a", "t0": 0.0, "t1": 10.0, "attrs": {}},
        {"id": 1, "parent": 0, "name": "b", "t0": 1.0, "t1": 4.0, "attrs": {}},
        {"id": 2, "parent": 0, "name": "b", "t0": 3.0, "t1": 5.0, "attrs": {}},
        {"id": 3, "parent": 1, "name": "c", "t0": 2.0, "t1": 3.0, "attrs": {}},
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 2.0, 3: 1.0}


# ----------------------------------------------------------------------
# The correctness check
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def good_result():
    return api.solve(_small("bspg", {"P": 4, "g": 3, "l": 5}))


def test_check_accepts_a_real_result(good_result):
    assert result_violations(good_result, trivial_cost=None, reference=good_result) == []


def test_check_rejects_a_total_that_does_not_match_its_parts(good_result):
    doctored = dataclasses.replace(good_result, total_cost=good_result.total_cost + 1.0)
    assert any("work + comm + latency" in p for p in result_violations(doctored))


def test_check_rejects_invalid_and_non_finite_results(good_result):
    assert result_violations(dataclasses.replace(good_result, valid=False))
    assert result_violations(dataclasses.replace(good_result, total_cost=math.inf))


def test_check_rejects_a_cost_above_the_trivial_schedule(good_result):
    below = good_result.total_cost - 1.0
    assert any("trivial" in p for p in result_violations(good_result, trivial_cost=below))


def test_check_rejects_a_result_that_differs_from_its_reference(good_result):
    other = dataclasses.replace(good_result, num_supersteps=good_result.num_supersteps + 1)
    assert any("differs" in p for p in result_violations(good_result, reference=other))


# ----------------------------------------------------------------------
# The command itself
# ----------------------------------------------------------------------
def test_command_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *MANIFEST["command"][1:], "--workload", "framework-1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
