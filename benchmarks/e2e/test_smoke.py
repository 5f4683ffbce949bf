"""Smoke test of the benchmark itself, on fractions of a second.

``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (not part of the
tier-1 suite, whose ``testpaths`` is ``tests``). Checks that the output
matches ``BENCHMARK.json``, that seed and ``--seconds`` fix every count,
and that the trace is a well-formed tree that attributes the time it
covers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from . import harness, metrics
from .workloads import REPO_ROOT, WORKLOADS

IN_PROCESS = [name for name, cls in WORKLOADS.items() if cls.single_threaded]


def _contract():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload, seed, trace, seconds=0.6):
    contract = _contract()
    done = subprocess.run(
        [sys.executable, *contract["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_contract_file_matches_the_harness():
    contract = _contract()
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for group, expected in (("end_to_end", metrics.END_TO_END),
                            ("per_layer", metrics.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"])
                    for m in contract[group]}
        assert declared == expected
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert bounds.pop("setup_s") <= 0.25
    assert max(bounds.values()) <= 0.10


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_output(workload):
    result = _run(workload, seed=5, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(metrics.END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == metrics.END_TO_END[name][0]
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_trace_is_a_tree_that_attributes_its_time(workload):
    result = _run(workload, seed=5, trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == set(metrics.PER_LAYER)
    assert result["metrics"]["trace.unattributed_share"]["value"] < 0.15
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0

    path = os.path.join(harness.RESULTS, f"trace_{workload}.json")
    with open(path) as handle:
        spans = json.load(handle)["spans"]
    assert any(span["name"] == "op.write" for span in spans)
    for index, span in enumerate(spans):
        assert span["end"] >= span["start"]
        parent = span["parent"]
        if parent is None:
            continue
        assert parent < index
        outer = spans[parent]
        assert outer["start"] <= span["start"] and span["end"] <= outer["end"]
        assert span["op"] == outer["op"]


def test_counts_are_a_function_of_the_seed():
    first = harness.run_slice("hot_sessions", 7, 0.3)
    again = harness.run_slice("hot_sessions", 7, 0.3)
    other = harness.run_slice("hot_sessions", 8, 0.3)
    steps, _ = first["signature"]
    assert steps > 100
    assert first["signature"] == again["signature"]
    assert first["attempted"] == again["attempted"]
    assert other["signature"] != first["signature"]
    assert other["signature"][0] == steps
