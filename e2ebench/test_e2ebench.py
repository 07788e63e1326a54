"""The benchmark's own tests: every metric prints with its unit.

Run from the root of a checkout::

    python3 -m pytest e2ebench -q

Each workload runs at its smoke size, untraced and traced, through the
same command line the benchmark contract uses.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--size", "smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        doc = result["metrics"][metric["name"]]
        assert doc["unit"] == metric["unit"]
        assert isinstance(doc["value"], float)
    if not trace:
        assert all(doc["value"] > 0 for doc in result["metrics"].values())


def test_all_runs_every_workload():
    proc = _run(["--workload", "all", "--seed", "5", "--seconds", "0",
                 "--trace", "0", "--size", "smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [
        f"{w['name']}/{m['name']}"
        for w in BENCHMARK["workloads"] for m in BENCHMARK["end_to_end"]
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    # Only BENCHMARK.json and the benchmark's own directory: no source.
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "season-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_excludes_child_spans():
    tracer = Tracer(run_id="t")
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.01)
    assert tracer.calls == {"outer": 1, "inner": 1}
    (inner_id, inner_parent, _, inner_start, inner_end), \
        (outer_id, outer_parent, _, outer_start, outer_end) = tracer.spans
    assert inner_parent == outer_id and outer_parent is None
    inner = inner_end - inner_start
    assert tracer.self_s["inner"] == pytest.approx(inner)
    assert tracer.self_s["outer"] == pytest.approx(outer_end - outer_start - inner)
    assert tracer.self_s["outer"] >= 0.01


def test_reentrant_layer_call_counts_once():
    tracer = Tracer(run_id="t")
    with tracer.span("layer"):
        with tracer.span("layer"):
            pass
    assert tracer.calls == {"layer": 1}


def test_span_buffer_cap_keeps_totals_exact():
    tracer = Tracer(run_id="t", max_spans=2)
    for _ in range(5):
        with tracer.span("x"):
            pass
    assert len(tracer.spans) == 2 and tracer.dropped == 3
    assert tracer.calls["x"] == 5
