"""One cold sweep in a fresh process (a child of ``run.py``).

Usage: ``python3 e2ebench/sweep_child.py '<json job>'`` with the job keys
``workload``, ``seed``, ``size``, ``trace``, ``work``, ``run_id`` and
``spawned`` (the parent's ``time.time()`` just before it started this
process).

Set-up is measured from ``spawned`` to the moment the grid is built
(interpreter start, imports, grid build), the sweep from there until the
sweep result (and, for ``elastic-sweep``, the manifest) is complete.
The child prints one JSON line with the timings, the ``result_hash``,
peak RSS, per-cell latencies and, when traced, the tracer summary.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def _grid(workload: str, size: dict, seed: int):
    from repro.experiments.registry import get_experiment

    if workload == "season-sweep":
        options = {
            "n_days": size["n_days"],
            "seed": seed,
            "q_fractions": tuple(size["q_fractions"]),
        }
        slots_per_cell = size["n_days"] * 288
        return get_experiment("fig12").make_grid(**options), slots_per_cell
    from repro.experiments.common import INTERVALS_PER_DAY

    specs = get_experiment("fig09").make_grid(
        eval_days=size["eval_days"], seed=seed
    )
    return specs, size["eval_days"] * INTERVALS_PER_DAY


def main(job: dict) -> dict:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer(run_id=job["run_id"])
    import repro

    if tracer is not None:
        tracer.install()
    specs, slots_per_cell = _grid(job["workload"], job["size"], job["seed"])
    setup_s = time.time() - job["spawned"]

    elastic = job["workload"] == "elastic-sweep"
    work = job["work"]
    start = time.perf_counter()
    with tracer.span("run") if tracer is not None else contextlib.nullcontext():
        result = repro.sweep(
            specs,
            jobs=1,
            cache_dir=os.path.join(work, "cache"),
            force=True,
            record_events=elastic,
            backend="auto" if elastic else "serial",
        )
        if elastic:
            result.detail.write_manifest(os.path.join(work, "out"))
    run_s = time.perf_counter() - start

    report = result.detail
    doc = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "result_hash": result.result_hash,
        "cells": len(report.cells),
        "cell_s": [c.elapsed_seconds for c in report.cells],
        "slots": slots_per_cell * len(report.cells),
        "backend": report.backend,
        "trace_reuse": dict(report.trace_reuse),
        "tensor": dict(report.tensor),
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(
            os.path.join(work, "spans.jsonl"), os.path.join(work, "trace.json")
        )
        doc["trace"] = tracer.summary()
    return doc


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)
