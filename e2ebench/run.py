"""End-to-end benchmark of the P-Store reproduction.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload season-sweep --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

* ``season-sweep``  — cold serial ``repro.sweep("fig12", ...)`` over a
  shortened season with the full 28-day training window;
* ``elastic-sweep`` — cold fig09 sweep with per-cell telemetry and the
  manifest written, default ``auto`` backend;
* ``serve-tcp``     — ``pstore serve --source tcp:<port>`` under an
  open-loop report stream from a simulated fleet.

With ``--trace 0`` the last stdout line carries every end-to-end metric,
with ``--trace 1`` every per-layer metric (from a separate traced run,
plus ``trace.overhead_ratio``).  Every run checks its outputs against
``pins.json`` and counts a mismatch as a failure.  ``--size smoke`` runs
a tiny version of each workload (used by the benchmark's own tests).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import serve_workload  # noqa: E402

WORKLOADS = ("season-sweep", "elastic-sweep", "serve-tcp")

#: ``--seed n`` selects workload seed ``WORKLOAD_SEEDS[n % 8]``: the same
#: seed always gives the same inputs, and every input has pinned outputs.
WORKLOAD_SEEDS = (7, 11, 13, 17, 19, 23, 29, 31)

SWEEP_SIZES = {
    "season-sweep": {
        "full": {"n_days": 2, "q_fractions": [0.45, 0.65]},
        "smoke": {"n_days": 1, "q_fractions": [0.45]},
    },
    "elastic-sweep": {
        "full": {"eval_days": 1},
        "smoke": {"eval_days": 1},
    },
}
#: Cold sweeps per untraced run (at least; more while ``--seconds`` lasts).
MIN_REPS = {"full": 3, "smoke": 1}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "ingest_rps": "1/s",
    "close_p50_ms": "ms",
}

PER_LAYER = {
    # End to end, but too noisy run to run on a shared 2-core host to
    # carry a bound (see README.md); reported from the untraced run.
    "close_p99_ms": "ms",
    "workload.trace_s": "s",
    "workload.memo_hit_ratio": "ratio",
    "prediction.fit_s": "s",
    "prediction.fit_calls": "count",
    "prediction.forecast_s": "s",
    "prediction.forecast_calls": "count",
    "prediction.history_len_mean": "slots",
    "core.planner.dp_s": "s",
    "core.planner.dp_calls": "count",
    "core.controller.self_s": "s",
    "core.controller.act_ratio": "ratio",
    "sim.capacity_sim.self_s": "s",
    "sim.capacity_sim.slots": "count",
    "hstore.engine.scalar_ticks": "count",
    "hstore.engine.block_ticks": "count",
    "hstore.engine.step_s": "s",
    "sim.tensor.self_s": "s",
    "sim.tensor.batched_tick_ratio": "ratio",
    "sim.tensor.evictions": "count",
    "squall.migrator.advance_s": "s",
    "squall.migrator.advance_calls": "count",
    "telemetry.accuracy_s": "s",
    "telemetry.metrics_s": "s",
    "telemetry.chronicle_s": "s",
    "telemetry.share": "ratio",
    "runner.cache_s": "s",
    "runner.manifest_s": "s",
    "runner.cell_s_max": "s",
    "serve.ingest.backpressure_hits": "count",
    "serve.ingest.rejected": "count",
    "serve.ingest.throttled": "count",
    "serve.depository.add_s": "s",
    "serve.depository.late_reports": "count",
    "serve.controller.on_interval_s": "s",
    "loadgen.late_p99_ms": "ms",
    "loadgen.sent": "count",
    "trace.overhead_ratio": "ratio",
}

PINS_PATH = os.path.join(HERE, "pins.json")


class BenchError(Exception):
    """The benchmark cannot run here (not a failed measurement)."""


# ----------------------------------------------------------------------
# Environment record
# ----------------------------------------------------------------------


def source_digest(root: str) -> str:
    """SHA-256 over every ``src/**/*.py`` path and content."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def environment(root: str, args, workload_seed: int) -> dict:
    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "workload_seed": workload_seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": commit,
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def load_pins() -> dict:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PSTORE_CACHE_DIR", None)
    return env


def layer_metrics(trace: dict, wall_s: float, extra: dict) -> dict:
    """Map a tracer summary onto the per-layer metric names, with
    ``extra`` values read elsewhere; a layer that did no work reports 0.
    ``wall_s`` is the traced time ``telemetry.share`` is a share of."""
    self_s = trace.get("self_s", {}) if trace else {}
    calls = trace.get("calls", {}) if trace else {}
    counters = trace.get("counters", {}) if trace else {}

    def ratio(num, den):
        return num / den if den else 0.0

    forecasts = calls.get("prediction.forecast", 0)
    cycles = calls.get("core.controller", 0)
    telemetry_s = sum(v for k, v in self_s.items() if k.startswith("telemetry."))
    values = {
        "workload.trace_s": self_s.get("workload.trace", 0.0),
        "prediction.fit_s": self_s.get("prediction.fit", 0.0),
        "prediction.fit_calls": calls.get("prediction.fit", 0),
        "prediction.forecast_s": self_s.get("prediction.forecast", 0.0),
        "prediction.forecast_calls": forecasts,
        "prediction.history_len_mean": ratio(
            counters.get("prediction.history_len_total", 0), forecasts),
        "core.planner.dp_s": self_s.get("core.planner.dp", 0.0),
        "core.planner.dp_calls": calls.get("core.planner.dp", 0),
        "core.controller.self_s": self_s.get("core.controller", 0.0),
        "core.controller.act_ratio": ratio(
            counters.get("core.controller.acts", 0), cycles),
        "sim.capacity_sim.self_s": self_s.get("sim.capacity_sim", 0.0),
        "sim.capacity_sim.slots": counters.get("sim.capacity_sim.slots", 0),
        "hstore.engine.scalar_ticks": calls.get("hstore.engine.step", 0),
        "hstore.engine.block_ticks": counters.get("hstore.engine.block_ticks", 0),
        "hstore.engine.step_s": self_s.get("hstore.engine.step", 0.0)
        + self_s.get("hstore.engine.block", 0.0),
        "sim.tensor.self_s": self_s.get("sim.tensor", 0.0),
        "squall.migrator.advance_s": self_s.get("squall.migrator.advance", 0.0),
        "squall.migrator.advance_calls": calls.get("squall.migrator.advance", 0),
        "telemetry.accuracy_s": self_s.get("telemetry.accuracy", 0.0),
        "telemetry.metrics_s": self_s.get("telemetry.metrics", 0.0),
        "telemetry.chronicle_s": self_s.get("telemetry.chronicle", 0.0),
        "telemetry.share": ratio(telemetry_s, wall_s),
        "runner.cache_s": self_s.get("runner.cache", 0.0),
        "runner.manifest_s": self_s.get("runner.manifest", 0.0),
        "serve.depository.add_s": self_s.get("serve.depository", 0.0),
        "serve.controller.on_interval_s": self_s.get("serve.controller", 0.0),
    }
    values.update(extra)
    return {name: values.get(name, 0) for name in PER_LAYER}


def median_dicts(docs) -> dict:
    return {k: median([d[k] for d in docs]) for k in docs[0]}


# ----------------------------------------------------------------------
# Sweep workloads
# ----------------------------------------------------------------------


def sweep_rep(root, workload, workload_seed, size, trace, work) -> dict:
    """One cold sweep in a fresh process; returns the child's record."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    job = {
        "workload": workload, "seed": workload_seed, "size": size,
        "trace": trace, "work": work, "run_id": uuid.uuid4().hex[:12],
        "spawned": time.time(),
    }
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "sweep_child.py"), json.dumps(job)],
        cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return {"error": f"sweep child exited {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cell_latency_ms(reps, q: float) -> float:
    """Nearest-rank ``q``-th percentile of every cell latency of ``reps``."""
    cells = sorted(s for rep in reps for s in rep["cell_s"])
    return cells[round(q / 100.0 * (len(cells) - 1))] * 1e3


def run_sweep(root, args, workload_seed, work) -> tuple:
    size = SWEEP_SIZES[args.workload][args.size]
    pinned = load_pins()[args.workload][args.size].get(str(workload_seed))
    plain, traced = [], []
    attempted = failed = 0
    started = time.monotonic()
    min_reps = 1 if args.trace else MIN_REPS[args.size]
    while len(plain) < min_reps or time.monotonic() - started < args.seconds:
        modes = (False, True) if args.trace else (False,)
        for trace in modes:
            rep = sweep_rep(root, args.workload, workload_seed, size, trace,
                            os.path.join(work, f"rep{len(plain) + len(traced)}"))
            if "error" in rep:
                attempted += 1
                failed += 1
                print(f"# rep failed: {rep['error']}", file=sys.stderr)
                continue
            attempted += rep["cells"] + 1
            if rep["result_hash"] != pinned:
                failed += 1
                print(f"# result_hash {rep['result_hash']} != pinned {pinned}",
                      file=sys.stderr)
            (traced if trace else plain).append(rep)
        if args.size == "smoke" or failed:
            break
    if not plain or (args.trace and not traced):
        raise BenchError("no sweep repetition completed")

    if not args.trace:
        metrics = {
            "setup_s": median([r["setup_s"] for r in plain]),
            "run_s": median([r["run_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "ingest_rps": median([r["slots"] / r["run_s"] for r in plain]),
            "close_p50_ms": cell_latency_ms(plain, 50),
        }
        return metrics, attempted, failed, {"reps": plain}

    per_rep = []
    for rep in traced:
        reuse = rep["trace_reuse"]
        tensor = rep["tensor"]
        ticks = tensor.get("batched_ticks", 0) + tensor.get("scalar_ticks", 0)
        per_rep.append(layer_metrics(
            rep["trace"],
            rep["run_s"],
            {
                "workload.memo_hit_ratio": (
                    reuse.get("hits", 0)
                    / max(1, reuse.get("hits", 0) + reuse.get("misses", 0))
                ),
                "sim.tensor.batched_tick_ratio": (
                    tensor.get("batched_ticks", 0) / ticks if ticks else 0.0
                ),
                "sim.tensor.evictions": tensor.get("evictions", 0),
                "runner.cell_s_max": max(rep["cell_s"]),
            },
        ))
    metrics = median_dicts(per_rep)
    metrics["close_p99_ms"] = cell_latency_ms(plain, 99)
    metrics["trace.overhead_ratio"] = (
        median([r["run_s"] for r in traced]) / median([r["run_s"] for r in plain])
    )
    return metrics, attempted, failed, {"reps": plain, "traced": traced}


# ----------------------------------------------------------------------
# serve-tcp
# ----------------------------------------------------------------------


def check_serve_pass(result: dict, pinned, min_predictive: int) -> tuple:
    """``(attempted, failed, messages)`` for one serve pass: each report
    not ingested is one failure, every other broken check one more."""
    # Late and rejected reports are already missing from the ingested
    # count; a throttled one arrives, but only after the plane held it.
    lost = int(result["not_ingested"] + result["throttled"])
    problems = []
    if result["final"] != pinned:
        problems.append(f"final state {result['final']} != pinned {pinned}")
    if result["final"] and result["final"]["intervals"] != result["expected_intervals"]:
        problems.append("closed intervals != slots sent")
    if result["predictive_closes"] < min_predictive:
        problems.append(
            f"only {result['predictive_closes']} post-warm-up closes in the "
            "nominal phase")
    if result["late_p99_ms"] > serve_workload.MAX_LATE_P99_MS:
        problems.append(
            f"generator fell behind (late p99 {result['late_p99_ms']:.1f} ms)")
    messages = [f"{lost} reports not ingested"] if lost else []
    return result["sent"] + 1, lost + len(problems), messages + problems


def run_serve(root, args, workload_seed, work) -> tuple:
    size = serve_workload.SIZES[args.size]
    pins = load_pins()["serve-tcp"][args.size]
    env = child_env(root)
    kinds = [("traced", False), ("traced", True)] if args.trace else [("full", False)]
    passes = []
    attempted = failed = 0
    for kind, trace in kinds:
        boots = 1 if args.trace else size["boots"]
        result = serve_workload.run_pass(
            size, kind, workload_seed, env, work, trace, boots,
            run_id=uuid.uuid4().hex[:12])
        tried, bad, problems = check_serve_pass(
            result, pins[kind].get(str(workload_seed)), size["min_predictive"])
        for problem in problems:
            print(f"# serve check failed: {problem}", file=sys.stderr)
        attempted += tried
        failed += bad
        passes.append(result)

    if not args.trace:
        result = passes[0]
        metrics = {
            "setup_s": median(result["setup_s"]),
            "run_s": result["run_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "ingest_rps": result["ingest_rps"],
            "close_p50_ms": result["close_p50_ms"],
        }
        return metrics, attempted, failed, {"passes": passes}

    plain, traced = passes
    metrics = layer_metrics(
        traced["trace"],
        traced["cpu_nominal_s"],
        {
            "serve.ingest.backpressure_hits": traced["backpressure_hits"],
            "serve.ingest.rejected": traced["rejected"],
            "serve.ingest.throttled": traced["throttled"],
            "serve.depository.late_reports": traced["late_reports"],
            "loadgen.late_p99_ms": traced["late_p99_ms"],
            "loadgen.sent": traced["sent"],
            "close_p99_ms": plain["close_p99_ms"],
            "trace.overhead_ratio": traced["cpu_nominal_s"] / plain["cpu_nominal_s"],
        },
    )
    return metrics, attempted, failed, {"passes": passes}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",),
        help="one workload, or all of them in turn (exit status 1 if any "
        "output is wrong)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def run_workload(root: str, args) -> dict:
    """Run ``args.workload`` once; returns the record kept in
    ``.e2ebench/results.jsonl``."""
    workload_seed = WORKLOAD_SEEDS[args.seed % len(WORKLOAD_SEEDS)]
    work = os.path.join(root, ".e2ebench", "work", uuid.uuid4().hex[:12])
    os.makedirs(work)
    try:
        runner = run_serve if args.workload == "serve-tcp" else run_sweep
        metrics, attempted, failed, detail = runner(root, args, workload_seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "env": environment(root, args, workload_seed),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "detail": detail,
    }
    with open(os.path.join(root, ".e2ebench", "results.jsonl"), "a") as handle:
        handle.write(json.dumps(record, default=float) + "\n")
    print("# env " + json.dumps(record["env"]))
    for name, doc in record["metrics"].items():
        print(f"# {args.workload} {name} = {doc['value']:.6g} {doc['unit']}")
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a checkout (src/repro not found)",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    try:
        for workload in workloads:
            one = argparse.Namespace(**{**vars(args), "workload": workload})
            records[workload] = run_workload(root, one)
    except (BenchError, RuntimeError, OSError, subprocess.SubprocessError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    if len(records) == 1:
        metrics = next(iter(records.values()))["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, r in records.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed and len(records) > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
