"""Recompute ``pins.json``: the expected output of every workload input.

Run from the root of a checkout, on a commit whose results are known to
be right::

    python3 e2ebench/pin.py [WORKLOAD ...]   # default: every workload

Sweeps pin the ``result_hash`` of one cold sweep per workload seed and
size.  ``serve-tcp`` pins the plane's final state (intervals, machines,
mode, violations, moves, trigger fires) per seed, size and schedule,
computed by replaying the same reports through ``pstore serve
--source file:`` — a second ingest path, so the TCP runs are checked
against an independent feed of the same data.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import serve_workload  # noqa: E402


def serve_pin(root: str, size: dict, kind: str, seed: int) -> dict:
    phases = serve_workload.schedule(size, kind)
    total_slots = phases[-1]["start"] + phases[-1]["slots"]
    lines = serve_workload.report_lines(
        serve_workload.fleet_counts(seed, size["nodes"], total_slots + 1)
    )[: total_slots * size["nodes"]]
    with tempfile.TemporaryDirectory(dir=os.path.join(root, ".e2ebench")) as tmp:
        path = os.path.join(tmp, "reports.jsonl")
        with open(path, "wb") as handle:
            handle.writelines(lines)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--source", f"file:{path}",
             "--slot-seconds", str(serve_workload.SLOT_SECONDS),
             "--predictor", "ar", "--out", "none", "--status-every", "0",
             "--quiet"],
            cwd=root, env=run.child_env(root), capture_output=True, text=True,
            check=True,
        )
    final = serve_workload.parse_summary(proc.stdout)
    if final is None or final["intervals"] != total_slots:
        raise SystemExit(f"unexpected serve summary: {proc.stdout!r}")
    return final


def main(argv) -> int:
    root = os.getcwd()
    os.makedirs(os.path.join(root, ".e2ebench"), exist_ok=True)
    wanted = set(argv or run.WORKLOADS)
    pins = run.load_pins() if os.path.exists(run.PINS_PATH) else {}
    for workload in ("season-sweep", "elastic-sweep"):
        if workload not in wanted:
            continue
        pins[workload] = {}
        for size_name, size in run.SWEEP_SIZES[workload].items():
            table = pins[workload][size_name] = {}
            for seed in run.WORKLOAD_SEEDS:
                work = os.path.join(root, ".e2ebench", "pin-work")
                rep = run.sweep_rep(root, workload, seed, size, False, work)
                if "error" in rep:
                    raise SystemExit(f"{workload} seed {seed}: {rep['error']}")
                table[str(seed)] = rep["result_hash"]
                print(workload, size_name, seed, rep["result_hash"][:12], flush=True)
    if "serve-tcp" in wanted:
        pins["serve-tcp"] = {}
        for size_name, size in serve_workload.SIZES.items():
            pins["serve-tcp"][size_name] = {}
            for kind in ("full", "traced"):
                table = pins["serve-tcp"][size_name][kind] = {}
                for seed in run.WORKLOAD_SEEDS:
                    table[str(seed)] = serve_pin(root, size, kind, seed)
                    print("serve-tcp", size_name, kind, seed, table[str(seed)],
                          flush=True)
    with open(run.PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
