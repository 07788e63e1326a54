"""Start ``pstore serve`` with (optionally) the layer tracer installed.

Usage::

    python3 e2ebench/serve_launcher.py TRACE_DIR|- RUN_ID -- <serve args>

With a trace directory the wrappers of :mod:`tracer` are installed
before the CLI entry point runs, and the spans plus the per-layer
summary are written to ``TRACE_DIR`` when the plane has drained.  With
``-`` the launcher only calls the CLI entry point.
"""

from __future__ import annotations

import os
import sys


def main(argv) -> int:
    trace_dir, run_id, separator, *serve_args = argv
    if separator != "--":
        raise SystemExit("usage: serve_launcher.py TRACE_DIR|- RUN_ID -- ARGS")
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro.cli import main as cli_main

    if trace_dir == "-":
        return cli_main(["serve", *serve_args])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer

    tracer = Tracer(run_id=run_id)
    tracer.install()
    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        tracer.write(
            os.path.join(trace_dir, "spans.jsonl"),
            os.path.join(trace_dir, "trace.json"),
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
