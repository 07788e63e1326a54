"""In-memory span tracer installed from the benchmark's own files.

The traced run wraps the public entry points of each layer of the
``repro`` package (see :data:`LAYER_TARGETS`) with a thin timing shim.
Every wrapped call becomes a span ``(run, span, parent, name, start,
end)``; spans live in memory and are written out once, when the run
ends.  Self time is a span's duration minus the time its child spans
cover, accumulated per span name as the spans close, so the per-layer
totals stay exact even when the span buffer is capped.

Nothing here is imported by the program itself: the wrappers are
installed by monkeypatching classes and module attributes after the
package is imported, and removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Spans kept in memory per run; later spans still feed the per-name
#: totals but are not stored (``dropped`` counts them).
MAX_SPANS = 200_000


def _history_len(tracer: "Tracer", args, kwargs) -> None:
    history = kwargs.get("history", args[1] if len(args) > 1 else ())
    tracer.add("prediction.history_len_total", len(history))


def _block_ticks(tracer: "Tracer", args, kwargs) -> None:
    block = kwargs.get("offered_block", args[2] if len(args) > 2 else ())
    tracer.add("hstore.engine.block_ticks", len(block))


def _trace_slots(tracer: "Tracer", args, kwargs) -> None:
    trace = kwargs.get("trace", args[1] if len(args) > 1 else ())
    tracer.add("sim.capacity_sim.slots", len(trace))


def _decision_acts(tracer: "Tracer", result) -> None:
    tracer.add("core.controller.acts", 1 if result.acts else 0)


#: (module, attribute path, span name, before hook, after hook).  An
#: attribute path is ``Class.method`` or a module-level function name;
#: the special class ``*Predictor`` means every concrete predictor class.
LAYER_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("repro.workload.generators", "b2w_like_trace", "workload.trace", None, None),
    ("repro.prediction.base", "*Predictor.fit", "prediction.fit", None, None),
    ("repro.prediction.base", "*Predictor.predict_horizon", "prediction.forecast",
     _history_len, None),
    ("repro.core.planner", "Planner.best_moves", "core.planner.dp", None, None),
    ("repro.core.controller", "PredictiveController.decide", "core.controller",
     None, _decision_acts),
    ("repro.sim.capacity_sim", "CapacitySimulator.run", "sim.capacity_sim",
     _trace_slots, None),
    ("repro.hstore.engine", "QueueingEngine.step", "hstore.engine.step", None, None),
    ("repro.hstore.engine", "QueueingEngine.step_block", "hstore.engine.block",
     None, None),
    ("repro.hstore.engine", "QueueingEngine._block_prep", "hstore.engine.block",
     _block_ticks, None),
    ("repro.hstore.engine", "QueueingEngine._block_sample_draws",
     "hstore.engine.block", None, None),
    ("repro.hstore.engine", "QueueingEngine._block_sample_math",
     "hstore.engine.block", None, None),
    ("repro.hstore.engine", "QueueingEngine._block_fallback_samples",
     "hstore.engine.block", None, None),
    ("repro.hstore.engine", "QueueingEngine._block_finish", "hstore.engine.block",
     None, None),
    ("repro.sim.tensor", "TensorBatchEngine.run", "sim.tensor", None, None),
    ("repro.squall.migrator", "ActiveMigration.advance", "squall.migrator.advance",
     None, None),
    ("repro.squall.migrator", "ClusterMigrator.advance", "squall.migrator.advance",
     None, None),
    ("repro.squall.migrator", "ClusterMigrator.step_to", "squall.migrator.advance",
     None, None),
    ("repro.telemetry.accuracy", "AccuracyTracker.record_forecast",
     "telemetry.accuracy", None, None),
    ("repro.telemetry.accuracy", "AccuracyTracker.observe", "telemetry.accuracy",
     None, None),
    ("repro.telemetry.accuracy", "AccuracyTracker.errors", "telemetry.accuracy",
     None, None),
    ("repro.telemetry.metrics", "Counter.inc", "telemetry.metrics", None, None),
    ("repro.telemetry.metrics", "Gauge.set", "telemetry.metrics", None, None),
    ("repro.telemetry.metrics", "Gauge.add", "telemetry.metrics", None, None),
    ("repro.telemetry.metrics", "Histogram.observe", "telemetry.metrics", None, None),
    ("repro.telemetry.metrics", "MetricsRegistry.counter", "telemetry.metrics",
     None, None),
    ("repro.telemetry.metrics", "MetricsRegistry.gauge", "telemetry.metrics",
     None, None),
    ("repro.telemetry.metrics", "MetricsRegistry.histogram", "telemetry.metrics",
     None, None),
    ("repro.telemetry.causal", "FlightRecorder.record", "telemetry.chronicle",
     None, None),
    ("repro.telemetry.events", "EventLog.emit", "telemetry.events", None, None),
    ("repro.runner.cache", "ResultCache.load", "runner.cache", None, None),
    ("repro.runner.cache", "ResultCache.store", "runner.cache", None, None),
    ("repro.runner.executor", "SweepReport.write_manifest", "runner.manifest",
     None, None),
    ("repro.serve.depository", "Depository.add", "serve.depository", None, None),
    ("repro.serve.depository", "Depository.flush", "serve.depository", None, None),
    ("repro.serve.controller", "OnlineController.on_interval", "serve.controller",
     None, None),
)


class Tracer:
    """Span recorder with per-name self time, call counts and counters."""

    def __init__(self, run_id: str, max_spans: int = MAX_SPANS) -> None:
        self.run_id = run_id
        self.max_spans = max_spans
        self.spans: List[tuple] = []
        self.dropped = 0
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        # Open frames: [span id, name, start, seconds covered by children].
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        span_id, name, start, covered = frame
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered
        parent = stack[-1] if stack else None
        # A call re-entering its own layer (a stage of a traced block, a
        # ``super()`` fit) is one call of that layer, not two.
        if parent is None or parent[1] != name:
            self.calls[name] = self.calls.get(name, 0) + 1
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < self.max_spans:
            self.spans.append(
                (span_id, parent[0] if parent is not None else None, name,
                 start, end)
            )
        else:
            self.dropped += 1

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                after(tracer, result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self, targets=LAYER_TARGETS) -> int:
        """Patch every target; returns the number of patched callables."""
        for module_name, path, name, before, after in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name == "*Predictor":
                for cls in _concrete_predictors(module.Predictor):
                    self._patch_method(cls, attr, name, before, after)
            elif owner_name:
                self._patch_method(
                    getattr(module, owner_name), attr, name, before, after
                )
            else:
                self._patch_function(module, attr, name, before, after)
        return len(self._patches)

    def _patch_method(self, cls, attr, name, before, after) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            patched = classmethod(self.wrap(name, raw.__func__, before, after))
        else:
            patched = self.wrap(name, raw, before, after)
        setattr(cls, attr, patched)
        self._patches.append((cls, attr, raw))

    def _patch_function(self, module, attr, name, before, after) -> None:
        original = getattr(module, attr)
        patched = self.wrap(name, original, before, after)
        # ``from x import f`` copies bind the original object into other
        # modules; rebind every copy inside the package.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, patched)
                    self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------

    def summary(self) -> dict:
        return {
            "run": self.run_id,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write(self, spans_path, summary_path) -> None:
        """Write the kept spans (JSONL) and the per-name summary (JSON)."""
        with open(spans_path, "w") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "span": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")
        with open(summary_path, "w") as handle:
            json.dump(self.summary(), handle)


def _concrete_predictors(base) -> List[type]:
    """Every predictor class except the delegating online wrapper (its
    ``fit``/``predict_horizon`` call the wrapped model, which is traced
    itself)."""
    importlib.import_module("repro.prediction")
    seen, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in seen if cls.__name__ != "OnlinePredictor"]
