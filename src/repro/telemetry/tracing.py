"""Wall-time span recording for the monitor -> predict -> plan -> migrate loop.

A :class:`Span` is one timed operation with free-form attributes; the
:class:`SpanRecorder` maintains a stack so spans opened inside an open
span become its children (``parent_id`` linkage, as in OpenTelemetry).
Spans measure *wall time* only (``time.perf_counter`` deltas on top of a
``time.time`` epoch) — what the controller's per-cycle cost accounting
needs.  Simulated-time facts live elsewhere: migration rounds in the
causal chronicle, measurement intervals in the event log.

The :class:`NullRecorder` twin keeps instrumented code branch-free:
``with tracer.span(...)`` costs one method call and a shared no-op
context manager when tracing is disabled.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Span:
    """One finished (or in-flight) operation."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    def set(self, key: str, value: object) -> None:
        """Attach an attribute (inputs, outcomes, Decision reasons...)."""
        self.attrs[key] = value

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": self.attrs,
        }


class SpanRecorder:
    """Collects spans in memory; export happens at end of run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a wall-clock child span of whatever span is open now."""
        parent = self._stack[-1].span_id if self._stack else None
        wall_start = time.time()
        perf_start = time.perf_counter()
        span = Span(
            span_id=self._next_id,
            parent_id=parent,
            name=name,
            start=wall_start,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(span)
        try:
            yield span
        except BaseException:
            # The run is unwinding through this span (fault-triggered
            # exception, KeyboardInterrupt, ...): flush it flagged rather
            # than indistinguishable from a clean completion.
            span.set("aborted", True)
            raise
        finally:
            span.end = wall_start + (time.perf_counter() - perf_start)
            self._stack.pop()
            self.spans.append(span)

    def snapshot(self) -> List[dict]:
        """Every span as a dict — including any still open on the stack
        (a run that aborted mid-span), flushed with ``aborted: True`` and
        ``end: None`` instead of being silently dropped."""
        rows = [s.to_dict() for s in self.spans]
        for span in self._stack:
            row = span.to_dict()
            row["attrs"] = dict(span.attrs, aborted=True)
            rows.append(row)
        return rows


class _NullSpan:
    """Inert span handed out by the null recorder."""

    span_id = 0
    parent_id = None
    name = ""
    start = 0.0
    end = 0.0
    duration = 0.0
    attrs: Dict[str, object] = {}

    def set(self, key: str, value: object) -> None:
        pass

    def to_dict(self) -> dict:
        return {}


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullRecorder:
    """Recorder that drops everything; shared by disabled telemetry."""

    spans: Tuple[Span, ...] = ()
    current = None

    def span(self, name: str, **attrs) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def snapshot(self) -> List[dict]:
        return []


NULL_RECORDER = NullRecorder()
