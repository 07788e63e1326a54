"""Observability for the predict -> plan -> migrate control loop.

Each fact is recorded once, in the stream that owns it:

* :mod:`repro.telemetry.causal` — the chronicle of decisions, actions,
  faults and violations, each linked to its causal parent;
* :mod:`repro.telemetry.events` — per-interval samples (``interval``,
  ``machines``, ...) and check findings;
* :mod:`repro.telemetry.tracing` — wall-clock spans with parent/child
  linkage, one root span per controller cycle;
* :mod:`repro.telemetry.metrics` — counters, gauges, and fixed-bucket
  streaming histograms in a label-aware registry.

:mod:`repro.telemetry.runtime` bundles them behind a process-global
default that is a no-op until :func:`enable_telemetry` is called, and
:mod:`repro.telemetry.export` turns a finished run into
``chronicle.jsonl``, ``events.jsonl``, ``spans.jsonl``,
``metrics.json``, and an ASCII dashboard.

See docs/OBSERVABILITY.md for metric names, the span hierarchy, and the
artifact file formats.
"""

from .accuracy import (
    DEFAULT_WINDOW,
    NULL_ACCURACY,
    AccuracyTracker,
    NullAccuracyTracker,
)
from .causal import (
    CHRONICLE_SCHEMA,
    NULL_CHRONICLE,
    FlightRecorder,
    NullFlightRecorder,
    make_record_id,
)
from .events import NULL_EVENTS, EventLog, NullEventLog
from .export import (
    EVENTS_SCHEMA,
    METRICS_SCHEMA,
    SPANS_SCHEMA,
    accuracy_summary,
    export_run,
    forecast_mape,
    forecast_vs_actual,
    latency_quantiles,
    machines_series,
    metrics_document,
    migration_summary,
    render_dashboard,
    render_metrics_prom,
    write_chronicle_jsonl,
    write_events_jsonl,
    write_metrics_csv,
    write_metrics_json,
    write_metrics_prom,
    write_spans_jsonl,
)
from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    default_buckets,
)
from .runtime import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    disable_telemetry,
    enable_telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_from_config,
    telemetry_scope,
)
from .tracing import NULL_RECORDER, NullRecorder, Span, SpanRecorder

__all__ = [
    "AccuracyTracker",
    "CHRONICLE_SCHEMA",
    "Counter",
    "DEFAULT_WINDOW",
    "EVENTS_SCHEMA",
    "EventLog",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_ACCURACY",
    "NULL_CHRONICLE",
    "NULL_EVENTS",
    "NULL_RECORDER",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NullAccuracyTracker",
    "NullEventLog",
    "NullFlightRecorder",
    "NullRecorder",
    "NullRegistry",
    "NullTelemetry",
    "SPANS_SCHEMA",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "accuracy_summary",
    "default_buckets",
    "disable_telemetry",
    "enable_telemetry",
    "export_run",
    "forecast_mape",
    "forecast_vs_actual",
    "get_telemetry",
    "latency_quantiles",
    "machines_series",
    "make_record_id",
    "metrics_document",
    "migration_summary",
    "render_dashboard",
    "render_metrics_prom",
    "set_telemetry",
    "telemetry_from_config",
    "telemetry_scope",
    "write_chronicle_jsonl",
    "write_events_jsonl",
    "write_metrics_csv",
    "write_metrics_json",
    "write_metrics_prom",
    "write_spans_jsonl",
]
