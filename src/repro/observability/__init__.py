"""Observability: structured tracing, metrics and profiling hooks.

The exploration runtime reports *what* happened (cache hit rates, fault
counters, trajectories) but — before this package — not *where wall-clock
time goes*.  This package is the missing timing spine, mirroring how the
source paper itself argues (measured schedule-table generation time):

* :class:`Tracer` — structured span/event records with run ids, monotonic
  timestamps and parent-span nesting, emitted to a :class:`JsonlSink` (the
  ``repro-cpg explore --trace FILE`` format) or an in-memory
  :class:`RingBufferSink`; tracing is off by default — instrumented layers
  take ``tracer=None`` and skip their spans, allocating nothing;
* :class:`MetricsRegistry` — named counters, gauges and histograms of one
  process, read through frozen :class:`MetricsSnapshot` views;
* :func:`aggregate_trace` / :func:`format_trace_report` — the
  ``repro-cpg trace-report`` aggregation from a raw trace to the per-stage /
  per-engine wall-time tables that seed the evaluator-flattening work.

Everything here is dependency-free and imports nothing from the rest of
``repro`` (except the table formatter, lazily), so any layer — graph,
scheduling, exploration, CLI — can instrument itself without import cycles.
See ``docs/observability.md`` for the record schema and the metric-name
catalogue.
"""

from .metrics import (
    HistogramStats,
    MetricsRegistry,
    MetricsSnapshot,
)
from .report import (
    StageProfile,
    TraceReport,
    aggregate_trace,
    format_trace_report,
)
from .trace import (
    RECORD_KEYS,
    TRACE_SCHEMA_VERSION,
    JsonlSink,
    RingBufferSink,
    Span,
    TraceError,
    Tracer,
    read_trace,
    validate_record,
)

__all__ = [
    "HistogramStats",
    "JsonlSink",
    "MetricsRegistry",
    "MetricsSnapshot",
    "RECORD_KEYS",
    "RingBufferSink",
    "Span",
    "StageProfile",
    "TRACE_SCHEMA_VERSION",
    "TraceError",
    "TraceReport",
    "Tracer",
    "aggregate_trace",
    "format_trace_report",
    "read_trace",
    "validate_record",
]
