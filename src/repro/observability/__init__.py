"""Observability: where a run's wall-clock time goes.

The exploration runtime reports *what* happened (cache hit rates, stage
counters, trajectories); this package times it, as the source paper
measures its schedule-table generation time:

* :class:`Tracer` — the one instrument of a run: structured span/event
  records with run ids, monotonic timestamps and parent-span nesting,
  emitted to a :class:`JsonlSink` (the ``repro-cpg explore --trace FILE``
  format), an in-memory :class:`RingBufferSink` or no sink at all, and
  per-name span totals (the ``--metrics`` stage timings); tracing is off by
  default — instrumented layers take ``tracer=None`` and skip their spans,
  allocating nothing;
* :func:`aggregate_trace` / :func:`format_trace_report` — the
  ``repro-cpg trace-report`` aggregation from a raw trace to per-stage /
  per-engine wall-time tables.

Everything here is dependency-free and imports nothing from the rest of
``repro`` (except the table formatter, lazily), so any layer — graph,
scheduling, exploration, CLI — can instrument itself without import cycles.
See ``docs/observability.md`` for the record schema and the span-name
catalogue.
"""

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
    "JsonlSink",
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
