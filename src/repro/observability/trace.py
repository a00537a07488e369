"""Structured tracing: spans and events over a strict, append-only schema.

The exploration runtime knows its *hit rates* (whole-candidate cache, stage
caches) but, before this module, not where wall-clock time goes.  A
:class:`Tracer` records that as a flat stream of JSON-compatible dicts — one
record per closed *span* (a named, timed region: an engine run, a search
cycle, a pipeline stage) or per *event* (a point occurrence, such as a
process pool falling back to in-process evaluation) — that
``repro-cpg trace-report`` aggregates into a per-stage/per-engine profile.

Schema (version :data:`TRACE_SCHEMA_VERSION`)
---------------------------------------------
Every record is a flat dict with exactly these keys:

``type``
    ``"span"`` or ``"event"``.
``run``
    The tracer's run id (one id per :class:`Tracer`), so merged trace files
    stay attributable.
``seq``
    A per-tracer monotonic sequence number.  Records are emitted when a span
    *closes*, so children precede their parents in the stream; ``seq``
    restores emission order after any merge.
``id`` / ``parent``
    The record's span id and the id of the enclosing span (``None`` at top
    level).  Events carry their own id too, so they are addressable.
``name``
    The span/stage/event name (e.g. ``"engine"``, ``"stage.expansion"``,
    ``"pool.degraded"``).
``t0``
    Start time on the monotonic ``time.perf_counter`` clock, relative to the
    tracer's creation.  Monotonic and subtraction-safe within one run;
    *not* a wall-clock timestamp.
``dt``
    Span duration in seconds (``0.0`` for events).
``attrs``
    A flat dict of JSON-scalar attributes (engine name, cycle number, cache
    hit flags, error text…).

Span totals
-----------
A tracer totals its spans by name as they close: a count and the sum of
the rounded ``dt`` their records carry (:meth:`Tracer.totals`), in emission
order, so a total equals the left-to-right sum of its spans' ``dt`` in the
trace.  The ``stage_seconds`` and ``wall_seconds`` of an exploration result
are read from these totals, and a tracer without a sink (``--metrics``
alone) keeps only them.

Disabled-path cost
------------------
Tracing is off by default: every instrumented layer (the pipeline stages,
the engines, the evaluation pool, the service) takes ``tracer=None`` and
checks for None before it opens a span or records an event, so a run
without a tracer allocates nothing for tracing and reads no clock.

Nesting uses a per-thread span stack (``threading.local``), so spans opened
on different threads (the service's job threads) nest within their own
thread and never corrupt each other's stacks.  Closing a span pops every
span opened above it first (emitting them), so an early ``break`` out of an
instrumented loop cannot leak open spans.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

#: Version tag of the trace record schema documented in the module docstring.
TRACE_SCHEMA_VERSION = 1

#: The exact key set of every trace record (strict: no extras, none missing).
RECORD_KEYS = ("type", "run", "seq", "id", "parent", "name", "t0", "dt", "attrs")

_SCALAR_TYPES = (str, int, float, bool, type(None))


class TraceError(ValueError):
    """A trace record or trace file violates the schema."""


def validate_record(record: Any) -> Dict[str, Any]:
    """Check one record against the strict schema; return it or raise.

    Raises :class:`TraceError` naming the first violation: wrong container
    type, missing/unknown keys, wrong field types, negative times, or
    non-scalar attribute values.
    """
    if not isinstance(record, dict):
        raise TraceError(f"trace record is not an object: {record!r}")
    missing = [key for key in RECORD_KEYS if key not in record]
    if missing:
        raise TraceError(f"trace record missing keys {missing}: {record!r}")
    unknown = [key for key in record if key not in RECORD_KEYS]
    if unknown:
        raise TraceError(f"trace record has unknown keys {unknown}: {record!r}")
    if record["type"] not in ("span", "event"):
        raise TraceError(f"unknown record type {record['type']!r}")
    if not isinstance(record["run"], str) or not record["run"]:
        raise TraceError(f"run id must be a non-empty string: {record['run']!r}")
    for key in ("seq", "id"):
        if not isinstance(record[key], int) or isinstance(record[key], bool):
            raise TraceError(f"{key} must be an integer: {record[key]!r}")
    parent = record["parent"]
    if parent is not None and (not isinstance(parent, int) or isinstance(parent, bool)):
        raise TraceError(f"parent must be an integer or null: {parent!r}")
    if not isinstance(record["name"], str) or not record["name"]:
        raise TraceError(f"name must be a non-empty string: {record['name']!r}")
    for key in ("t0", "dt"):
        value = record[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TraceError(f"{key} must be a number: {value!r}")
        if value < 0:
            raise TraceError(f"{key} must be non-negative: {value!r}")
    attrs = record["attrs"]
    if not isinstance(attrs, dict):
        raise TraceError(f"attrs must be an object: {attrs!r}")
    for key, value in attrs.items():
        if not isinstance(key, str):
            raise TraceError(f"attr keys must be strings: {key!r}")
        if not isinstance(value, _SCALAR_TYPES):
            raise TraceError(
                f"attr {key!r} must be a JSON scalar, got {type(value).__name__}"
            )
    return record


class JsonlSink:
    """Appends one JSON object per line to a file (the on-disk trace format).

    The file is opened lazily on the first record and flushed per record, so
    a crashed run still leaves a readable prefix.  Use as a context manager
    or call :meth:`close`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._handle = None

    @property
    def path(self) -> Path:
        """Where the trace is written."""
        return self._path

    def emit(self, record: Dict[str, Any]) -> None:
        """Write one record as a JSON line."""
        if self._handle is None:
            self._handle = self._path.open("w", encoding="utf-8")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RingBufferSink:
    """Keeps the most recent ``capacity`` records in memory.

    The in-process sink for tests and for always-on tracing with bounded
    memory (the future ``serve`` endpoint can expose the ring as its recent
    activity feed).
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._records: List[Dict[str, Any]] = []

    @property
    def records(self) -> List[Dict[str, Any]]:
        """The retained records, oldest first."""
        return list(self._records)

    def emit(self, record: Dict[str, Any]) -> None:
        """Retain one record, evicting the oldest past capacity."""
        self._records.append(record)
        if len(self._records) > self._capacity:
            del self._records[0 : len(self._records) - self._capacity]

    def close(self) -> None:
        """No-op (records stay readable after closing)."""


class Span:
    """One open, timed region; created by :meth:`Tracer.span`.

    Usable as a context manager or closed explicitly with :meth:`close`
    (loop bodies with ``break`` statements close explicitly; closing pops
    and emits any still-open child spans first, so early exits cannot leak).
    """

    __slots__ = ("_tracer", "span_id", "name", "attrs", "_t0", "_closed")

    def __init__(self, tracer: "Tracer", span_id: int, name: str, attrs: Dict) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.name = name
        self.attrs = attrs
        self._t0 = time.perf_counter()
        self._closed = False

    def close(self, **attrs: Any) -> float:
        """Close the span (and any open descendants); return its ``dt``.

        Keyword arguments are added to the span's attributes — use them for
        outcomes known only at the end (``feasible=...``, ``hit=...``).
        """
        if self._closed:
            return 0.0
        self._closed = True
        if attrs:
            self.attrs.update(attrs)
        return self._tracer._close_span(self, time.perf_counter())

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Tracer:
    """Emits schema-valid span/event records to a sink.

    Parameters
    ----------
    sink:
        A :class:`JsonlSink`, :class:`RingBufferSink`, or anything with an
        ``emit(record)`` method.  None keeps only the span totals.
    run_id:
        Identifier stamped on every record.  Defaults to ``"run"``; callers
        that merge traces from several runs should pass something unique
        (the CLI stamps the problem seed).

    Span nesting follows a per-thread stack: ``span()`` pushes, closing pops
    (including any spans left open above — see :meth:`Span.close`).  ``seq``
    numbers and span totals are updated under one lock, so records from
    several threads interleave without ever colliding.
    """

    def __init__(self, sink=None, run_id: str = "run") -> None:
        self._sink = sink
        self._run_id = run_id
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self._next_id = 0
        self._next_seq = 0
        self._totals: Dict[str, Tuple[int, float]] = {}
        self._local = threading.local()

    @property
    def run_id(self) -> str:
        """The id stamped on every record of this tracer."""
        return self._run_id

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Per span name, the spans closed so far: ``(count, summed dt)``."""
        with self._lock:
            return dict(self._totals)

    def _emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            if record["type"] == "span":
                count, seconds = self._totals.get(record["name"], (0, 0.0))
                self._totals[record["name"]] = (count + 1, seconds + record["dt"])
            record["seq"] = self._next_seq
            self._next_seq += 1
            if self._sink is not None:
                self._sink.emit(record)

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span nested under the current thread's innermost span."""
        span = Span(self, self._allocate_id(), name, attrs)
        self._stack().append(span)
        return span

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point event under the current thread's innermost span."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        self._emit({
            "type": "event",
            "run": self._run_id,
            "seq": 0,  # overwritten by _emit
            "id": self._allocate_id(),
            "parent": parent,
            "name": name,
            "t0": round(time.perf_counter() - self._origin, 9),
            "dt": 0.0,
            "attrs": attrs,
        })

    def _close_span(self, span: Span, ended: float) -> float:
        stack = self._stack()
        # Close (and emit) every span opened above the one being closed: an
        # early break out of an instrumented loop must not leak open spans.
        # Each close pops itself, so the enclosing spans stay on the stack
        # while their descendants emit (keeping parent ids correct).
        while stack and stack[-1] is not span:
            top = stack[-1]
            if top._closed:
                stack.pop()
            else:
                top.close()
        if stack:
            stack.pop()
        parent = stack[-1].span_id if stack else None
        t0 = span._t0 - self._origin
        dt = round(max(0.0, ended - span._t0), 9)
        self._emit({
            "type": "span",
            "run": self._run_id,
            "seq": 0,  # overwritten by _emit
            "id": span.span_id,
            "parent": parent,
            "name": span.name,
            "t0": round(max(0.0, t0), 9),
            "dt": dt,
            "attrs": span.attrs,
        })
        return dt

    def close(self) -> None:
        """Close any spans this thread left open, then the sink."""
        stack = self._stack()
        while stack:
            stack[-1].close()
        if self._sink is not None:
            self._sink.close()


def read_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load and validate a JSONL trace file; return its records in file order.

    Raises :class:`TraceError` on the first malformed line or schema
    violation (with its line number), ``FileNotFoundError`` on a missing
    file.
    """
    records: List[Dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceError(
                    f"{path}:{line_number}: not valid JSON: {error}"
                ) from error
            try:
                records.append(validate_record(record))
            except TraceError as error:
                raise TraceError(f"{path}:{line_number}: {error}") from None
    return records
