"""Trace aggregation: from a span/event stream to a time-profile table.

``repro-cpg trace-report FILE`` feeds a validated trace (see
:mod:`repro.observability.trace`) through :func:`aggregate_trace` and prints
the result: wall-clock totals per pipeline stage, the same broken down per
engine (stage spans are attributed to the nearest enclosing ``engine`` span
via the recorded parent ids) with each engine's *unattributed* remainder
(its span total minus its top-level stage totals), and a tally of point
events (such as ``pool.degraded``).  It answers "where does
evaluation time actually go" per engine without re-running anything.

Stage spans are named ``stage.<name>``; the canonical stage set is
``expansion`` (communication expansion and the expanded graph's
alternative paths, memoized; a new expansion structure inherits its guards
and paths from the base graph), ``path_keys`` (path sub-fingerprints),
``path_schedule`` (one optimal list schedule per alternative path),
``merge`` (schedule-table merging, wall time *including* re-adjustments) and
``merge_readjust`` (the locked re-scheduling requests the merger issues —
a sub-stage of ``merge``, reported separately but not added to totals
twice).  Spans emitted by a process-mode pool's workers never appear (the
workers are separate processes; see ``docs/observability.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

STAGE_PREFIX = "stage."

#: Stages whose time is already contained in another stage's span and must
#: not be double-counted in share-of-total columns.
SUBSTAGES = {"merge_readjust": "merge"}


@dataclass(frozen=True)
class StageProfile:
    """Aggregated wall time of one stage (or one stage within one engine)."""

    name: str
    count: int
    total_seconds: float

    @property
    def mean_seconds(self) -> float:
        """Mean span duration (0.0 when the stage never ran)."""
        return self.total_seconds / self.count if self.count else 0.0


@dataclass
class TraceReport:
    """Everything :func:`aggregate_trace` extracts from one trace.

    ``stages`` and ``per_engine`` hold :class:`StageProfile` aggregates —
    overall and per attributed engine; ``events`` counts point events by
    name; ``engines`` maps engine names to their total span time; ``spans``
    and ``records`` are the raw counts behind the headline line.
    """

    stages: Dict[str, StageProfile] = field(default_factory=dict)
    per_engine: Dict[Tuple[str, str], StageProfile] = field(default_factory=dict)
    events: Dict[str, int] = field(default_factory=dict)
    engines: Dict[str, float] = field(default_factory=dict)
    spans: int = 0
    records: int = 0

    @property
    def profiled_seconds(self) -> float:
        """Summed stage time, sub-stages excluded (no double counting)."""
        return sum(
            profile.total_seconds
            for name, profile in self.stages.items()
            if name not in SUBSTAGES
        )

    def stage_rows(self) -> List[List[object]]:
        """Table rows ``[stage, count, total s, mean ms, share]``, by time."""
        total = self.profiled_seconds
        rows = []
        for profile in sorted(
            self.stages.values(), key=lambda p: (-p.total_seconds, p.name)
        ):
            if profile.name in SUBSTAGES:
                share = f"(in {SUBSTAGES[profile.name]})"
            elif total > 0:
                share = f"{100.0 * profile.total_seconds / total:.1f}%"
            else:
                share = "-"
            rows.append([
                profile.name,
                profile.count,
                f"{profile.total_seconds:.4f}",
                f"{1000.0 * profile.mean_seconds:.3f}",
                share,
            ])
        return rows

    def unattributed_seconds(self) -> Dict[str, float]:
        """Per engine: its span total minus its top-level stage totals.

        The time an engine spends outside every stage span (move sampling,
        cache probes, bookkeeping).  Sub-stages are not subtracted: their
        time is already inside their parent stage's.
        """
        remainder = dict(self.engines)
        for (engine, stage), profile in self.per_engine.items():
            if engine in remainder and stage not in SUBSTAGES:
                remainder[engine] -= profile.total_seconds
        return remainder

    def engine_rows(self) -> List[List[object]]:
        """Table rows ``[engine, stage, count, total s, mean ms]``.

        Stage spans that no ``engine`` span encloses (e.g. the seed
        evaluation of a bare evaluator, or stages timed outside any engine)
        are grouped under ``-``.  Each engine with a span ends its group
        with an ``unattributed`` row (:meth:`unattributed_seconds`).
        """
        rows = []
        for (engine, stage), profile in sorted(
            self.per_engine.items(),
            key=lambda item: (item[0][0], -item[1].total_seconds, item[0][1]),
        ):
            rows.append([
                engine,
                stage,
                profile.count,
                f"{profile.total_seconds:.4f}",
                f"{1000.0 * profile.mean_seconds:.3f}",
            ])
        for engine, seconds in self.unattributed_seconds().items():
            rows.append([engine, "unattributed", "-", f"{seconds:.4f}", "-"])
        # A stable sort keeps each group's stage order, remainder last.
        return sorted(rows, key=lambda row: row[0])

    def event_rows(self) -> List[List[object]]:
        """Table rows ``[event, count]``, most frequent first."""
        return [
            [name, count]
            for name, count in sorted(
                self.events.items(), key=lambda item: (-item[1], item[0])
            )
        ]


def _engine_of(
    record: Dict, spans_by_id: Dict[int, Dict], cache: Dict[int, str]
) -> str:
    """The engine name of the nearest enclosing ``engine`` span, or ``-``."""
    chain = []
    parent = record["parent"]
    engine = "-"
    while parent is not None:
        cached = cache.get(parent)
        if cached is not None:
            engine = cached
            break
        node = spans_by_id.get(parent)
        if node is None:
            break
        chain.append(parent)
        if node["name"] == "engine":
            engine = str(node["attrs"].get("engine", "-"))
            break
        parent = node["parent"]
    for span_id in chain:
        cache[span_id] = engine
    return engine


def aggregate_trace(records: List[Dict]) -> TraceReport:
    """Aggregate validated trace records into a :class:`TraceReport`.

    Works on the output of :func:`repro.observability.read_trace` (or any
    list of schema-valid records, e.g. a ring buffer's).  Only ``stage.*``
    spans enter the stage tables; ``engine`` spans define the attribution
    scopes and the per-engine totals; every event is tallied by name.
    """
    report = TraceReport(records=len(records))
    spans_by_id = {
        record["id"]: record for record in records if record["type"] == "span"
    }
    report.spans = len(spans_by_id)
    totals: Dict[str, List[float]] = {}
    engine_totals: Dict[Tuple[str, str], List[float]] = {}
    engine_cache: Dict[int, str] = {}
    for record in records:
        if record["type"] == "event":
            report.events[record["name"]] = report.events.get(record["name"], 0) + 1
            continue
        name = record["name"]
        if name == "engine":
            engine = str(record["attrs"].get("engine", "-"))
            report.engines[engine] = report.engines.get(engine, 0.0) + record["dt"]
            continue
        if not name.startswith(STAGE_PREFIX):
            continue
        stage = name[len(STAGE_PREFIX):]
        bucket = totals.setdefault(stage, [0, 0.0])
        bucket[0] += 1
        bucket[1] += record["dt"]
        engine = _engine_of(record, spans_by_id, engine_cache)
        engine_bucket = engine_totals.setdefault((engine, stage), [0, 0.0])
        engine_bucket[0] += 1
        engine_bucket[1] += record["dt"]
    for stage, (count, seconds) in totals.items():
        report.stages[stage] = StageProfile(stage, int(count), seconds)
    for key, (count, seconds) in engine_totals.items():
        report.per_engine[key] = StageProfile(key[1], int(count), seconds)
    return report


def format_trace_report(report: TraceReport, source: Optional[str] = None) -> str:
    """Render a :class:`TraceReport` as the ``trace-report`` text output."""
    from ..analysis.reporting import format_table

    lines = []
    origin = f" ({source})" if source else ""
    lines.append(
        f"trace{origin}: {report.records} records, {report.spans} spans, "
        f"{sum(report.events.values())} events"
    )
    if report.engines:
        engines = ", ".join(
            f"{name} {seconds:.4f}s" for name, seconds in sorted(report.engines.items())
        )
        lines.append(f"engine spans: {engines}")
    if report.stages:
        lines.append("")
        lines.append(format_table(
            "per-stage wall time",
            ["stage", "count", "total s", "mean ms", "share"],
            report.stage_rows(),
        ))
    if report.per_engine or report.engines:
        lines.append("")
        lines.append(format_table(
            "per-engine stage breakdown",
            ["engine", "stage", "count", "total s", "mean ms"],
            report.engine_rows(),
        ))
    if report.events:
        lines.append("")
        lines.append(format_table(
            "events", ["event", "count"], report.event_rows()
        ))
    return "\n".join(lines)
