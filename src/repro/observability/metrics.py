"""Counters, gauges and histograms with frozen snapshots.

The runtime's existing statistics (:class:`~repro.exploration.CacheStats`,
:class:`~repro.exploration.StageStats`) are purpose-built frozen
dataclasses; this module adds the *generic* layer underneath them — a
:class:`MetricsRegistry` any instrumented component of one process can write
named metrics into, and a frozen :class:`MetricsSnapshot` view of it.
Process-mode pool workers keep no registry, so a run's metrics are the
coordinating process's alone.

Metric naming convention (dotted, lowercase; the full list is documented in
``docs/observability.md``):

* ``stage.<stage>.seconds`` — histograms of per-stage wall time
  (``expansion``, ``path_schedule``, ``merge``, ``merge_readjust``);
* ``evaluate.seconds`` — histogram of whole-candidate evaluation latency;
* ``engine.<engine>.cycle.seconds`` — histogram of cycle/generation wall
  time per engine;
* ``cache.hits`` / ``cache.misses`` / ``cache.merges_pruned`` —
  whole-candidate cache counters and the merges tabu's bound skipped;
* ``pool.*`` — a process pool's per-chunk latency histogram
  (``pool.unit.seconds``), the bytes it ships (``pool.payload_bytes``) and
  its fall-back to in-process evaluation (``pool.degraded``).

The disabled default is simply ``metrics=None`` at every instrumentation
site: one ``is not None`` check and nothing else, so the disabled path costs
~zero (the BENCH_core ``incremental`` record gates this).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping


@dataclass(frozen=True)
class HistogramStats:
    """Frozen summary of one histogram: count, total, min, max (and mean)."""

    count: int = 0
    total: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0

    @property
    def mean(self) -> float:
        """The arithmetic mean of the observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen view of one registry's counters, gauges and histograms."""

    counters: Mapping[str, float] = field(default_factory=dict)
    gauges: Mapping[str, float] = field(default_factory=dict)
    histograms: Mapping[str, HistogramStats] = field(default_factory=dict)

    def stage_seconds(self) -> Dict[str, float]:
        """Total wall-clock seconds per pipeline stage, from the histograms.

        Extracts every ``stage.<name>.seconds`` histogram into a plain
        ``{stage name: total seconds}`` dict — the breakdown surfaced in
        :class:`~repro.exploration.ExplorationResult` and the CLI's
        ``--metrics`` output.  Empty when nothing was timed.
        """
        breakdown: Dict[str, float] = {}
        for name, stats in self.histograms.items():
            if name.startswith("stage.") and name.endswith(".seconds"):
                stage = name[len("stage.") : -len(".seconds")]
                breakdown[stage] = stats.total
        return breakdown


class MetricsRegistry:
    """Thread-safe named counters, gauges and histograms.

    One registry serves a whole run; components write with :meth:`count`,
    :meth:`gauge` and :meth:`observe`, and readers take frozen
    :meth:`snapshot` views.  Writes take one lock — the instrumented sites
    are per-cycle/per-evaluation, not per-inner-loop, so contention is not a
    concern; the *disabled* path never reaches the registry at all
    (``metrics=None`` guards at every site).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, HistogramStats] = {}

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (default 1) to the named counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        with self._lock:
            stats = self._histograms.get(name)
            if stats is None:
                self._histograms[name] = HistogramStats(
                    count=1, total=value, minimum=value, maximum=value
                )
            else:
                self._histograms[name] = HistogramStats(
                    count=stats.count + 1,
                    total=stats.total + value,
                    minimum=min(stats.minimum, value),
                    maximum=max(stats.maximum, value),
                )

    def snapshot(self) -> MetricsSnapshot:
        """A frozen copy of the current counters, gauges and histograms."""
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms=dict(self._histograms),
            )
