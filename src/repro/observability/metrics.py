"""Counters, gauges and histograms with mergeable snapshots.

The runtime's existing statistics (:class:`~repro.exploration.CacheStats`,
:class:`~repro.exploration.StageStats`,
:class:`~repro.exploration.ResilienceStats`) are purpose-built frozen
dataclasses; this module adds the *generic* layer underneath them — a
:class:`MetricsRegistry` any instrumented component can write named metrics
into, and a frozen :class:`MetricsSnapshot` whose :meth:`~MetricsSnapshot.merge`
folds per-worker registries into one view (counters sum, gauges keep the
maximum, histograms combine count/total/min/max).  That merge is what lets
pool workers each keep a private registry and still report one coherent
per-run profile.

Metric naming convention (dotted, lowercase; the full list is documented in
``docs/observability.md``):

* ``stage.<stage>.seconds`` — histograms of per-stage wall time
  (``expansion``, ``path_schedule``, ``merge``, ``merge_readjust``);
* ``evaluate.seconds`` — histogram of whole-candidate evaluation latency;
* ``engine.<engine>.cycle.seconds`` — histogram of cycle/generation wall
  time per engine;
* ``cache.hits`` / ``cache.misses`` / ``cache.merges_pruned`` —
  whole-candidate cache counters and the merges tabu's bound skipped;
* ``pool.*`` — queue depth gauge, per-unit latency histogram and the
  resilience counters (retries, timeouts, worker_restarts, quarantined,
  injected, degraded).

The disabled default is simply ``metrics=None`` at every instrumentation
site: one ``is not None`` check and nothing else, so the disabled path costs
~zero (the BENCH_core ``incremental``/``resilience`` records gate this).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional


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

    def combined(self, other: "HistogramStats") -> "HistogramStats":
        """The summary of both histograms' observations pooled together."""
        if not other.count:
            return self
        if not self.count:
            return other
        return HistogramStats(
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen, mergeable view of one registry's metrics.

    ``merge`` is associative and commutative, so per-worker snapshots fold
    in any order: counters sum, gauges keep the maximum (the convention that
    makes high-water marks like queue depth meaningful across workers) and
    histograms pool their observations.
    """

    counters: Mapping[str, float] = field(default_factory=dict)
    gauges: Mapping[str, float] = field(default_factory=dict)
    histograms: Mapping[str, HistogramStats] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold another snapshot into this one; returns a new snapshot."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = max(gauges.get(name, value), value)
        histograms = dict(self.histograms)
        for name, stats in other.histograms.items():
            mine = histograms.get(name)
            histograms[name] = stats if mine is None else mine.combined(stats)
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

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
        """Set the named gauge (merges keep the maximum across workers)."""
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


def merge_snapshots(*snapshots: Optional[MetricsSnapshot]) -> MetricsSnapshot:
    """Fold any number of (possibly None) snapshots into one view."""
    merged = MetricsSnapshot()
    for snapshot in snapshots:
        if snapshot is not None:
            merged = merged.merge(snapshot)
    return merged
