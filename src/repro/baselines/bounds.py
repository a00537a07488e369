"""Analytic bounds on the system delay.

Two cheap bounds bracket the worst-case delay of any correct schedule table:

* the **critical-path lower bound**: the longest chain of execution and
  communication times through any alternative path, ignoring resource
  contention (no schedule can beat it);
* the **ideal per-path bound** ``delta_M``: the largest of the per-path list
  schedule delays — the paper proves ``delta_max >= delta_M`` for any schedule
  table that does not predict conditions.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..architecture.mapping import Mapping
from ..graph.cpg import ConditionalProcessGraph
from ..graph.paths import AlternativePath, PathEnumerator
from ..scheduling.list_scheduler import PathListScheduler
from ..scheduling.schedule import PathSchedule


def critical_path_length(
    graph: ConditionalProcessGraph,
    mapping: Mapping,
    path: AlternativePath,
) -> float:
    """Longest dependency chain of one alternative path (contention-free bound)."""
    longest: Dict[str, float] = {}
    active = set(path.active_processes)
    for name in graph.topological_order():
        if name not in active:
            continue
        duration = graph[name].duration_on(mapping.get(name))
        best_predecessor = 0.0
        for pred in graph.active_predecessors(name, path.label):
            if pred in longest:
                best_predecessor = max(best_predecessor, longest[pred])
        longest[name] = best_predecessor + duration
    return max(longest.values(), default=0.0)


def critical_path_lower_bound(
    graph: ConditionalProcessGraph,
    mapping: Mapping,
    paths: Optional[Iterable[AlternativePath]] = None,
) -> float:
    """The contention-free lower bound over all alternative paths."""
    if paths is None:
        paths = PathEnumerator(graph).paths()
    return max(critical_path_length(graph, mapping, path) for path in paths)


def ideal_per_path_delay(
    graph: ConditionalProcessGraph,
    mapping: Mapping,
    paths: Optional[Iterable[AlternativePath]] = None,
    scheduler: Optional[PathListScheduler] = None,
) -> float:
    """``delta_M``: the largest per-path list-schedule delay (the paper's lower bound)."""
    if paths is None:
        paths = PathEnumerator(graph).paths()
    scheduler = scheduler or PathListScheduler(graph, mapping)
    return max(scheduler.schedule(path).delay for path in paths)


def per_path_schedules(
    graph: ConditionalProcessGraph,
    mapping: Mapping,
    paths: Optional[Iterable[AlternativePath]] = None,
) -> Dict[str, PathSchedule]:
    """The individual list schedules keyed by path label (for reporting)."""
    if paths is None:
        paths = PathEnumerator(graph).paths()
    scheduler = PathListScheduler(graph, mapping)
    return {str(path.label): scheduler.schedule(path) for path in paths}
