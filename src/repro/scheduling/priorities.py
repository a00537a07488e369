"""Priority functions for list scheduling.

The per-path scheduler of the paper (reference [5]) is a list scheduler; the
quality of a list schedule depends on the priority assigned to each ready
process.  The classic choice — and the one used here by default — is the
*partial critical path*: the length of the longest chain of execution times
from a process to the sink within the active subgraph.  Processes on the
critical path are dispatched first.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..architecture.mapping import Mapping
from ..graph.cpg import ConditionalProcessGraph
from ..graph.paths import AlternativePath

#: Uniform signature of an injectable priority function: given the expanded
#: graph, one alternative path and the mapping, produce the dispatch priority
#: of every process active on the path (larger = dispatched first).
PriorityFunction = Callable[
    [ConditionalProcessGraph, AlternativePath, Mapping], Dict[str, float]
]


def critical_path_priorities(
    graph: ConditionalProcessGraph,
    path: AlternativePath,
    mapping: Mapping,
) -> Dict[str, float]:
    """Length of the longest execution chain from each active process to the sink.

    The length includes the process' own execution time on its mapped
    processing element.  Only processes active on ``path`` are considered.
    """
    active = set(path.active_processes)
    priorities: Dict[str, float] = {}
    successor_map = graph.successor_map()
    mapping_get = mapping.get
    priorities_get = priorities.get
    for name in reversed(graph.topological_order()):
        if name not in active:
            continue
        longest_successor = 0.0
        for successor in successor_map[name]:
            if successor in active:
                value = priorities_get(successor)
                if value is not None and value > longest_successor:
                    longest_successor = value
        priorities[name] = (
            graph[name].duration_on(mapping_get(name)) + longest_successor
        )
    return priorities


def upward_rank_priorities(
    graph: ConditionalProcessGraph,
    path: AlternativePath,
    mapping: Mapping,
) -> Dict[str, float]:
    """HEFT-style upward rank: like the critical path but averaging over speeds.

    With a single speed per mapped processing element this coincides with
    :func:`critical_path_priorities`; it is provided as an alternative priority
    function for ablation experiments.
    """
    return critical_path_priorities(graph, path, mapping)


def static_order_priorities(
    path: AlternativePath, order: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Priorities that reproduce a given order (larger value = dispatched first).

    A helper for callers that want a fixed dispatch order.  The merger's
    schedule-adjustment step does not use it: it keeps the relative order
    of unlocked processes through :meth:`PathListScheduler.schedule`'s
    ``order_hint``.

    Not what the ``"static_order"`` registry entry resolves to: this function
    needs a caller-supplied order, so the registry binds that name to
    :func:`topological_order_priorities` (the graph's own static order).
    """
    if order is None:
        return {name: 0.0 for name in path.active_processes}
    largest = max(order.values(), default=0.0)
    return {
        name: largest - order.get(name, largest) for name in path.active_processes
    }


def topological_order_priorities(
    graph: ConditionalProcessGraph,
    path: AlternativePath,
    mapping: Mapping,
) -> Dict[str, float]:
    """Priorities that dispatch ready processes in topological order.

    The simplest member of the registry: earlier processes in the graph's
    topological order get larger priorities, so ties between ready processes
    are broken by graph position instead of path length.  Mainly useful as a
    cheap ablation point for the design-space explorer.
    """
    position = {name: index for index, name in enumerate(graph.topological_order())}
    total = float(len(position))
    return {name: total - position[name] for name in path.active_processes}


#: Registry of the named priority functions the design-space explorer (and any
#: other caller) can switch between.  All entries share the
#: :data:`PriorityFunction` signature; :func:`static_order_priorities` is not
#: listed because it reproduces a *given* order rather than computing one.
PRIORITY_FUNCTIONS: Dict[str, PriorityFunction] = {
    "critical_path": critical_path_priorities,
    "upward_rank": upward_rank_priorities,
    "static_order": topological_order_priorities,
}

#: Registered priority functions whose output for one alternative path depends
#: only on *path-local* state: the path's active processes, their durations on
#: their mapped processing elements and the path-restricted edge structure.
#: ``critical_path`` and ``upward_rank`` qualify — they walk only the active
#: subgraph.  ``static_order`` does **not**: it ranks processes by their
#: position in the topological order of the *whole* expanded graph, so a
#: change anywhere in the graph (e.g. a communication process appearing on an
#: unrelated edge) may shift its priorities.  The explorer's incremental
#: evaluator uses this set to decide whether a memoized per-path schedule can
#: be keyed on the path's sub-fingerprint alone or must also be keyed on the
#: whole expansion; unregistered (user-supplied) functions are conservatively
#: treated as non-local.
PATH_LOCAL_PRIORITY_FUNCTIONS: frozenset = frozenset(
    {"critical_path", "upward_rank"}
)


def priority_function(name: str) -> PriorityFunction:
    """Look up a registered priority function by name."""
    try:
        return PRIORITY_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown priority function {name!r}; "
            f"choose from {sorted(PRIORITY_FUNCTIONS)}"
        ) from None
