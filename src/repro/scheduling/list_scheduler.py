"""List scheduling of one alternative path on the target architecture.

This module implements the per-path scheduler the merging algorithm builds on
(the paper delegates it to reference [5] and only states that it is a list
scheduling heuristic).  The same dispatch engine serves two purposes:

* producing the (near) optimal schedule of each alternative path, with
  partial-critical-path priorities; and
* re-adjusting a path's schedule during table generation, where some
  activation times are *locked* to previously fixed values and the remaining
  (unlocked) processes are moved to the earliest feasible moment while keeping
  their original relative order on each non-hardware processing element.

The resource model follows the paper: a programmable processor executes one
process at a time, a bus carries one transfer at a time, a hardware processor
executes processes in parallel, and computation overlaps with communication.
After a disjunction process terminates, the value of its condition is
broadcast on the first available bus connected to all processors
(duration ``tau0``).

The dispatch engine is incremental: ready processes live in priority heaps
(so each dispatch decision is O(log n) instead of a rescan of every remaining
process), resource timelines keep their busy intervals sorted with
``bisect.insort`` and binary-search the first interval that can interfere
with a slot query, and the per-path dependency structure (active processes,
durations, predecessor/successor indices, critical-path priorities) is computed
once and reused across the many re-adjustment calls the schedule merger
makes for the same path.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Tuple

from ..architecture.architecture import Architecture
from ..architecture.mapping import Mapping
from ..architecture.processing_element import ProcessingElement
from ..conditions import Condition, Conjunction
from ..graph.cpg import ConditionalProcessGraph
from ..graph.paths import AlternativePath
from .priorities import PriorityFunction, critical_path_priorities
from .schedule import ZERO_LENGTH, PathSchedule, ScheduledTask

_EPSILON = 1e-9
_INFINITY = float("inf")


class SchedulingError(RuntimeError):
    """Raised when a path cannot be scheduled (circular or unmapped processes)."""


class _ResourceTimeline:
    """Occupied intervals of one sequential processing element.

    Intervals are kept sorted by insertion (``bisect.insort``); slot queries
    binary-search the first interval that could still overlap the requested
    start instead of scanning from the beginning.  ``_max_length`` bounds how
    far before the requested time an interval may begin and still reach it,
    which makes the binary-searched lower bound exact.
    """

    __slots__ = ("_intervals", "_max_length")

    def __init__(self) -> None:
        self._intervals: List[Tuple[float, float]] = []
        self._max_length = 0.0

    def reserve(self, start: float, end: float) -> None:
        if end - start <= ZERO_LENGTH:
            return
        insort(self._intervals, (start, end))
        if end - start > self._max_length:
            self._max_length = end - start

    def earliest_slot(self, ready: float, duration: float) -> float:
        """Earliest start >= ready such that [start, start+duration) is free."""
        if duration <= ZERO_LENGTH:
            return ready
        intervals = self._intervals
        start = ready
        # Any interval starting before ready - max_length has already ended by
        # ``ready`` and can never constrain the slot; skip it wholesale.
        index = bisect_left(intervals, (ready - self._max_length,))
        for position in range(index, len(intervals)):
            busy_start, busy_end = intervals[position]
            if busy_end <= start + _EPSILON:
                continue
            if busy_start >= start + duration - _EPSILON:
                break
            start = max(start, busy_end)
        return start

    def intervals(self) -> List[Tuple[float, float]]:
        return list(self._intervals)


class _PathContext:
    """Per-path scheduling structure, computed once and reused across calls.

    Index-parallel columns: position ``i`` in every list describes
    ``active[i]``, and ``index_of`` maps a process name back to its position.
    The dispatch loop runs entirely on the columns — integer indices into
    plain lists instead of string-keyed dict probes and dataclass attribute
    loads per decision.
    """

    __slots__ = (
        "active",
        "index_of",
        "default_priorities",
        "durations",
        "pes",
        "pred_indices",
        "succ_indices",
        "base_indegree",
        "guard_conditions",
        "disjunctions",
        "seq_pe_names",
        "seq_unique",
        "neg_priorities",
    )

    def __init__(self) -> None:
        self.active: Tuple[str, ...] = ()
        self.index_of: Dict[str, int] = {}
        self.default_priorities: Optional[Dict[str, float]] = None
        self.durations: List[float] = []
        self.pes: List[Optional[ProcessingElement]] = []
        self.pred_indices: List[Tuple[int, ...]] = []
        self.succ_indices: List[Tuple[int, ...]] = []
        self.base_indegree: List[int] = []
        #: Per process: the guard's condition tuple, or None when the guard is
        #: trivially true (no requirement-4 wait needed).
        self.guard_conditions: List[Optional[Tuple[Condition, ...]]] = []
        #: Per process: the condition its disjunction determines, or None.
        self.disjunctions: List[Optional[Condition]] = []
        #: Per process: its PE's name when that PE executes sequentially
        #: (the dispatch loop keys resource timelines by it), else None.
        self.seq_pe_names: List[Optional[str]] = []
        #: The distinct sequential-PE names of the path, for pre-building
        #: the per-call timeline dict.
        self.seq_unique: Tuple[str, ...] = ()
        #: Negated default priorities in index order (heap keys), built
        #: lazily the first time the default priorities are used.
        self.neg_priorities: Optional[List[float]] = None


class PathListScheduler:
    """List scheduler for a single alternative path.

    Parameters
    ----------
    graph:
        The expanded conditional process graph (communication processes
        inserted).
    mapping:
        Mapping of every non-dummy process to its processing element.
    architecture:
        The target architecture (provides buses and ``tau0``).
    priority_function:
        The priority function that orders free processes in :meth:`schedule`
        (default: partial critical path).  Injectable so the design-space
        explorer can switch among the registered functions without touching
        the dispatch engine.
    priority_bias:
        Optional per-process additive perturbation applied on top of the
        computed default priorities (an explorer move; absent processes get
        bias 0).

    The scheduler caches the dependency structure and default priorities of
    every path it sees in one context per path, keyed by the path's label
    (a context whose active set differs from the path's is rebuilt); it
    assumes the graph, the mapping and the priority configuration do not
    change between calls (build a new scheduler after remapping).
    """

    def __init__(
        self,
        graph: ConditionalProcessGraph,
        mapping: Mapping,
        architecture: Optional[Architecture] = None,
        priority_function: Optional[PriorityFunction] = None,
        priority_bias: Optional[Dict[str, float]] = None,
    ) -> None:
        self._graph = graph
        self._mapping = mapping
        self._architecture = architecture or mapping.architecture
        self._priority_function = priority_function or critical_path_priorities
        self._priority_bias = dict(priority_bias or {})
        self._disjunctions = graph.disjunction_map()
        self._guards = graph.guard_map()
        # One context per path label (a label's hash is precomputed, so the
        # merger's many re-adjustment calls probe cheaply).
        self._contexts: Dict[Conjunction, _PathContext] = {}
        # Static incoming-edge structure per process, shared by every path:
        # (source name, edge condition or None).  Context builds filter it
        # against the path's active set — a process active on the path has a
        # satisfied guard by definition, so the per-edge guard evaluation of
        # ``graph.active_predecessors`` is redundant here.
        self._edge_cache: Dict[str, Tuple[Tuple[str, Optional[Condition]], ...]] = {}
        # Path-independent skeleton per process: (pe, duration, guard
        # condition tuple or None, disjunction condition or None, sequential
        # PE name or None).  Built on first touch and shared by every
        # context, so repeated context builds skip the graph/mapping probes.
        self._static_info: Dict[str, tuple] = {}

    # -- public API -------------------------------------------------------------

    def _context_for(self, path: AlternativePath) -> _PathContext:
        context = self._contexts.get(path.label)
        if context is None or context.active != path.active_processes:
            context = self._build_context(path)
            self._contexts[path.label] = context
        return context

    def _static_info_for(self, name: str) -> tuple:
        info = self._static_info.get(name)
        if info is None:
            process = self._graph[name]
            pe = None if process.is_dummy else self._mapping.get(name)
            if pe is None and not process.is_dummy:
                raise SchedulingError(f"process {name!r} is not mapped")
            guard = self._guards.get(name)
            info = (
                pe,
                process.duration_on(pe),
                None
                if guard is None or guard.is_true()
                else tuple(guard.conditions),
                self._disjunctions.get(name),
                pe.name if pe is not None and pe.executes_sequentially else None,
            )
            self._static_info[name] = info
        return info

    def _build_context(self, path: AlternativePath) -> _PathContext:
        context = _PathContext()
        context.active = tuple(path.active_processes)
        index_of = {name: i for i, name in enumerate(context.active)}
        context.index_of = index_of

        # Path-independent columns come straight from the shared skeleton.
        static_info = self._static_info
        static_info_for = self._static_info_for
        durations_append = context.durations.append
        pes_append = context.pes.append
        guard_conditions_append = context.guard_conditions.append
        disjunctions_append = context.disjunctions.append
        seq_pe_names_append = context.seq_pe_names.append
        seq_seen: Dict[str, None] = {}
        for name in context.active:
            info = static_info.get(name)
            if info is None:
                info = static_info_for(name)
            pe, duration, guard_conditions, disjunction, seq_name = info
            durations_append(duration)
            pes_append(pe)
            guard_conditions_append(guard_conditions)
            disjunctions_append(disjunction)
            seq_pe_names_append(seq_name)
            if seq_name is not None:
                seq_seen[seq_name] = None
        context.seq_unique = tuple(seq_seen)

        successors: List[List[int]] = [[] for _ in context.active]
        label = path.label
        edge_cache = self._edge_cache
        in_edge_map = self._graph.in_edge_map()
        pred_indices_append = context.pred_indices.append
        base_indegree_append = context.base_indegree.append
        for index, name in enumerate(context.active):
            edges = edge_cache.get(name)
            if edges is None:
                edges = tuple(
                    (edge.src, edge.condition if edge.is_conditional else None)
                    for edge in in_edge_map[name]
                )
                edge_cache[name] = edges
            preds = tuple(
                index_of[src]
                for src, condition in edges
                if src in index_of
                and (condition is None or condition in label)
            )
            pred_indices_append(preds)
            base_indegree_append(len(preds))
            for pred in preds:
                successors[pred].append(index)
        context.succ_indices = [tuple(succ) for succ in successors]
        return context

    def schedule(
        self,
        path: AlternativePath,
        *,
        locked_starts: Optional[Dict[str, float]] = None,
        locked_broadcasts: Optional[Dict[Condition, ScheduledTask]] = None,
        order_hint: Optional[Dict[str, float]] = None,
    ) -> PathSchedule:
        """Schedule one alternative path.

        ``locked_starts`` pins processes to previously fixed activation times
        (schedule adjustment during merging); ``locked_broadcasts`` does the
        same for condition broadcasts.  ``order_hint`` gives the original start
        times used to preserve the relative order of unlocked processes; when
        omitted, the priority function decides the dispatch order.
        """
        locked_starts = dict(locked_starts or {})
        locked_broadcasts = dict(locked_broadcasts or {})
        context = self._context_for(path)
        if context.default_priorities is None:
            if self._priority_function is critical_path_priorities:
                computed = self._critical_path_priorities(context)
            else:
                computed = self._priority_function(self._graph, path, self._mapping)
            if self._priority_bias:
                computed = {
                    name: value + self._priority_bias.get(name, 0.0)
                    for name, value in computed.items()
                }
            context.default_priorities = computed
        priorities = context.default_priorities

        active = context.active
        index_of = context.index_of
        durations = context.durations
        pes = context.pes
        pred_indices = context.pred_indices
        succ_indices = context.succ_indices
        guard_conditions = context.guard_conditions
        disjunctions = context.disjunctions
        seq_pe_names = context.seq_pe_names
        count = len(active)

        # Timelines for the path's sequential PEs exist up front so the
        # dispatch loop indexes them directly; buses (broadcasts) and any
        # locked task on another element go through the setdefault fallback.
        timelines: Dict[str, _ResourceTimeline] = {
            pe_name: _ResourceTimeline() for pe_name in context.seq_unique
        }

        def timeline(pe: ProcessingElement) -> _ResourceTimeline:
            return timelines.setdefault(pe.name, _ResourceTimeline())

        # Pre-reserve the intervals of locked processes and broadcasts so that
        # unlocked activities are placed around them.
        for name, start in locked_starts.items():
            index = index_of.get(name)
            if index is not None and seq_pe_names[index] is not None:
                timelines[seq_pe_names[index]].reserve(start, start + durations[index])
        for task in locked_broadcasts.values():
            if task.pe is not None and task.pe.executes_sequentially:
                timeline(task.pe).reserve(task.start, task.end)

        broadcasts: Dict[Condition, ScheduledTask] = {}
        determination: Dict[Condition, float] = {}
        disjunction_pes: Dict[Condition, Optional[ProcessingElement]] = {}
        pending_broadcasts: List[
            Tuple[float, Condition, Optional[ProcessingElement]]
        ] = []
        # Guard-knowledge memo: condition -> (origin PE, time known on the
        # origin, time known everywhere else).  Filled when the broadcast is
        # scheduled — which happens before any later dispatch can query it —
        # so the requirement-4 check below is one dict probe per condition.
        known_times: Dict[
            Condition, Tuple[Optional[ProcessingElement], float, float]
        ] = {}

        def schedule_broadcast(
            condition: Condition, ready: float, origin: Optional[ProcessingElement]
        ) -> None:
            locked = locked_broadcasts.get(condition)
            if locked is not None:
                broadcasts[condition] = locked
                known_times[condition] = (
                    origin,
                    determination[condition],
                    locked.end,
                )
                return
            tau0 = self._architecture.condition_broadcast_time
            buses = self._architecture.broadcast_buses()
            if not buses or len(self._architecture.processors) <= 1:
                # A single-processor system (or one without buses) needs no
                # broadcast: the value is immediately known everywhere.
                task = ScheduledTask(f"cond:{condition}", ready, 0.0, None, condition)
                broadcasts[condition] = task
                known_times[condition] = (
                    origin,
                    determination[condition],
                    task.end,
                )
                return
            best: Optional[Tuple[float, ProcessingElement]] = None
            for bus in buses:
                start = timeline(bus).earliest_slot(ready, tau0)
                if best is None or start < best[0] - _EPSILON:
                    best = (start, bus)
            assert best is not None
            start, bus = best
            timeline(bus).reserve(start, start + tau0)
            task = ScheduledTask(f"cond:{condition}", start, tau0, bus, condition)
            broadcasts[condition] = task
            known_times[condition] = (origin, determination[condition], task.end)

        # Ready processes are kept in two heaps: processes with a locked
        # activation time, keyed by (locked start, name), and free processes,
        # keyed by the dispatch priority.  A ready locked process is always
        # dispatched before any free one, matching the paper's adjustment
        # rule; within each class the heap reproduces the order a full scan
        # of the ready set would have chosen.  (Names are unique, so the
        # trailing index never participates in a comparison.)
        #
        # The loop itself runs on the context columns: start/end per process
        # index, with ScheduledTask objects materialised only once, after the
        # last dispatch, in dispatch order.
        indegree = list(context.base_indegree)
        ready_locked: List[Tuple[float, str, int]] = []
        ready_free: List[Tuple[float, float, str, int]] = []
        heappush = heapq.heappush
        heappop = heapq.heappop

        if locked_starts or order_hint is not None:

            def push_ready(index: int) -> None:
                name = active[index]
                locked = locked_starts.get(name)
                if locked is not None:
                    heappush(ready_locked, (locked, name, index))
                else:
                    hint = (
                        order_hint.get(name, _INFINITY) if order_hint else _INFINITY
                    )
                    heappush(
                        ready_free, (hint, -priorities.get(name, 0.0), name, index)
                    )

        else:
            # No locks and no order hint: every entry would carry the same
            # infinite hint, so ordering reduces to the negated priority,
            # cached per path as a column.
            neg_priorities = context.neg_priorities
            if neg_priorities is None:
                neg_priorities = [-priorities.get(name, 0.0) for name in active]
                context.neg_priorities = neg_priorities

            def push_ready(index: int) -> None:
                heappush(
                    ready_free,
                    (_INFINITY, neg_priorities[index], active[index], index),
                )

        for index in range(count):
            if indegree[index] == 0:
                push_ready(index)

        starts: List[float] = [0.0] * count
        ends: List[float] = [0.0] * count
        dispatch_order: List[int] = []
        remaining = count
        while remaining:
            # Broadcasts are dispatched as soon as their condition is computed.
            while pending_broadcasts:
                ready, condition, origin = heappop(pending_broadcasts)
                schedule_broadcast(condition, ready, origin)

            if ready_locked:
                start, _, index = heappop(ready_locked)
            elif ready_free:
                _, _, _, index = heappop(ready_free)
                data_ready = 0.0
                for pred in pred_indices[index]:
                    end = ends[pred]
                    if end > data_ready:
                        data_ready = end
                pe = pes[index]
                # Requirement 4 of the paper: the run-time scheduler may only
                # activate a process once the conditions its guard depends on
                # are known on the executing processing element.  Delay the
                # start until every such condition value has reached ``pe``.
                conditions = guard_conditions[index]
                if conditions is not None:
                    for condition in conditions:
                        entry = known_times.get(condition)
                        if entry is None:
                            continue
                        origin, on_origin, elsewhere = entry
                        if pe is not None and origin is not None and pe == origin:
                            known = on_origin
                        else:
                            known = elsewhere
                        if known > data_ready:
                            data_ready = known
                seq_name = seq_pe_names[index]
                if seq_name is not None:
                    duration = durations[index]
                    pe_timeline = timelines[seq_name]
                    start = pe_timeline.earliest_slot(data_ready, duration)
                    pe_timeline.reserve(start, start + duration)
                else:
                    # Dummy process or parallel hardware: starts when ready.
                    start = data_ready
            else:
                raise SchedulingError(
                    f"no dispatchable process on path {path.label}; "
                    "the subgraph has a dependency cycle or missing processes"
                )
            end = start + durations[index]
            starts[index] = start
            ends[index] = end
            dispatch_order.append(index)
            remaining -= 1
            for successor in succ_indices[index]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    push_ready(successor)

            condition = disjunctions[index]
            if condition is not None:
                pe = pes[index]
                determination[condition] = end
                disjunction_pes[condition] = pe
                heappush(pending_broadcasts, (end, condition, pe))

        while pending_broadcasts:
            ready, condition, origin = heappop(pending_broadcasts)
            schedule_broadcast(condition, ready, origin)

        scheduled: Dict[str, ScheduledTask] = {}
        for index in dispatch_order:
            name = active[index]
            scheduled[name] = ScheduledTask(
                name, starts[index], durations[index], pes[index]
            )
        return PathSchedule(path, scheduled, broadcasts, determination, disjunction_pes)

    # -- internal helpers ---------------------------------------------------------

    def _critical_path_priorities(self, context: _PathContext) -> Dict[str, float]:
        """Partial-critical-path priorities computed from the cached context.

        Produces exactly what :func:`critical_path_priorities` returns for the
        context's path — the durations in the context are the same
        ``duration_on(mapping.get(name))`` values, and the successor walk
        visits the same full-graph adjacency — without re-probing the graph
        and the mapping per process.
        """
        index_of = context.index_of
        durations = context.durations
        successor_map = self._graph.successor_map()
        priorities: Dict[str, float] = {}
        priorities_get = priorities.get
        for name in reversed(self._graph.topological_order()):
            index = index_of.get(name)
            if index is None:
                continue
            longest_successor = 0.0
            for successor in successor_map[name]:
                if successor in index_of:
                    value = priorities_get(successor)
                    if value is not None and value > longest_successor:
                        longest_successor = value
            priorities[name] = durations[index] + longest_successor
        return priorities
