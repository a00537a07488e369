"""Schedule merging: generation of the global schedule table.

This is the core contribution of the paper (Section 5).  Starting from the
(near) optimal schedules of every alternative path, the merger walks the
binary decision tree of condition values in depth-first order and
progressively fills the schedule table:

* at every tree node, priority is given to the reachable path with the largest
  delay — its schedule is followed and its activation times are fixed in the
  table;
* when a back-step selects a new path, the new path's schedule is *adjusted*:
  every activity whose time the table fixed in a column that holds under the
  path's label is locked to that time, and the remaining (unlocked)
  activities are rescheduled to the earliest feasible moment while keeping
  their original relative order.  The paper's wording locks only the times
  fixed in columns that depend on conditions determined before the branching
  node; but the walk later treats every entry the label meets as settled, and
  one the adjusted schedule had moved then breaks requirement 4.  A settled
  entry whose time differs from the current schedule's raises
  :class:`MergeInvariantError`;
* a placement that would violate the determinism requirement (the same process
  with different activation times under non-exclusive columns) is a *conflict*;
  following Theorem 2 of the paper the process is moved to the activation time
  of one of the conflicting columns and the schedule is re-adjusted by the
  same rule.  A conflict no such time resolves raises
  :class:`MergeConflictError`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..architecture.architecture import Architecture
from ..architecture.mapping import Mapping
from ..architecture.processing_element import ProcessingElement
from ..conditions import DEFAULT_UNIVERSE, Condition, Conjunction
from ..graph.cpg import ConditionalProcessGraph
from ..graph.paths import AlternativePath, PathEnumerator
from .list_scheduler import PathListScheduler
from .schedule import PathSchedule, ScheduledTask
from .schedule_table import ScheduleTable, TableEntry
from .trace import DecisionNode, MergeTrace

_EPSILON = 1e-9


class MergeConflictError(RuntimeError):
    """Raised when no conflicting column's time resolves a table conflict."""


class MergeInvariantError(RuntimeError):
    """Raised when the walk finds a fixed entry the current schedule moved.

    Every adjusted schedule is locked to the entries that can apply on its
    path, so this is a merger bug, never an infeasible design point: unlike
    :class:`MergeConflictError`, exploration does not score it as one.
    """


def _check_settled(
    activity: str, entry: TableEntry, task: ScheduledTask, current: PathSchedule
) -> None:
    """An applicable entry is settled only if the schedule runs it at its time."""
    if abs(entry.start - task.start) > _EPSILON:
        raise MergeInvariantError(
            f"{activity} is fixed at {entry.start:g} under [{entry.column}] "
            f"but scheduled at {task.start:g} on path {current.path.label}"
        )


class _SegmentColumns:
    """Per-segment memo of the "conditions known on PE ``p`` at ``t``" columns.

    Within one placement walk the known condition values and the current
    schedule are fixed, so per processing element the knowledge times of the
    known conditions form one sorted timeline.  A column query then
    binary-searches that timeline and returns a prefix-OR mask pair instead
    of re-folding every known condition per placed item (the masks are
    cumulative, so ties in knowledge time OR together regardless of order —
    exactly what the per-condition loop produced).
    """

    __slots__ = ("_known", "_current", "_by_pe")

    def __init__(self, known: Conjunction, current: PathSchedule) -> None:
        self._known = known
        self._current = current
        self._by_pe: Dict[Optional[str], Tuple[List[float], List[Tuple[int, int]], Dict[int, Conjunction]]] = {}

    def _timeline(
        self, pe: Optional[ProcessingElement]
    ) -> Tuple[List[float], List[Tuple[int, int]], Dict[int, Conjunction]]:
        key = pe.name if pe is not None else None
        entry = self._by_pe.get(key)
        if entry is None:
            bit_of = DEFAULT_UNIVERSE.bit_of
            events = []
            for condition in self._current.determination_times:
                value = self._known.value_of(condition)
                if value is None:
                    continue
                time = self._current.condition_known_time(condition, pe)
                bit = bit_of(condition)
                events.append((time, bit if value else 0, 0 if value else bit))
            events.sort(key=lambda event: event[0])
            times = [event[0] for event in events]
            masks: List[Tuple[int, int]] = []
            pos = neg = 0
            for _, pos_bit, neg_bit in events:
                pos |= pos_bit
                neg |= neg_bit
                masks.append((pos, neg))
            entry = (times, masks, {})
            self._by_pe[key] = entry
        return entry

    def column(self, pe: Optional[ProcessingElement], start: float) -> Conjunction:
        """Conjunction of the condition values known on ``pe`` at ``start``."""
        times, masks, cache = self._timeline(pe)
        index = bisect_right(times, start + _EPSILON)
        column = cache.get(index)
        if column is None:
            pos, neg = masks[index - 1] if index else (0, 0)
            column = Conjunction.from_masks(pos, neg)
            cache[index] = column
        return column


@dataclass
class MergeResult:
    """Everything produced by one run of the schedule merger."""

    table: ScheduleTable
    path_schedules: Dict[Conjunction, PathSchedule]
    trace: MergeTrace
    delta_m: float
    delta_max: float
    paths: List[AlternativePath] = field(default_factory=list)
    #: Completion time of every alternative path executed from the table,
    #: keyed by path label.  ``delta_max`` is their maximum; keeping the whole
    #: map lets consumers (the explorer's mean-path-delay objective) reuse the
    #: per-path table walks the merger already paid for.
    table_path_delays: Dict[Conjunction, float] = field(default_factory=dict)

    @property
    def delay_increase(self) -> float:
        """Absolute increase of the worst-case delay over the ideal ``delta_M``."""
        return self.delta_max - self.delta_m

    @property
    def delay_increase_percent(self) -> float:
        """Percentage increase of ``delta_max`` over ``delta_M`` (Fig. 5 metric)."""
        if self.delta_m <= 0:
            return 0.0
        return 100.0 * (self.delta_max - self.delta_m) / self.delta_m


class ScheduleMerger:
    """Generates a schedule table from the per-path schedules of a CPG."""

    def __init__(
        self,
        graph: ConditionalProcessGraph,
        mapping: Mapping,
        architecture: Optional[Architecture] = None,
        scheduler: Optional[PathListScheduler] = None,
    ) -> None:
        self._graph = graph
        self._mapping = mapping
        self._architecture = architecture or mapping.architecture
        self._scheduler = scheduler or PathListScheduler(
            graph, mapping, self._architecture
        )
        self._guards = graph.guards()
        # Dummy processes never get table entries; the placement walk checks
        # this per item, so resolve it once against a name set instead of a
        # graph probe plus attribute load per check.
        self._dummy_names = frozenset(
            process.name for process in graph.processes if process.is_dummy
        )

    # -- public API -----------------------------------------------------------------

    def merge(
        self,
        paths: Optional[List[AlternativePath]] = None,
        path_schedules: Optional[Dict[Conjunction, PathSchedule]] = None,
    ) -> MergeResult:
        """Run the table-generation algorithm and return the result."""
        if paths is None:
            paths = PathEnumerator(self._graph).paths()
        if not paths:
            raise ValueError("the graph has no alternative paths")
        if path_schedules is None:
            path_schedules = {
                path.label: self._scheduler.schedule(path) for path in paths
            }
        self._paths = list(paths)
        self._optimal = dict(path_schedules)
        # The order hint of a path (the start times of its optimal schedule)
        # never changes during merging; build each dict once instead of on
        # every re-adjustment.
        self._order_hints = {
            label: {name: task.start for name, task in schedule.tasks.items()}
            for label, schedule in self._optimal.items()
        }
        self._table = ScheduleTable(name=f"{self._graph.name}-table")
        # The optimal schedules never change after this point; resolve their
        # delays once instead of rescanning the task maps per back-step.
        self._optimal_delays = {
            label: sched.delay for label, sched in self._optimal.items()
        }
        self._trace = MergeTrace(path_delays=dict(self._optimal_delays))

        initial = max(self._paths, key=lambda p: self._optimal_delays[p.label])
        root = self._explore(
            Conjunction.true(), self._optimal[initial.label].copy(), False, 0
        )
        self._trace.root = root

        delta_m = max(self._optimal_delays.values())
        table_path_delays = {
            path.label: self._table.delay_of_path(self._graph, self._mapping, path)
            for path in self._paths
        }
        delta_max = max(table_path_delays.values())
        return MergeResult(
            table=self._table,
            path_schedules=dict(self._optimal),
            trace=self._trace,
            delta_m=delta_m,
            delta_max=delta_max,
            paths=list(self._paths),
            table_path_delays=table_path_delays,
        )

    # -- decision-tree exploration ------------------------------------------------------

    def _explore(
        self,
        known: Conjunction,
        current: PathSchedule,
        back_step: bool,
        depth: int,
        start_item: int = 0,
    ) -> DecisionNode:
        node = DecisionNode(
            known=known,
            selected_path=current.path.label,
            entered_by_back_step=back_step,
            depth=depth,
        )
        # Placement of activation times, restarted whenever conflict handling
        # re-adjusts the current schedule (which may move later activities).
        # ``start_item`` skips the prefix of the item list an ancestor node
        # already settled for this branch: along one branch the known masks
        # only grow and table entries are only added, so an item placed or
        # found applicable at the parent stays settled in every descendant.
        resume = start_item
        for _ in range(len(current.tasks) + len(current.broadcasts) + 2):
            branch_condition, branch_time = self._next_branch(known, current)
            modified, current, resume = self._place_segment(
                known, current, branch_time, node, start_item
            )
            if not modified:
                break
            start_item = 0  # the schedule was re-adjusted: fresh item list
        else:
            raise MergeConflictError(
                "conflict handling failed to converge while merging schedules"
            )

        node.branch_condition = branch_condition
        node.branch_time = None if branch_condition is None else branch_time
        if branch_condition is None:
            return node

        # First branch (no back-step): the value taken by the current path.
        # The child continues with the same schedule (same item list), so it
        # resumes the placement walk where this node settled it.
        value = current.path.label.value_of(branch_condition)
        same_known = known.and_literal(branch_condition.literal(value))
        node.children.append(
            self._explore(same_known, current, False, depth + 1, resume)
        )

        # Back-step: the opposite value; select the reachable path with the
        # largest delay and adjust its schedule to the already fixed times.
        other_known = known.and_literal(branch_condition.literal(not value))
        reachable = [path for path in self._paths if path.is_consistent_with(other_known)]
        if reachable:
            self._trace.back_steps += 1
            new_path = max(reachable, key=lambda p: self._optimal_delays[p.label])
            adjusted, locked_count = self._adjust(new_path)
            self._trace.adjustments += 1
            child = self._explore(other_known, adjusted, True, depth + 1)
            child.locked_processes = locked_count
            node.children.append(child)
        return node

    def _next_branch(
        self, known: Conjunction, current: PathSchedule
    ) -> Tuple[Optional[Condition], float]:
        """The next condition determined on the current path and its time."""
        pending = [
            (time, condition)
            for condition, time in current.determination_times.items()
            if known.value_of(condition) is None
        ]
        if not pending:
            return None, float("inf")
        time, condition = min(pending, key=lambda item: (item[0], item[1].name))
        return condition, time

    # -- placement of one segment -----------------------------------------------------

    def _place_segment(
        self,
        known: Conjunction,
        current: PathSchedule,
        branch_time: float,
        node: DecisionNode,
        start_index: int = 0,
    ) -> Tuple[bool, PathSchedule, int]:
        """Place activation times with start < branch_time into the table.

        Returns ``(True, new_schedule, 0)`` when conflict handling modified
        the current schedule (the caller restarts the walk on the fresh item
        list), ``(False, schedule, settled)`` otherwise, where ``settled`` is
        the length of the leading item prefix now conclusively handled for
        this branch — placed, already applicable, or a dummy.  Descendant
        nodes resume the walk there; a broadcast deferred because its
        condition is not yet known (it is placed in a deeper segment) stops
        the settled prefix from advancing past it.
        """
        known_pos, known_neg = known.pos_mask, known.neg_mask
        items = current.all_items_in_order()
        columns = _SegmentColumns(known, current)
        settled = start_index
        conclusive = True
        for index in range(start_index, len(items)):
            item = items[index]
            if item.start >= branch_time - _EPSILON:
                break
            if item.is_broadcast:
                modified, current, done = self._place_broadcast(
                    item, known, known_pos, known_neg, current, columns
                )
            else:
                modified, current, done = self._place_process(
                    item, known, known_pos, known_neg, current, node, columns
                )
            if modified:
                return True, current, 0
            if conclusive and done:
                settled = index + 1
            else:
                conclusive = False
        return False, current, settled

    def _place_process(
        self,
        task: ScheduledTask,
        known: Conjunction,
        known_pos: int,
        known_neg: int,
        current: PathSchedule,
        node: DecisionNode,
        columns: _SegmentColumns,
    ) -> Tuple[bool, PathSchedule, bool]:
        name = task.name
        if name in self._dummy_names:
            return False, current, True
        entry = self._table.applicable_process_entry(name, known_pos, known_neg)
        if entry is not None:
            _check_settled(f"process {name!r}", entry, task, current)
            return False, current, True
        pe = self._mapping.get(name)
        column = columns.column(pe, task.start)
        conflicts = self._table.conflicting_process_entries(name, column, task.start)
        if not conflicts:
            self._table.add_process_entry(name, column, task.start, pe)
            return False, current, True
        node.conflicts_resolved += 1
        self._trace.conflicts_resolved += 1
        new_current = self._resolve_process_conflict(
            name, conflicts, known, current, columns
        )
        return True, new_current, False

    def _place_broadcast(
        self,
        task: ScheduledTask,
        known: Conjunction,
        known_pos: int,
        known_neg: int,
        current: PathSchedule,
        columns: _SegmentColumns,
    ) -> Tuple[bool, PathSchedule, bool]:
        condition = task.condition
        assert condition is not None
        if known.value_of(condition) is None:
            # The broadcast of the condition about to be branched on is placed
            # in the deeper segments, once the condition is part of ``known``
            # — not settled: descendants must revisit this item.
            return False, current, False
        entry = self._table.applicable_condition_entry(condition, known_pos, known_neg)
        if entry is not None:
            _check_settled(f"the broadcast of {condition}", entry, task, current)
            return False, current, True
        # The broadcast happens whatever value its condition takes, so that
        # condition stays out of its column.
        column = columns.column(task.pe, task.start).without((condition,))
        conflicts = self._table.conflicting_condition_entries(
            condition, column, task.start
        )
        if not conflicts:
            self._table.add_condition_entry(condition, column, task.start, task.pe)
            return False, current, True
        # Move the broadcast to the previously fixed time (Theorem 2 applied to
        # the broadcast row) and re-adjust the current schedule around it.
        self._trace.conflicts_resolved += 1
        target = min(conflicts, key=lambda e: e.start)
        forced = ScheduledTask(
            task.name, target.start, task.duration, target.pe or task.pe, condition
        )
        new_current, _ = self._adjust(
            current.path, extra_broadcasts={condition: forced}
        )
        return True, new_current, False

    # -- adjustment and conflicts ----------------------------------------------------

    def _adjust(
        self,
        path: AlternativePath,
        extra_locked: Optional[Dict[str, float]] = None,
        extra_broadcasts: Optional[Dict[Condition, ScheduledTask]] = None,
    ) -> Tuple[PathSchedule, int]:
        """Schedule ``path`` around the activation times the table already fixed.

        Every entry whose column holds under the path's label is locked, not
        only those the conditions known at the branching node imply: once its
        conditions are known, such an entry applies on this branch and the
        placement walk treats it as settled.  ``extra_locked`` and
        ``extra_broadcasts`` add the times a conflict forces.  Returns the
        schedule and the number of locked processes.
        """
        label = path.label
        process_entries, condition_entries = self._table.applicable_locks(
            label.pos_mask, label.neg_mask
        )
        active = set(path.active_processes)
        locked = {
            name: entry.start
            for name, entry in process_entries.items()
            if name in active
        }
        determined = self._optimal[label].determination_times
        tau0 = self._architecture.condition_broadcast_time
        locked_broadcasts = {
            condition: ScheduledTask(
                f"cond:{condition}",
                entry.start,
                tau0 if entry.pe is not None else 0.0,
                entry.pe,
                condition,
            )
            for condition, entry in condition_entries.items()
            if condition in determined
        }
        if extra_locked:
            locked.update(extra_locked)
        if extra_broadcasts:
            locked_broadcasts.update(extra_broadcasts)
        adjusted = self._scheduler.schedule(
            path,
            locked_starts=locked,
            locked_broadcasts=locked_broadcasts,
            order_hint=self._order_hints[label],
        )
        return adjusted, len(locked)

    def _resolve_process_conflict(
        self,
        name: str,
        conflicts: List[TableEntry],
        known: Conjunction,
        current: PathSchedule,
        columns: _SegmentColumns,
    ) -> PathSchedule:
        """Move the process to a conflict-free activation time (Theorem 2).

        The conflicting times are tried in increasing order.  A time is
        screened against ``columns``, the segment's columns over ``current``
        (re-adjusting around one moved process almost never changes the
        condition-knowledge times a column depends on), and only a time that
        passes pays for a re-adjustment, whose own column is checked again.
        """
        pe = self._mapping.get(name)
        candidate_times = sorted({entry.start for entry in conflicts})
        for candidate in candidate_times:
            column = columns.column(pe, candidate)
            if self._table.conflicting_process_entries(name, column, candidate):
                continue
            adjusted, _ = self._adjust(current.path, extra_locked={name: candidate})
            column = _SegmentColumns(known, adjusted).column(pe, candidate)
            if not self._table.conflicting_process_entries(name, column, candidate):
                self._table.add_process_entry(name, column, candidate, pe)
                return adjusted
        raise MergeConflictError(
            f"could not resolve the table conflict for process {name!r} "
            f"(conflicting times {candidate_times})"
        )


def merge_schedules(
    graph: ConditionalProcessGraph,
    mapping: Mapping,
    architecture: Optional[Architecture] = None,
) -> MergeResult:
    """Convenience wrapper: enumerate paths, schedule them and merge."""
    merger = ScheduleMerger(graph, mapping, architecture)
    return merger.merge()
