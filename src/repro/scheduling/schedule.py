"""Schedules of individual alternative paths.

The schedule of one alternative path assigns a start time to every process
activated on that path (including communication processes) and to the
condition-broadcast transfers triggered by the disjunction processes of the
path.  These per-path schedules are the input of the schedule-merging
algorithm that produces the global schedule table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..architecture.processing_element import ProcessingElement
from ..conditions import Condition
from ..graph.paths import AlternativePath

#: An activity occupies its sequential processing element over
#: ``[start, end)``, so one no longer than this occupies nothing: the list
#: scheduler reserves no interval for it, and no resource check counts it.
ZERO_LENGTH = 1e-9


@dataclass(frozen=True, slots=True)
class ScheduledTask:
    """One scheduled activity: a process execution or a condition broadcast.

    Slotted: a memoized path schedule holds one per active process, and a
    per-instance ``__dict__`` would add ~40 bytes to each.
    """

    name: str
    start: float
    duration: float
    pe: Optional[ProcessingElement] = None
    condition: Optional[Condition] = field(default=None)

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"negative start time for {self.name!r}")
        if self.duration < 0:
            raise ValueError(f"negative duration for {self.name!r}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def is_broadcast(self) -> bool:
        return self.condition is not None

    def __str__(self) -> str:
        where = self.pe.name if self.pe is not None else "-"
        return f"{self.name}@{self.start:g}+{self.duration:g} on {where}"


class PathSchedule:
    """The schedule of one alternative path.

    Attributes
    ----------
    path:
        The alternative path this schedule belongs to.
    tasks:
        Scheduled process executions, keyed by process name.
    broadcasts:
        Scheduled condition broadcasts, keyed by condition.
    determination_times:
        The moment each condition value is computed (the finish time of its
        disjunction process) on this path.
    disjunction_pes:
        The processing element that executes each condition's disjunction
        process on this path.
    """

    def __init__(
        self,
        path: AlternativePath,
        tasks: Dict[str, ScheduledTask],
        broadcasts: Dict[Condition, ScheduledTask],
        determination_times: Dict[Condition, float],
        disjunction_pes: Dict[Condition, Optional[ProcessingElement]],
    ) -> None:
        self.path = path
        self.tasks = dict(tasks)
        self.broadcasts = dict(broadcasts)
        self.determination_times = dict(determination_times)
        self.disjunction_pes = dict(disjunction_pes)
        self._items_cache: Optional[
            Tuple[Tuple[ScheduledTask, ...], List[ScheduledTask]]
        ] = None

    # -- basic queries --------------------------------------------------------

    @property
    def delay(self) -> float:
        """The delay of the path: the activation time of the sink process."""
        if not self.tasks:
            return 0.0
        return max(task.end for task in self.tasks.values())

    def start_of(self, process_name: str) -> float:
        return self.tasks[process_name].start

    def end_of(self, process_name: str) -> float:
        return self.tasks[process_name].end

    def __contains__(self, process_name: str) -> bool:
        return process_name in self.tasks

    def __iter__(self) -> Iterator[ScheduledTask]:
        return iter(self.tasks_in_order())

    def tasks_in_order(self) -> List[ScheduledTask]:
        """All process tasks sorted by start time (name breaks ties)."""
        return sorted(self.tasks.values(), key=lambda t: (t.start, t.name))

    def all_items_in_order(self) -> List[ScheduledTask]:
        """Process tasks and broadcasts interleaved by start time.

        The sorted view is cached against a snapshot of the current items
        (the merger walks it on every placement restart, always unchanged);
        mutating ``tasks`` or ``broadcasts`` invalidates it on the next call.
        """
        snapshot = tuple(self.tasks.values()) + tuple(self.broadcasts.values())
        if self._items_cache is None or self._items_cache[0] != snapshot:
            self._items_cache = (
                snapshot,
                sorted(snapshot, key=lambda t: (t.start, t.is_broadcast, t.name)),
            )
        return list(self._items_cache[1])

    def tasks_on(self, pe: ProcessingElement) -> List[ScheduledTask]:
        """All activities (processes and broadcasts) scheduled on one element."""
        items = [t for t in self.tasks.values() if t.pe == pe]
        items += [t for t in self.broadcasts.values() if t.pe == pe]
        return sorted(items, key=lambda t: (t.start, t.name))

    # -- condition knowledge ----------------------------------------------------

    def condition_known_time(
        self, condition: Condition, pe: Optional[ProcessingElement]
    ) -> float:
        """When the value of ``condition`` becomes usable on ``pe``.

        The value is available on the processor that executed the disjunction
        process from the moment the process terminates; every other processing
        element learns it when the broadcast completes.
        """
        if condition not in self.determination_times:
            raise KeyError(f"condition {condition} is not determined on this path")
        determined = self.determination_times[condition]
        origin = self.disjunction_pes.get(condition)
        if pe is not None and origin is not None and pe == origin:
            return determined
        broadcast = self.broadcasts.get(condition)
        if broadcast is None:
            return determined
        return broadcast.end

    # -- resource view ----------------------------------------------------------

    def busy_intervals(self) -> Dict[str, List[Tuple[float, float]]]:
        """Occupied intervals per sequential processing element (sorted).

        Zero-length activities occupy nothing (see :data:`ZERO_LENGTH`).
        """
        intervals: Dict[str, List[Tuple[float, float]]] = {}
        for task in list(self.tasks.values()) + list(self.broadcasts.values()):
            if task.pe is None or not task.pe.executes_sequentially:
                continue
            if task.duration <= ZERO_LENGTH:
                continue
            intervals.setdefault(task.pe.name, []).append((task.start, task.end))
        for slots in intervals.values():
            slots.sort()
        return intervals

    def validate_resources(self) -> None:
        """Assert that no two activities overlap on a sequential element."""
        for pe_name, slots in self.busy_intervals().items():
            for (start_a, end_a), (start_b, _end_b) in zip(slots, slots[1:]):
                if start_b < end_a - 1e-9:
                    raise ValueError(
                        f"overlapping activities on {pe_name}: "
                        f"[{start_a:g}, {end_a:g}) and starting {start_b:g}"
                    )

    def copy(self) -> "PathSchedule":
        return PathSchedule(
            self.path,
            dict(self.tasks),
            dict(self.broadcasts),
            dict(self.determination_times),
            dict(self.disjunction_pes),
        )

    def __eq__(self, other: object) -> bool:
        """Value equality including iteration order of the task/broadcast dicts.

        The dicts keep the scheduler's dispatch order, so two schedules with
        the same mappings in different orders do not compare equal.
        """
        if not isinstance(other, PathSchedule):
            return NotImplemented
        return (
            self.path == other.path
            and tuple(self.tasks.items()) == tuple(other.tasks.items())
            and tuple(self.broadcasts.items()) == tuple(other.broadcasts.items())
            and tuple(self.determination_times.items())
            == tuple(other.determination_times.items())
            and tuple(self.disjunction_pes.items())
            == tuple(other.disjunction_pes.items())
        )

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return (
            f"PathSchedule(path={self.path.label}, processes={len(self.tasks)}, "
            f"delay={self.delay:g})"
        )
