"""Distributed run-time execution of a schedule table.

The paper assumes a very simple non-preemptive scheduler on every
programmable processor and bus: it looks up the schedule table and activates a
process at the tabulated time as soon as the column's condition values are
known locally.  This module simulates that execution for one alternative
path and checks, dynamically, everything the static table
checks cannot see:

* inputs have actually arrived when a process is activated;
* the column used for the activation only involves condition values already
  known on the executing processing element (requirement 4);
* no two activities overlap on a sequential processing element;
* the delay equals the activation time of the sink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..architecture.architecture import Architecture
from ..architecture.mapping import Mapping
from ..architecture.processing_element import ProcessingElement
from ..conditions import Condition, Conjunction
from ..graph.cpg import ConditionalProcessGraph
from ..graph.paths import AlternativePath, PathEnumerator
from ..scheduling.schedule_table import ScheduleTable

_EPSILON = 1e-6


class SimulationError(RuntimeError):
    """Raised when executing a schedule table violates the execution model."""


@dataclass(frozen=True)
class ExecutedActivity:
    """One activity (process execution or condition broadcast) of a simulation run."""

    name: str
    start: float
    end: float
    pe: Optional[ProcessingElement]
    condition: Optional[Condition] = None

    @property
    def is_broadcast(self) -> bool:
        return self.condition is not None


@dataclass
class ExecutionTrace:
    """The outcome of executing the schedule table for one alternative path."""

    label: Conjunction
    activities: List[ExecutedActivity] = field(default_factory=list)
    delay: float = 0.0
    condition_determined: Dict[Condition, float] = field(default_factory=dict)
    condition_broadcast_end: Dict[Condition, float] = field(default_factory=dict)

    def activity(self, name: str) -> ExecutedActivity:
        for item in self.activities:
            if item.name == name and not item.is_broadcast:
                return item
        raise KeyError(f"no executed activity named {name!r}")

    def executed_names(self) -> Tuple[str, ...]:
        return tuple(item.name for item in self.activities if not item.is_broadcast)


class RuntimeSimulator:
    """Executes a schedule table under the paper's distributed execution model."""

    def __init__(
        self,
        graph: ConditionalProcessGraph,
        mapping: Mapping,
        architecture: Optional[Architecture] = None,
        strict: bool = True,
    ) -> None:
        self._graph = graph
        self._mapping = mapping
        self._architecture = architecture or mapping.architecture
        self._strict = strict
        self._disjunctions = graph.disjunction_processes()
        self._enumerator = PathEnumerator(graph)

    # -- public API ----------------------------------------------------------------

    def execute(
        self,
        table: ScheduleTable,
        known: Conjunction,
        path: Optional[AlternativePath] = None,
    ) -> ExecutionTrace:
        """Execute the table for the alternative path ``known`` selects.

        ``path``, when the caller already holds it, saves the lookup.
        """
        if path is None:
            path = self._enumerator.path_for(known)
        label = path.label
        trace = ExecutionTrace(label=label)

        starts: Dict[str, float] = {}
        ends: Dict[str, float] = {}
        for name in path.active_processes:
            process = self._graph[name]
            if process.is_dummy:
                continue
            start = table.activation_time(name, label)
            if start is None:
                raise SimulationError(
                    f"no activation time for active process {name!r} on path {path.label}"
                )
            pe = self._mapping.get(name)
            duration = process.duration_on(pe)
            starts[name] = start
            ends[name] = start + duration
            trace.activities.append(
                ExecutedActivity(name, start, start + duration, pe)
            )

        self._record_condition_times(table, path, ends, trace)

        if self._strict:
            self._check_dependencies(path, starts, ends)
            self._check_condition_knowledge(table, path, starts, trace)
            self._check_resources(trace)

        trace.delay = max(ends.values(), default=0.0)
        trace.activities.sort(key=lambda a: (a.start, a.name))
        return trace

    def worst_case_delay(self, table: ScheduleTable) -> Tuple[float, ExecutionTrace]:
        """Execute every alternative path and return the worst delay and its trace."""
        worst: Optional[ExecutionTrace] = None
        for path in self._enumerator.paths():
            trace = self.execute(table, path.label, path)
            if worst is None or trace.delay > worst.delay:
                worst = trace
        assert worst is not None
        return worst.delay, worst

    def all_delays(self, table: ScheduleTable) -> Dict[str, float]:
        """Delay of every alternative path, keyed by the path label string."""
        return {
            str(path.label): self.execute(table, path.label, path).delay
            for path in self._enumerator.paths()
        }

    # -- internals ---------------------------------------------------------------------

    def _record_condition_times(
        self,
        table: ScheduleTable,
        path: AlternativePath,
        ends: Dict[str, float],
        trace: ExecutionTrace,
    ) -> None:
        tau0 = self._architecture.condition_broadcast_time
        needs_broadcast = len(self._architecture.processors) > 1 and bool(
            self._architecture.broadcast_buses()
        )
        for name, condition in self._disjunctions.items():
            if name not in ends:
                continue
            determined = ends[name]
            trace.condition_determined[condition] = determined
            broadcast_start = table.broadcast_time(condition, path.label)
            if broadcast_start is None or not needs_broadcast:
                trace.condition_broadcast_end[condition] = determined
                continue
            if broadcast_start + _EPSILON < determined and self._strict:
                raise SimulationError(
                    f"broadcast of condition {condition} starts at "
                    f"{broadcast_start:g}, before the condition is computed at "
                    f"{determined:g}"
                )
            bus = self._broadcast_bus(table, condition, path)
            end = broadcast_start + tau0
            trace.condition_broadcast_end[condition] = end
            trace.activities.append(
                ExecutedActivity(f"cond:{condition}", broadcast_start, end, bus, condition)
            )

    def _broadcast_bus(
        self, table: ScheduleTable, condition: Condition, path: AlternativePath
    ) -> Optional[ProcessingElement]:
        for entry in table.condition_entries(condition):
            if path.label.implies(entry.column):
                return entry.pe
        return None

    def _condition_known_on(
        self,
        condition: Condition,
        pe: Optional[ProcessingElement],
        trace: ExecutionTrace,
    ) -> float:
        determined = trace.condition_determined.get(condition)
        if determined is None:
            return float("inf")
        origin_name = self._graph.disjunction_process_of(condition)
        origin_pe = self._mapping.get(origin_name)
        if pe is not None and origin_pe is not None and pe == origin_pe:
            return determined
        return trace.condition_broadcast_end.get(condition, determined)

    def _check_dependencies(
        self,
        path: AlternativePath,
        starts: Dict[str, float],
        ends: Dict[str, float],
    ) -> None:
        for name in starts:
            for pred in self._graph.active_predecessors(name, path.label):
                if self._graph[pred].is_dummy:
                    continue
                if pred not in ends:
                    raise SimulationError(
                        f"active predecessor {pred!r} of {name!r} was never executed"
                    )
                if starts[name] + _EPSILON < ends[pred]:
                    raise SimulationError(
                        f"process {name!r} starts at {starts[name]:g} before its "
                        f"input from {pred!r} arrives at {ends[pred]:g}"
                    )

    def _check_condition_knowledge(
        self,
        table: ScheduleTable,
        path: AlternativePath,
        starts: Dict[str, float],
        trace: ExecutionTrace,
    ) -> None:
        for name, start in starts.items():
            pe = self._mapping.get(name)
            applicable = [
                entry
                for entry in table.process_entries(name)
                if path.label.implies(entry.column)
                and abs(entry.start - start) < _EPSILON
            ]
            for entry in applicable:
                for literal in entry.column.literals:
                    known = self._condition_known_on(literal.condition, pe, trace)
                    if start + _EPSILON < known:
                        raise SimulationError(
                            f"requirement 4 violated: {name!r} is activated at "
                            f"{start:g} using condition {literal.condition}, which "
                            f"is only known on {pe} at {known:g}"
                        )

    def _check_resources(self, trace: ExecutionTrace) -> None:
        per_pe: Dict[str, List[ExecutedActivity]] = {}
        for activity in trace.activities:
            if activity.pe is None or not activity.pe.executes_sequentially:
                continue
            per_pe.setdefault(activity.pe.name, []).append(activity)
        for pe_name, activities in per_pe.items():
            activities.sort(key=lambda a: (a.start, a.end))
            for first, second in zip(activities, activities[1:]):
                if second.start + _EPSILON < first.end:
                    raise SimulationError(
                        f"activities {first.name!r} and {second.name!r} overlap on "
                        f"{pe_name}: [{first.start:g}, {first.end:g}) vs start "
                        f"{second.start:g}"
                    )
