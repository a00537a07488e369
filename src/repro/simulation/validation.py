"""End-to-end validation of a merge result.

Combines the static requirement checks of the schedule table with a dynamic
execution of every alternative path by the run-time simulator, and cross-checks
the analytically computed worst-case delay against the simulated one.  Tests
and benchmarks use this as the single entry point for "is this schedule table
actually correct?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..architecture.architecture import Architecture
from ..architecture.mapping import Mapping
from ..graph.cpg import ConditionalProcessGraph
from ..graph.paths import AlternativePath, PathEnumerator
from ..scheduling.merging import MergeResult
from ..scheduling.schedule_table import ScheduleTable
from .runtime import RuntimeSimulator, SimulationError


@dataclass
class ValidationReport:
    """Per-path delays and the validated worst-case delay of a schedule table."""

    path_delays: Dict[str, float] = field(default_factory=dict)
    worst_case_delay: float = 0.0
    paths_checked: int = 0


def validate_schedule_table(
    graph: ConditionalProcessGraph,
    mapping: Mapping,
    table: ScheduleTable,
    architecture: Optional[Architecture] = None,
    paths: Optional[List[AlternativePath]] = None,
) -> ValidationReport:
    """Statically and dynamically validate a schedule table.

    Raises :class:`~repro.scheduling.schedule_table.ScheduleTableError` or
    :class:`SimulationError` when a requirement is violated; returns the
    per-path delays otherwise.
    """
    if paths is None:
        paths = PathEnumerator(graph).paths()
    table.check_requirements(graph, paths)
    simulator = RuntimeSimulator(graph, mapping, architecture)
    report = ValidationReport()
    for path in paths:
        trace = simulator.execute(table, path.label, path)
        report.path_delays[str(path.label)] = trace.delay
        report.worst_case_delay = max(report.worst_case_delay, trace.delay)
        report.paths_checked += 1
    return report


def validate_merge_result(
    graph: ConditionalProcessGraph,
    mapping: Mapping,
    result: MergeResult,
    architecture: Optional[Architecture] = None,
) -> ValidationReport:
    """Validate a full merge result, including its reported delays.

    Checks that the analytically computed ``delta_max`` matches the simulated
    worst case and that it is never smaller than ``delta_M`` (the delay of the
    longest individual path, a lower bound the paper proves).
    """
    report = validate_schedule_table(
        graph, mapping, result.table, architecture, result.paths or None
    )
    if abs(report.worst_case_delay - result.delta_max) > 1e-6:
        raise SimulationError(
            f"analytic worst-case delay {result.delta_max:g} does not match the "
            f"simulated worst case {report.worst_case_delay:g}"
        )
    if result.delta_max + 1e-9 < result.delta_m:
        raise SimulationError(
            f"delta_max ({result.delta_max:g}) is smaller than delta_M "
            f"({result.delta_m:g}), which is impossible"
        )
    return report
