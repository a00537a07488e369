"""Fig. 4 — optimal and adjusted schedules of two alternative paths of Fig. 1.

The paper illustrates the adjustment step with the optimal schedules of the
paths ``D & C & K`` and ``D & C & !K`` and the adjusted version of the latter
after the back-step on condition K.  This benchmark regenerates the same three
Gantt charts: the two optimal per-path schedules and the adjusted schedule in
which every activation time already fixed in the table (in columns that do not
depend on K) is locked.
"""

from __future__ import annotations

from repro.analysis import render_gantt
from repro.conditions import Condition, Conjunction
from repro.graph import PathEnumerator
from repro.scheduling import PathListScheduler

from conftest import write_result

C = Condition("C")
D = Condition("D")
K = Condition("K")


def test_fig4_optimal_and_adjusted_schedules(benchmark, fig1_example, fig1_result):
    example = fig1_example
    enumerator = PathEnumerator(example.graph)
    scheduler = PathListScheduler(
        example.graph, example.expanded_mapping, example.architecture
    )

    path_k_true = enumerator.path_for(
        Conjunction.from_assignment({C: True, D: True, K: True})
    )
    path_k_false = enumerator.path_for(
        Conjunction.from_assignment({C: True, D: True, K: False})
    )
    optimal_true = scheduler.schedule(path_k_true)
    optimal_false = scheduler.schedule(path_k_false)

    # Locks for the adjusted schedule: every activation time already placed in
    # a column that only depends on conditions decided before the K branch.
    known = Conjunction.from_assignment({C: True, D: True})
    locked = {}
    for name in fig1_result.table.process_names:
        for entry in fig1_result.table.process_entries(name):
            if known.implies(entry.column):
                if path_k_false.includes(name):
                    locked[name] = entry.start
                break

    def adjust():
        return scheduler.schedule(
            path_k_false,
            locked_starts=locked,
            order_hint={n: t.start for n, t in optimal_false.tasks.items()},
        )

    adjusted = benchmark(adjust)

    lines = ["Fig. 4 (reproduction): optimal and adjusted path schedules", ""]
    lines.append(render_gantt(
        optimal_true, example.architecture, width=72,
        title=f"a) optimal schedule of path {path_k_true.label} (delay {optimal_true.delay:g})",
    ))
    lines.append("")
    lines.append(render_gantt(
        optimal_false, example.architecture, width=72,
        title=f"b) optimal schedule of path {path_k_false.label} (delay {optimal_false.delay:g})",
    ))
    lines.append("")
    lines.append(render_gantt(
        adjusted, example.architecture, width=72,
        title=(f"c) adjusted schedule of path {path_k_false.label} after the back-step on K "
               f"(delay {adjusted.delay:g}, {len(locked)} locked activation times)"),
    ))
    write_result("fig4_path_schedules", "\n".join(lines))

    adjusted.validate_resources()
    # Locked processes keep their previously fixed start times in the adjusted schedule.
    for name, start in locked.items():
        assert abs(adjusted.start_of(name) - start) < 1e-6
    # The adjustment may only delay the path with respect to its optimal schedule.
    assert adjusted.delay >= optimal_false.delay - 1e-9
