#!/usr/bin/env python3
"""Quickstart: model a small conditional application, schedule it, inspect the table.

The example models a tiny control application: a sensor reading is processed,
a decision process computes the condition ``urgent``; the urgent branch runs a
short filter on a hardware accelerator, the normal branch runs a longer filter
in software, and both branches feed the actuator command.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    Condition,
    Conjunction,
    CPGBuilder,
    Mapping,
    RuntimeSimulator,
    ScheduleMerger,
    simple_architecture,
)
from repro.analysis import format_schedule_table, render_gantt
from repro.graph import expand_communications


def build_application():
    """A five-process conditional application with one condition."""
    urgent = Condition("urgent")
    builder = CPGBuilder("quickstart")
    builder.process("sample", 2.0)
    builder.process("classify", 3.0)          # computes the condition `urgent`
    builder.process("fast_filter", 4.0)       # guard: urgent
    builder.process("slow_filter", 9.0)       # guard: not urgent
    builder.process("actuate", 2.0)
    builder.chain("sample", "classify")
    builder.edge("classify", "fast_filter", condition=urgent.true(), communication_time=1.0)
    builder.edge("classify", "slow_filter", condition=urgent.false())
    builder.edge("fast_filter", "actuate", communication_time=1.0)
    builder.edge("slow_filter", "actuate", communication_time=1.0)
    return builder.build(), urgent


def main() -> None:
    graph, urgent = build_application()

    # Target: two programmable processors, one ASIC, one shared bus.
    architecture = simple_architecture(
        num_programmable=2, num_hardware=1, num_buses=1, condition_broadcast_time=0.5
    )
    print("Target architecture")
    print(architecture.describe())

    # Mapping: the control chain stays on pe1, the urgent filter goes to the
    # hardware accelerator, the actuator command runs on pe2.
    mapping = Mapping(architecture)
    mapping.assign_many(architecture["pe1"], ["sample", "classify", "slow_filter"])
    mapping.assign("fast_filter", architecture["pe3"])
    mapping.assign("actuate", architecture["pe2"])
    expanded = expand_communications(graph, mapping, architecture)
    print("\nMapping")
    print(expanded.mapping.describe())

    # Schedule: per-path list schedules merged into one schedule table.
    result = ScheduleMerger(expanded.graph, expanded.mapping, architecture).merge()
    print("\nPer-path optimal delays")
    for label, schedule in sorted(result.path_schedules.items(), key=lambda kv: str(kv[0])):
        print(f"  {str(label):<10} delay {schedule.delay:g}")
    print(f"delta_M   = {result.delta_m:g}")
    print(f"delta_max = {result.delta_max:g}"
          f"  (increase {result.delay_increase_percent:.2f}%)")

    print("\nSchedule table")
    print(format_schedule_table(result.table))

    # Execute the table for both condition outcomes with the run-time simulator.
    simulator = RuntimeSimulator(expanded.graph, expanded.mapping, architecture)
    for value in (True, False):
        trace = simulator.execute(
            result.table, Conjunction.from_assignment({urgent: value})
        )
        print(f"\nExecution with urgent={value}: delay {trace.delay:g}")
        for activity in trace.activities:
            where = activity.pe.name if activity.pe else "-"
            print(f"  {activity.start:>6.2f} -> {activity.end:>6.2f}  {activity.name:<22} on {where}")

    worst = max(result.path_schedules.values(), key=lambda s: s.delay)
    print("\nGantt chart of the slowest path")
    print(render_gantt(worst, architecture, width=70))


if __name__ == "__main__":
    main()
