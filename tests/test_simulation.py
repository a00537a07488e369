"""Tests for the run-time simulator and the end-to-end validators."""

import pytest

from repro.conditions import Condition, Conjunction
from repro.graph import PathEnumerator
from repro.scheduling import ScheduleMerger, ScheduleTable
from repro.simulation import (
    RuntimeSimulator,
    SimulationError,
    validate_merge_result,
    validate_schedule_table,
)

C = Condition("C")


@pytest.fixture()
def merged_small(small_system):
    merger = ScheduleMerger(
        small_system["expanded"].graph,
        small_system["expanded"].mapping,
        small_system["architecture"],
    )
    return merger.merge()


class TestExecution:
    def test_execute_reports_delay_and_activities(self, small_system, merged_small):
        simulator = RuntimeSimulator(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            small_system["architecture"],
        )
        trace = simulator.execute(merged_small.table, Conjunction.of(C.true()))
        assert trace.delay > 0
        assert "P2" in trace.executed_names()
        assert "P3" not in trace.executed_names()
        assert trace.activity("P1").start == 0.0

    def test_condition_times_recorded(self, small_system, merged_small):
        simulator = RuntimeSimulator(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            small_system["architecture"],
        )
        trace = simulator.execute(merged_small.table, Conjunction.of(C.true()))
        assert C in trace.condition_determined
        assert trace.condition_broadcast_end[C] >= trace.condition_determined[C]

    def test_worst_case_and_all_delays(self, small_system, merged_small):
        simulator = RuntimeSimulator(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            small_system["architecture"],
        )
        worst, trace = simulator.worst_case_delay(merged_small.table)
        delays = simulator.all_delays(merged_small.table)
        assert worst == pytest.approx(max(delays.values()))
        assert worst == pytest.approx(merged_small.delta_max)
        assert trace.delay == pytest.approx(worst)

    def test_missing_activation_time_detected(self, small_system):
        simulator = RuntimeSimulator(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            small_system["architecture"],
        )
        empty = ScheduleTable()
        with pytest.raises(SimulationError):
            simulator.execute(empty, Conjunction.of(C.true()))

    def test_dependency_violation_detected(self, small_system, merged_small):
        simulator = RuntimeSimulator(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            small_system["architecture"],
        )
        # Corrupt the table: force P5 to start at time 0, before its inputs.
        corrupted = ScheduleTable()
        for name in merged_small.table.process_names:
            for entry in merged_small.table.process_entries(name):
                start = 0.0 if name == "P5" else entry.start
                corrupted.add_process_entry(name, entry.column, start, entry.pe)
        for condition in merged_small.table.conditions:
            for entry in merged_small.table.condition_entries(condition):
                corrupted.add_condition_entry(condition, entry.column, entry.start, entry.pe)
        with pytest.raises(SimulationError):
            simulator.execute(corrupted, Conjunction.of(C.true()))

    def test_requirement4_violation_detected(self, small_system, merged_small):
        simulator = RuntimeSimulator(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            small_system["architecture"],
        )
        # Corrupt the table: pretend the value of C is usable everywhere at t=0
        # by moving the conditional process P2 to time 0 in its C-column.
        corrupted = ScheduleTable()
        for name in merged_small.table.process_names:
            for entry in merged_small.table.process_entries(name):
                start = 0.0 if name == "P2" else entry.start
                corrupted.add_process_entry(name, entry.column, start, entry.pe)
        for condition in merged_small.table.conditions:
            for entry in merged_small.table.condition_entries(condition):
                corrupted.add_condition_entry(condition, entry.column, entry.start, entry.pe)
        with pytest.raises(SimulationError):
            simulator.execute(corrupted, Conjunction.of(C.true()))

    def test_resource_overlap_detected(self, small_system, merged_small):
        simulator = RuntimeSimulator(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            small_system["architecture"],
        )
        # Move P4 (pe2) on top of P2 (pe2) while keeping dependencies intact.
        corrupted = ScheduleTable()
        p2_time = merged_small.table.activation_time("P2", Conjunction.of(C.true()))
        for name in merged_small.table.process_names:
            for entry in merged_small.table.process_entries(name):
                start = p2_time if name == "P4" else entry.start
                corrupted.add_process_entry(name, entry.column, start, entry.pe)
        for condition in merged_small.table.conditions:
            for entry in merged_small.table.condition_entries(condition):
                corrupted.add_condition_entry(condition, entry.column, entry.start, entry.pe)
        with pytest.raises(SimulationError):
            simulator.execute(corrupted, Conjunction.of(C.true()))

    def test_non_strict_mode_skips_checks(self, small_system, merged_small):
        simulator = RuntimeSimulator(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            small_system["architecture"],
            strict=False,
        )
        corrupted = ScheduleTable()
        for name in merged_small.table.process_names:
            for entry in merged_small.table.process_entries(name):
                corrupted.add_process_entry(name, entry.column, 0.0, entry.pe)
        trace = simulator.execute(corrupted, Conjunction.of(C.true()))
        assert trace.delay >= 0.0


class TestValidators:
    def test_validate_schedule_table_reports_paths(self, small_system, merged_small):
        report = validate_schedule_table(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            merged_small.table,
            small_system["architecture"],
        )
        assert report.paths_checked == 2
        assert report.worst_case_delay >= report.best_case_delay

    def test_validate_merge_result_cross_checks_delta_max(
        self, small_system, merged_small
    ):
        report = validate_merge_result(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            merged_small,
            small_system["architecture"],
        )
        assert report.worst_case_delay == pytest.approx(merged_small.delta_max)

    def test_validate_merge_result_detects_wrong_delta(self, small_system, merged_small):
        merged_small.delta_max = merged_small.delta_max + 100.0
        with pytest.raises(SimulationError):
            validate_merge_result(
                small_system["expanded"].graph,
                small_system["expanded"].mapping,
                merged_small,
                small_system["architecture"],
            )

    def test_fig1_every_path_delay_at_most_delta_max(self, fig1, fig1_merge_result):
        simulator = RuntimeSimulator(fig1.graph, fig1.expanded_mapping, fig1.architecture)
        delays = simulator.all_delays(fig1_merge_result.table)
        assert len(delays) == 6
        assert max(delays.values()) == pytest.approx(fig1_merge_result.delta_max)


class TestActivityAccess:
    def test_activity_lookup_raises_for_unknown(self, small_system, merged_small):
        simulator = RuntimeSimulator(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            small_system["architecture"],
        )
        trace = simulator.execute(merged_small.table, Conjunction.of(C.false()))
        with pytest.raises(KeyError):
            trace.activity("P2")  # P2 is only active when C holds

    def test_broadcast_appears_as_activity(self, small_system, merged_small):
        simulator = RuntimeSimulator(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            small_system["architecture"],
        )
        trace = simulator.execute(merged_small.table, Conjunction.of(C.true()))
        broadcasts = [a for a in trace.activities if a.is_broadcast]
        assert len(broadcasts) == 1
        assert broadcasts[0].condition == C


def test_empty_assignment_single_path_graph(two_processor_architecture):
    from repro.architecture import Mapping
    from repro.graph import CPGBuilder

    builder = CPGBuilder("plain")
    builder.process("A", 1.0)
    graph = builder.build()
    mapping = Mapping(two_processor_architecture, {"A": two_processor_architecture["pe1"]})
    result = ScheduleMerger(graph, mapping, two_processor_architecture).merge()
    simulator = RuntimeSimulator(graph, mapping, two_processor_architecture)
    trace = simulator.execute(result.table, Conjunction.true())
    assert trace.delay == pytest.approx(1.0)
    assert Conjunction.true() in result.table.columns()
