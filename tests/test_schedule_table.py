"""Tests for the schedule table structure and the paper's determinism requirements."""

import pytest

from repro.conditions import Condition, Conjunction
from repro.graph import CPGBuilder, PathEnumerator
from repro.scheduling import ScheduleTable, ScheduleTableError

C = Condition("C")
D = Condition("D")

TRUE = Conjunction.true()
C_TRUE = Conjunction.of(C.true())
C_FALSE = Conjunction.of(C.false())


def branching_graph():
    builder = CPGBuilder("branch")
    builder.process("P1", 2.0)
    builder.process("P2", 3.0)
    builder.process("P3", 4.0)
    builder.process("P4", 1.0)
    builder.edge("P1", "P2", condition=C.true())
    builder.edge("P1", "P3", condition=C.false())
    builder.edge("P2", "P4")
    builder.edge("P3", "P4")
    return builder.build()


def valid_table():
    table = ScheduleTable("demo")
    table.add_process_entry("P1", TRUE, 0.0)
    table.add_process_entry("P2", C_TRUE, 2.0)
    table.add_process_entry("P3", C_FALSE, 2.0)
    table.add_process_entry("P4", C_TRUE, 5.0)
    table.add_process_entry("P4", C_FALSE, 6.0)
    table.add_condition_entry(C, TRUE, 2.0)
    return table


class TestStructure:
    def test_rows_and_columns(self):
        table = valid_table()
        assert set(table.process_names) == {"P1", "P2", "P3", "P4"}
        assert table.conditions == (C,)
        assert TRUE in table.columns() and C_TRUE in table.columns()
        assert len(table) == 4

    def test_entries_accessors(self):
        table = valid_table()
        assert len(table.process_entries("P4")) == 2
        assert table.process_entries("unknown") == ()
        assert len(table.condition_entries(C)) == 1
        assert table.condition_entries(D) == ()

    def test_iteration(self):
        table = valid_table()
        rows = dict(iter(table))
        assert set(rows) == {"P1", "P2", "P3", "P4"}

    def test_repr(self):
        assert "rows=4" in repr(valid_table())


class TestInterpretation:
    def test_activation_time_selects_applicable_column(self):
        table = valid_table()
        assert table.activation_time("P4", Conjunction.of(C.true())) == 5.0
        assert table.activation_time("P4", Conjunction.of(C.false())) == 6.0
        assert table.activation_time("P2", Conjunction.of(C.false())) is None
        assert table.activation_time("P1", Conjunction.of(C.false())) == 0.0

    def test_ambiguous_activation_raises(self):
        table = ScheduleTable()
        table.add_process_entry("P1", TRUE, 0.0)
        table.add_process_entry("P1", C_TRUE, 3.0)
        with pytest.raises(ScheduleTableError):
            table.activation_time("P1", Conjunction.of(C.true()))

    def test_broadcast_time(self):
        table = valid_table()
        assert table.broadcast_time(C, Conjunction.of(C.true())) == 2.0
        assert table.broadcast_time(D, Conjunction.of(C.true())) is None

    def test_delay_of_path_and_worst_case(self, two_processor_architecture):
        from repro.architecture import Mapping

        graph = branching_graph()
        mapping = Mapping(two_processor_architecture)
        for name in ("P1", "P2", "P3", "P4"):
            mapping.assign(name, two_processor_architecture["pe1"])
        table = valid_table()
        paths = PathEnumerator(graph).paths()
        by_label = {str(p.label): p for p in paths}
        assert table.delay_of_path(graph, mapping, by_label["C"]) == pytest.approx(6.0)
        assert table.delay_of_path(graph, mapping, by_label["!C"]) == pytest.approx(7.0)
        assert table.worst_case_delay(graph, mapping, paths) == pytest.approx(7.0)

    def test_delay_of_path_missing_entry_raises(self, two_processor_architecture):
        from repro.architecture import Mapping

        graph = branching_graph()
        mapping = Mapping(two_processor_architecture)
        for name in ("P1", "P2", "P3", "P4"):
            mapping.assign(name, two_processor_architecture["pe1"])
        table = ScheduleTable()
        table.add_process_entry("P1", TRUE, 0.0)
        path = PathEnumerator(graph).paths()[0]
        with pytest.raises(ScheduleTableError):
            table.delay_of_path(graph, mapping, path)


class TestRequirements:
    def test_requirement_1_checks_guard_implication(self):
        graph = branching_graph()
        table = valid_table()
        table.check_requirement_1(graph)
        bad = ScheduleTable()
        bad.add_process_entry("P2", TRUE, 1.0)  # P2's guard is C, "true" is weaker
        with pytest.raises(ScheduleTableError):
            bad.check_requirement_1(graph)

    def test_requirement_2_detects_overlapping_columns(self):
        table = ScheduleTable()
        table.add_process_entry("P1", C_TRUE, 1.0)
        table.add_process_entry("P1", Conjunction.of(D.true()), 2.0)
        with pytest.raises(ScheduleTableError):
            table.check_requirement_2()

    def test_requirement_2_allows_equal_times(self):
        table = ScheduleTable()
        table.add_process_entry("P1", C_TRUE, 1.0)
        table.add_process_entry("P1", Conjunction.of(D.true()), 1.0)
        table.check_requirement_2()

    def test_requirement_2_allows_exclusive_columns(self):
        valid_table().check_requirement_2()

    def test_requirement_2_applies_to_condition_rows(self):
        table = ScheduleTable()
        table.add_condition_entry(C, Conjunction.of(D.true()), 1.0)
        table.add_condition_entry(C, TRUE, 2.0)
        with pytest.raises(ScheduleTableError):
            table.check_requirement_2()

    def test_requirement_3_needs_full_coverage(self):
        graph = branching_graph()
        paths = PathEnumerator(graph).paths()
        incomplete = ScheduleTable()
        incomplete.add_process_entry("P1", TRUE, 0.0)
        incomplete.add_process_entry("P2", C_TRUE, 2.0)
        incomplete.add_process_entry("P4", C_TRUE, 5.0)
        # P3 and the !C activation of P4 are missing.
        with pytest.raises(ScheduleTableError):
            incomplete.check_requirement_3(graph, paths)
        valid_table().check_requirement_3(graph, paths)

    def test_check_requirements_runs_all(self):
        graph = branching_graph()
        paths = PathEnumerator(graph).paths()
        valid_table().check_requirements(graph, paths)
