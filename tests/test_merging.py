"""Tests for the schedule-merging algorithm (the paper's core contribution)."""

import pytest

from repro.architecture import Architecture, Mapping, bus, hardware, programmable
from repro.conditions import Condition, Conjunction
from repro.graph import CPGBuilder, PathEnumerator, expand_communications
from repro.scheduling import MergeConflictError, ScheduleMerger, merge_schedules
from repro.simulation import validate_merge_result

C = Condition("C")
D = Condition("D")


def merge_system(expanded, architecture):
    merger = ScheduleMerger(expanded.graph, expanded.mapping, architecture)
    return merger.merge()


class TestUnconditionalGraph:
    def test_single_path_graph_produces_single_column(self, two_processor_architecture):
        builder = CPGBuilder("plain")
        builder.process("A", 2.0)
        builder.process("B", 3.0)
        builder.chain("A", "B")
        graph = builder.build()
        mapping = Mapping(two_processor_architecture)
        mapping.assign("A", two_processor_architecture["pe1"])
        mapping.assign("B", two_processor_architecture["pe1"])
        result = ScheduleMerger(graph, mapping, two_processor_architecture).merge()
        assert result.table.columns() == (Conjunction.true(),)
        assert result.delta_m == result.delta_max == pytest.approx(5.0)
        validate_merge_result(graph, mapping, result, two_processor_architecture)


class TestSmallConditionalSystem:
    def test_merge_produces_valid_table(self, small_system):
        result = merge_system(small_system["expanded"], small_system["architecture"])
        report = validate_merge_result(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            result,
            small_system["architecture"],
        )
        assert report.paths_checked == 2
        assert result.delta_max >= result.delta_m - 1e-9

    def test_conditional_processes_have_conditional_columns(self, small_system):
        result = merge_system(small_system["expanded"], small_system["architecture"])
        entries = result.table.process_entries("P2")
        assert entries, "P2 (guard C) must appear in the table"
        for entry in entries:
            assert entry.column.value_of(C) is True

    def test_unconditional_process_fixed_before_condition_is_known(self, small_system):
        result = merge_system(small_system["expanded"], small_system["architecture"])
        entries = result.table.process_entries("P1")
        assert len(entries) == 1
        assert entries[0].column.is_true()
        assert entries[0].start == 0.0

    def test_longest_path_keeps_its_optimal_schedule(self, small_system):
        result = merge_system(small_system["expanded"], small_system["architecture"])
        longest = max(result.path_schedules.values(), key=lambda s: s.delay)
        table_delay = result.table.delay_of_path(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            longest.path,
        )
        assert table_delay == pytest.approx(longest.delay)

    def test_trace_records_decision_tree(self, small_system):
        result = merge_system(small_system["expanded"], small_system["architecture"])
        trace = result.trace
        assert trace.root is not None
        assert len(trace.path_delays) == 2
        assert trace.back_steps == 1
        leaves = trace.leaves()
        assert len(leaves) == 2
        assert any(node.entered_by_back_step for node in trace.nodes())
        assert "following" in trace.render()

    def test_condition_row_is_filled(self, small_system):
        result = merge_system(small_system["expanded"], small_system["architecture"])
        assert result.table.condition_entries(C)


class TestMergeResultMetrics:
    def test_delay_increase_properties(self, small_system):
        result = merge_system(small_system["expanded"], small_system["architecture"])
        assert result.delay_increase == pytest.approx(
            result.delta_max - result.delta_m
        )
        assert result.delay_increase_percent >= 0.0

    def test_merge_schedules_convenience_wrapper(self, small_system):
        result = merge_schedules(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            small_system["architecture"],
        )
        assert result.delta_max > 0

    def test_empty_graph_rejected(self, two_processor_architecture):
        builder = CPGBuilder("empty")
        builder.process("A", 1.0)
        graph = builder.build()
        mapping = Mapping(two_processor_architecture, {"A": two_processor_architecture["pe1"]})
        merger = ScheduleMerger(graph, mapping, two_processor_architecture)
        with pytest.raises(ValueError):
            merger.merge(paths=[])


class TestNestedConditions:
    def build_nested(self):
        architecture = Architecture(
            [programmable("pe1"), programmable("pe2"), hardware("hw1")],
            [bus("bus1")],
            condition_broadcast_time=1.0,
        )
        builder = CPGBuilder("nested")
        builder.process("P1", 3.0)   # computes C
        builder.process("P2", 4.0)   # guard C, computes D
        builder.process("P3", 6.0)   # guard !C
        builder.process("P4", 5.0)   # guard C & D
        builder.process("P5", 2.0)   # guard C & !D
        builder.process("P6", 1.0)   # conjunction
        builder.edge("P1", "P2", condition=C.true(), communication_time=1.0)
        builder.edge("P1", "P3", condition=C.false())
        builder.edge("P2", "P4", condition=D.true(), communication_time=1.0)
        builder.edge("P2", "P5", condition=D.false())
        builder.edge("P4", "P6", communication_time=1.0)
        builder.edge("P5", "P6", communication_time=1.0)
        builder.edge("P3", "P6", communication_time=1.0)
        graph = builder.build()
        mapping = Mapping(architecture)
        mapping.assign("P1", architecture["pe1"])
        mapping.assign("P3", architecture["pe1"])
        mapping.assign("P5", architecture["pe1"])
        mapping.assign("P2", architecture["pe2"])
        mapping.assign("P4", architecture["hw1"])
        mapping.assign("P6", architecture["pe2"])
        expanded = expand_communications(graph, mapping, architecture)
        return architecture, expanded

    def test_three_paths_all_covered(self):
        architecture, expanded = self.build_nested()
        result = merge_system(expanded, architecture)
        assert len(result.paths) == 3
        report = validate_merge_result(
            expanded.graph, expanded.mapping, result, architecture
        )
        assert report.paths_checked == 3

    def test_worst_case_is_at_least_every_path_delay(self):
        architecture, expanded = self.build_nested()
        result = merge_system(expanded, architecture)
        for path in result.paths:
            delay = result.table.delay_of_path(expanded.graph, expanded.mapping, path)
            assert delay <= result.delta_max + 1e-9

    def test_decision_tree_has_one_node_per_branching(self):
        architecture, expanded = self.build_nested()
        result = merge_system(expanded, architecture)
        branching_nodes = [n for n in result.trace.nodes() if not n.is_leaf]
        # Conditions C and (on the C-true side) D are each decided once.
        assert len(branching_nodes) == 2

    def test_requirements_hold(self):
        architecture, expanded = self.build_nested()
        result = merge_system(expanded, architecture)
        result.table.check_requirements(expanded.graph, result.paths)


class TestFig1Merge:
    def test_delta_m_matches_longest_individual_path(self, fig1, fig1_merge_result):
        delays = [s.delay for s in fig1_merge_result.path_schedules.values()]
        assert fig1_merge_result.delta_m == pytest.approx(max(delays))

    def test_delta_max_not_smaller_than_delta_m(self, fig1_merge_result):
        assert fig1_merge_result.delta_max >= fig1_merge_result.delta_m - 1e-9

    def test_table_is_valid(self, fig1, fig1_merge_result):
        report = validate_merge_result(
            fig1.graph, fig1.expanded_mapping, fig1_merge_result, fig1.architecture
        )
        assert report.paths_checked == 6

    def test_unconditionally_started_processes(self, fig1, fig1_merge_result):
        # P1 and P2 start before any condition is determined (as in Table 1 of
        # the paper), so their single entry sits in the "true" column.
        for name in ("P1", "P2"):
            entries = fig1_merge_result.table.process_entries(name)
            assert len(entries) == 1
            assert entries[0].column.is_true()

    def test_guard_true_processes_get_one_time_per_path(self, fig1, fig1_merge_result):
        # P11's guard is true; whatever columns its activation times ended up
        # in, every path must see exactly one applicable time (requirements 2/3).
        enumerator = PathEnumerator(fig1.graph)
        for path in enumerator.paths():
            time = fig1_merge_result.table.activation_time("P11", path.label)
            assert time is not None

    def test_condition_rows_cover_all_three_conditions(self, fig1_merge_result):
        assert {c.name for c in fig1_merge_result.table.conditions} == {"C", "D", "K"}

    def test_conditional_process_p14_requires_d_and_k(self, fig1, fig1_merge_result):
        for entry in fig1_merge_result.table.process_entries("P14"):
            assert entry.column.value_of(Condition("D")) is True
            assert entry.column.value_of(Condition("K")) is True

    def test_six_leaves_in_decision_tree(self, fig1_merge_result):
        assert len(fig1_merge_result.trace.leaves()) == 6


class TestBroadcastConflict:
    """Fig. 1's graph and mapping on two buses, with tau0 = 3, P1 = 12, P2 = 2
    and a 4-unit transfer P1 -> P3.

    The first path, ``C & D & K``, broadcasts K at 17 on pe5 under ``C & D``.
    After the back-step on C, the ``!C & D & K`` schedule broadcasts K at 16
    on pe4, where C is known only at 17: that column, ``D``, does not exclude
    ``C & D``, and the label does not lock the ``C & D`` entry.  The merger
    moves the broadcast to the fixed time, 17 on pe5.
    """

    def test_the_broadcast_moves_to_the_fixed_time(self, monkeypatch):
        from repro.data import fig1 as data

        monkeypatch.setattr(
            data, "EXECUTION_TIMES", dict(data.EXECUTION_TIMES, P1=12, P2=2)
        )
        monkeypatch.setattr(
            data, "COMMUNICATION_TIMES", {**data.COMMUNICATION_TIMES, ("P1", "P3"): 4}
        )
        monkeypatch.setattr(data, "CONDITION_BROADCAST_TIME", 3.0)
        example = data.load_fig1_example(num_buses=2)
        result = ScheduleMerger(
            example.graph, example.expanded_mapping, example.architecture
        ).merge()
        assert result.trace.conflicts_resolved == 1
        assert [
            (str(entry.column), entry.start, entry.pe.name)
            for entry in result.table.condition_entries(Condition("K"))
        ] == [("C & D", 17, "pe5"), ("!C & D", 17, "pe5")]
        validate_merge_result(
            example.graph, example.expanded_mapping, result, example.architecture
        )


class TestUnresolvedConflict:
    """Fig. 1's graph on two buses with tau0 = 2, other times, and P11 and
    P12 moved to pe1.

    On path ``C & !D`` the bus carries D's broadcast only from 20 to 22, so
    P7 at 21 on pe2 gets the column ``C``, which the entry at 35 under
    ``C & D & !K`` does not exclude.  At 35 the column is ``C & !D``, which
    the entry at 21 under ``C & K`` does not exclude: no conflicting time is
    free, and the merger says so instead of producing a table.
    """

    def test_the_merger_names_the_process(self, monkeypatch):
        from repro.data import fig1 as data

        monkeypatch.setattr(
            data,
            "EXECUTION_TIMES",
            dict(
                data.EXECUTION_TIMES,
                P3=10, P4=10, P5=7, P6=2, P8=9, P11=1, P12=1, P15=12,
            ),
        )
        monkeypatch.setattr(
            data, "COMMUNICATION_TIMES", {**data.COMMUNICATION_TIMES, ("P12", "P15"): 1}
        )
        monkeypatch.setattr(data, "CONDITION_BROADCAST_TIME", 2.0)
        example = data.load_fig1_example(num_buses=2)
        mapping = example.mapping.reassigned({"P11": "pe1", "P12": "pe1"})
        expanded = expand_communications(
            example.process_graph, mapping, example.architecture
        )
        merger = ScheduleMerger(expanded.graph, expanded.mapping, example.architecture)
        with pytest.raises(
            MergeConflictError, match=r"process 'P7' \(conflicting times \[35.0\]\)"
        ):
            merger.merge()
