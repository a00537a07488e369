"""Tests pinning the Fig. 1 reference system to the facts published in the paper."""

import pytest

from repro.conditions import Condition
from repro.data import (
    COMMUNICATION_TIMES,
    EXECUTION_TIMES,
    PAPER_PATH_DELAYS,
    PAPER_WORST_CASE_DELAY,
    PROCESS_MAPPING,
    load_fig1_example,
)
from repro.graph import PathEnumerator


class TestPublishedFacts:
    def test_seventeen_ordinary_processes(self, fig1):
        assert len(fig1.process_graph.ordinary_processes) == 17
        assert set(EXECUTION_TIMES) == {f"P{i}" for i in range(1, 18)}

    def test_execution_times_match_paper(self, fig1):
        for name, time in EXECUTION_TIMES.items():
            assert fig1.process_graph[name].execution_time == time

    def test_fourteen_communications_with_published_times(self, fig1):
        assert len(COMMUNICATION_TIMES) == 14
        for (src, dst), time in COMMUNICATION_TIMES.items():
            info = fig1.expanded.communication_between(src, dst)
            assert info is not None, f"missing communication {src}->{dst}"
            assert info.communication_time == time

    def test_mapping_matches_paper(self, fig1):
        for process, pe_name in PROCESS_MAPPING.items():
            assert fig1.mapping[process].name == pe_name

    def test_architecture_shape(self, fig1):
        arch = fig1.architecture
        assert len(arch.programmable_processors) == 2
        assert len(arch.hardware_processors) == 1
        assert len(arch.buses) == 1
        assert arch.condition_broadcast_time == 1.0
        assert arch["pe3"].is_hardware

    def test_three_conditions(self, fig1):
        assert {c.name for c in fig1.graph.conditions} == {"C", "D", "K"}

    def test_disjunction_processes(self, fig1):
        disjunctions = fig1.graph.disjunction_processes()
        assert disjunctions["P2"] == Condition("C")
        assert disjunctions["P11"] == Condition("D")
        assert disjunctions["P12"] == Condition("K")

    def test_published_guards(self, fig1):
        guards = fig1.graph.guards()
        assert guards["P3"].is_true()
        assert guards["P17"].is_true()
        assert str(guards["P5"]) == "C"
        assert guards["P14"] == guards["P14"]  # sanity: well-formed expression
        assert {c.name for c in guards["P14"].conditions} == {"D", "K"}

    def test_conjunction_processes_include_p7_and_p17(self, fig1):
        conjunctions = set(fig1.graph.conjunction_processes())
        assert "P7" in conjunctions
        assert "P17" in conjunctions

    def test_six_alternative_paths(self, fig1):
        assert PathEnumerator(fig1.graph).count() == 6
        assert len(PAPER_PATH_DELAYS) == 6

    def test_polar_structure_p0_p32(self, fig1):
        assert fig1.graph.source.name == "P0"
        assert fig1.graph.sink.name == "P32"

    def test_sink_predecessors_are_p10_and_p17(self, fig1):
        preds = set(fig1.process_graph.predecessors("P32"))
        assert preds == {"P10", "P17"}

    def test_paper_constants_are_positive(self):
        assert PAPER_WORST_CASE_DELAY == 39.0
        assert all(delay > 0 for delay in PAPER_PATH_DELAYS.values())


class TestReconstructionQuality:
    def test_delta_m_is_same_order_as_paper(self, fig1_merge_result):
        # The intra-processor edges of Fig. 1 are not published, so the absolute
        # delays differ; they must however stay in the same range (tens of time
        # units, not hundreds).
        assert 25 <= fig1_merge_result.delta_m <= 60
        assert 25 <= fig1_merge_result.delta_max <= 60

    def test_longest_and_shortest_path_ordering(self, fig1_merge_result):
        delays = sorted(s.delay for s in fig1_merge_result.path_schedules.values())
        assert delays[0] < delays[-1]

    def test_loader_returns_fresh_objects(self):
        first = load_fig1_example()
        second = load_fig1_example()
        assert first.graph is not second.graph
