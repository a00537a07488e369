"""Tests for the graph builder and the alternative-path enumeration."""

import pytest

from repro.conditions import Condition, Conjunction
from repro.graph import (
    CPGBuilder,
    GraphStructureError,
    PathEnumerator,
    build_chain_graph,
    count_paths,
    enumerate_paths,
)

C = Condition("C")
D = Condition("D")


class TestBuilder:
    def test_polarisation_connects_orphans(self):
        builder = CPGBuilder("polar")
        builder.process("P1", 1.0)
        builder.process("P2", 1.0)
        graph = builder.build()
        assert graph.has_edge(builder.source_name, "P1")
        assert graph.has_edge("P1", builder.sink_name)
        assert graph.has_edge(builder.source_name, "P2")

    def test_chain_helper(self):
        builder = CPGBuilder("chain")
        for name in ("A", "B", "C"):
            builder.process(name, 1.0)
        builder.chain("A", "B", "C")
        graph = builder.build()
        assert graph.has_edge("A", "B") and graph.has_edge("B", "C")

    def test_build_can_only_run_once(self):
        builder = CPGBuilder("once")
        builder.process("P1", 1.0)
        builder.build()
        with pytest.raises(RuntimeError):
            builder.build()

    def test_cycle_through_every_root_is_reported_as_cyclic(self):
        for validate in (True, False):
            builder = CPGBuilder("cyclic")
            builder.process("P1", 1.0).process("P2", 1.0)
            builder.edge("P1", "P2").edge("P2", "P1")
            with pytest.raises(GraphStructureError, match="must be acyclic"):
                builder.build(validate=validate)

    def test_build_chain_graph(self):
        graph = build_chain_graph("chain", {"A": 1.0, "B": 2.0, "C": 3.0})
        assert graph.has_edge("A", "B")
        assert graph["B"].execution_time == 2.0
        assert count_paths(graph) == 1

    def test_custom_source_sink_names(self):
        builder = CPGBuilder("named", source_name="P0", sink_name="P99")
        builder.process("P1", 1.0)
        graph = builder.build()
        assert graph.source.name == "P0"
        assert graph.sink.name == "P99"


def nested_condition_graph():
    """C decides between a branch that contains D and a plain branch (3 paths)."""
    builder = CPGBuilder("nested")
    for name in ("P1", "P2", "P3", "P4", "P5", "P6"):
        builder.process(name, 1.0)
    builder.edge("P1", "P2", condition=C.true())
    builder.edge("P1", "P3", condition=C.false())
    builder.edge("P2", "P4", condition=D.true())
    builder.edge("P2", "P5", condition=D.false())
    builder.edge("P4", "P6")
    builder.edge("P5", "P6")
    builder.edge("P3", "P6")
    return builder.build()


class TestPathEnumeration:
    def test_single_path_without_conditions(self):
        graph = build_chain_graph("chain", {"A": 1.0, "B": 1.0})
        paths = enumerate_paths(graph)
        assert len(paths) == 1
        assert paths[0].label == Conjunction.true()
        assert set(paths[0].active_processes) == set(graph.process_names)

    def test_nested_conditions_yield_three_paths(self):
        graph = nested_condition_graph()
        paths = enumerate_paths(graph)
        labels = {str(p.label) for p in paths}
        assert labels == {"C & D", "C & !D", "!C"}

    def test_active_processes_per_path(self):
        graph = nested_condition_graph()
        enumerator = PathEnumerator(graph)
        path_true_true = enumerator.path_for(Conjunction.of(C.true(), D.true()))
        assert "P4" in path_true_true.active_processes
        assert "P5" not in path_true_true.active_processes
        assert "P3" not in path_true_true.active_processes
        path_false = enumerator.path_for(Conjunction.of(C.false(), D.true()))
        assert "P3" in path_false.active_processes
        assert "P2" not in path_false.active_processes

    def test_path_for_unknown_assignment_raises(self):
        graph = nested_condition_graph()
        enumerator = PathEnumerator(graph)
        with pytest.raises(KeyError):
            enumerator.path_for(Conjunction.true())

    def test_reachable_paths_filter(self):
        graph = nested_condition_graph()
        enumerator = PathEnumerator(graph)
        reachable = enumerator.reachable_paths(Conjunction.of(C.true()))
        assert {str(p.label) for p in reachable} == {"C & D", "C & !D"}
        assert len(enumerator.reachable_paths(Conjunction.true())) == 3

    def test_subgraph_of_path(self):
        graph = nested_condition_graph()
        enumerator = PathEnumerator(graph)
        path = enumerator.path_for(Conjunction.of(C.false(), D.false()))
        sub = enumerator.subgraph_of(path)
        assert "P3" in sub.process_names
        assert "P2" not in sub.process_names

    def test_path_consistency_helpers(self):
        graph = nested_condition_graph()
        path = PathEnumerator(graph).path_for(Conjunction.of(C.true(), D.false()))
        assert path.is_consistent_with(Conjunction.of(C.true()))
        assert not path.is_consistent_with(Conjunction.of(C.false()))
        assert path.includes("P5")
        assert not path.includes("P4")

    def test_count_paths_matches_enumeration(self):
        graph = nested_condition_graph()
        assert count_paths(graph) == len(enumerate_paths(graph)) == 3

    def test_paths_are_cached_and_immutable(self):
        enumerator = PathEnumerator(nested_condition_graph())
        first = enumerator.paths()
        second = enumerator.paths()
        assert first is second  # the cached tuple is returned, not a copy
        assert isinstance(first, tuple)  # callers cannot corrupt the cache
        assert len(enumerator.paths()) == 3

    def test_fig1_has_six_paths(self, fig1):
        assert count_paths(fig1.graph) == 6

    def test_fig1_path_labels(self, fig1):
        labels = {str(p.label) for p in enumerate_paths(fig1.graph)}
        assert labels == {
            "C & D & K",
            "C & D & !K",
            "!C & D & K",
            "!C & D & !K",
            "C & !D",
            "!C & !D",
        }
