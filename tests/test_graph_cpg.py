"""Unit tests for the conditional process graph container (guards, structure, validation)."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conditions import BoolExpr, Condition
from repro.generator import generate_system
from repro.graph import (
    CPGBuilder,
    ConditionalProcessGraph,
    Edge,
    GraphStructureError,
    ordinary_process,
    sink_process,
    source_process,
)

C = Condition("C")
D = Condition("D")


def build_branching_graph():
    """source -> P1 (computes C) -> {P2 if C, P3 if !C} -> P4 (conjunction) -> sink."""
    builder = CPGBuilder("branching")
    builder.process("P1", 2.0)
    builder.process("P2", 3.0)
    builder.process("P3", 4.0)
    builder.process("P4", 1.0)
    builder.edge("P1", "P2", condition=C.true())
    builder.edge("P1", "P3", condition=C.false())
    builder.edge("P2", "P4")
    builder.edge("P3", "P4")
    return builder.build()


class TestConstruction:
    def test_duplicate_process_rejected(self):
        graph = ConditionalProcessGraph()
        graph.add_process(ordinary_process("P1", 1.0))
        with pytest.raises(GraphStructureError):
            graph.add_process(ordinary_process("P1", 2.0))

    def test_duplicate_source_rejected(self):
        graph = ConditionalProcessGraph()
        graph.add_process(source_process("s1"))
        with pytest.raises(GraphStructureError):
            graph.add_process(source_process("s2"))

    def test_edge_requires_existing_endpoints(self):
        graph = ConditionalProcessGraph()
        graph.add_process(ordinary_process("P1", 1.0))
        with pytest.raises(GraphStructureError):
            graph.add_edge(Edge("P1", "P2"))

    def test_duplicate_edge_rejected(self):
        graph = ConditionalProcessGraph()
        graph.add_process(ordinary_process("P1", 1.0))
        graph.add_process(ordinary_process("P2", 1.0))
        graph.connect("P1", "P2")
        with pytest.raises(GraphStructureError):
            graph.connect("P1", "P2")

    def test_len_and_iteration(self):
        graph = build_branching_graph()
        assert len(graph) == 6  # four processes + source + sink
        assert {p.name for p in graph} >= {"P1", "P2", "P3", "P4"}

    def test_accessors(self):
        graph = build_branching_graph()
        assert graph.source.is_source and graph.sink.is_sink
        assert graph.has_edge("P1", "P2")
        assert graph.get_edge("P1", "P2").condition == C.true()
        assert set(graph.successors("P1")) == {"P2", "P3"}
        assert set(graph.predecessors("P4")) == {"P2", "P3"}
        assert len(graph.conditional_edges) == 2

    def test_topological_order_is_consistent(self):
        graph = build_branching_graph()
        order = graph.topological_order()
        assert order.index("P1") < order.index("P2")
        assert order.index("P2") < order.index("P4")

    def test_copy_and_subgraph(self):
        graph = build_branching_graph()
        clone = graph.copy()
        assert len(clone) == len(graph)
        sub = graph.subgraph(["P1", "P2"])
        assert set(sub.process_names) == {"P1", "P2"}
        assert sub.has_edge("P1", "P2")
        assert not sub.has_edge("P1", "P3")


class TestConditionsAndGuards:
    def test_conditions_listed(self):
        assert build_branching_graph().conditions == (C,)

    def test_disjunction_processes(self):
        graph = build_branching_graph()
        assert graph.disjunction_processes() == {"P1": C}
        assert graph.disjunction_process_of(C) == "P1"

    def test_disjunction_process_of_unknown_condition(self):
        with pytest.raises(KeyError):
            build_branching_graph().disjunction_process_of(Condition("Z"))

    def test_conjunction_detection(self):
        graph = build_branching_graph()
        assert graph.is_conjunction_process("P4")
        assert not graph.is_conjunction_process("P2")

    def test_explicit_conjunction_flag_respected(self):
        builder = CPGBuilder("explicit")
        builder.process("P1", 1.0)
        builder.add(ordinary_process("P2", 1.0, is_conjunction=True))
        builder.edge("P1", "P2")
        graph = builder.build()
        assert graph.is_conjunction_process("P2")

    def test_guards(self):
        graph = build_branching_graph()
        guards = graph.guards()
        assert guards["P1"].is_true()
        assert guards["P2"] == BoolExpr.from_literal(C.true())
        assert guards["P3"] == BoolExpr.from_literal(C.false())
        assert guards["P4"].is_true()
        assert guards[graph.sink.name].is_true()

    def test_guard_of_single_process(self):
        graph = build_branching_graph()
        assert graph.guard_of("P2") == BoolExpr.from_literal(C.true())

    def test_nested_condition_guard(self):
        builder = CPGBuilder("nested")
        for name in ("P1", "P2", "P3", "P4", "P5"):
            builder.process(name, 1.0)
        builder.edge("P1", "P2", condition=C.true())
        builder.edge("P1", "P3", condition=C.false())
        builder.edge("P2", "P4", condition=D.true())
        builder.edge("P2", "P5", condition=D.false())
        graph = builder.build(validate=False)
        guards = graph.guards()
        assert guards["P4"] == BoolExpr.from_literal(C.true()).and_(
            BoolExpr.from_literal(D.true())
        )

    def test_two_conditions_from_one_node_rejected(self):
        builder = CPGBuilder("bad")
        for name in ("P1", "P2", "P3"):
            builder.process(name, 1.0)
        builder.edge("P1", "P2", condition=C.true())
        builder.edge("P1", "P3", condition=D.true())
        with pytest.raises(GraphStructureError):
            builder.build()

    def test_condition_computed_twice_rejected(self):
        builder = CPGBuilder("bad")
        for name in ("P1", "P2", "P3", "P4"):
            builder.process(name, 1.0)
        builder.edge("P1", "P2", condition=C.true())
        builder.edge("P3", "P4", condition=C.true())
        with pytest.raises(GraphStructureError):
            builder.build()


class TestActivation:
    def test_active_processes_follow_guards(self):
        graph = build_branching_graph()
        active_true = graph.active_processes({C: True})
        active_false = graph.active_processes({C: False})
        assert "P2" in active_true and "P3" not in active_true
        assert "P3" in active_false and "P2" not in active_false
        assert "P4" in active_true and "P4" in active_false

    def test_active_predecessors_of_conjunction(self):
        graph = build_branching_graph()
        assert graph.active_predecessors("P4", {C: True}) == ("P2",)
        assert graph.active_predecessors("P4", {C: False}) == ("P3",)

    def test_active_predecessors_of_regular_node(self):
        graph = build_branching_graph()
        assert graph.active_predecessors("P2", {C: True}) == ("P1",)
        assert graph.active_predecessors("P2", {C: False}) == ()


class TestValidation:
    def test_valid_graph_passes(self):
        build_branching_graph().validate()

    def test_missing_source_detected(self):
        graph = ConditionalProcessGraph()
        graph.add_process(sink_process())
        with pytest.raises(GraphStructureError):
            graph.validate()

    def test_cycle_detected(self):
        graph = ConditionalProcessGraph()
        graph.add_process(source_process())
        graph.add_process(sink_process())
        graph.add_process(ordinary_process("P1", 1.0))
        graph.add_process(ordinary_process("P2", 1.0))
        graph.connect("source", "P1")
        graph.connect("P1", "P2")
        graph.connect("P2", "P1")
        graph.connect("P2", "sink")
        with pytest.raises(GraphStructureError):
            graph.validate()

    def test_non_polar_graph_detected(self):
        graph = ConditionalProcessGraph()
        graph.add_process(source_process())
        graph.add_process(sink_process())
        graph.add_process(ordinary_process("P1", 1.0))
        graph.connect("source", "sink")
        # P1 is disconnected: neither successor of source nor predecessor of sink
        with pytest.raises(GraphStructureError):
            graph.validate()

    def test_mixed_inputs_inherit_the_stronger_guard(self):
        # P3 waits for inputs from both P1 (always active) and P2 (guard C);
        # deriving its guard as the conjunction keeps the model's rule
        # "X_Pj implies X_Pi" satisfied: P3 only runs when C holds, so it never
        # waits for a message that cannot arrive.
        builder = CPGBuilder("mixed-guard")
        builder.process("P1", 1.0)
        builder.process("P2", 1.0)
        builder.process("P3", 1.0)
        builder.process("P4", 1.0)
        builder.edge("P1", "P2", condition=C.true())
        builder.edge("P1", "P4", condition=C.false())
        builder.edge("P2", "P3")
        builder.edge("P1", "P3")
        graph = builder.build()
        assert graph.guard_of("P3") == BoolExpr.from_literal(C.true())
        for edge in graph.in_edges("P3"):
            assert graph.guard_of("P3").implies(graph.guard_of(edge.src))

    def test_repr_mentions_size(self):
        assert "processes=6" in repr(build_branching_graph())


@st.composite
def shuffled_dags(draw):
    """A polar DAG whose names, process order and edge order are all shuffled.

    Edges only run from lower to higher index, so the graph is acyclic; the
    names are drawn independently of the indices, so name order says nothing
    about the structure.
    """
    size = draw(st.integers(min_value=1, max_value=10))
    names = draw(
        st.lists(
            st.text(alphabet="ABPQXZ", min_size=1, max_size=3),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    pairs = [
        (names[i], names[j])
        for i in range(size)
        for j in range(i + 1, size)
        if draw(st.booleans())
    ]
    has_pred = {dst for _, dst in pairs}
    has_succ = {src for src, _ in pairs}
    pairs += [("source", name) for name in names if name not in has_pred]
    pairs += [(name, "sink") for name in names if name not in has_succ]
    processes = [ordinary_process(name, 1.0) for name in names]
    processes += [source_process(), sink_process()]
    graph = ConditionalProcessGraph("shuffled")
    for process in draw(st.permutations(processes)):
        graph.add_process(process)
    for src, dst in draw(st.permutations(pairs)):
        graph.connect(src, dst)
    return graph


class TestTopologicalOrder:
    @settings(max_examples=80, deadline=None)
    @given(shuffled_dags())
    def test_emits_the_smallest_ready_name(self, graph):
        order = graph.topological_order()
        assert sorted(order) == sorted(graph.process_names)
        position = {name: index for index, name in enumerate(order)}
        for edge in graph.edges:
            assert position[edge.src] < position[edge.dst]
        emitted = set()
        for name in order:
            ready = [
                candidate
                for candidate in graph.process_names
                if candidate not in emitted
                and set(graph.predecessors(candidate)) <= emitted
            ]
            assert name == min(ready)
            emitted.add(name)

    @settings(max_examples=40, deadline=None)
    @given(shuffled_dags())
    def test_a_back_edge_is_a_structure_error(self, graph):
        edge = next(edge for edge in graph.edges if edge.src != "source")
        graph.connect(edge.dst, edge.src)
        with pytest.raises(GraphStructureError, match="acyclic"):
            graph.topological_order()
        with pytest.raises(GraphStructureError, match="acyclic"):
            graph.validate()


class TestDerivedStructure:
    def test_queries_follow_a_mutation(self):
        graph = build_branching_graph()
        assert graph.disjunction_processes() == {"P1": C}
        assert graph.topological_order() == ["source", "P1", "P2", "P3", "P4", "sink"]
        graph.add_process(ordinary_process("P0", 1.0))
        graph.connect("P4", "P0", condition=D.true())
        assert graph.disjunction_processes() == {"P1": C, "P4": D}
        assert graph.disjunction_process_of(D) == "P4"
        assert graph.topological_order() == [
            "source", "P1", "P2", "P3", "P4", "P0", "sink"
        ]

    def test_concurrent_first_queries_on_a_fresh_graph_agree(self):
        """More threads than cores race the lazy per-graph derivations.

        Threads start one after another, so later ones arrive while earlier
        ones derive.  A map published in two steps fails a few rounds in a
        hundred here; one assignment leaves no window.
        """
        base = generate_system(40, 8, seed=1).graph
        conditions = base.conditions
        expected = (
            base.topological_order(),
            base.disjunction_processes(),
            [base.disjunction_process_of(condition) for condition in conditions],
        )
        for _ in range(200):
            graph = base.copy()
            results = [None] * 6

            def run(index):
                try:
                    if index % 2:
                        order = graph.topological_order()
                    producers = [
                        graph.disjunction_process_of(condition)
                        for condition in conditions
                    ]
                    disjunctions = graph.disjunction_processes()
                    if not index % 2:
                        order = graph.topological_order()
                    results[index] = (order, disjunctions, producers)
                except Exception as error:  # reported by the assertion below
                    results[index] = error

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=run, args=(index,))
                    for index in range(len(results))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * len(results)
