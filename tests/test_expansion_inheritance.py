"""Expanded graphs inherit guards and alternative paths from their base graph.

Communication expansion inserts one process per crossing edge and changes
no existing guard or path label, so :func:`expansion_structure` installs
guards taken from the base graph and :func:`expanded_paths` builds the
expanded graph's paths from the base enumeration.  These tests hold both to
a cold derivation (:class:`PathEnumerator` over a fresh copy of the expanded
graph) and check that the explorer's structure misses derive nothing.
"""

import random
import sys
import threading

import pytest

from repro.conditions import BoolExpr, Condition
from repro.data import load_fig1_example
from repro.exploration import ExplorationProblem, StageCache
from repro.generator import generate_system
from repro.graph import (
    CPGBuilder,
    PathEnumerator,
    crossing_edges,
    expanded_paths,
    expansion_structure,
)
from repro.graph import paths as paths_module


def nested_graph(levels=17):
    """``levels`` nested decisions: the deepest guards mention every condition.

    ``D01`` computes ``N01``; its true branch ends the path at the sink, its
    false branch reaches ``D02``, and so on down to ``T``, whose guard (and
    that of a communication process on ``D17 -> T``) has ``levels``
    literals, beyond :meth:`BoolExpr.simplified`'s 16-condition cap.  The
    ``source -> sink`` edge lets the sink's guard collapse to ``true``
    instead of staying a 17-condition tautology.
    """
    builder = CPGBuilder("nested")
    builder.edge("source", "sink")
    parent, branch = "source", None
    for level in range(1, levels + 1):
        name = f"D{level:02d}"
        condition = Condition(f"N{level:02d}")
        builder.process(name, 1.0)
        builder.edge(parent, name, condition=branch)
        builder.edge(name, "sink", condition=condition.true())
        parent, branch = name, condition.false()
    builder.process("T", 1.0)
    builder.edge(parent, "T", condition=branch)
    builder.edge("T", "sink")
    return builder.build(validate=False)


def flagged_conjunction_graph():
    """Two decisions whose branches re-join at explicitly flagged conjunctions."""
    c, k = Condition("FC"), Condition("FK")
    builder = CPGBuilder("flagged")
    for name in ("P1", "P2", "P3", "P4", "P5", "P6", "P7"):
        builder.process(name, 1.0)
    builder.process("J1", 1.0, is_conjunction=True)
    builder.process("J2", 1.0, is_conjunction=True)
    builder.edge("P1", "P2", condition=c.true())
    builder.edge("P1", "P3", condition=c.false())
    builder.edge("P2", "J1")
    builder.edge("P3", "J1")
    builder.edge("P3", "P4", condition=k.true())
    builder.edge("P3", "P5", condition=k.false())
    builder.edge("P4", "J2")
    builder.edge("P5", "J2")
    # A flagged conjunction whose inputs are not mutually exclusive.
    builder.edge("J1", "P6")
    builder.edge("J2", "P6")
    builder.edge("P1", "P7")
    builder.edge("P7", "P6")
    return builder.build(validate=False)


def _mapped_crossing(system):
    return crossing_edges(system.process_graph, system.mapping)


def _inner_edges(graph):
    """Every edge between two non-dummy processes: the ones that can cross."""
    return [
        (edge.src, edge.dst)
        for edge in graph.edges
        if not (graph[edge.src].is_dummy or graph[edge.dst].is_dummy)
    ]


def _inputs():
    """(name, base graph, crossing subsets) per input."""
    rng = random.Random(17)

    def subsets(edges):
        edges = list(edges)
        found = [tuple(edges), ()]
        for _ in range(3):
            chosen = set(rng.sample(edges, rng.randint(1, len(edges))))
            found.append(tuple(edge for edge in edges if edge in chosen))
        return found

    for nodes, paths, seed in ((16, 2, 3), (40, 8, 1), (80, 8, 11), (120, 12, 9)):
        system = generate_system(nodes, paths, seed=seed)
        yield (
            f"generated-{nodes}-{seed}",
            system.process_graph,
            subsets(_mapped_crossing(system)),
        )
    fig1 = load_fig1_example()
    yield (
        "fig1",
        fig1.process_graph,
        subsets(crossing_edges(fig1.process_graph, fig1.mapping)),
    )
    flagged = flagged_conjunction_graph()
    yield "flagged", flagged, subsets(_inner_edges(flagged))
    nested = nested_graph()
    chain = _inner_edges(nested)
    # The shallow edges and the deepest one (past the cap) cross.
    yield "nested", nested, [tuple(chain[:8] + chain[-1:])]


INPUTS = list(_inputs())


def _path_facts(paths):
    return [
        (path.label, path.index, dict(path.assignment), path.active_processes)
        for path in paths
    ]


@pytest.mark.parametrize(
    "name,graph,subsets", INPUTS, ids=[entry[0] for entry in INPUTS]
)
def test_inherited_guards_and_paths_equal_a_cold_derivation(name, graph, subsets):
    base_paths = PathEnumerator(graph).paths()
    for crossing in subsets:
        structure = expansion_structure(graph, crossing)
        inserted = [comm_name for comm_name, *_ in structure.comm_edges]
        inherited = structure.graph.guards()
        cold_graph = structure.graph.copy()
        cold = cold_graph.guards()
        assert list(inherited) == list(cold), name
        for process in cold:
            assert inherited[process].terms == cold[process].terms, (name, process)
            assert str(inherited[process]) == str(cold[process]), (name, process)
        paths = expanded_paths(base_paths, structure.graph, inserted)
        assert _path_facts(paths) == _path_facts(PathEnumerator(cold_graph).paths())
        for base_path, path in zip(base_paths, paths):
            assert path.label is base_path.label
    if name == "nested":
        assert max(len(guard.conditions) for guard in inherited.values()) > 16


def test_base_processes_keep_the_base_guard_objects():
    system = generate_system(40, 8, seed=1)
    graph = system.process_graph
    structure = expansion_structure(graph, _mapped_crossing(system))
    guards = structure.graph.guards()
    base = graph.guards()
    assert all(guards[process] is base[process] for process in base)
    for comm_name, src, dst, _ in structure.comm_edges:
        assert guards[comm_name] is graph.edge_guard(src, dst)


def _subpattern_candidates(problem):
    """Two candidates whose crossing patterns are B strictly inside A."""
    first = problem.initial_candidate()
    crossing = set(crossing_edges(problem.graph, problem.mapping_for(first)))
    for process in problem.movable_processes:
        for target in problem.processor_names:
            moved = first.reassigned(process, target)
            pattern = set(crossing_edges(problem.graph, problem.mapping_for(moved)))
            if pattern < crossing:
                return first, moved
    raise AssertionError("no single move shrinks the crossing pattern")


def test_structure_miss_derives_no_guard_and_enumerates_no_path(monkeypatch):
    problem = ExplorationProblem.from_system(generate_system(40, 8, seed=1))
    first, second = _subpattern_candidates(problem)
    cache = StageCache()
    cache.expansion(problem, first)
    assert cache.structure_misses == 1

    calls = {"simplified": 0, "enumerators": 0}
    simplified = BoolExpr.simplified
    enumerator_init = paths_module.PathEnumerator.__init__

    def counting_simplified(self, *args, **kwargs):
        calls["simplified"] += 1
        return simplified(self, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["enumerators"] += 1
        enumerator_init(self, *args, **kwargs)

    monkeypatch.setattr(BoolExpr, "simplified", counting_simplified)
    monkeypatch.setattr(paths_module.PathEnumerator, "__init__", counting_init)
    expanded, paths = cache.expansion(problem, second)
    assert cache.structure_misses == 2
    assert calls == {"simplified": 0, "enumerators": 0}
    assert len(expanded.graph) > len(problem.graph)
    assert len(paths) == len(problem.base_paths)


def test_concurrent_first_misses_on_a_fresh_problem_agree():
    """More threads than cores race the lazy per-problem derivation."""

    def fresh():
        return ExplorationProblem.from_system(generate_system(40, 8, seed=1))

    reference = fresh()
    first, second = _subpattern_candidates(reference)
    candidates = [first, second]
    expected = [
        _path_facts(StageCache().expansion(reference, candidate)[1])
        for candidate in candidates
    ]
    problem = fresh()
    results = [None] * 6

    def run(index):
        cache = StageCache()
        results[index] = [
            _path_facts(cache.expansion(problem, candidate)[1])
            for candidate in candidates
        ]

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
