"""Unit tests for the list-scheduling priority functions."""

import pytest

from repro.architecture import Architecture, Mapping, bus, hardware, programmable
from repro.conditions import Condition, Conjunction
from repro.graph import CPGBuilder, PathEnumerator
from repro.scheduling.priorities import (
    PRIORITY_FUNCTIONS,
    critical_path_priorities,
    priority_function,
    static_order_priorities,
    topological_order_priorities,
    upward_rank_priorities,
)

C = Condition("C")


@pytest.fixture()
def diamond_system():
    architecture = Architecture(
        [programmable("pe1"), programmable("pe2"), hardware("hw1")], [bus("bus1")]
    )
    builder = CPGBuilder("diamond")
    builder.process("A", 2.0)
    builder.process("B", 5.0)
    builder.process("Cn", 1.0)
    builder.process("E", 3.0)
    builder.edge("A", "B")
    builder.edge("A", "Cn")
    builder.edge("B", "E")
    builder.edge("Cn", "E")
    graph = builder.build()
    mapping = Mapping(architecture)
    for name in ("A", "B", "Cn", "E"):
        mapping.assign(name, architecture["pe1"])
    return graph, mapping


def test_critical_path_lengths(diamond_system):
    graph, mapping = diamond_system
    path = PathEnumerator(graph).paths()[0]
    priorities = critical_path_priorities(graph, path, mapping)
    assert priorities["E"] == pytest.approx(3.0)
    assert priorities["B"] == pytest.approx(8.0)
    assert priorities["Cn"] == pytest.approx(4.0)
    assert priorities["A"] == pytest.approx(10.0)
    assert priorities[graph.source.name] == pytest.approx(10.0)


def test_priorities_respect_mapping_speed(diamond_system):
    graph, mapping = diamond_system
    fast_arch = Architecture([programmable("pe1", speed=2.0)], [bus("bus1")])
    fast_mapping = Mapping(fast_arch)
    for name in ("A", "B", "Cn", "E"):
        fast_mapping.assign(name, fast_arch["pe1"])
    path = PathEnumerator(graph).paths()[0]
    slow = critical_path_priorities(graph, path, mapping)
    fast = critical_path_priorities(graph, path, fast_mapping)
    assert fast["A"] == pytest.approx(slow["A"] / 2.0)


def test_priorities_only_cover_active_processes():
    builder = CPGBuilder("conditional")
    builder.process("D", 1.0)
    builder.process("T", 2.0)
    builder.process("F", 3.0)
    builder.edge("D", "T", condition=C.true())
    builder.edge("D", "F", condition=C.false())
    graph = builder.build()
    architecture = Architecture([programmable("pe1")], [bus("bus1")])
    mapping = Mapping(architecture)
    for name in ("D", "T", "F"):
        mapping.assign(name, architecture["pe1"])
    path = PathEnumerator(graph).path_for(Conjunction.of(C.true()))
    priorities = critical_path_priorities(graph, path, mapping)
    assert "F" not in priorities
    assert priorities["D"] == pytest.approx(3.0)


def test_upward_rank_matches_critical_path(diamond_system):
    graph, mapping = diamond_system
    path = PathEnumerator(graph).paths()[0]
    assert upward_rank_priorities(graph, path, mapping) == critical_path_priorities(
        graph, path, mapping
    )


def test_static_order_priorities_without_order(diamond_system):
    graph, _ = diamond_system
    path = PathEnumerator(graph).paths()[0]
    priorities = static_order_priorities(path)
    assert set(priorities) == set(path.active_processes)
    assert len(set(priorities.values())) == 1


def test_static_order_priorities_orders_by_given_times(diamond_system):
    graph, _ = diamond_system
    path = PathEnumerator(graph).paths()[0]
    priorities = static_order_priorities(path, {"A": 0.0, "B": 2.0, "Cn": 7.0, "E": 8.0})
    assert priorities["A"] > priorities["B"] > priorities["Cn"] > priorities["E"]


def test_topological_order_priorities_follow_graph_position(diamond_system):
    graph, mapping = diamond_system
    path = PathEnumerator(graph).paths()[0]
    priorities = topological_order_priorities(graph, path, mapping)
    assert set(priorities) == set(path.active_processes)
    assert priorities["A"] > priorities["B"]
    assert priorities["A"] > priorities["Cn"]
    assert priorities["B"] > priorities["E"]


def test_priority_function_registry(diamond_system):
    assert set(PRIORITY_FUNCTIONS) == {
        "critical_path",
        "upward_rank",
        "static_order",
    }
    assert priority_function("critical_path") is critical_path_priorities
    with pytest.raises(ValueError, match="unknown priority function"):
        priority_function("no_such_priority")


def test_scheduler_accepts_injected_priorities(diamond_system):
    from repro.scheduling import PathListScheduler

    graph, mapping = diamond_system
    path = PathEnumerator(graph).paths()[0]
    default = PathListScheduler(graph, mapping).schedule(path)
    injected = PathListScheduler(
        graph, mapping, priority_function=topological_order_priorities
    ).schedule(path)
    # Both orders are feasible for the diamond; delays agree on one processor.
    assert injected.delay == pytest.approx(default.delay)
    # A large bias on the short branch forces Cn to dispatch before B.
    biased = PathListScheduler(
        graph, mapping, priority_bias={"Cn": 100.0}
    ).schedule(path)
    assert biased.start_of("Cn") < biased.start_of("B")
    assert default.start_of("B") < default.start_of("Cn")
