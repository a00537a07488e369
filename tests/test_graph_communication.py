"""Tests for communication-process expansion."""

import pytest

from repro.architecture import Architecture, Mapping, MappingError, bus, programmable
from repro.conditions import Condition
from repro.graph import CPGBuilder, expand_communications, is_expanded

C = Condition("C")


def build_two_pe_system(num_buses=1, connectivity=None):
    architecture = Architecture(
        [programmable("pe1"), programmable("pe2")],
        [bus(f"bus{i+1}") for i in range(num_buses)],
        connectivity=connectivity,
    )
    builder = CPGBuilder("comm")
    builder.process("P1", 2.0)
    builder.process("P2", 3.0)
    builder.process("P3", 4.0)
    builder.edge("P1", "P2", communication_time=1.5)
    builder.edge("P2", "P3", condition=C.true(), communication_time=2.5)
    graph = builder.build(validate=False)
    mapping = Mapping(architecture)
    mapping.assign("P1", architecture["pe1"])
    mapping.assign("P2", architecture["pe2"])
    mapping.assign("P3", architecture["pe1"])
    return architecture, graph, mapping


class TestExpansion:
    def test_cross_processor_edges_get_communication_processes(self):
        architecture, graph, mapping = build_two_pe_system()
        expanded = expand_communications(graph, mapping, architecture)
        assert len(expanded.communications) == 2
        assert expanded.communication_between("P1", "P2") is not None
        assert expanded.communication_between("P2", "P3") is not None
        assert is_expanded(expanded.graph, expanded.mapping)

    def test_same_processor_edges_untouched(self):
        architecture, graph, mapping = build_two_pe_system()
        mapping.assign("P2", architecture["pe1"])  # everything on pe1 now
        mapping.assign("P3", architecture["pe1"])
        expanded = expand_communications(graph, mapping, architecture)
        assert len(expanded.communications) == 0
        assert expanded.graph.has_edge("P1", "P2")

    def test_communication_process_carries_time_and_bus(self):
        architecture, graph, mapping = build_two_pe_system()
        expanded = expand_communications(graph, mapping, architecture)
        info = expanded.communication_between("P1", "P2")
        assert info.communication_time == 1.5
        assert info.bus.is_bus
        comm_process = expanded.graph[info.name]
        assert comm_process.is_communication
        assert comm_process.execution_time == 1.5
        assert expanded.mapping[info.name] == info.bus

    def test_condition_moves_to_edge_into_communication(self):
        architecture, graph, mapping = build_two_pe_system()
        expanded = expand_communications(graph, mapping, architecture)
        info = expanded.communication_between("P2", "P3")
        into = expanded.graph.get_edge("P2", info.name)
        out_of = expanded.graph.get_edge(info.name, "P3")
        assert into.condition == C.true()
        assert out_of.is_simple

    def test_expanded_graph_preserves_guards(self):
        architecture, graph, mapping = build_two_pe_system()
        expanded = expand_communications(graph, mapping, architecture)
        info = expanded.communication_between("P2", "P3")
        guards = expanded.graph.guards()
        assert str(guards[info.name]) == "C"
        assert str(guards["P3"]) == "C"

    def test_explicit_bus_assignment_is_respected(self):
        architecture, graph, mapping = build_two_pe_system(num_buses=2)
        chosen = architecture["bus2"]
        expanded = expand_communications(
            graph,
            mapping,
            architecture,
            bus_assignment={("P1", "P2"): chosen},
        )
        assert expanded.communication_between("P1", "P2").bus == chosen
        assert expanded.communication_between("P2", "P3").bus == architecture["bus1"]

    def test_unmapped_process_rejected(self):
        architecture, graph, mapping = build_two_pe_system()
        incomplete = Mapping(architecture, {"P1": architecture["pe1"]})
        with pytest.raises(MappingError):
            expand_communications(graph, incomplete, architecture)

    def test_no_connecting_bus_rejected(self):
        architecture, graph, mapping = build_two_pe_system(
            num_buses=1, connectivity={"bus1": ["pe1"]}
        )
        with pytest.raises(MappingError):
            expand_communications(graph, mapping, architecture)

    def test_is_expanded_detects_missing_communication(self):
        architecture, graph, mapping = build_two_pe_system()
        assert not is_expanded(graph, mapping)

    def test_fig1_expansion_matches_paper(self, fig1):
        # The paper inserts exactly fourteen communication processes (P18..P31).
        assert len(fig1.expanded.communications) == 14
        comm_times = sorted(
            info.communication_time for info in fig1.expanded.communications.values()
        )
        assert comm_times == sorted(
            [1, 3, 2, 2, 3, 3, 2, 2, 1, 2, 1, 3, 2, 2]
        )
