"""Tests for JSON serialisation of system descriptions."""

import json

import pytest

from repro.io import (
    SerializationError,
    architecture_from_dict,
    architecture_to_dict,
    load_system,
    save_system,
    system_from_dict,
    system_to_dict,
)
from repro.scheduling import ScheduleMerger


class TestArchitectureRoundTrip:
    def test_round_trip_preserves_elements(self, two_processor_architecture):
        document = architecture_to_dict(two_processor_architecture)
        rebuilt = architecture_from_dict(document)
        assert {pe.name for pe in rebuilt.processors} == {
            pe.name for pe in two_processor_architecture.processors
        }
        assert {pe.name for pe in rebuilt.buses} == {"bus1"}
        assert rebuilt.condition_broadcast_time == pytest.approx(
            two_processor_architecture.condition_broadcast_time
        )
        assert rebuilt["hw1"].is_hardware

    def test_missing_processors_rejected(self):
        with pytest.raises(SerializationError):
            architecture_from_dict({"buses": []})

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            architecture_from_dict({"processors": [{"name": "x", "kind": "dsp"}]})

    def test_bus_in_processor_list_rejected(self):
        with pytest.raises(SerializationError):
            architecture_from_dict({"processors": [{"name": "x", "kind": "bus"}]})


class TestSystemRoundTrip:
    def test_round_trip_preserves_schedule(self, small_system):
        document = system_to_dict(
            small_system["graph"],
            small_system["architecture"],
            small_system["mapping"],
            name="small",
        )
        rebuilt = system_from_dict(document)
        assert rebuilt.name == "small"
        assert len(rebuilt.graph.ordinary_processes) == len(
            small_system["graph"].ordinary_processes
        )
        assert {str(c) for c in rebuilt.graph.conditions} == {"C"}

        original = ScheduleMerger(
            small_system["expanded"].graph,
            small_system["expanded"].mapping,
            small_system["architecture"],
        ).merge()
        expanded = rebuilt.expand()
        recovered = ScheduleMerger(
            expanded.graph, expanded.mapping, rebuilt.architecture
        ).merge()
        assert recovered.delta_max == pytest.approx(original.delta_max)

    def test_document_is_json_serialisable(self, small_system):
        document = system_to_dict(
            small_system["graph"],
            small_system["architecture"],
            small_system["mapping"],
        )
        text = json.dumps(document)
        assert "processes" in json.loads(text)

    def test_missing_sections_rejected(self):
        with pytest.raises(SerializationError):
            system_from_dict({"architecture": {"processors": []}})

    def test_incomplete_process_rejected(self, small_system):
        document = system_to_dict(
            small_system["graph"],
            small_system["architecture"],
            small_system["mapping"],
        )
        del document["processes"][0]["execution_time"]
        with pytest.raises(SerializationError):
            system_from_dict(document)

    def test_schema_violations_name_the_offending_entry(
        self, small_system, malformed_system_documents
    ):
        def document():
            return system_to_dict(
                small_system["graph"],
                small_system["architecture"],
                small_system["mapping"],
            )

        bad = document()
        bad["processes"][0]["mapped_to"] = "pe99"
        with pytest.raises(SerializationError, match="pe99"):
            system_from_dict(bad)

        bad = document()
        bad["processes"][0]["execution_time"] = "fast"
        with pytest.raises(SerializationError, match="must be a number"):
            system_from_dict(bad)

        bad = document()
        bad["edges"].append({"src": "P1", "dst": "P99"})
        with pytest.raises(SerializationError, match="undeclared process 'P99'"):
            system_from_dict(bad)

        bad = document()
        bad["edges"][0].pop("dst")
        with pytest.raises(SerializationError, match="missing 'dst'"):
            system_from_dict(bad)

        bad = document()
        bad["processes"] = {"P1": 1.0}
        with pytest.raises(SerializationError, match="must be a list"):
            system_from_dict(bad)

        for case, (bad, offender, reason) in malformed_system_documents.items():
            with pytest.raises(SerializationError) as raised:
                system_from_dict(bad)
            assert offender in str(raised.value), case
            assert reason in str(raised.value), case

    def test_per_pe_execution_times_survive(self, two_processor_architecture):
        from repro.architecture import Mapping
        from repro.graph import CPGBuilder, ordinary_process

        builder = CPGBuilder("override")
        builder.add(ordinary_process("P1", 10.0, execution_times={"pe1": 4.0}))
        graph = builder.build()
        mapping = Mapping(
            two_processor_architecture, {"P1": two_processor_architecture["pe1"]}
        )
        document = system_to_dict(graph, two_processor_architecture, mapping)
        rebuilt = system_from_dict(document)
        assert rebuilt.graph["P1"].execution_times == {"pe1": 4.0}


class TestFiles:
    def test_save_and_load(self, tmp_path, small_system):
        path = tmp_path / "system.json"
        save_system(
            path,
            small_system["graph"],
            small_system["architecture"],
            small_system["mapping"],
            name="on-disk",
        )
        loaded = load_system(path)
        assert loaded.name == "on-disk"
        assert "P1" in loaded.mapping

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_system(path)

    def test_fig1_round_trip(self, tmp_path, fig1):
        path = tmp_path / "fig1.json"
        save_system(path, fig1.process_graph, fig1.architecture, fig1.mapping)
        loaded = load_system(path)
        expanded = loaded.expand()
        assert len(expanded.communications) == 14
