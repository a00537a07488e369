"""JSON (de)serialisation of systems: graphs, architectures and mappings.

A *system description* bundles everything the scheduler needs — the
conditional process graph, the target architecture and the mapping — into one
plain-dictionary document that can be stored as JSON, versioned alongside a
design, and fed to the command-line interface.  The format is deliberately
simple and explicit:

.. code-block:: json

    {
      "name": "demo",
      "architecture": {
        "condition_broadcast_time": 1.0,
        "processors": [{"name": "pe1", "kind": "programmable", "speed": 1.0}],
        "buses": [{"name": "bus1", "connects": ["pe1"]}]
      },
      "processes": [{"name": "P1", "execution_time": 3.0, "mapped_to": "pe1"}],
      "edges": [{"src": "P1", "dst": "P2", "condition": "C", "value": true,
                 "communication_time": 2.0}]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..architecture import Architecture, Mapping, PEKind, ProcessingElement
from ..conditions import Condition, Literal
from ..generator.random_cpg import MIN_GENERATED_PROCESSES
from ..graph import (
    BUS_POLICIES,
    CPGBuilder,
    ConditionalProcessGraph,
    ExpandedGraph,
    expand_communications,
)


class SerializationError(ValueError):
    """Raised when a system description document is malformed."""


class RequestError(SerializationError):
    """An explore request breaks its schema: a setting, not its system.

    The system description a request carries raises a plain
    :class:`SerializationError`, so a front-end can label the two apart.
    """


@dataclass
class SystemDescription:
    """A deserialised system: graph + architecture + mapping, ready to schedule."""

    name: str
    graph: ConditionalProcessGraph
    architecture: Architecture
    mapping: Mapping

    def expand(self) -> ExpandedGraph:
        """Insert communication processes according to the mapping."""
        return expand_communications(self.graph, self.mapping, self.architecture)


# -- writing -----------------------------------------------------------------------


def architecture_to_dict(architecture: Architecture) -> Dict[str, Any]:
    """Serialise an architecture (processors, buses, connectivity, tau0)."""
    processors = [
        {"name": pe.name, "kind": pe.kind.value, "speed": pe.speed}
        for pe in architecture.processors
    ]
    buses = [
        {
            "name": pe.name,
            "speed": pe.speed,
            "connects": [p.name for p in architecture.processors_on_bus(pe.name)],
        }
        for pe in architecture.buses
    ]
    return {
        "condition_broadcast_time": architecture.condition_broadcast_time,
        "processors": processors,
        "buses": buses,
    }


def system_to_dict(
    graph: ConditionalProcessGraph,
    architecture: Architecture,
    mapping: Mapping,
    name: Optional[str] = None,
) -> Dict[str, Any]:
    """Serialise a complete (process-level) system description."""
    processes: List[Dict[str, Any]] = []
    for process in graph.processes:
        if process.is_dummy:
            continue
        entry: Dict[str, Any] = {
            "name": process.name,
            "execution_time": process.execution_time,
        }
        if process.execution_times:
            entry["execution_times"] = dict(process.execution_times)
        if process.is_conjunction:
            entry["is_conjunction"] = True
        mapped = mapping.get(process.name)
        if mapped is not None:
            entry["mapped_to"] = mapped.name
        processes.append(entry)

    edges: List[Dict[str, Any]] = []
    for edge in graph.edges:
        if graph[edge.src].is_dummy or graph[edge.dst].is_dummy:
            continue
        entry = {"src": edge.src, "dst": edge.dst}
        if edge.communication_time:
            entry["communication_time"] = edge.communication_time
        if edge.condition is not None:
            entry["condition"] = edge.condition.condition.name
            entry["value"] = edge.condition.value
        edges.append(entry)

    return {
        "name": name or graph.name,
        "architecture": architecture_to_dict(architecture),
        "processes": processes,
        "edges": edges,
    }


def save_system(
    path: Union[str, Path],
    graph: ConditionalProcessGraph,
    architecture: Architecture,
    mapping: Mapping,
    name: Optional[str] = None,
) -> None:
    """Write a system description to a JSON file."""
    document = system_to_dict(graph, architecture, mapping, name)
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


# -- reading -----------------------------------------------------------------------


def _entry_dict(entry: Any, what: str) -> Dict[str, Any]:
    if not isinstance(entry, dict):
        raise SerializationError(f"{what} must be an object, got {entry!r}")
    return entry


def _entry_name(entry: Dict[str, Any], what: str) -> str:
    try:
        name = entry["name"]
    except KeyError as error:
        raise SerializationError(f"{what} {entry!r} is missing 'name'") from error
    if not isinstance(name, str) or not name:
        raise SerializationError(f"{what} name must be a non-empty string, got {name!r}")
    return name


def _entry_float(entry: Dict[str, Any], key: str, default: float, what: str) -> float:
    value = entry.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SerializationError(f"{what} field {key!r} must be a number, got {value!r}")
    return float(value)


def _entry_element(
    entry: Dict[str, Any], name: str, kind: PEKind, what: str
) -> ProcessingElement:
    speed = _entry_float(entry, "speed", 1.0, what)
    try:
        return ProcessingElement(name, kind, speed)
    except ValueError as error:
        raise SerializationError(f"{what}: {error}") from error


def _entry_times(
    entry: Dict[str, Any], what: str, architecture: Architecture
) -> Optional[Dict[str, float]]:
    if "execution_times" not in entry:
        return None
    times = entry["execution_times"]
    if not isinstance(times, dict) or not all(
        isinstance(time, (int, float)) and not isinstance(time, bool)
        for time in times.values()
    ):
        raise SerializationError(
            f"{what} field 'execution_times' must be an object of numbers, "
            f"got {times!r}"
        )
    processors = {processor.name for processor in architecture.processors}
    for element in times:
        if element not in processors:
            raise SerializationError(
                f"{what} field 'execution_times' names {element!r}, which is "
                "not a processor of the architecture"
            )
    return times


def architecture_from_dict(document: Dict[str, Any]) -> Architecture:
    """Deserialise an architecture document."""
    document = _entry_dict(document, "architecture document")
    try:
        processor_docs = document["processors"]
    except KeyError as error:
        raise SerializationError("architecture document needs 'processors'") from error
    if not isinstance(processor_docs, list):
        raise SerializationError("'processors' must be a list of objects")
    processors = []
    for entry in processor_docs:
        entry = _entry_dict(entry, "processor entry")
        name = _entry_name(entry, "processor entry")
        what = f"processor {name!r}"
        kind = entry.get("kind", "programmable")
        try:
            pe_kind = PEKind(kind)
        except ValueError as error:
            raise SerializationError(
                f"{what} has unknown processing element kind {kind!r}"
            ) from error
        if pe_kind is PEKind.BUS:
            raise SerializationError(f"{what}: buses must be listed under 'buses'")
        processors.append(_entry_element(entry, name, pe_kind, what))
    bus_docs = document.get("buses", [])
    if not isinstance(bus_docs, list):
        raise SerializationError("'buses' must be a list of objects")
    buses = []
    connectivity: Dict[str, List[str]] = {}
    for entry in bus_docs:
        entry = _entry_dict(entry, "bus entry")
        name = _entry_name(entry, "bus entry")
        what = f"bus {name!r}"
        buses.append(_entry_element(entry, name, PEKind.BUS, what))
        if "connects" in entry:
            connects = entry["connects"]
            if not isinstance(connects, list) or not all(
                isinstance(processor, str) for processor in connects
            ):
                raise SerializationError(
                    f"{what} field 'connects' must be a list of processor names, "
                    f"got {connects!r}"
                )
            connectivity[name] = connects
    try:
        return Architecture(
            processors,
            buses,
            condition_broadcast_time=_entry_float(
                document, "condition_broadcast_time", 1.0, "architecture"
            ),
            connectivity=connectivity or None,
        )
    except ValueError as error:
        raise SerializationError(f"invalid architecture: {error}") from error


def system_from_dict(document: Dict[str, Any]) -> SystemDescription:
    """Deserialise a complete system description.

    Schema violations — a missing section, a process mapped to an unknown
    processing element, per-PE execution times keyed by anything but a
    processor, an edge naming an undeclared process, a time that is
    not a JSON number or is negative, a self-loop, a non-boolean flag, a
    cyclic process graph — raise
    :class:`SerializationError` naming the offending entry, never a bare
    ``KeyError``/``TypeError``/``ValueError`` traceback.
    """
    document = _entry_dict(document, "system document")
    for key in ("architecture", "processes", "edges"):
        if key not in document:
            raise SerializationError(f"system document is missing {key!r}")
        if key != "architecture" and not isinstance(document[key], list):
            raise SerializationError(f"{key!r} must be a list of objects")
    architecture = architecture_from_dict(document["architecture"])
    name = document.get("name", "system")
    if not isinstance(name, str) or not name:
        raise SerializationError(
            f"system document field 'name' must be a non-empty string, got {name!r}"
        )

    builder = CPGBuilder(name)
    mapping = Mapping(architecture)
    declared = set()
    for entry in document["processes"]:
        entry = _entry_dict(entry, "process entry")
        process_name = _entry_name(entry, "process entry")
        if "execution_time" not in entry:
            raise SerializationError(
                f"process {process_name!r} is missing 'execution_time'"
            )
        what = f"process {process_name!r}"
        execution_time = _entry_float(entry, "execution_time", 0.0, what)
        execution_times = _entry_times(entry, what, architecture)
        is_conjunction = _request_bool(entry, "is_conjunction", False, what)
        declared.add(process_name)
        try:
            builder.process(
                process_name,
                execution_time,
                execution_times=execution_times,
                is_conjunction=is_conjunction,
            )
        except ValueError as error:
            raise SerializationError(f"{what}: {error}") from error
        if "mapped_to" in entry:
            target = entry["mapped_to"]
            try:
                element = architecture[target]
            except (KeyError, TypeError) as error:
                raise SerializationError(
                    f"process {process_name!r} is mapped to unknown "
                    f"processing element {target!r}"
                ) from error
            try:
                mapping.assign(process_name, element)
            except ValueError as error:
                raise SerializationError(
                    f"process {process_name!r} cannot be mapped to "
                    f"{target!r}: {error}"
                ) from error

    for entry in document["edges"]:
        entry = _entry_dict(entry, "edge entry")
        for key in ("src", "dst"):
            if key not in entry:
                raise SerializationError(f"edge entry {entry!r} is missing {key!r}")
            if not isinstance(entry[key], str) or entry[key] not in declared:
                raise SerializationError(
                    f"edge {entry.get('src')!r} -> {entry.get('dst')!r} names "
                    f"undeclared process {entry[key]!r}"
                )
        what = f"edge {entry['src']!r} -> {entry['dst']!r}"
        condition: Optional[Literal] = None
        if "condition" in entry:
            condition_name = entry["condition"]
            if not isinstance(condition_name, str) or not condition_name:
                raise SerializationError(
                    f"{what} field 'condition' must be a non-empty string, "
                    f"got {condition_name!r}"
                )
            condition = Literal(
                Condition(condition_name), _request_bool(entry, "value", True, what)
            )
        communication_time = _entry_float(entry, "communication_time", 0.0, what)
        try:
            builder.edge(
                entry["src"],
                entry["dst"],
                condition=condition,
                communication_time=communication_time,
            )
        except ValueError as error:
            raise SerializationError(f"{what}: {error}") from error

    try:
        graph = builder.build()
    except ValueError as error:
        raise SerializationError(f"invalid process graph: {error}") from error
    return SystemDescription(name, graph, architecture, mapping)


def read_system_document(path: Union[str, Path]) -> Any:
    """The JSON document of a system description file, not yet checked."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise SerializationError(f"{path} is not valid JSON: {error}") from error


def load_system(path: Union[str, Path]) -> SystemDescription:
    """Read a system description from a JSON file."""
    return system_from_dict(read_system_document(path))


# -- service request schemas -------------------------------------------------
#
# Request documents of the ``repro-cpg serve`` HTTP API.  Validation follows
# the same contract as the system documents above: a malformed request raises
# :class:`SerializationError` naming the offending entry, so the service can
# answer 400 with an actionable message instead of a traceback.  Validators
# return a *normalised* copy with every default filled in — the job runner
# and the command line never re-derive defaults independently.

EXPLORE_ENGINE_CHOICES = ("tabu", "anneal", "genetic", "both", "all")


def _request_bool(entry: Dict[str, Any], key: str, default: bool, what: str) -> bool:
    value = entry.get(key, default)
    if not isinstance(value, bool):
        raise SerializationError(
            f"{what} field {key!r} must be a boolean, got {value!r}"
        )
    return value


def _request_int(
    entry: Dict[str, Any],
    key: str,
    default: Optional[int],
    what: str,
    minimum: Optional[int] = None,
) -> Optional[int]:
    value = entry.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SerializationError(
            f"{what} field {key!r} must be an integer, got {value!r}"
        )
    if minimum is not None and value < minimum:
        raise SerializationError(
            f"{what} field {key!r} must be >= {minimum}, got {value}"
        )
    return value


def _reject_unknown_keys(
    entry: Dict[str, Any], allowed: tuple, what: str
) -> None:
    for key in entry:
        if key not in allowed:
            raise SerializationError(
                f"{what} has unknown field {key!r} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )


def validate_explore_request(document: Any) -> Dict[str, Any]:
    """Validate + normalise one exploration-job request document.

    The document mirrors the ``repro-cpg explore`` flags: exactly one
    problem source — ``"fig1": true`` (with optional ``"fig1_buses"``), an
    inline ``"system"`` description (the schema at the top of this module),
    or ``"random": {"nodes": N, "paths": P}`` — plus search settings
    (``seed``, ``engine``, ``cycles``, ``neighbors``, ``population``,
    ``stall``, ``pareto``, ``map_communications``, ``bus_policy`` and an
    optional ``sizing`` bounds object).  This function owns the request's
    defaults, ranges and choices: ``explore`` and ``submit`` pass the flags
    they were given through it, as ``POST /jobs`` passes its body, so a
    served job and a one-shot run of the same request produce identical
    result documents.  A bad setting raises :class:`RequestError`; a bad
    inline system raises :class:`SerializationError` naming its entry.
    """
    try:
        request = _explore_settings(document)
    except SerializationError as error:
        raise RequestError(str(error)) from None
    if request["system"] is not None:
        # Build it once now so a malformed system names its offender at
        # submission time, not inside the job.
        system_from_dict(request["system"])
    return request


def _explore_settings(document: Any) -> Dict[str, Any]:
    """The normalised request; the inline system is passed through unchecked."""
    document = _entry_dict(document, "explore request")
    what = "explore request"
    allowed = (
        "fig1", "fig1_buses", "system", "random", "seed", "engine", "cycles",
        "neighbors", "population", "stall", "pareto", "map_communications",
        "bus_policy", "sizing",
    )
    _reject_unknown_keys(document, allowed, what)
    fig1 = _request_bool(document, "fig1", False, what)
    system = document.get("system")
    random_spec = document.get("random")
    sources = [key for key, chosen in (
        ("fig1", fig1), ("system", system is not None), ("random", random_spec is not None)
    ) if chosen]
    if len(sources) > 1:
        raise SerializationError(
            f"explore request fields {' and '.join(map(repr, sources))} are "
            "mutually exclusive; pass one problem source"
        )
    if not sources:
        raise SerializationError(
            "explore request needs exactly one problem source: "
            "'fig1': true, an inline 'system' description, or 'random'"
        )
    random_normalised = None
    if random_spec is not None:
        random_spec = _entry_dict(random_spec, "explore request 'random'")
        _reject_unknown_keys(random_spec, ("nodes", "paths"), "explore request 'random'")
        random_normalised = {
            "nodes": _request_int(
                random_spec, "nodes", 40, "explore request 'random'",
                minimum=MIN_GENERATED_PROCESSES,
            ),
            "paths": _request_int(
                random_spec, "paths", 8, "explore request 'random'", minimum=1
            ),
        }
    engine = document.get("engine", "tabu")
    if engine not in EXPLORE_ENGINE_CHOICES:
        raise SerializationError(
            f"explore request field 'engine' must be one of "
            f"{', '.join(EXPLORE_ENGINE_CHOICES)}, got {engine!r}"
        )
    bus_policy = document.get("bus_policy", "least_index")
    if bus_policy not in BUS_POLICIES:
        raise SerializationError(
            f"explore request field 'bus_policy' must be one of "
            f"{', '.join(BUS_POLICIES)}, got {bus_policy!r}"
        )
    sizing = None
    if document.get("sizing") is not None:
        sizing_doc = _entry_dict(document["sizing"], "explore request 'sizing'")
        sizing_allowed = (
            "min_processors", "max_processors", "min_buses", "max_buses"
        )
        _reject_unknown_keys(sizing_doc, sizing_allowed, "explore request 'sizing'")
        sizing = {
            "min_processors": _request_int(
                sizing_doc, "min_processors", 1, "explore request 'sizing'", minimum=1
            ),
            "max_processors": _request_int(
                sizing_doc, "max_processors", None, "explore request 'sizing'", minimum=1
            ),
            "min_buses": _request_int(
                sizing_doc, "min_buses", 1, "explore request 'sizing'", minimum=1
            ),
            "max_buses": _request_int(
                sizing_doc, "max_buses", None, "explore request 'sizing'", minimum=1
            ),
        }
        for element in ("processors", "buses"):
            low, high = sizing[f"min_{element}"], sizing[f"max_{element}"]
            if high is not None and low > high:
                raise SerializationError(
                    f"explore request 'sizing' field 'min_{element}' ({low}) "
                    f"must be <= field 'max_{element}' ({high})"
                )
    return {
        "fig1": fig1,
        "fig1_buses": _request_int(document, "fig1_buses", 1, what, minimum=1),
        "system": system,
        "random": random_normalised,
        "seed": _request_int(document, "seed", 0, what),
        "engine": engine,
        "cycles": _request_int(document, "cycles", 40, what, minimum=1),
        "neighbors": _request_int(document, "neighbors", 8, what, minimum=1),
        "population": _request_int(document, "population", 16, what, minimum=2),
        "stall": _request_int(document, "stall", 0, what, minimum=0),
        "pareto": _request_bool(document, "pareto", False, what),
        "map_communications": _request_bool(
            document, "map_communications", False, what
        ),
        "bus_policy": bus_policy,
        "sizing": sizing,
    }


def validate_schedule_request(document: Any) -> Dict[str, Any]:
    """Validate + normalise one synchronous schedule-query document.

    ``{"system": <system description>, "validate": bool}`` — the response is
    the same JSON document ``repro-cpg schedule --json`` prints.
    """
    document = _entry_dict(document, "schedule request")
    _reject_unknown_keys(document, ("system", "validate"), "schedule request")
    if "system" not in document:
        raise SerializationError("schedule request is missing 'system'")
    system_from_dict(document["system"])
    return {
        "system": document["system"],
        "validate": _request_bool(document, "validate", False, "schedule request"),
    }


def validate_sweep_request(document: Any) -> Dict[str, Any]:
    """Validate + normalise one synchronous sweep-query document.

    ``{"nodes": [..], "paths": [..], "graphs": N}`` — the response is the
    same JSON document ``repro-cpg sweep --json`` prints.
    """
    document = _entry_dict(document, "sweep request")
    _reject_unknown_keys(document, ("nodes", "paths", "graphs"), "sweep request")
    sizes = document.get("nodes", [40])
    path_counts = document.get("paths", [4, 8])
    for key, values in (("nodes", sizes), ("paths", path_counts)):
        if not isinstance(values, list) or not values:
            raise SerializationError(
                f"sweep request field {key!r} must be a non-empty list of integers"
            )
        for value in values:
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise SerializationError(
                    f"sweep request field {key!r} must contain positive "
                    f"integers, got {value!r}"
                )
    return {
        "nodes": sizes,
        "paths": path_counts,
        "graphs": _request_int(document, "graphs", 2, "sweep request", minimum=1),
    }
