"""The design-space exploration problem: what is searched and how it is scored.

An :class:`ExplorationProblem` bundles the *process-level* conditional process
graph (communications not yet expanded — they depend on the mapping being
explored), the target architecture and the seed mapping the search starts
from.  It knows how to materialise any :class:`~repro.exploration.Candidate`
into the full evaluation pipeline of the repository:

    candidate -> Mapping -> expand_communications -> PathListScheduler
              -> ScheduleMerger.merge -> cost components

With :class:`ArchitectureBounds` the problem also spans *architecture sizing*:
candidates carry an explicit platform (which programmable processors and buses
exist) and :meth:`ExplorationProblem.architecture_for` materialises the sized
architecture a candidate describes, so the search can resize the platform, not
just remap onto it.

Problems serialise to the repository's JSON system-description format
(:func:`repro.io.system_to_dict`), which is how the parallel evaluation pool
ships them to worker processes: each worker rebuilds the problem once from the
payload and then evaluates small candidate tuples, so no scheduler state (and
no condition-universe bitmask) ever crosses a process boundary.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from operator import attrgetter
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..architecture.architecture import Architecture
from ..architecture.mapping import Mapping
from ..architecture.processing_element import bus as make_bus
from ..architecture.processing_element import programmable
from ..conditions import Conjunction
from ..graph.communication import (
    BUS_POLICIES,
    expand_communications,
    message_id,
)
from ..graph.communication import ExpandedGraph
from ..graph.cpg import ConditionalProcessGraph
from ..graph.paths import AlternativePath, PathEnumerator
from ..io.serialization import system_from_dict, system_to_dict
from ..scheduling.priorities import PATH_LOCAL_PRIORITY_FUNCTIONS
from .candidate import DEFAULT_PRIORITY_FUNCTION, Candidate

#: The name of a communication's bus (:class:`CommunicationInfo` -> str).
_bus_name = attrgetter("bus.name")


@dataclass(frozen=True)
class ArchitectureBounds:
    """Declared limits of the architecture-sizing design space.

    Passing bounds to an :class:`ExplorationProblem` turns architecture sizing
    on: candidates then carry an explicit *platform* (which programmable
    processors and buses exist) and the sampler may add or remove elements
    within these limits.  Hardware processors (ASICs) are never sizable.

    Parameters
    ----------
    max_processors / min_processors:
        Inclusive bounds on the number of programmable processors.
        ``max_processors=None`` resolves to "two more than the seed
        architecture provides", or to ``min_processors`` if that is larger.
    max_buses / min_buses:
        Inclusive bounds on the number of buses.  ``max_buses=None`` resolves
        to "one more than the seed architecture provides", or to
        ``min_buses`` if that is larger.  Keep
        ``min_buses >= 1`` whenever processes communicate across processors —
        removing the last bus makes every such design point infeasible.
    processor_speed / bus_speed:
        Relative speed of the elements the search *adds* (seed elements keep
        their own speeds).
    """

    max_processors: Optional[int] = None
    min_processors: int = 1
    max_buses: Optional[int] = None
    min_buses: int = 1
    processor_speed: float = 1.0
    bus_speed: float = 1.0

    def resolved_for(self, architecture: Architecture) -> "ArchitectureBounds":
        """Fill the ``None`` maxima from the seed architecture's element counts."""
        max_processors = self.max_processors
        if max_processors is None:
            max_processors = max(
                len(architecture.programmable_processors) + 2, self.min_processors
            )
        max_buses = self.max_buses
        if max_buses is None:
            max_buses = max(len(architecture.buses) + 1, self.min_buses)
        bounds = replace(self, max_processors=max_processors, max_buses=max_buses)
        bounds.validate()
        return bounds

    def validate(self) -> None:
        """Reject bounds no platform could satisfy."""
        if self.min_processors < 1:
            raise ValueError("min_processors must be at least 1")
        if self.min_buses < 0:
            raise ValueError("min_buses must be non-negative")
        if self.max_processors is not None and self.max_processors < self.min_processors:
            raise ValueError("max_processors must be >= min_processors")
        if self.max_buses is not None and self.max_buses < self.min_buses:
            raise ValueError("max_buses must be >= min_buses")
        if self.processor_speed <= 0 or self.bus_speed <= 0:
            raise ValueError("element speeds must be positive")


def _spare_names(prefix: str, taken: set, count: int) -> Tuple[str, ...]:
    """Deterministic pool of fresh element names avoiding ``taken``."""
    names: List[str] = []
    index = 1
    while len(names) < count:
        name = f"{prefix}{index}"
        index += 1
        if name in taken:
            continue
        names.append(name)
    return tuple(names)


class ExplorationProblem:
    """A mapping/priority design space over one system.

    Parameters
    ----------
    graph:
        The process-level conditional process graph (no communication
        processes; edges carry their communication times).
    mapping:
        The seed mapping of every ordinary process (e.g. produced upstream by
        partitioning, or by the random generator).
    architecture:
        Defaults to ``mapping.architecture``.
    bounds:
        Optional :class:`ArchitectureBounds`.  When given, architecture sizing
        is enabled: candidates carry an explicit platform and the search may
        add or remove programmable processors and buses within the bounds.
    map_communications:
        When True, communication-to-bus mapping becomes an explored dimension:
        the neighbourhood gains ``remap_comm`` / ``swap_bus`` moves and
        candidates may pin individual messages to buses.  Off by default so
        fixed problems keep their exact pre-mapping neighbourhood (and
        per-seed trajectories).
    bus_policy:
        Derivation policy for messages without an explicit pin (see
        :func:`repro.graph.expand_communications`): ``"least_index"``
        (default) or ``"least_loaded"``.
    """

    def __init__(
        self,
        graph: ConditionalProcessGraph,
        mapping: Mapping,
        architecture: Optional[Architecture] = None,
        name: Optional[str] = None,
        bounds: Optional[ArchitectureBounds] = None,
        map_communications: bool = False,
        bus_policy: str = "least_index",
    ) -> None:
        if bus_policy not in BUS_POLICIES:
            raise ValueError(
                f"unknown bus policy {bus_policy!r}; choose from {BUS_POLICIES}"
            )
        self._graph = graph
        self._architecture = architecture or mapping.architecture
        self._base_mapping = mapping
        self.name = name or graph.name
        self._map_communications = bool(map_communications)
        self._bus_policy = bus_policy
        self._movable: Tuple[str, ...] = tuple(
            process.name for process in graph.ordinary_processes
        )
        movable_set = set(self._movable)
        # The message universe: every process-level edge both of whose
        # endpoints the explorer maps.  Whether a message is *active* (its
        # endpoints sit on different processors, so a communication process
        # exists) depends on the candidate, but the id set is stable.
        self._messages: Tuple[Tuple[str, str, str], ...] = tuple(
            (message_id(edge.src, edge.dst), edge.src, edge.dst)
            for edge in graph.edges
            if edge.src in movable_set and edge.dst in movable_set
        )
        self._message_endpoints: Dict[str, Tuple[str, str]] = {
            message: (src, dst) for message, src, dst in self._messages
        }
        self._processors: Tuple[str, ...] = tuple(
            pe.name for pe in self._architecture.processors
        )
        self._bounds: Optional[ArchitectureBounds] = None
        self._spare_processors: Tuple[str, ...] = ()
        self._spare_buses: Tuple[str, ...] = ()
        self._architecture_cache: Dict[Tuple[Tuple[str, str], ...], Architecture] = {}
        self._content_key: Optional[str] = None
        self._stage_scope_key: Optional[str] = None
        self._base_paths: Optional[Tuple[AlternativePath, ...]] = None
        # Per path label, built on first use: its ordinary processes in name
        # order and its active set (the path keys' slices).
        self._label_slices: Optional[
            Dict[Conjunction, Tuple[Tuple[str, ...], FrozenSet[str]]]
        ] = None
        if bounds is not None:
            self._bounds = bounds.resolved_for(self._architecture)
            taken = {pe.name for pe in self._architecture.processing_elements}
            headroom = self._bounds.max_processors - len(
                self._architecture.programmable_processors
            )
            self._spare_processors = _spare_names("xpe", taken, max(0, headroom))
            taken |= set(self._spare_processors)
            headroom = self._bounds.max_buses - len(self._architecture.buses)
            self._spare_buses = _spare_names("xbus", taken, max(0, headroom))

    # -- construction shortcuts ---------------------------------------------

    @classmethod
    def from_system(
        cls,
        system: Any,
        name: Optional[str] = None,
        bounds: Optional[ArchitectureBounds] = None,
        map_communications: bool = False,
        bus_policy: str = "least_index",
    ) -> "ExplorationProblem":
        """Build a problem from a generated or deserialised system.

        Accepts a :class:`repro.generator.GeneratedSystem` (uses its
        process-level graph) or a :class:`repro.io.SystemDescription`.
        """
        graph = (
            system.process_graph
            if hasattr(system, "process_graph")  # GeneratedSystem
            else system.graph
        )
        return cls(
            graph,
            system.mapping,
            system.architecture,
            name=name,
            bounds=bounds,
            map_communications=map_communications,
            bus_policy=bus_policy,
        )

    # -- accessors -----------------------------------------------------------

    @property
    def graph(self) -> ConditionalProcessGraph:
        return self._graph

    @property
    def architecture(self) -> Architecture:
        return self._architecture

    @property
    def base_paths(self) -> Tuple[AlternativePath, ...]:
        """The alternative paths of the process-level graph, enumerated once.

        Every expansion structure builds its paths from these
        (:func:`~repro.graph.paths.expanded_paths`).  Enumerated on first
        use, so building a problem stays cheap.
        """
        if self._base_paths is None:
            self._base_paths = PathEnumerator(self._graph).paths()
        return self._base_paths

    @property
    def base_mapping(self) -> Mapping:
        return self._base_mapping

    @property
    def movable_processes(self) -> Tuple[str, ...]:
        """Names of the processes whose mapping the explorer may change."""
        return self._movable

    @property
    def processor_names(self) -> Tuple[str, ...]:
        """Names of the non-bus processing elements of the *base* architecture."""
        return self._processors

    @property
    def bounds(self) -> Optional[ArchitectureBounds]:
        """The resolved sizing bounds, or None when sizing is disabled."""
        return self._bounds

    @property
    def map_communications(self) -> bool:
        """Whether communication-to-bus mapping is an explored dimension."""
        return self._map_communications

    @property
    def bus_policy(self) -> str:
        """Derivation policy for messages without an explicit bus pin."""
        return self._bus_policy

    @property
    def messages(self) -> Tuple[Tuple[str, str, str], ...]:
        """The message universe: ``(message id, src, dst)`` per mapped edge."""
        return self._messages

    @property
    def spare_processor_names(self) -> Tuple[str, ...]:
        """Deterministic name pool for processors the search may add."""
        return self._spare_processors

    @property
    def spare_bus_names(self) -> Tuple[str, ...]:
        """Deterministic name pool for buses the search may add."""
        return self._spare_buses

    def initial_candidate(
        self, priority_function: str = DEFAULT_PRIORITY_FUNCTION
    ) -> Candidate:
        """The search's starting point: the seed mapping, unperturbed priorities.

        With sizing enabled the candidate's platform lists the seed
        architecture's programmable processors and buses explicitly.
        """
        platform: Tuple[Tuple[str, str], ...] = ()
        if self._bounds is not None:
            platform = tuple(sorted(
                [(pe.name, "programmable")
                 for pe in self._architecture.programmable_processors]
                + [(pe.name, "bus") for pe in self._architecture.buses]
            ))
        return Candidate.from_mapping(
            self._base_mapping, self._movable, priority_function, platform=platform
        )

    def architecture_for(self, candidate: Candidate) -> Architecture:
        """The architecture a candidate's platform describes (base when empty).

        Sized architectures are cached by platform tuple: many candidates
        share the same platform, and :class:`~repro.architecture.Architecture`
        construction validates topology each time.
        """
        if not candidate.platform:
            return self._architecture
        cached = self._architecture_cache.get(candidate.platform)
        if cached is not None:
            return cached
        base = self._architecture
        speeds = self._bounds or ArchitectureBounds().resolved_for(base)
        processors = list(base.hardware_processors)
        for name in candidate.platform_processors:
            existing = base.get(name)
            processors.append(
                existing
                if existing is not None
                else programmable(name, speed=speeds.processor_speed)
            )
        active_names = {pe.name for pe in processors}
        all_base = {pe.name for pe in base.processors}
        buses = []
        connectivity: Dict[str, Iterable[str]] = {}
        for name in candidate.platform_buses:
            existing = base.get(name)
            if existing is None:
                buses.append(make_bus(name, speed=speeds.bus_speed))
                continue
            buses.append(existing)
            connected = {pe.name for pe in base.processors_on_bus(name)}
            if connected != all_base:
                # A restricted bus stays restricted (intersected with the
                # active set); fully-connected buses keep connecting
                # everything, including processors the search added.
                connectivity[name] = sorted(connected & active_names)
        architecture = Architecture(
            processors,
            buses,
            condition_broadcast_time=base.condition_broadcast_time,
            connectivity=connectivity or None,
        )
        self._architecture_cache[candidate.platform] = architecture
        return architecture

    def processors_for(self, candidate: Candidate) -> Tuple[str, ...]:
        """Names of the processors a candidate's processes may be mapped to."""
        if not candidate.platform:
            return self._processors
        active = set(candidate.platform_processors)
        ordered = [
            pe.name
            for pe in self._architecture.processors
            if pe.is_hardware or pe.name in active
        ]
        ordered.extend(
            name for name in self._spare_processors if name in active
        )
        return tuple(ordered)

    def mapping_for(self, candidate: Candidate) -> Mapping:
        """Materialise a candidate's assignment as a validated Mapping."""
        mapping = candidate.to_mapping(self.architecture_for(candidate))
        mapping.validate_for(self._movable)
        return mapping

    # -- communication mapping ------------------------------------------------

    def active_messages(
        self, candidate: Candidate
    ) -> Tuple[Tuple[str, str, str], ...]:
        """The messages that cross processors under a candidate's assignment."""
        assignment = candidate.assignment_dict
        return tuple(
            (message, src, dst)
            for message, src, dst in self._messages
            if assignment.get(src) is not None
            and assignment.get(dst) is not None
            and assignment[src] != assignment[dst]
        )

    def connecting_buses(
        self, candidate: Candidate, src: str, dst: str
    ) -> Tuple[str, ...]:
        """Names of the buses connecting two processes' processors (sorted)."""
        architecture = self.architecture_for(candidate)
        assignment = candidate.assignment_dict
        return tuple(
            pe.name
            for pe in architecture.buses_between(
                architecture[assignment[src]], architecture[assignment[dst]]
            )
        )

    def bus_assignment_for(
        self, candidate: Candidate
    ) -> Optional[Dict[str, str]]:
        """A candidate's explicit bus pins, filtered to the currently valid ones.

        Pins for dormant messages (endpoints co-located), for unknown message
        ids, or whose bus does not exist on — or does not connect the
        endpoints in — the candidate's (possibly sized) architecture are
        dropped: those messages fall back to the derivation policy instead of
        making the whole candidate infeasible.  The graph layer still
        validates strictly; this filter is what lets remapping moves and bus
        removal coexist with accumulated pins.
        """
        if not candidate.communication_assignment:
            return None
        architecture = self.architecture_for(candidate)
        assignment = candidate.assignment_dict
        valid: Dict[str, str] = {}
        for message, bus_name in candidate.communication_assignment:
            endpoints = self._message_endpoints.get(message)
            if endpoints is None:
                continue
            src, dst = endpoints
            src_pe = assignment.get(src)
            dst_pe = assignment.get(dst)
            if src_pe is None or dst_pe is None or src_pe == dst_pe:
                continue
            if architecture.get(bus_name) is None:
                continue
            connecting = {
                pe.name
                for pe in architecture.buses_between(
                    architecture[src_pe], architecture[dst_pe]
                )
            }
            if bus_name in connecting:
                valid[message] = bus_name
        return valid or None

    def communications_for(self, candidate: Candidate) -> Dict[str, str]:
        """The realised communication mapping of a candidate: message -> bus.

        Runs communication expansion exactly the way the evaluator does
        (explicit pins first, derivation policy for the rest), so the result
        is what the schedule was actually generated against.  Raises
        :class:`~repro.architecture.MappingError` for infeasible candidates.
        """
        expanded = expand_communications(
            self._graph,
            self.mapping_for(candidate),
            self.architecture_for(candidate),
            bus_assignment=self.bus_assignment_for(candidate),
            bus_policy=self._bus_policy,
        )
        return expanded.bus_assignment

    # -- sub-fingerprints (incremental evaluation) ---------------------------

    def expansion_key(
        self,
        candidate: Candidate,
        pins: Optional[Dict[str, str]] = None,
    ) -> Tuple:
        """Everything communication expansion can observe, as a hashable key.

        Expansion (and the path enumeration over its result) is a pure
        function of the process-to-PE assignment (which edges cross
        processors), the platform (which buses exist and how they connect)
        and the *effective* bus pins; the graph, the derivation policy and
        the base architecture are fixed per problem.  Pins are filtered
        through :meth:`bus_assignment_for` first, so dormant or stale pins —
        which expansion would ignore anyway — do not fragment the cache.
        Callers that already hold the filtered pins may pass them to skip
        the (per-candidate) refiltering; the empty dict means "no pins".
        """
        if pins is None:
            pins = self.bus_assignment_for(candidate) or {}
        return (
            candidate.assignment,
            candidate.platform,
            tuple(sorted(pins.items())) if pins else (),
        )

    def path_schedule_key(
        self,
        candidate: Candidate,
        path: AlternativePath,
        expanded: ExpandedGraph,
        expansion_key: Optional[Tuple] = None,
    ) -> Tuple:
        """The sub-fingerprint of one alternative path's optimal schedule.

        Covers **everything** that can change the path's (lock-free) list
        schedule, and nothing more, so a move that leaves this slice of the
        design point untouched hits the cache however much it changed
        elsewhere:

        * the path identity (its label selects structure and guards);
        * the processors of the label's ordinary processes, in name order
          (durations and co-location, hence which of the path's edges carry
          communication processes; the names depend on the label alone);
        * the names of the communication processes on the path (from the
          expansion's structure) and the *realised* bus of each (from the
          expansion, so derivation-policy picks are covered, not only
          explicit pins);
        * the priority function and the path-restricted bias slice;
        * the platform (broadcast buses, processor count and element speeds).

        Priority functions outside
        :data:`~repro.scheduling.PATH_LOCAL_PRIORITY_FUNCTIONS` (e.g.
        ``static_order``, which ranks by whole-graph topological position)
        additionally key on the full expansion, conservatively; callers
        computing keys for several paths of one candidate may pass the
        candidate's ``expansion_key`` once instead of having every path
        recompute it.
        """
        if self._label_slices is None:
            movable = frozenset(self._movable)
            self._label_slices = {
                path.label: (
                    tuple(sorted(movable.intersection(path.active_processes))),
                    frozenset(path.active_processes),
                )
                for path in self.base_paths
            }
        names, members = self._label_slices[path.label]
        communications = expanded.structure.communications_on(path)
        bias = candidate.priority_bias
        if bias:
            bias = tuple(
                pair
                for pair in bias
                if pair[0] in members or pair[0] in communications
            )
        key: Tuple = (
            path.label,
            tuple(map(candidate.assignment_dict.__getitem__, names)),
            communications,
            tuple(
                map(_bus_name, map(expanded.communications.__getitem__, communications))
            ),
            candidate.priority_function,
            bias,
            candidate.platform,
        )
        if candidate.priority_function not in PATH_LOCAL_PRIORITY_FUNCTIONS:
            if expansion_key is None:
                expansion_key = self.expansion_key(candidate)
            key = key + (expansion_key,)
        return key

    # -- worker transport ----------------------------------------------------

    @property
    def content_key(self) -> str:
        """Stable content hash of the whole problem (payload-derived).

        Two problems share a key exactly when their payloads — graph,
        architecture, seed mapping, sizing bounds, communication-mapping
        settings — are identical.  Checkpoints record it so a resume into a
        different problem is rejected instead of silently diverging.
        """
        if self._content_key is None:
            document = json.dumps(self.to_payload(), sort_keys=True)
            self._content_key = hashlib.sha256(document.encode()).hexdigest()[:16]
        return self._content_key

    @property
    def stage_scope_key(self) -> str:
        """Content hash of everything the stage sub-fingerprints assume fixed.

        Two problems with equal keys may safely share one
        :class:`~repro.exploration.cost.StageCache`: the stage keys
        (:meth:`expansion_key`, :meth:`path_schedule_key`) cover the
        candidate-dependent state — assignment, platform, pins, priorities —
        but deliberately exclude the problem identity, so the *problem-level*
        state they rely on (graph content, architecture, bus policy, sizing
        bounds) must match between sharers.  The key hashes the payload with
        the two stage-irrelevant fields stripped: the system ``name`` and the
        per-process seed mapping (``mapped_to``) — near-duplicate tenants
        differing only in label or starting point land in the same scope,
        which is the multi-tenant cache win ``repro-cpg serve`` exploits.
        """
        if self._stage_scope_key is None:
            payload = self.to_payload()
            payload.pop("name", None)
            for entry in payload.get("processes", ()):
                entry.pop("mapped_to", None)
            document = json.dumps(payload, sort_keys=True)
            self._stage_scope_key = hashlib.sha256(
                document.encode()
            ).hexdigest()[:16]
        return self._stage_scope_key

    def to_payload(self) -> Dict[str, Any]:
        """Serialise to the JSON system-description document (picklable)."""
        payload = system_to_dict(
            self._graph, self._architecture, self._base_mapping, name=self.name
        )
        if self._bounds is not None:
            payload["sizing_bounds"] = asdict(self._bounds)
        if self._map_communications or self._bus_policy != "least_index":
            payload["communication_mapping"] = {
                "enabled": self._map_communications,
                "bus_policy": self._bus_policy,
            }
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ExplorationProblem":
        """Rebuild a problem from :meth:`to_payload` output (in a worker)."""
        system = system_from_dict(payload)
        bounds = None
        if "sizing_bounds" in payload:
            bounds = ArchitectureBounds(**payload["sizing_bounds"])
        communication = payload.get("communication_mapping", {})
        return cls(
            system.graph,
            system.mapping,
            system.architecture,
            name=system.name,
            bounds=bounds,
            map_communications=bool(communication.get("enabled", False)),
            bus_policy=communication.get("bus_policy", "least_index"),
        )

    def __repr__(self) -> str:
        return (
            f"ExplorationProblem(name={self.name!r}, "
            f"processes={len(self._movable)}, processors={len(self._processors)})"
        )
