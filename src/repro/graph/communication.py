"""Expansion of inter-processor communications into communication processes.

In the paper's model every connection between processes mapped to different
processors is represented by a *communication process* mapped to a bus (the
black dots of Fig. 1).  Designers usually specify the graph at the process
level only; :func:`expand_communications` inserts the communication processes
given a mapping, producing the graph the scheduler actually works on.

Communication-to-bus mapping is a design dimension of its own (the paper maps
and schedules communication processes like any other process):

* every potential communication carries a stable *message id*
  (:func:`message_id`, ``"src->dst"``) naming the process-level edge, so an
  explicit bus choice survives remapping of the endpoint processes;
* ``bus_assignment`` pins individual messages to buses, validated against the
  architecture's connectivity (a bus that does not connect both endpoint
  processors is rejected, not silently accepted);
* unpinned messages fall back to a *policy*: ``least_index`` (the
  lexicographically least connecting bus name — deterministic regardless of
  the order buses were registered in) or ``least_loaded`` (the connecting bus
  with the least communication load accumulated so far, name tie-break).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Mapping as TMapping, Optional, Sequence, Tuple, Union

from ..architecture import Architecture, Mapping, MappingError
from ..architecture.processing_element import ProcessingElement
from ..conditions import Conjunction
from .cpg import ConditionalProcessGraph
from .paths import AlternativePath, expanded_paths
from .process import communication_name

#: The bus-selection policies :func:`expand_communications` understands.
BUS_POLICIES: Tuple[str, ...] = ("least_index", "least_loaded")

#: Keys of an explicit bus assignment: a stable message id ("src->dst") or
#: the raw (src, dst) pair; values name a bus or give the element itself.
MessageKey = Union[str, Tuple[str, str]]
BusLike = Union[ProcessingElement, str]


def message_id(src: str, dst: str) -> str:
    """The stable id of the (potential) message carried by edge ``src -> dst``.

    Message ids name the process-level edge, not the processors its endpoints
    happen to be mapped to, so a per-message bus assignment keyed by id stays
    meaningful when the endpoint processes are remapped.
    """
    return f"{src}->{dst}"


@dataclass(frozen=True)
class CommunicationInfo:
    """Book-keeping for one inserted communication process."""

    name: str
    src: str
    dst: str
    bus: ProcessingElement
    communication_time: float
    #: Stable id of the message this process carries (see :func:`message_id`).
    message: str = ""


@dataclass(frozen=True)
class ExpandedGraph:
    """Result of communication expansion.

    Attributes
    ----------
    graph:
        The new conditional process graph including communication processes.
    mapping:
        A copy of the input mapping extended with the bus assignment of every
        inserted communication process.
    communications:
        Information about every inserted communication process, keyed by name.
    """

    graph: ConditionalProcessGraph
    mapping: Mapping
    communications: Dict[str, CommunicationInfo]
    #: Accumulated communication load per bus (bus name -> total duration of
    #: the communication processes it carries, bus-speed scaled).  Computed
    #: once while the expansion assigns buses — the ``least_loaded`` policy
    #: already maintains these sums — so consumers (the explorer's
    #: ``bus_imbalance`` objective) need not rescan every communication.
    #: Buses that carry nothing have no entry.
    bus_loads: Dict[str, float]
    #: The structure this expansion assigned buses on (its graph is
    #: :attr:`graph`).
    structure: ExpansionStructure = field(repr=False, compare=False)

    def communication_between(self, src: str, dst: str) -> Optional[CommunicationInfo]:
        """Return the communication process inserted between two processes, if any.

        A lookup of the process name expansion gives edge ``src -> dst``,
        checked against the entry's endpoints.  The returned
        :class:`CommunicationInfo` is a frozen dataclass — an immutable
        value, safe to retain and share across cached evaluations.
        """
        info = self.communications.get(communication_name(src, dst))
        if info is None or info.src != src or info.dst != dst:
            return None
        return info

    def bus_of(self, message: str) -> Optional[ProcessingElement]:
        """The bus carrying the given message id, or None when intra-processor."""
        src, _, dst = message.partition("->")
        info = self.communication_between(src, dst)
        return info.bus if info is not None else None

    @property
    def bus_assignment(self) -> Dict[str, str]:
        """The realised communication mapping: message id -> bus name.

        Returns a *fresh* dict, in communication insertion order, on every
        access — a snapshot the caller owns, never a live view of this
        instance's state.
        """
        return {info.message: info.bus.name for info in self.communications.values()}


@dataclass(frozen=True)
class ExpansionStructure:
    """The mapping-independent half of a communication expansion.

    The *structure* of an expanded graph — which communication processes
    exist, their names, durations and edges — depends only on the set of
    process-level edges that cross processors, never on *which* processors
    (or buses) are involved.  :func:`expansion_structure` builds it from that
    crossing set alone, so the design-space explorer can reuse one structure
    (and everything cached on its graph: guards, topological order) across
    every candidate mapping with the same co-location pattern, rebuilding
    only the cheap bus-assignment layer (:func:`assign_buses`) per
    candidate.  The graph is spliced from the base graph and inherits its
    guards (:meth:`~repro.graph.cpg.ConditionalProcessGraph.with_communications`);
    built with the base graph's alternative paths, the structure also
    carries its own, from :func:`~repro.graph.paths.expanded_paths`.
    """

    #: The expanded conditional process graph (communication processes
    #: inserted, no bus assignment yet — that lives in the mapping).
    graph: ConditionalProcessGraph
    #: One ``(communication process name, src, dst, communication time)`` per
    #: crossing edge, in graph edge order (the order expansion assigns buses).
    comm_edges: Tuple[Tuple[str, str, str, float], ...]
    #: The expanded graph's alternative paths (empty without base paths).
    paths: Tuple[AlternativePath, ...] = ()
    #: Memos filled on first use, keyed by value, so concurrent fills only
    #: repeat work: :func:`assign_buses`' ``(communication name, bus) ->
    #: (CommunicationInfo, bus-scaled duration)`` and
    #: :meth:`communications_on`'s path label -> names.
    records: Dict[
        Tuple[str, ProcessingElement], Tuple[CommunicationInfo, float]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)
    path_communications: Dict[Conjunction, Tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def communications_on(self, path: AlternativePath) -> Tuple[str, ...]:
        """The sorted names of the communication processes active on ``path``.

        ``path`` is an alternative path of :attr:`graph`; the names are
        remembered per path label.
        """
        names = self.path_communications.get(path.label)
        if names is None:
            inserted = set(map(itemgetter(0), self.comm_edges))
            names = tuple(sorted(inserted.intersection(path.active_processes)))
            self.path_communications[path.label] = names
        return names


def crossing_edges(
    graph: ConditionalProcessGraph, mapping: Mapping
) -> Tuple[Tuple[str, str], ...]:
    """The process-level edges whose endpoints sit on different processors.

    Dummy endpoints never cross (dummies are unmapped).  The tuple is in
    graph edge order, so equal co-location patterns produce equal tuples —
    it is the cache key of :func:`expansion_structure` reuse.  Unmapped
    ordinary endpoints raise :class:`~repro.architecture.MappingError`.
    """
    crossing = []
    for edge in graph.edges:
        if graph[edge.src].is_dummy or graph[edge.dst].is_dummy:
            continue
        if mapping[edge.src] != mapping[edge.dst]:
            crossing.append((edge.src, edge.dst))
    return tuple(crossing)


def expansion_structure(
    graph: ConditionalProcessGraph,
    crossing: Tuple[Tuple[str, str], ...],
    base_paths: Optional[Sequence[AlternativePath]] = None,
) -> ExpansionStructure:
    """Insert communication processes for the given crossing edges.

    The mapping-independent half of :func:`expand_communications`: splices
    the expanded graph from ``graph``
    (:meth:`~repro.graph.cpg.ConditionalProcessGraph.with_communications`;
    the process on edge ``src -> dst`` is named ``"{src}_to_{dst}"``) and
    records the inserted communications, leaving the bus choice (and hence
    the extended mapping) to :func:`assign_buses`.  ``crossing`` is in graph
    edge order.  The condition of a crossing edge guards the transfer
    itself, so it is carried by the edge *into* the communication process.
    Inserting communication processes changes no existing guard, so guards
    are derived once per base graph, not once per expansion.  With
    ``base_paths`` (``graph``'s enumeration) the structure also carries its
    alternative paths (:func:`~repro.graph.paths.expanded_paths`).
    """
    expanded = graph.with_communications(crossing, f"{graph.name}-expanded")
    comm_edges = tuple(
        (
            communication_name(src, dst),
            src,
            dst,
            graph.get_edge(src, dst).communication_time,
        )
        for src, dst in crossing
    )
    paths: Tuple[AlternativePath, ...] = ()
    if base_paths is not None:
        paths = expanded_paths(
            base_paths, expanded, [comm_name for comm_name, *_ in comm_edges]
        )
    return ExpansionStructure(expanded, comm_edges, paths)


def assign_buses(
    structure: ExpansionStructure,
    mapping: Mapping,
    architecture: Optional[Architecture] = None,
    bus_assignment: Optional[TMapping[MessageKey, BusLike]] = None,
    bus_policy: str = "least_index",
) -> ExpandedGraph:
    """Assign a bus to every communication process of a structure.

    The per-candidate half of :func:`expand_communications`: validates
    explicit pins, applies the derivation policy to the rest, extends the
    mapping and accumulates the per-bus loads.  The structure's graph is
    *shared* by the returned :class:`ExpandedGraph` (it is read-only for
    every consumer), which is what makes reuse across mappings cheap.
    Each ``(communication, bus)`` record and bus-scaled duration is built
    once per structure (:attr:`ExpansionStructure.records`) and a
    ``least_index`` pick once per processor pair and call.
    """
    if bus_policy not in BUS_POLICIES:
        raise ValueError(
            f"unknown bus policy {bus_policy!r}; choose from {BUS_POLICIES}"
        )
    architecture = architecture or mapping.architecture
    new_mapping = mapping.copy()
    communications: Dict[str, CommunicationInfo] = {}
    bus_loads: Dict[str, float] = {}
    picks: Dict[Tuple[str, str], ProcessingElement] = {}
    records = structure.records
    graph = structure.graph
    for comm_name, src, dst, communication_time in structure.comm_edges:
        src_pe = mapping[src]
        dst_pe = mapping[dst]
        assigned: Optional[BusLike] = None
        if bus_assignment:
            assigned = bus_assignment.get(message_id(src, dst))
            if assigned is None:
                assigned = bus_assignment.get((src, dst))
        if assigned is not None:
            bus = _resolve_assigned_bus(
                architecture, src, dst, src_pe, dst_pe, assigned
            )
        elif bus_policy == "least_index":
            bus = picks.get((src_pe.name, dst_pe.name))
            if bus is None:
                bus = _select_bus(architecture, src_pe, dst_pe, bus_policy, bus_loads)
                picks[(src_pe.name, dst_pe.name)] = bus
        else:
            bus = _select_bus(architecture, src_pe, dst_pe, bus_policy, bus_loads)
        record = records.get((comm_name, bus))
        if record is None:
            info = CommunicationInfo(
                name=comm_name,
                src=src,
                dst=dst,
                bus=bus,
                communication_time=communication_time,
                message=message_id(src, dst),
            )
            record = (info, graph[comm_name].duration_on(bus))
            records[(comm_name, bus)] = record
        info, duration = record
        bus_loads[bus.name] = bus_loads.get(bus.name, 0.0) + duration
        new_mapping.assign(comm_name, bus)
        communications[comm_name] = info
    return ExpandedGraph(graph, new_mapping, communications, bus_loads, structure)


def _resolve_assigned_bus(
    architecture: Architecture,
    src: str,
    dst: str,
    src_pe: ProcessingElement,
    dst_pe: ProcessingElement,
    assigned: BusLike,
) -> ProcessingElement:
    """Validate one explicit bus choice against the architecture's topology."""
    if isinstance(assigned, str):
        pe = architecture.get(assigned)
        if pe is None:
            raise MappingError(
                f"bus {assigned!r} assigned to message {message_id(src, dst)!r} "
                "is not a processing element of the architecture"
            )
        assigned = pe
    elif assigned.name not in architecture or architecture[assigned.name] != assigned:
        raise MappingError(
            f"bus {assigned.name!r} assigned to message {message_id(src, dst)!r} "
            "does not belong to the architecture"
        )
    if not assigned.is_bus:
        raise MappingError(
            f"{assigned.name!r} assigned to message {message_id(src, dst)!r} "
            "is not a bus"
        )
    connecting = {pe.name for pe in architecture.buses_between(src_pe, dst_pe)}
    if assigned.name not in connecting:
        raise MappingError(
            f"bus {assigned.name!r} does not connect {src_pe.name} and "
            f"{dst_pe.name}; cannot carry the message {message_id(src, dst)!r}"
        )
    return assigned


def _select_bus(
    architecture: Architecture,
    src_pe: ProcessingElement,
    dst_pe: ProcessingElement,
    policy: str,
    loads: Dict[str, float],
) -> ProcessingElement:
    """Pick a bus for an unpinned message according to the selection policy."""
    candidates = architecture.buses_between(src_pe, dst_pe)
    if not candidates:
        raise MappingError(
            f"no bus connects {src_pe.name} and {dst_pe.name}; cannot map the "
            "communication between processes on these processors"
        )
    if policy == "least_loaded":
        return min(candidates, key=lambda pe: (loads.get(pe.name, 0.0), pe.name))
    # least_index: the lexicographically least connecting bus name.  Sorting
    # here (rather than trusting the iteration order of buses_between) keeps
    # the default deterministic however the architecture registered its buses.
    return min(candidates, key=lambda pe: pe.name)


def expand_communications(
    graph: ConditionalProcessGraph,
    mapping: Mapping,
    architecture: Optional[Architecture] = None,
    bus_assignment: Optional[TMapping[MessageKey, BusLike]] = None,
    bus_policy: str = "least_index",
) -> ExpandedGraph:
    """Insert a communication process on every inter-processor edge.

    Parameters
    ----------
    graph:
        The process-level conditional process graph (no communication
        processes yet; edges carry their ``communication_time``).
    mapping:
        Mapping of every ordinary process to a processor.
    architecture:
        Defaults to ``mapping.architecture``.
    bus_assignment:
        Optional explicit bus choice per message, keyed by stable message id
        (``"src->dst"``) or by the raw ``(src, dst)`` pair; values may be
        :class:`ProcessingElement` instances or bus names.  Every entry whose
        edge actually crosses processors is validated against the
        architecture: the bus must exist, be a bus, and connect both endpoint
        processors (:class:`~repro.architecture.MappingError` otherwise).
        Entries for messages whose endpoints share a processor are ignored —
        they are dormant, not invalid, so assignments survive remapping.
    bus_policy:
        Fallback policy for unpinned messages: ``"least_index"`` (default,
        the lexicographically least connecting bus) or ``"least_loaded"``
        (the connecting bus with the least communication load accumulated so
        far during this expansion, bus name as tie-break).

    Returns
    -------
    ExpandedGraph
        The expanded graph, the extended mapping and per-communication info.
    """
    for process in graph.processes:
        if process.is_ordinary and process.name not in mapping:
            raise MappingError(f"ordinary process {process.name!r} is not mapped")
    structure = expansion_structure(graph, crossing_edges(graph, mapping))
    return assign_buses(
        structure,
        mapping,
        architecture or mapping.architecture,
        bus_assignment=bus_assignment,
        bus_policy=bus_policy,
    )


def is_expanded(graph: ConditionalProcessGraph, mapping: Mapping) -> bool:
    """True when no edge of the graph crosses processors without a communication process."""
    for edge in graph.edges:
        src_process = graph[edge.src]
        dst_process = graph[edge.dst]
        if src_process.is_dummy or dst_process.is_dummy:
            continue
        if src_process.is_communication or dst_process.is_communication:
            continue
        if edge.src in mapping and edge.dst in mapping:
            if mapping[edge.src] != mapping[edge.dst]:
                return False
    return True
