"""The conditional process graph (CPG) container.

A :class:`ConditionalProcessGraph` is the abstract system representation of
the paper: a directed, acyclic, polar graph whose nodes are processes and
whose edges are either simple (dataflow) or conditional (dataflow guarded by a
condition literal).  The class keeps its own adjacency and exposes a
domain-level API: guards, disjunction/conjunction processes, alternative-path
queries and structural validation.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..conditions import (
    BoolExpr,
    Condition,
    Conjunction,
    Literal,
    masks_from_assignment,
)
from .edges import Edge
from .process import Process, ProcessKind


class GraphStructureError(ValueError):
    """Raised when a conditional process graph violates the model's structural rules."""


def _edge_guard(guards: Mapping[str, BoolExpr], edge: Edge) -> BoolExpr:
    """The guard of an edge: ``guard(src) AND condition``, not simplified."""
    guard = guards[edge.src]
    if edge.is_conditional:
        guard = guard.and_(BoolExpr.from_literal(edge.condition))
    return guard


def _any_exclusive_pair(edge_guards: List[BoolExpr]) -> bool:
    """True when two of a node's input guards are mutually exclusive."""
    return any(
        edge_guards[i].is_mutually_exclusive_with(edge_guards[j])
        for i in range(len(edge_guards))
        for j in range(i + 1, len(edge_guards))
    )


def _node_guard(edge_guards: List[BoolExpr], explicit_conjunction: bool) -> BoolExpr:
    """A node's guard from the guards of its incoming edges.

    The source (no inputs) is ``true``.  A conjunction node — explicitly
    flagged, or with two mutually exclusive input guards — takes the OR of
    its input guards, any other node the AND.
    """
    if not edge_guards:
        return BoolExpr.true()
    if explicit_conjunction or _any_exclusive_pair(edge_guards):
        combined = BoolExpr.false()
        for guard in edge_guards:
            combined = combined.or_(guard)
    else:
        combined = BoolExpr.true()
        for guard in edge_guards:
            combined = combined.and_(guard)
    # Keep guards in their minimal form: reconvergence points would otherwise
    # accumulate tautological terms (C | !C) and every later guard combination
    # and query would grow multiplicatively.
    return combined.simplified()


class ConditionalProcessGraph:
    """A directed, acyclic, polar graph of processes with conditional edges."""

    def __init__(self, name: str = "cpg") -> None:
        self.name = name
        self._processes: Dict[str, Process] = {}
        self._edges: Dict[Tuple[str, str], Edge] = {}
        # Adjacency, in edge insertion order.
        self._successors: Dict[str, List[str]] = {}
        self._in_edges: Dict[str, List[Edge]] = {}
        self._guard_cache: Optional[Dict[str, BoolExpr]] = None
        # (base graph, inserted process -> the edge it splits): where the
        # guards come from when this graph was built by inserting processes.
        self._guard_source: Optional[
            Tuple["ConditionalProcessGraph", Mapping[str, Tuple[str, str]]]
        ] = None
        self._edge_guard_cache: Dict[Tuple[str, str], BoolExpr] = {}
        self._topo_cache: Optional[List[str]] = None
        # (process -> the condition it computes, condition -> that process),
        # published in one assignment so that threads sharing the graph never
        # see one map without the other.
        self._disjunction_cache: Optional[
            Tuple[Dict[str, Condition], Dict[Condition, str]]
        ] = None

    # -- construction ---------------------------------------------------------

    def add_process(self, process: Process) -> Process:
        """Add a process node; returns the process for chaining."""
        if process.name in self._processes:
            raise GraphStructureError(f"duplicate process name {process.name!r}")
        if process.is_source and self._find_kind(ProcessKind.SOURCE) is not None:
            raise GraphStructureError("the graph already has a source process")
        if process.is_sink and self._find_kind(ProcessKind.SINK) is not None:
            raise GraphStructureError("the graph already has a sink process")
        self._processes[process.name] = process
        self._successors[process.name] = []
        self._in_edges[process.name] = []
        self._invalidate_caches()
        return process

    def add_edge(self, edge: Edge) -> Edge:
        """Add a (simple or conditional) edge; endpoints must already exist."""
        for endpoint in (edge.src, edge.dst):
            if endpoint not in self._processes:
                raise GraphStructureError(f"unknown process {endpoint!r} in edge {edge}")
        if (edge.src, edge.dst) in self._edges:
            raise GraphStructureError(f"duplicate edge {edge.src}->{edge.dst}")
        self._edges[(edge.src, edge.dst)] = edge
        self._successors[edge.src].append(edge.dst)
        self._in_edges[edge.dst].append(edge)
        self._invalidate_caches()
        return edge

    def connect(
        self,
        src: str,
        dst: str,
        condition: Optional[Literal] = None,
        communication_time: float = 0.0,
    ) -> Edge:
        """Convenience wrapper to add an edge by process names."""
        return self.add_edge(Edge(src, dst, condition, communication_time))

    def _invalidate_caches(self) -> None:
        self._guard_cache = None
        self._guard_source = None
        self._edge_guard_cache.clear()
        self._topo_cache = None
        self._disjunction_cache = None

    def _find_kind(self, kind: ProcessKind) -> Optional[Process]:
        for process in self._processes.values():
            if process.kind is kind:
                return process
        return None

    # -- node / edge access -----------------------------------------------------

    @property
    def processes(self) -> Tuple[Process, ...]:
        return tuple(self._processes.values())

    @property
    def process_names(self) -> Tuple[str, ...]:
        return tuple(self._processes)

    @property
    def ordinary_processes(self) -> Tuple[Process, ...]:
        return tuple(p for p in self._processes.values() if p.is_ordinary)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(self._edges.values())

    @property
    def conditional_edges(self) -> Tuple[Edge, ...]:
        return tuple(e for e in self._edges.values() if e.is_conditional)

    def __contains__(self, name: str) -> bool:
        return name in self._processes

    def __getitem__(self, name: str) -> Process:
        return self._processes[name]

    def __len__(self) -> int:
        return len(self._processes)

    def __iter__(self) -> Iterator[Process]:
        return iter(self._processes.values())

    def get_edge(self, src: str, dst: str) -> Edge:
        return self._edges[(src, dst)]

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edges

    @property
    def source(self) -> Process:
        process = self._find_kind(ProcessKind.SOURCE)
        if process is None:
            raise GraphStructureError("the graph has no source process")
        return process

    @property
    def sink(self) -> Process:
        process = self._find_kind(ProcessKind.SINK)
        if process is None:
            raise GraphStructureError("the graph has no sink process")
        return process

    def predecessors(self, name: str) -> Tuple[str, ...]:
        return tuple(edge.src for edge in self._in_edges[name])

    def successors(self, name: str) -> Tuple[str, ...]:
        return tuple(self._successors[name])

    def successor_map(self) -> Dict[str, List[str]]:
        """Successor names of every process (the graph's own lists: do not mutate)."""
        return self._successors

    def in_edges(self, name: str) -> Tuple[Edge, ...]:
        return tuple(self._in_edges[name])

    def in_edge_map(self) -> Dict[str, List[Edge]]:
        """Incoming edges of every process (the graph's own lists: do not mutate)."""
        return self._in_edges

    def out_edges(self, name: str) -> Tuple[Edge, ...]:
        return tuple(self._edges[(name, dst)] for dst in self._successors[name])

    def topological_order(self) -> List[str]:
        """Return process names in a deterministic topological order (cached)."""
        return list(self._topological_order_internal())

    def _topological_order_internal(self) -> List[str]:
        """Kahn's algorithm, always emitting the smallest-named ready process.

        The order is fixed by the names alone, not by insertion order: it sets
        active-set order, guard-map key order and the scheduler's tie-breaks.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        waiting = {name: len(edges) for name, edges in self._in_edges.items()}
        ready = [name for name, count in waiting.items() if count == 0]
        heapq.heapify(ready)
        order: List[str] = []
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for successor in self._successors[name]:
                waiting[successor] -= 1
                if waiting[successor] == 0:
                    heapq.heappush(ready, successor)
        if len(order) != len(self._processes):
            raise GraphStructureError("the process graph must be acyclic")
        self._topo_cache = order
        return order

    # -- conditions, disjunction and conjunction processes -----------------------

    @property
    def conditions(self) -> Tuple[Condition, ...]:
        """All condition variables appearing on conditional edges, sorted by name."""
        found = {edge.condition.condition for edge in self.conditional_edges}
        return tuple(sorted(found))

    def disjunction_processes(self) -> Dict[str, Condition]:
        """Map each disjunction process name to the condition it computes.

        A disjunction process is a node with at least one conditional output
        edge.  The model requires all conditional outputs of one node to refer
        to the same condition (one disjunction process computes one condition)
        and each condition to be computed by exactly one process.
        """
        return dict(self._disjunctions()[0])

    def _disjunctions(self) -> Tuple[Dict[str, Condition], Dict[Condition, str]]:
        """The disjunction map and its inverse, derived once per graph."""
        if self._disjunction_cache is not None:
            return self._disjunction_cache
        computes: Dict[str, Condition] = {}
        for name in self._processes:
            conditions = {
                edge.condition.condition
                for edge in self.out_edges(name)
                if edge.is_conditional
            }
            if not conditions:
                continue
            if len(conditions) > 1:
                raise GraphStructureError(
                    f"disjunction process {name!r} drives several conditions: "
                    f"{sorted(str(c) for c in conditions)}"
                )
            computes[name] = next(iter(conditions))
        producers: Dict[Condition, str] = {}
        for name, condition in computes.items():
            if condition in producers:
                raise GraphStructureError(
                    f"condition {condition} is computed by both "
                    f"{producers[condition]!r} and {name!r}"
                )
            producers[condition] = name
        maps = (computes, producers)
        self._disjunction_cache = maps
        return maps

    def disjunction_process_of(self, condition: Condition) -> str:
        """Return the name of the process computing the given condition."""
        name = self._disjunctions()[1].get(condition)
        if name is None:
            raise KeyError(f"no disjunction process computes condition {condition}")
        return name

    def conjunction_processes(self) -> Tuple[str, ...]:
        """Names of conjunction processes (meeting points of alternative paths).

        A node is a conjunction process when it is explicitly flagged or when
        at least two of its incoming edge guards are mutually exclusive.
        """
        guards = self._guards_internal()
        return tuple(
            name
            for name, process in self._processes.items()
            if process.is_conjunction
            or _any_exclusive_pair(
                [_edge_guard(guards, edge) for edge in self.in_edges(name)]
            )
        )

    def is_conjunction_process(self, name: str) -> bool:
        return name in set(self.conjunction_processes())

    # -- guards --------------------------------------------------------------

    def guards(self) -> Dict[str, BoolExpr]:
        """Return the guard ``X_Pi`` of every process.

        The guard of the source is ``true``.  For every other node the guard
        of each incoming edge is ``guard(src) AND edge condition``; a
        conjunction node takes the OR of its incoming edge guards, any other
        node the AND.
        """
        return dict(self._guards_internal())

    def _guards_internal(self) -> Dict[str, BoolExpr]:
        """The cached guard dict itself (callers must not mutate it)."""
        if self._guard_cache is not None:
            return self._guard_cache
        if self._guard_source is not None:
            base, inserted = self._guard_source
            base_guards = base._guards_internal()
            self._guard_cache = {
                name: base.edge_guard(*inserted[name])
                if name in inserted
                else base_guards[name]
                for name in self._topological_order_internal()
            }
            return self._guard_cache
        guards: Dict[str, BoolExpr] = {}
        for name in self.topological_order():
            guards[name] = _node_guard(
                [_edge_guard(guards, edge) for edge in self.in_edges(name)],
                self._processes[name].is_conjunction,
            )
        self._guard_cache = guards
        return guards

    def edge_guard(self, src: str, dst: str) -> BoolExpr:
        """The guard of a process inserted on edge ``src -> dst``.

        Such a process has the edge as its only input, so its guard is the
        edge's guard ``guard(src) AND condition(edge)`` in the minimal form
        guard derivation gives it.  On a simple edge that is ``guard(src)``
        itself (simplifying a derived guard again changes nothing), so only
        conditional edges pay a truth table, once: the result is cached
        until the graph changes.
        """
        guard = self._edge_guard_cache.get((src, dst))
        if guard is None:
            edge = self._edges[(src, dst)]
            guards = self._guards_internal()
            guard = (
                _node_guard([_edge_guard(guards, edge)], False)
                if edge.is_conditional
                else guards[src]
            )
            self._edge_guard_cache[(src, dst)] = guard
        return guard

    def inherit_guards(
        self, base: "ConditionalProcessGraph", inserted: Mapping[str, Tuple[str, str]]
    ) -> None:
        """Take this graph's guards from ``base`` instead of deriving them.

        This graph must be ``base`` with one process inserted on each edge
        of ``inserted`` (process name -> the ``(src, dst)`` edge it splits),
        as communication expansion builds it, and ``base`` must not change
        afterwards.  Every base process keeps its base guard object and
        each inserted process gets its edge's guard (:meth:`edge_guard`),
        keyed in this graph's topological order.  The map is built on the
        first guard query, so an expansion whose guards nobody reads costs
        nothing.  It equals a fresh derivation: an inserted process passes
        its edge's guard on unchanged, and in a graph whose every condition
        is computed by one process that guard is already in minimal form
        (``guard(src)`` never mentions the condition ``src`` computes).
        """
        self._guard_cache = None
        self._guard_source = (base, inserted)

    def guard_of(self, name: str) -> BoolExpr:
        """Return the guard of a single process."""
        return self.guards()[name]

    # -- activation semantics -----------------------------------------------------

    def active_processes(self, assignment: Mapping[Condition, bool]) -> Tuple[str, ...]:
        """Names of processes activated under the given (complete) assignment."""
        guards = self._guards_internal()
        pos, neg = masks_from_assignment(assignment)
        return tuple(
            name
            for name in self._topological_order_internal()
            if guards[name].satisfied_by_masks(pos, neg) or guards[name].is_true()
        )

    def active_predecessors(
        self, name: str, assignment: Mapping[Condition, bool]
    ) -> Tuple[str, ...]:
        """Predecessors that actually deliver an input under the assignment.

        A process waits for every predecessor whose own guard holds and whose
        connecting edge (if conditional) has a satisfied condition.  For
        conjunction processes this selects exactly the predecessors on the
        active alternative path.
        """
        guards = self._guards_internal()
        active = []
        for edge in self.in_edges(name):
            if edge.is_conditional and not edge.condition.evaluate(assignment):
                continue
            src_guard = guards[edge.src]
            if src_guard.is_true() or src_guard.satisfied_by_partial(assignment):
                active.append(edge.src)
        return tuple(active)

    # -- validation ----------------------------------------------------------------

    def validate(self) -> None:
        """Check the structural rules of the conditional process graph model."""
        if self._find_kind(ProcessKind.SOURCE) is None:
            raise GraphStructureError("missing source process")
        if self._find_kind(ProcessKind.SINK) is None:
            raise GraphStructureError("missing sink process")
        # Raises for a cycle.
        self._topological_order_internal()
        source = self.source.name
        sink = self.sink.name
        for name in self._processes:
            if name != source and not self.predecessors(name):
                raise GraphStructureError(
                    f"process {name!r} has no predecessor; the graph must be polar "
                    "(every process a successor of the source)"
                )
            if name != sink and not self.successors(name):
                raise GraphStructureError(
                    f"process {name!r} has no successor; the graph must be polar "
                    "(every process a predecessor of the sink)"
                )
        if self.predecessors(source):
            raise GraphStructureError("the source process must have no predecessors")
        if self.successors(sink):
            raise GraphStructureError("the sink process must have no successors")
        # One condition per disjunction process, one producer per condition.
        self.disjunction_processes()
        # Guard implication rule: an edge into a non-conjunction node Pj requires
        # X_Pj => X_Pi so that Pj never waits for a message that cannot arrive.
        guards = self.guards()
        conjunctions = set(self.conjunction_processes())
        for edge in self._edges.values():
            if edge.dst in conjunctions:
                continue
            src_guard = guards[edge.src]
            dst_guard = guards[edge.dst]
            if not dst_guard.implies(src_guard):
                raise GraphStructureError(
                    f"edge {edge} violates the guard rule: guard({edge.dst}) = "
                    f"{dst_guard} does not imply guard({edge.src}) = {src_guard}"
                )

    def copy(self, name: Optional[str] = None) -> "ConditionalProcessGraph":
        """Return a deep-enough copy (processes and edges are immutable)."""
        clone = ConditionalProcessGraph(name or self.name)
        for process in self._processes.values():
            clone.add_process(process)
        for edge in self._edges.values():
            clone.add_edge(edge)
        return clone

    def subgraph(self, names: Iterable[str], name: str = "") -> "ConditionalProcessGraph":
        """Return the induced subgraph over the given process names."""
        keep = set(names)
        clone = ConditionalProcessGraph(name or f"{self.name}-sub")
        for process in self._processes.values():
            if process.name in keep:
                clone.add_process(process)
        for edge in self._edges.values():
            if edge.src in keep and edge.dst in keep:
                clone.add_edge(edge)
        return clone

    def __repr__(self) -> str:
        return (
            f"ConditionalProcessGraph(name={self.name!r}, processes={len(self)}, "
            f"edges={len(self._edges)}, conditions={len(self.conditions)})"
        )
