"""Enumeration of the alternative paths (tracks) through a conditional process graph.

For a given execution only a subset of the processes is activated; which
subset depends on the condition values computed at run time.  Every complete
resolution of the *relevant* conditions (those whose disjunction process is
itself activated) selects one alternative path.  Each alternative path ``k``
has a label ``L_k`` (the conjunction of the resolved condition values) and an
associated subgraph ``G_k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..conditions import (
    Assignment,
    BoolExpr,
    Condition,
    Conjunction,
    masks_from_assignment,
)
from .cpg import ConditionalProcessGraph

#: A guard as its terms' ``(pos, neg)`` masks; None when always true.
_TermMasks = Optional[Tuple[Tuple[int, int], ...]]


@dataclass(frozen=True)
class AlternativePath:
    """One alternative path through a conditional process graph.

    Attributes
    ----------
    label:
        The conjunction of condition values selecting this path (``L_k``).
    assignment:
        The same information as a condition -> bool mapping.
    active_processes:
        Names of the processes activated on this path, in topological order.
    subgraph:
        The induced conditional process graph ``G_k`` (built lazily by
        :meth:`PathEnumerator.subgraph_of`; stored here when requested).
    """

    label: Conjunction
    assignment: Mapping[Condition, bool] = field(compare=False)
    active_processes: Tuple[str, ...] = ()
    index: int = field(default=0, compare=False)

    def __str__(self) -> str:
        return f"path[{self.label}]"

    def is_consistent_with(self, partial: Mapping[Condition, bool]) -> bool:
        """True when this path remains reachable given the partially known conditions."""
        return self.label.consistent_with_partial(partial)

    def includes(self, process_name: str) -> bool:
        return process_name in self.active_processes


class PathEnumerator:
    """Enumerates the alternative paths of a conditional process graph."""

    def __init__(self, graph: ConditionalProcessGraph) -> None:
        self._graph = graph
        self._guards = graph.guards()
        self._disjunctions = graph.disjunction_processes()
        self._paths: Optional[Tuple[AlternativePath, ...]] = None
        self._index: Optional[
            Dict[FrozenSet[Tuple[Condition, bool]], AlternativePath]
        ] = None
        self._label_condition_sets: Tuple[FrozenSet[Condition], ...] = ()
        self._topological_order = graph.topological_order()
        self._active_cache: Dict[Tuple[int, int], Tuple[str, ...]] = {}
        # Flattened guard table in topological order: ``None`` marks an
        # always-active process, otherwise the guard's term masks.  Built
        # lazily on the first activity query.
        self._guard_table: Optional[List[Tuple[str, _TermMasks]]] = None

    @property
    def graph(self) -> ConditionalProcessGraph:
        return self._graph

    def paths(self) -> Tuple[AlternativePath, ...]:
        """Return all alternative paths (computed once; the tuple is cached).

        Returning the cached tuple (rather than a fresh list copy) makes the
        call free for the schedulers, which re-query the enumeration often.
        """
        if self._paths is None:
            self._paths = tuple(self._enumerate())
        return self._paths

    def count(self) -> int:
        """The number ``N_alt`` of alternative paths."""
        return len(self.paths())

    def path_for(self, assignment: Mapping[Condition, bool]) -> AlternativePath:
        """Return the alternative path selected by a complete condition assignment.

        Lookups are indexed: labels are keyed on their frozen condition-value
        pairs, so resolving an assignment costs one dict probe per distinct
        label condition set (of which a graph has very few) instead of a scan
        over all ``N_alt`` paths.
        """
        if self._index is None:
            index: Dict[FrozenSet[Tuple[Condition, bool]], AlternativePath] = {}
            condition_sets: List[FrozenSet[Condition]] = []
            for path in self.paths():
                items = frozenset(path.label.as_assignment().items())
                index.setdefault(items, path)
                conditions = path.label.conditions
                if conditions not in condition_sets:
                    condition_sets.append(conditions)
            self._index = index
            self._label_condition_sets = tuple(condition_sets)
        for conditions in self._label_condition_sets:
            if not all(condition in assignment for condition in conditions):
                continue
            key = frozenset(
                (condition, bool(assignment[condition])) for condition in conditions
            )
            path = self._index.get(key)
            if path is not None:
                return path
        raise KeyError(f"no alternative path matches assignment {assignment}")

    def reachable_paths(
        self, partial: Mapping[Condition, bool]
    ) -> List[AlternativePath]:
        """Paths still reachable when only some conditions are known."""
        return [path for path in self.paths() if path.is_consistent_with(partial)]

    def subgraph_of(self, path: AlternativePath) -> ConditionalProcessGraph:
        """Build the induced subgraph ``G_k`` of an alternative path."""
        sub = self._graph.subgraph(path.active_processes, name=f"{self._graph.name}[{path.label}]")
        return sub

    # -- enumeration ---------------------------------------------------------

    def _relevant_unassigned_conditions(
        self, assignment: Assignment
    ) -> List[Condition]:
        """Conditions computed by disjunction processes active under ``assignment``."""
        relevant = []
        for name, condition in sorted(self._disjunctions.items()):
            if condition in assignment:
                continue
            guard = self._guards[name]
            if guard.is_true() or guard.satisfied_by_partial(assignment):
                relevant.append(condition)
        return relevant

    def _active_under(self, assignment: Assignment) -> Tuple[str, ...]:
        """Active process names under a complete assignment of relevant conditions.

        Guard evaluation goes through the bitmask fast path: the assignment is
        folded to a ``(pos, neg)`` mask pair once and every guard term check is
        then two integer probes.  Results are memoized by mask pair, since the
        depth-first enumeration revisits identical leaf assignments when
        labels share prefixes.
        """
        key = masks_from_assignment(assignment)
        cached = self._active_cache.get(key)
        if cached is None:
            if self._guard_table is None:
                self._guard_table = [
                    (name, _term_masks(self._guards[name]))
                    for name in self._topological_order
                ]
            pos, neg = key
            cached = tuple(
                name
                for name, terms in self._guard_table
                if _holds(terms, ~pos, ~neg)
            )
            self._active_cache[key] = cached
        return cached

    def _enumerate(self) -> Iterator[AlternativePath]:
        counter = {"index": 0}

        def recurse(assignment: Assignment) -> Iterator[AlternativePath]:
            pending = self._relevant_unassigned_conditions(assignment)
            if not pending:
                label = Conjunction.from_assignment(assignment)
                active = self._active_under(assignment)
                path = AlternativePath(
                    label=label,
                    assignment=dict(assignment),
                    active_processes=active,
                    index=counter["index"],
                )
                counter["index"] += 1
                yield path
                return
            condition = pending[0]
            for value in (True, False):
                extended = dict(assignment)
                extended[condition] = value
                yield from recurse(extended)

        yield from recurse({})


def _term_masks(guard: BoolExpr) -> _TermMasks:
    """Flatten a guard for :func:`_holds`."""
    if guard.is_true():
        return None
    return tuple((term.pos_mask, term.neg_mask) for term in guard.terms)


def _holds(terms: _TermMasks, not_pos: int, not_neg: int) -> bool:
    """Whether a :func:`_term_masks` guard holds under an assignment's masks.

    ``not_pos``/``not_neg`` are the complemented masks of the assignment; a
    term holds when all its literals are assigned and agree.
    """
    return terms is None or any(
        not (term_pos & not_pos) and not (term_neg & not_neg)
        for term_pos, term_neg in terms
    )


def expanded_paths(
    base_paths: Sequence[AlternativePath],
    graph: ConditionalProcessGraph,
    inserted: Iterable[str],
) -> Tuple[AlternativePath, ...]:
    """The alternative paths of an expanded graph, built from its base graph's.

    ``graph`` is a base graph with the ``inserted`` processes placed on
    some of its edges and guards inherited from the base graph
    (:meth:`~repro.graph.cpg.ConditionalProcessGraph.inherit_guards`);
    ``base_paths`` is the base graph's enumeration.  Inserting a process on
    an edge adds no disjunction process and changes no existing guard, so
    the labels, assignments and indices carry over in the same order, and
    each path's active set gains the inserted processes whose guard holds
    under its label, in ``graph``'s topological order.  The result equals
    ``PathEnumerator(graph).paths()`` without re-walking the decision tree.
    """
    guards = graph.guards()
    inserted_terms = {name: _term_masks(guards[name]) for name in inserted}
    order = graph.topological_order()
    paths = []
    for path in base_paths:
        base_active = set(path.active_processes)
        pos, neg = masks_from_assignment(path.assignment)
        not_pos, not_neg = ~pos, ~neg
        active = tuple(
            name
            for name in order
            if name in base_active
            or (
                name in inserted_terms
                and _holds(inserted_terms[name], not_pos, not_neg)
            )
        )
        paths.append(AlternativePath(path.label, path.assignment, active, path.index))
    return tuple(paths)


def enumerate_paths(graph: ConditionalProcessGraph) -> Tuple[AlternativePath, ...]:
    """Convenience wrapper returning all alternative paths of a graph."""
    return PathEnumerator(graph).paths()


def count_paths(graph: ConditionalProcessGraph) -> int:
    """Convenience wrapper returning the number of alternative paths."""
    return PathEnumerator(graph).count()
