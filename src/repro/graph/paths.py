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
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from ..conditions import Condition, Conjunction
from .cpg import ConditionalProcessGraph


@dataclass(frozen=True)
class AlternativePath:
    """One alternative path through a conditional process graph.

    Attributes
    ----------
    label:
        The conjunction of condition values selecting this path (``L_k``).
    active_processes:
        Names of the processes activated on this path, in topological order.
    index:
        The path's position in the enumeration order.
    """

    label: Conjunction
    active_processes: Tuple[str, ...] = ()
    index: int = field(default=0, compare=False)

    def __str__(self) -> str:
        return f"path[{self.label}]"

    @property
    def assignment(self) -> Dict[Condition, bool]:
        """The label as a ``Condition -> bool`` dict, derived on each read."""
        return self.label.as_assignment()

    def is_consistent_with(self, known: Conjunction) -> bool:
        """True when this path remains reachable given the known condition values."""
        return self.label.is_compatible_with(known)

    def includes(self, process_name: str) -> bool:
        return process_name in self.active_processes


class PathEnumerator:
    """Enumerates the alternative paths of a conditional process graph."""

    def __init__(self, graph: ConditionalProcessGraph) -> None:
        self._graph = graph
        self._guards = graph.guards()
        self._disjunctions = sorted(graph.disjunction_processes().items())
        self._paths: Optional[Tuple[AlternativePath, ...]] = None
        # (distinct label condition masks, label masks -> path), built on the
        # first :meth:`path_for`.
        self._index: Optional[
            Tuple[Tuple[int, ...], Dict[Tuple[int, int], AlternativePath]]
        ] = None
        self._topological_order = graph.topological_order()

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

    def path_for(self, known: Conjunction) -> AlternativePath:
        """Return the alternative path selected by the given condition values.

        ``known`` must fix every condition of the path's label.  Lookups are
        indexed by label masks: one dict probe per distinct label condition
        set (of which a graph has very few) instead of a scan over all
        ``N_alt`` paths.
        """
        if self._index is None:
            by_label: Dict[Tuple[int, int], AlternativePath] = {}
            for path in self.paths():
                by_label.setdefault((path.label.pos_mask, path.label.neg_mask), path)
            condition_masks = tuple(dict.fromkeys(pos | neg for pos, neg in by_label))
            self._index = (condition_masks, by_label)
        condition_masks, by_label = self._index
        pos, neg = known.pos_mask, known.neg_mask
        for mask in condition_masks:
            if mask & ~(pos | neg):
                continue
            path = by_label.get((pos & mask, neg & mask))
            if path is not None:
                return path
        raise KeyError(f"no alternative path matches {known}")

    # -- enumeration ---------------------------------------------------------

    def _next_condition(self, label: Conjunction) -> Optional[Condition]:
        """The first unresolved condition whose disjunction process ``label`` activates."""
        pos, neg = label.pos_mask, label.neg_mask
        for name, condition in self._disjunctions:
            if label.value_of(condition) is not None:
                continue
            guard = self._guards[name]
            if guard.is_true() or guard.satisfied_by_masks(pos, neg):
                return condition
        return None

    def _active_under(self, label: Conjunction) -> Tuple[str, ...]:
        """Active process names under a label resolving every relevant condition."""
        pos, neg = label.pos_mask, label.neg_mask
        guards = self._guards
        return tuple(
            name
            for name in self._topological_order
            if guards[name].is_true() or guards[name].satisfied_by_masks(pos, neg)
        )

    def _labels(self, label: Conjunction) -> Iterator[Conjunction]:
        """Depth-first over the decision tree: the leaf labels below ``label``."""
        condition = self._next_condition(label)
        if condition is None:
            yield label
            return
        for value in (True, False):
            yield from self._labels(label.and_literal(condition.literal(value)))

    def _enumerate(self) -> Iterator[AlternativePath]:
        for index, label in enumerate(self._labels(Conjunction.true())):
            yield AlternativePath(label, self._active_under(label), index)


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
    the labels and indices carry over in the same order, and
    each path's active set gains the inserted processes whose guard holds
    under its label, in ``graph``'s topological order.  The result equals
    ``PathEnumerator(graph).paths()`` without re-walking the decision tree.
    """
    guards = graph.guards()
    inserted_guards = {name: guards[name] for name in inserted}
    order = graph.topological_order()
    paths = []
    for path in base_paths:
        base_active = set(path.active_processes)
        pos, neg = path.label.pos_mask, path.label.neg_mask
        active = tuple(
            name
            for name in order
            if name in base_active
            or (
                name in inserted_guards
                and (
                    inserted_guards[name].is_true()
                    or inserted_guards[name].satisfied_by_masks(pos, neg)
                )
            )
        )
        paths.append(AlternativePath(path.label, active, path.index))
    return tuple(paths)


def enumerate_paths(graph: ConditionalProcessGraph) -> Tuple[AlternativePath, ...]:
    """Convenience wrapper returning all alternative paths of a graph."""
    return PathEnumerator(graph).paths()


def count_paths(graph: ConditionalProcessGraph) -> int:
    """Convenience wrapper returning the number of alternative paths."""
    return PathEnumerator(graph).count()
