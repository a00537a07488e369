"""Conjunctions of condition literals.

A :class:`Conjunction` is a set of literals interpreted as their logical AND.
It is the shape used throughout the paper for path labels (``D∧C∧!K``),
schedule-table column headers and the "conditions known at a given moment on a
processing element".  The empty conjunction is ``true``.

Internally a conjunction is a pair of integer bitmasks over the process-wide
:data:`~repro.conditions.universe.DEFAULT_UNIVERSE`: ``pos_mask`` holds one
bit per positive literal and ``neg_mask`` one bit per negated literal.  The
operations the schedule merger hammers — :meth:`is_mutually_exclusive_with`,
:meth:`implies`, :meth:`conjoin`, :meth:`is_compatible_with` — are therefore
one or two integer operations; literal objects are only materialised when a
caller actually iterates or prints the conjunction.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional

from .literals import Condition, Literal
from .universe import DEFAULT_UNIVERSE


class ContradictionError(ValueError):
    """Raised when a conjunction would contain a literal and its negation."""


class Conjunction:
    """An immutable conjunction (AND) of literals over distinct conditions.

    The conjunction with no literals represents ``true``.  A conjunction never
    contains two literals over the same condition: attempting to build one
    raises :class:`ContradictionError` (use :meth:`try_and` for a non-raising
    variant).
    """

    __slots__ = ("_pos", "_neg", "_hash", "_literals", "_conditions")

    def __init__(self, literals: Iterable[Literal] = ()) -> None:
        bit_of = DEFAULT_UNIVERSE.bit_of
        pos = neg = 0
        for literal in literals:
            bit = bit_of(literal.condition)
            if bit & (neg if literal.value else pos):
                raise ContradictionError(
                    f"contradictory literals {literal.negate()} and {literal}"
                )
            if literal.value:
                pos |= bit
            else:
                neg |= bit
        self._pos = pos
        self._neg = neg
        self._hash = hash((pos, neg))
        self._literals: Optional[FrozenSet[Literal]] = None
        self._conditions: Optional[FrozenSet[Condition]] = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def true(cls) -> "Conjunction":
        """The neutral conjunction (no literals), i.e. logical ``true``."""
        return _TRUE

    @classmethod
    def of(cls, *literals: Literal) -> "Conjunction":
        """Build a conjunction from positional literals."""
        return cls(literals)

    @classmethod
    def from_assignment(cls, assignment: Mapping[Condition, bool]) -> "Conjunction":
        """Build the conjunction equivalent to a (partial) condition assignment.

        The one conversion from a ``Condition -> bool`` dict: every query
        below takes conjunctions.
        """
        pos, neg = DEFAULT_UNIVERSE.masks_of(assignment)
        return cls.from_masks(pos, neg)

    @classmethod
    def from_masks(cls, pos_mask: int, neg_mask: int) -> "Conjunction":
        """Build a conjunction directly from its bitmask pair (O(1)).

        The masks must be disjoint; a shared bit would denote ``C & !C``.
        """
        if pos_mask & neg_mask:
            literal = DEFAULT_UNIVERSE.conditions_in(pos_mask & neg_mask)[0].true()
            raise ContradictionError(
                f"contradictory literals {literal} and {literal.negate()}"
            )
        self = object.__new__(cls)
        self._pos = pos_mask
        self._neg = neg_mask
        self._hash = hash((pos_mask, neg_mask))
        self._literals = None
        self._conditions = None
        return self

    # -- basic protocol ----------------------------------------------------

    @property
    def pos_mask(self) -> int:
        """Bitmask of the positively occurring conditions."""
        return self._pos

    @property
    def neg_mask(self) -> int:
        """Bitmask of the negated conditions."""
        return self._neg

    @property
    def literals(self) -> FrozenSet[Literal]:
        if self._literals is None:
            self._literals = frozenset(
                tuple(
                    condition.true()
                    for condition in DEFAULT_UNIVERSE.conditions_in(self._pos)
                )
                + tuple(
                    condition.false()
                    for condition in DEFAULT_UNIVERSE.conditions_in(self._neg)
                )
            )
        return self._literals

    @property
    def conditions(self) -> FrozenSet[Condition]:
        if self._conditions is None:
            self._conditions = frozenset(
                DEFAULT_UNIVERSE.conditions_in(self._pos | self._neg)
            )
        return self._conditions

    def __iter__(self) -> Iterator[Literal]:
        return iter(sorted(self.literals))

    def __len__(self) -> int:
        return (self._pos | self._neg).bit_count()

    def __contains__(self, literal: Literal) -> bool:
        bit = DEFAULT_UNIVERSE.bit_of(literal.condition)
        return bool(bit & (self._pos if literal.value else self._neg))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Conjunction):
            return NotImplemented
        return self._pos == other._pos and self._neg == other._neg

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not (self._pos | self._neg):
            return "true"
        return " & ".join(str(lit) for lit in sorted(self.literals))

    def __repr__(self) -> str:
        return f"Conjunction({str(self)!r})"

    def is_true(self) -> bool:
        """True when this is the empty conjunction (logical ``true``)."""
        return not (self._pos | self._neg)

    # -- algebra -----------------------------------------------------------

    def value_of(self, condition: Condition) -> Optional[bool]:
        """Return the polarity this conjunction fixes for ``condition``, or None.

        O(1): a single interning lookup plus two mask probes.
        """
        bit = DEFAULT_UNIVERSE.bit_of(condition)
        if bit & self._pos:
            return True
        if bit & self._neg:
            return False
        return None

    def conjoin(self, other: "Conjunction") -> "Conjunction":
        """Return the AND of the two conjunctions.

        Raises :class:`ContradictionError` when the result is unsatisfiable.
        """
        conflict = (self._pos & other._neg) | (self._neg & other._pos)
        if conflict:
            bit = conflict & -conflict
            condition = DEFAULT_UNIVERSE.conditions_in(bit)[0]
            existing = Literal(condition, bool(self._pos & bit))
            raise ContradictionError(
                f"contradictory literals {existing} and {existing.negate()}"
            )
        return Conjunction.from_masks(self._pos | other._pos, self._neg | other._neg)

    def try_and(self, other: "Conjunction") -> Optional["Conjunction"]:
        """Return the AND of the two conjunctions, or None when contradictory."""
        if (self._pos & other._neg) | (self._neg & other._pos):
            return None
        return Conjunction.from_masks(self._pos | other._pos, self._neg | other._neg)

    def and_literal(self, literal: Literal) -> "Conjunction":
        """Return this conjunction extended with one more literal."""
        bit = DEFAULT_UNIVERSE.bit_of(literal.condition)
        if bit & (self._neg if literal.value else self._pos):
            raise ContradictionError(
                f"contradictory literals {literal.negate()} and {literal}"
            )
        if literal.value:
            return Conjunction.from_masks(self._pos | bit, self._neg)
        return Conjunction.from_masks(self._pos, self._neg | bit)

    def is_compatible_with(self, other: "Conjunction") -> bool:
        """True when the two conjunctions can be simultaneously true."""
        return not ((self._pos & other._neg) | (self._neg & other._pos))

    def is_mutually_exclusive_with(self, other: "Conjunction") -> bool:
        """True when ``self AND other`` is unsatisfiable (requirement 2 of the paper)."""
        return bool((self._pos & other._neg) | (self._neg & other._pos))

    def implies(self, other: "Conjunction") -> bool:
        """True when every assignment satisfying ``self`` also satisfies ``other``.

        For conjunctions this reduces to ``other``'s literals being a subset of
        ``self``'s literals — two submask probes.
        """
        return not (other._pos & ~self._pos) and not (other._neg & ~self._neg)

    def without(self, conditions: Iterable[Condition]) -> "Conjunction":
        """Return the conjunction with literals over the given conditions removed."""
        removed = DEFAULT_UNIVERSE.mask_of(conditions)
        return Conjunction.from_masks(self._pos & ~removed, self._neg & ~removed)

    # -- conversion --------------------------------------------------------

    def as_assignment(self) -> Dict[Condition, bool]:
        """Return the (partial) assignment equivalent to this conjunction."""
        return {lit.condition: lit.value for lit in self}


_TRUE = Conjunction(())
