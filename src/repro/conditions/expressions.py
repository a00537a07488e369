"""Sum-of-products boolean expressions over condition variables.

Guards of processes in a conditional process graph are, in general, boolean
expressions: a process below a disjunction node has a conjunctive guard such
as ``D & K``, while a conjunction process that re-joins alternative paths has
a disjunctive guard (the OR of the guards of its alternative predecessors,
which usually simplifies back to the guard that held before the split).

:class:`BoolExpr` represents such expressions as a set of terms (sum of
products), each the ``(pos, neg)`` mask pair of a
:class:`~repro.conditions.conjunction.Conjunction`.  Every semantic question
is answered from those masks: implication term by term (a term of the other
side that is a submask of the term settles it, otherwise the conditions the
term leaves free are split), mutual exclusion by term pairs, and
simplification on a truth table indexed by integer minterms.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Tuple

from .conjunction import Conjunction
from .literals import Condition, Literal
from .universe import DEFAULT_UNIVERSE

#: A term as its conjunction's ``(pos_mask, neg_mask)``.
_Term = Tuple[int, int]

#: :meth:`BoolExpr.simplified` leaves expressions over more conditions than
#: this unchanged, which bounds its truth table at 2**16 rows.
_MAX_SIMPLIFY_CONDITIONS = 16


class BoolExpr:
    """A boolean expression in sum-of-products form.

    The empty sum is ``false``; a sum containing the empty conjunction is
    ``true``.  Instances are immutable.  Terms are kept syntactically minimal
    (contradictory products dropped, absorbed terms removed) but not
    canonical, so ``==`` compares semantically and a ``BoolExpr`` cannot be
    hashed: a hash that agreed with ``==`` would need the truth table.
    """

    __slots__ = ("_terms", "_conditions", "_is_true")

    def __init__(self, terms: Iterable[Conjunction] = ()) -> None:
        self._terms: FrozenSet[_Term] = _minimise(
            (term.pos_mask, term.neg_mask) for term in terms
        )
        self._conditions = None
        self._is_true = None

    @classmethod
    def _of(cls, terms: FrozenSet[_Term]) -> "BoolExpr":
        """An expression over terms that are already minimal."""
        self = object.__new__(cls)
        self._terms = terms
        self._conditions = None
        self._is_true = None
        return self

    # -- constructors -----------------------------------------------------

    @classmethod
    def true(cls) -> "BoolExpr":
        return _TRUE_EXPR

    @classmethod
    def false(cls) -> "BoolExpr":
        return _FALSE_EXPR

    @classmethod
    def from_conjunction(cls, conjunction: Conjunction) -> "BoolExpr":
        return cls._of(frozenset(((conjunction.pos_mask, conjunction.neg_mask),)))

    @classmethod
    def from_literal(cls, literal: Literal) -> "BoolExpr":
        return cls.from_conjunction(Conjunction((literal,)))

    # -- basic protocol ----------------------------------------------------

    @property
    def terms(self) -> FrozenSet[Conjunction]:
        return frozenset(Conjunction.from_masks(pos, neg) for pos, neg in self._terms)

    @property
    def conditions(self) -> FrozenSet[Condition]:
        if self._conditions is None:
            mask = 0
            for pos, neg in self._terms:
                mask |= pos | neg
            self._conditions = frozenset(DEFAULT_UNIVERSE.conditions_in(mask))
        return self._conditions

    def __iter__(self) -> Iterator[Conjunction]:
        return iter(sorted(self.terms, key=str))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoolExpr):
            return NotImplemented
        return self.implies(other) and other.implies(self)

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        if not self._terms:
            return "false"
        if self.is_true():
            return "true"
        return " | ".join(
            f"({term})" if len(term) > 1 else str(term) for term in self
        )

    def __repr__(self) -> str:
        return f"BoolExpr({str(self)!r})"

    def is_false(self) -> bool:
        return not self._terms

    def is_true(self) -> bool:
        """True when the expression holds under every assignment (a tautology).

        The verdict is cached: guards are queried once per dispatch decision
        by the list scheduler.
        """
        if self._is_true is None:
            self._is_true = _TRUE_EXPR.implies(self)
        return self._is_true

    # -- algebra -----------------------------------------------------------

    def or_(self, other: "BoolExpr") -> "BoolExpr":
        return BoolExpr._of(_minimise(self._terms | other._terms))

    def and_(self, other: "BoolExpr") -> "BoolExpr":
        return BoolExpr._of(
            _minimise(
                (pos | other_pos, neg | other_neg)
                for pos, neg in self._terms
                for other_pos, other_neg in other._terms
                if not (pos & other_neg or neg & other_pos)
            )
        )

    def __or__(self, other: "BoolExpr") -> "BoolExpr":
        return self.or_(other)

    def __and__(self, other: "BoolExpr") -> "BoolExpr":
        return self.and_(other)

    # -- semantics ----------------------------------------------------------

    def satisfied_by_masks(self, pos_mask: int, neg_mask: int) -> bool:
        """True when some term's literals are all among the given masks'."""
        return any(
            not (pos & ~pos_mask) and not (neg & ~neg_mask) for pos, neg in self._terms
        )

    def is_satisfiable(self) -> bool:
        return bool(self._terms)

    def implies(self, other: "BoolExpr") -> bool:
        """True when every assignment satisfying ``self`` satisfies ``other``.

        Decided term by term: a term implies ``other`` when one of
        ``other``'s terms is a submask of it, or else when ``other`` holds
        on both sides of a split on a condition the term leaves free.
        """
        return all(_covers(pos, neg, other._terms) for pos, neg in self._terms)

    def is_mutually_exclusive_with(self, other: "BoolExpr") -> bool:
        """True when ``self AND other`` is unsatisfiable: every term pair clashes."""
        return all(
            pos & other_neg or neg & other_pos
            for pos, neg in self._terms
            for other_pos, other_neg in other._terms
        )

    def simplified(self) -> "BoolExpr":
        """Return a semantically equal expression over only the relevant conditions.

        Expressions produced by guard derivation accumulate redundant terms at
        every reconvergence point (``C | !C`` and friends); left alone, the
        conjunction/disjunction products grow multiplicatively along the graph
        and make every later guard query expensive.  This method rebuilds the
        expression from its truth table, an integer whose bit ``m`` is the
        value under minterm ``m`` (bit ``i`` of ``m`` is the ``i``-th condition
        by name): conditions whose value never changes the outcome are
        dropped and the result is the sum of the remaining minterms
        (``true``/``false`` when constant).  A single term is already in that
        form and is returned as is, as is an expression over more than
        :data:`_MAX_SIMPLIFY_CONDITIONS` conditions.
        """
        if len(self._terms) < 2:
            return self
        bits = [DEFAULT_UNIVERSE.bit_of(condition) for condition in sorted(self.conditions)]
        if len(bits) > _MAX_SIMPLIFY_CONDITIONS:
            return self
        rows = 1 << len(bits)
        every_row = (1 << rows) - 1
        # Condition i is true in the rows whose bit i is set: blocks of
        # 2**i ones after 2**i zeros, repeated.
        columns = [
            every_row // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
            for i in range(len(bits))
        ]
        table = 0
        for pos, neg in self._terms:
            term_rows = every_row
            for bit, column in zip(bits, columns):
                if pos & bit:
                    term_rows &= column
                elif neg & bit:
                    term_rows &= ~column
            table |= term_rows
        if not table:
            return _FALSE_EXPR
        if table == every_row:
            return _TRUE_EXPR
        # Condition i matters when the rows with it true, moved onto their
        # partners with it false, differ from the rows with it false.
        relevant = [
            i
            for i, column in enumerate(columns)
            if (table & column) >> (1 << i) != table & ~column
        ]
        truth = f"{table:0{rows}b}"[::-1]
        terms = set()
        for values in range(1 << len(relevant)):
            row = pos = neg = 0
            for j, i in enumerate(relevant):
                if values >> j & 1:
                    row |= 1 << i
                    pos |= bits[i]
                else:
                    neg |= bits[i]
            if truth[row] == "1":
                terms.add((pos, neg))
        # Distinct minterms over one set of conditions never absorb each other.
        return BoolExpr._of(frozenset(terms))


def _covers(pos: int, neg: int, terms: Iterable[_Term]) -> bool:
    """Whether every assignment extending ``(pos, neg)`` satisfies some term."""
    residual = []
    for term_pos, term_neg in terms:
        if term_pos & neg or term_neg & pos:
            continue
        free_pos = term_pos & ~pos
        free_neg = term_neg & ~neg
        if not (free_pos | free_neg):
            return True
        residual.append((free_pos, free_neg))
    if not residual:
        return False
    free = residual[0][0] | residual[0][1]
    bit = free & -free
    return _covers(pos | bit, neg, residual) and _covers(pos, neg | bit, residual)


def _minimise(terms: Iterable[_Term]) -> FrozenSet[_Term]:
    """Drop duplicate and absorbed terms (``A`` absorbs ``A & B``)."""
    unique = set(terms)
    if (0, 0) in unique:
        return _TRUE_TERMS
    return frozenset(
        (pos, neg)
        for pos, neg in unique
        if not any(
            (other_pos, other_neg) != (pos, neg)
            and not (other_pos & ~pos)
            and not (other_neg & ~neg)
            for other_pos, other_neg in unique
        )
    )


_TRUE_TERMS: FrozenSet[_Term] = frozenset(((0, 0),))
_TRUE_EXPR = BoolExpr._of(_TRUE_TERMS)
_FALSE_EXPR = BoolExpr._of(frozenset())
