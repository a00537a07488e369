"""Condition variables and literals.

In a conditional process graph every *condition* is an independent boolean
value computed by a disjunction process.  A *literal* is a condition together
with a polarity, e.g. ``C`` or ``not C``.  Literals are the atoms from which
guards, path labels and schedule-table column headers are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, order=True)
class Condition:
    """A boolean condition variable, identified by its name.

    The paper assumes conditions are independent of each other; each condition
    is produced by exactly one disjunction process.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("condition name must be a non-empty string")

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Condition({self.name!r})"

    def literal(self, value: bool = True) -> "Literal":
        """Return the literal of this condition with the given polarity."""
        return Literal(self, bool(value))

    def true(self) -> "Literal":
        """Return the positive literal of this condition."""
        return Literal(self, True)

    def false(self) -> "Literal":
        """Return the negative literal of this condition."""
        return Literal(self, False)


@dataclass(frozen=True, order=True)
class Literal:
    """A condition with a polarity (``C`` when ``value`` is True, ``!C`` otherwise)."""

    condition: Condition
    value: bool = True

    def __str__(self) -> str:
        return self.condition.name if self.value else f"!{self.condition.name}"

    def __repr__(self) -> str:
        return f"Literal({self.condition.name!r}, {self.value})"

    def negate(self) -> "Literal":
        """Return the literal of the same condition with the opposite polarity."""
        return Literal(self.condition, not self.value)

    def __invert__(self) -> "Literal":
        return self.negate()

    def conflicts_with(self, other: "Literal") -> bool:
        """True when the two literals are over the same condition with opposite values."""
        return self.condition == other.condition and self.value != other.value


def conditions_of(literals: Iterable[Literal]) -> frozenset:
    """Return the set of condition variables mentioned by ``literals``."""
    return frozenset(literal.condition for literal in literals)
