"""Interning of condition variables to bit positions.

The boolean objects the scheduler manipulates — path labels, schedule-table
column headers, "conditions known at time t" — are conjunctions of literals
over a small, per-system set of condition variables.  Representing such a
conjunction as a pair of integer bitmasks (one bit per condition; a bit in
``pos_mask`` for a positive literal, in ``neg_mask`` for a negated one) turns
the hot operations of the merging algorithm — mutual exclusion, implication,
conjoining, compatibility — into one or two integer operations.

A :class:`ConditionUniverse` is the registry that assigns each condition its
bit.  Conditions are interned on first use and keep their bit for the lifetime
of the universe, so masks built at different times remain comparable.  The
module-level :data:`DEFAULT_UNIVERSE` is shared by every graph in the process;
conditions are identified by name, so distinct graphs reusing the same
condition names simply share bits, which keeps cross-graph comparisons exact.
Note that :class:`~repro.conditions.Conjunction` is pinned to
:data:`DEFAULT_UNIVERSE` — every condition it touches is interned process-wide
and bits are never reclaimed, so mask width grows with the number of distinct
condition names seen over the process lifetime.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from .literals import Condition


class ConditionUniverse:
    """Assigns every condition a stable bit position on first use."""

    __slots__ = ("_bits", "_conditions")

    def __init__(self) -> None:
        self._bits: Dict[Condition, int] = {}
        self._conditions: List[Condition] = []

    def __len__(self) -> int:
        return len(self._conditions)

    def bit_of(self, condition: Condition) -> int:
        """The single-bit mask of ``condition`` (interned on first use)."""
        bit = self._bits.get(condition)
        if bit is None:
            bit = 1 << len(self._conditions)
            self._bits[condition] = bit
            self._conditions.append(condition)
        return bit

    def conditions_in(self, mask: int) -> Tuple[Condition, ...]:
        """The conditions whose bits are set in ``mask`` (bit order)."""
        found = []
        index = 0
        while mask:
            if mask & 1:
                found.append(self._conditions[index])
            mask >>= 1
            index += 1
        return tuple(found)

    def masks_of(self, assignment: Mapping[Condition, bool]) -> Tuple[int, int]:
        """``(pos_mask, neg_mask)`` of a (partial) condition assignment."""
        pos = neg = 0
        for condition, value in assignment.items():
            bit = self.bit_of(condition)
            if value:
                pos |= bit
            else:
                neg |= bit
        return pos, neg

    def mask_of(self, conditions: Iterable[Condition]) -> int:
        """The union of the bits of the given conditions."""
        mask = 0
        for condition in conditions:
            mask |= self.bit_of(condition)
        return mask


#: The process-wide universe used by :class:`~repro.conditions.Conjunction`.
DEFAULT_UNIVERSE = ConditionUniverse()


def condition_bit(condition: Condition) -> int:
    """Shorthand for ``DEFAULT_UNIVERSE.bit_of(condition)``."""
    return DEFAULT_UNIVERSE.bit_of(condition)

