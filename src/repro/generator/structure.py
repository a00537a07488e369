"""Structural plans for random conditional process graphs.

The paper's evaluation uses graphs with a prescribed number of alternative
paths (10, 12, 18, 24 or 32).  The number of alternative paths of a
conditional process graph is determined by how conditional blocks are
composed:

* composing two sub-structures **in series** multiplies their path counts;
* a **conditional block** whose two branches contain sub-structures with
  ``a`` and ``b`` paths contributes ``a + b`` paths.

A :class:`StructurePlan` is a small expression tree over these two rules plus
plain segments (path count 1); :func:`plan_for_paths` builds a plan achieving
an exact target path count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class StructurePlan:
    """A node of the structural plan tree."""

    kind: str  # "segment", "series" or "branch"
    children: List["StructurePlan"] = field(default_factory=list)
    #: Number of ordinary processes allocated to this node (segments only).
    size: int = 1

    @property
    def path_count(self) -> int:
        if self.kind == "segment":
            return 1
        if self.kind == "series":
            product = 1
            for child in self.children:
                product *= child.path_count
            return product
        if self.kind == "branch":
            return sum(child.path_count for child in self.children)
        raise ValueError(f"unknown structure kind {self.kind!r}")

    def segments(self) -> List["StructurePlan"]:
        """All plain segments of the tree (the places that receive processes)."""
        if self.kind == "segment":
            return [self]
        result: List[StructurePlan] = []
        for child in self.children:
            result.extend(child.segments())
        return result

    def condition_count(self) -> int:
        """Number of conditions (one per branch node)."""
        if self.kind == "segment":
            return 0
        count = 1 if self.kind == "branch" else 0
        return count + sum(child.condition_count() for child in self.children)

    def describe(self) -> str:
        if self.kind == "segment":
            return f"seg({self.size})"
        inner = ", ".join(child.describe() for child in self.children)
        return f"{self.kind}[{inner}]"


def segment(size: int = 1) -> StructurePlan:
    return StructurePlan("segment", size=size)


def series(*children: StructurePlan) -> StructurePlan:
    return StructurePlan("series", list(children))


def branch(true_side: StructurePlan, false_side: StructurePlan) -> StructurePlan:
    return StructurePlan("branch", [true_side, false_side])


def plan_for_paths(
    target_paths: int, rng: Optional[random.Random] = None
) -> StructurePlan:
    """Build a structure whose number of alternative paths is exactly ``target_paths``.

    The decomposition is randomised (seeded through ``rng``) so that repeated
    calls generate structurally different graphs with the same path count.
    """
    if target_paths < 1:
        raise ValueError("the number of alternative paths must be at least 1")
    plan = _random_plan(target_paths, rng or random.Random())
    if plan.path_count != target_paths:
        raise AssertionError(
            f"internal error: built {plan.path_count} paths instead of {target_paths}"
        )
    return plan


def _random_plan(n: int, rng: random.Random) -> StructurePlan:
    """One random decomposition of ``n`` paths (see :func:`plan_for_paths`)."""
    if n == 1:
        return segment()
    choices = []
    factorisations = _factor_pairs(n)
    if factorisations:
        choices.append("series")
    choices.append("branch")
    kind = rng.choice(choices)
    if kind == "series":
        a, b = rng.choice(factorisations)
        return series(_random_plan(a, rng), segment(), _random_plan(b, rng))
    # branch: split additively, each side at least one path
    a = rng.randint(1, n - 1)
    b = n - a
    inner = branch(_random_plan(a, rng), _random_plan(b, rng))
    # surround the conditional block with plain segments so that the
    # disjunction and conjunction processes have some work around them
    return series(segment(), inner, segment())


def _factor_pairs(n: int) -> List[Tuple[int, int]]:
    """Non-trivial factorisations ``(a, b)`` of ``n`` with ``a, b >= 2``."""
    pairs = []
    for a in range(2, int(n**0.5) + 1):
        if n % a == 0:
            pairs.append((a, n // a))
    return pairs


def distribute_sizes(
    plan: StructurePlan, total_processes: int, rng: Optional[random.Random] = None
) -> None:
    """Distribute a total number of ordinary processes over the plan's segments.

    Branch nodes consume one process each (the disjunction process) and each
    conditional block re-joins in a conjunction process; the remaining budget
    is spread over plain segments, each receiving at least one process.
    """
    rng = rng or random.Random()
    segments = plan.segments()
    overhead = 2 * plan.condition_count()  # disjunction + conjunction processes
    budget = max(len(segments), total_processes - overhead)
    base = budget // len(segments)
    remainder = budget - base * len(segments)
    for seg in segments:
        seg.size = max(1, base)
    for seg in rng.sample(segments, k=min(remainder, len(segments))):
        seg.size += 1
