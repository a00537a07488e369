"""Trace of the schedule-merging algorithm (the decision tree of Fig. 2).

The table-generation algorithm walks a binary decision tree whose nodes are
the moments at which a disjunction process terminates and a new condition
value becomes known.  :class:`MergeTrace` records that walk — which path was
selected at every node, where back-steps happened, how many activation times
were locked and how many conflicts were resolved — so the tree can be
inspected, rendered and tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..conditions import Condition, Conjunction


@dataclass
class DecisionNode:
    """One node of the decision tree explored during merging."""

    known: Conjunction
    selected_path: Conjunction
    entered_by_back_step: bool
    branch_condition: Optional[Condition] = None
    branch_time: Optional[float] = None
    locked_processes: int = 0
    conflicts_resolved: int = 0
    depth: int = 0
    children: List["DecisionNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.branch_condition is None

    def __str__(self) -> str:
        head = f"[{self.known}] following {self.selected_path}"
        if self.branch_condition is not None:
            head += f", branches on {self.branch_condition} at t={self.branch_time:g}"
        if self.entered_by_back_step:
            head = "back-step " + head
        return head


@dataclass
class MergeTrace:
    """The full decision tree plus summary statistics of one merging run."""

    root: Optional[DecisionNode] = None
    path_delays: Dict[Conjunction, float] = field(default_factory=dict)
    back_steps: int = 0
    conflicts_resolved: int = 0
    adjustments: int = 0

    def nodes(self) -> List[DecisionNode]:
        """All decision nodes in depth-first order."""
        result: List[DecisionNode] = []

        def visit(node: DecisionNode) -> None:
            result.append(node)
            for child in node.children:
                visit(child)

        if self.root is not None:
            visit(self.root)
        return result

    def leaves(self) -> List[DecisionNode]:
        return [node for node in self.nodes() if node.is_leaf]

    def render(self) -> str:
        """ASCII rendering of the decision tree (one line per node)."""
        lines: List[str] = []

        def visit(node: DecisionNode, indent: int) -> None:
            prefix = "  " * indent
            marker = "<=" if node.entered_by_back_step else "->"
            lines.append(f"{prefix}{marker} {node}")
            for child in node.children:
                visit(child, indent + 1)

        if self.root is not None:
            visit(self.root, 0)
        return "\n".join(lines)
