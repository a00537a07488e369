"""Boolean machinery for conditions, guards, path labels and column headers.

The conditional process graph model of Eles et al. attaches boolean
*conditions* to conditional edges.  This package provides the small, exact
boolean algebra the scheduler needs:

* :class:`Condition` / :class:`Literal` — condition variables and polarised
  occurrences;
* :class:`Conjunction` — an AND of literals (path labels, schedule-table
  column headers, "conditions known at time t on PE p");
* :class:`BoolExpr` — sum-of-products expressions (general process guards).

Condition values are ``(pos, neg)`` bitmask pairs over the process-wide
:data:`DEFAULT_UNIVERSE` throughout: a conjunction is one pair, a
``BoolExpr`` a set of them, and every query (implication, mutual exclusion,
simplification) is answered from the masks.  A ``Condition -> bool`` dict
enters only through :meth:`Conjunction.from_assignment`.
"""

from .conjunction import Conjunction, ContradictionError
from .expressions import BoolExpr
from .literals import Condition, Literal, conditions_of
from .universe import DEFAULT_UNIVERSE, ConditionUniverse

__all__ = [
    "BoolExpr",
    "Condition",
    "ConditionUniverse",
    "Conjunction",
    "ContradictionError",
    "DEFAULT_UNIVERSE",
    "Literal",
    "conditions_of",
]
