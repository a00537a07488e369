"""Design-space exploration over the merge scheduler.

The source paper assumes the process-to-processor mapping arrives from an
upstream partitioning step (Eles et al., 1997 — simulated annealing and tabu
search); this subsystem closes that loop.  It searches the mapping/priority —
and, with :class:`ArchitectureBounds`, the *platform* — design space using the
repository's schedule merger as the evaluator:

* :class:`Candidate` / :class:`CostWeights` — design points and their scoring
  (worst-case delay, mean path delay, processor load balance, architecture
  cost, bus contention), behind a content-hash evaluation cache
  (:class:`CachedEvaluator`) so revisited mappings never re-run the merger,
  and a sub-fingerprint :class:`StageCache` so even *fresh* candidates reuse
  the expansion and every per-path schedule a local move left untouched;
* :class:`NeighborhoodSampler` — remap / swap / priority-switch / priority-
  bias moves, plus remap_comm / swap_bus communication-mapping moves when the
  problem enables ``map_communications`` (candidates then pin individual
  messages to buses instead of accepting the derived pick) and
  add/remove-processor and add/remove-bus sizing moves when the problem
  declares bounds;
* :class:`TabuSearchEngine`, :class:`SimulatedAnnealingEngine` and the
  NSGA-style :class:`GeneticEngine` — seeded, cycle-bounded engines behind
  the :class:`Explorer` facade with pluggable stopping criteria;
* :class:`ParetoFront` — non-dominated fronts over the vector cost
  ``(delta_max, mean_path_delay, load_imbalance, architecture_cost,
  bus_imbalance)``;
* :class:`EvaluationPool` — batched neighbour/generation scoring on
  ``concurrent.futures`` worker processes, resilient to worker crashes,
  hangs and abrupt exits (:class:`RetryPolicy`, :class:`FaultInjector`,
  quarantine of poison candidates, graceful degrade to in-process
  evaluation);
* :class:`Checkpointer` / :func:`load_checkpoint` — versioned JSON
  checkpoints every engine writes periodically and resumes from
  bit-identically (``Explorer.explore(..., checkpoint=..., resume=True)``).

Quick start::

    from repro.exploration import ExplorationProblem, Explorer
    from repro.generator import generate_system

    problem = ExplorationProblem.from_system(generate_system(40, 8, seed=1))
    result = Explorer(problem).explore("tabu")
    print(result.initial.delta_max, "->", result.best.delta_max)

Multi-objective, with architecture sizing::

    from repro.exploration import ArchitectureBounds

    problem = ExplorationProblem.from_system(
        generate_system(40, 8, seed=1), bounds=ArchitectureBounds()
    )
    result = Explorer(problem).explore("genetic")
    for point in result.front:
        print(point.objectives)
"""

from .candidate import Candidate
from .cost import (
    BatchStats,
    CandidateEvaluation,
    CostWeights,
    StageCache,
    StageStats,
    TabuSelection,
    architecture_cost_of,
    bus_imbalance_of,
    evaluate_candidate,
    evaluate_neighbourhood,
    load_imbalance_of,
    merge_candidate,
)
from .engines import (
    ENGINES,
    ExplorationConfig,
    ExplorationResult,
    Explorer,
    GeneticEngine,
    MaxCycles,
    SearchState,
    SimulatedAnnealingEngine,
    Stalled,
    StoppingCriterion,
    TabuSearchEngine,
    TargetCost,
    TrajectoryPoint,
)
from .evaluator import CachedEvaluator, CacheStats
from .moves import Move, NeighborhoodSampler
from .pareto import (
    OBJECTIVE_NAMES,
    ParetoFront,
    ParetoPoint,
    crowding_distances,
    dominates,
    non_dominated_sort,
)
from .pool import EvaluationPool
from .problem import ArchitectureBounds, ExplorationProblem
from .resilience import (
    CHECKPOINT_VERSION,
    Checkpointer,
    CheckpointError,
    FaultInjector,
    InjectedFault,
    ResilienceStats,
    RetryPolicy,
    WorkerInitializationError,
    load_checkpoint,
    quarantined_evaluation,
    validate_checkpoint,
)

__all__ = [
    "ArchitectureBounds",
    "CHECKPOINT_VERSION",
    "CacheStats",
    "CachedEvaluator",
    "Candidate",
    "BatchStats",
    "CandidateEvaluation",
    "CheckpointError",
    "Checkpointer",
    "CostWeights",
    "ENGINES",
    "EvaluationPool",
    "ExplorationConfig",
    "ExplorationProblem",
    "ExplorationResult",
    "Explorer",
    "FaultInjector",
    "GeneticEngine",
    "InjectedFault",
    "MaxCycles",
    "Move",
    "NeighborhoodSampler",
    "OBJECTIVE_NAMES",
    "ParetoFront",
    "ParetoPoint",
    "ResilienceStats",
    "RetryPolicy",
    "SearchState",
    "SimulatedAnnealingEngine",
    "StageCache",
    "StageStats",
    "Stalled",
    "StoppingCriterion",
    "TabuSearchEngine",
    "TabuSelection",
    "TargetCost",
    "TrajectoryPoint",
    "WorkerInitializationError",
    "architecture_cost_of",
    "bus_imbalance_of",
    "crowding_distances",
    "dominates",
    "evaluate_candidate",
    "evaluate_neighbourhood",
    "load_imbalance_of",
    "load_checkpoint",
    "merge_candidate",
    "non_dominated_sort",
    "quarantined_evaluation",
    "validate_checkpoint",
]
