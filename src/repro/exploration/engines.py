"""Search engines: cycle-bounded tabu search and simulated annealing.

(The NSGA-style genetic engine lives in :mod:`repro.exploration.genetic` and
registers itself into the :data:`ENGINES` table at the bottom of this module.)

All engines sit behind the same :class:`Explorer` facade and share every
layer below them — the :class:`~repro.exploration.NeighborhoodSampler`, the
:class:`~repro.exploration.CachedEvaluator` (one per explorer, so consecutive
``explore`` calls share cache hits) and the optional parallel
:class:`~repro.exploration.EvaluationPool`.  A seed fully determines a run:
the engines draw all randomness from one ``random.Random`` and the evaluation
layer is pure, so the best candidate *and* the cycle-by-cycle trajectory are
reproducible.

Engine sketches
---------------
Tabu search (cf. the post-optimiser layering of the TimeTableGenerator
exemplar): each cycle scores one neighbourhood batch, moves to the best
admissible neighbour — not on the tabu list, unless it beats the global best
(aspiration) — and marks the chosen design point tabu for
:data:`TABU_TENURE` cycles.

Simulated annealing: each cycle scores a batch of proposals around the
current point (batched so the pool parallelises them), then walks the batch
in order, accepting improvements always and uphill moves with probability
``exp(-delta / T)``; the temperature starts at
:data:`INITIAL_TEMPERATURE_SHARE` of the initial cost and cools by
:data:`COOLING` per proposal.

Stopping is pluggable: criteria are callables inspecting the running
:class:`SearchState`; the first non-None reason ends the search.  The cycle
budget itself is a criterion (:class:`MaxCycles`), as are stagnation
(:class:`Stalled`) and cost targets (``Explorer(stopping=[TargetCost(x)])``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from collections import deque

from ..observability.report import STAGE_PREFIX
from .candidate import Candidate
from .cost import CandidateEvaluation, CostWeights, StageStats, TabuSelection
from .evaluator import CachedEvaluator, CacheStats
from .moves import NeighborhoodSampler
from .pareto import ParetoFront
from .pool import EvaluationPool
from .problem import ExplorationProblem
from .resilience import (
    Checkpointer,
    load_checkpoint,
    rng_state_from_json,
    scored_from_json,
    scored_to_json,
    search_state_from_json,
    snapshot_document,
    trajectory_from_json,
    validate_checkpoint,
)


@dataclass(frozen=True)
class ExplorationConfig:
    """The settings of a search; each engine's fixed constants sit beside it."""

    seed: int = 0
    max_cycles: int = 40
    neighbors_per_cycle: int = 8
    stall_cycles: int = 0  # 0 disables the stagnation criterion
    weights: CostWeights = field(default_factory=CostWeights)
    #: Track a Pareto front over every fresh evaluation of the explorer (the
    #: genetic engine tracks one regardless; this turns it on for tabu/SA).
    track_front: bool = False
    #: Cycle period of checkpoint writes when ``Explorer.explore`` is given a
    #: checkpoint path (1 = every cycle; larger periods trade at-most-N lost
    #: cycles for less write overhead).
    checkpoint_every: int = 1
    #: Genetic engine: individuals per generation (one cycle = one generation).
    population_size: int = 16


@dataclass(frozen=True)
class TrajectoryPoint:
    """One cycle of a search, as reported in best-candidate trajectories."""

    cycle: int
    move: str
    cost: float
    best_cost: float
    accepted: int


@dataclass
class SearchState:
    """What stopping criteria may inspect while a search runs."""

    cycle: int = 0
    evaluations: int = 0
    cycles_since_improvement: int = 0
    best_cost: float = math.inf


#: A stopping criterion returns the reason to stop, or None to continue.
StoppingCriterion = Callable[[SearchState], Optional[str]]


class MaxCycles:
    """Stop after a fixed number of cycles (the bounded cycle budget)."""

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def __call__(self, state: SearchState) -> Optional[str]:
        if state.cycle >= self.limit:
            return f"cycle budget exhausted ({self.limit})"
        return None


class Stalled:
    """Stop after ``limit`` consecutive cycles without improving the best."""

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def __call__(self, state: SearchState) -> Optional[str]:
        if state.cycles_since_improvement >= self.limit:
            return f"stalled for {self.limit} cycles"
        return None


class TargetCost:
    """Stop as soon as the best cost reaches a target."""

    def __init__(self, target: float) -> None:
        self.target = target

    def __call__(self, state: SearchState) -> Optional[str]:
        if state.best_cost <= self.target:
            return f"target cost {self.target:g} reached"
        return None


@dataclass
class ExplorationResult:
    """Everything one ``Explorer.explore`` call produced."""

    engine: str
    initial_candidate: Candidate
    initial: CandidateEvaluation
    best_candidate: Candidate
    best: CandidateEvaluation
    trajectory: List[TrajectoryPoint]
    cycles: int
    evaluations: int
    stop_reason: str
    cache: CacheStats
    #: A snapshot of the non-dominated front at the end of the run.  Always
    #: set by the genetic engine; set by tabu/SA only when the explorer
    #: tracks a front (``ExplorationConfig.track_front``), otherwise None.
    #: When several engines share one explorer (and thus one evaluation
    #: cache + live front), the snapshot also covers the design points the
    #: *earlier* runs evaluated — but never the later ones.
    front: Optional[ParetoFront] = None
    #: Stage-level (expansion / per-path schedule) cache counters of the
    #: incremental evaluator, cumulative like ``cache`` when engines share an
    #: explorer.  None when a process-mode pool scores the misses
    #: (per-worker caches are not aggregated).
    stages: Optional[StageStats] = None
    #: The cycle this run was restored at when it resumed from a checkpoint
    #: (None for a run started from scratch).
    resumed_from: Optional[int] = None
    #: Wall-clock seconds per pipeline stage (``expansion``, ``path_keys``,
    #: ``path_schedule``, ``merge``, ``merge_readjust``): the totals of the
    #: tracer's ``stage.*`` spans, cumulative like ``cache`` when several
    #: engines share one explorer.  None unless the evaluator carries a
    #: :class:`~repro.observability.Tracer` (``--trace`` or ``--metrics``);
    #: empty when a process-mode pool scored every evaluation (workers are
    #: not instrumented).
    stage_seconds: Optional[Dict[str, float]] = None
    #: The ``dt`` of this run's ``engine`` span; None unless traced (keeps
    #: the default result byte-deterministic).
    wall_seconds: Optional[float] = None
    #: Batched-evaluation counters (batches, candidates, mean batch size,
    #: payload bytes shipped to pool workers), from
    #: :class:`~repro.exploration.BatchStats`.  None unless traced — same
    #: null-stability contract as ``stage_seconds``.
    batch: Optional[Dict[str, Any]] = None

    @property
    def improved(self) -> bool:
        return self.best.cost < self.initial.cost - 1e-9

    @property
    def improvement_percent(self) -> float:
        """How far the best candidate undercuts the seed design point."""
        if self.initial.cost <= 0 or not math.isfinite(self.initial.cost):
            return 0.0
        return 100.0 * (self.initial.cost - self.best.cost) / self.initial.cost


class _EngineBase:
    """The one search loop; engines supply the search through five hooks.

    :meth:`run` owns what every engine shares: the engine and cycle spans,
    resuming from a checkpoint, the checkpoint snapshot, cycle bookkeeping,
    the stopping criteria, the final checkpoint and the result.  An engine
    supplies:

    * ``_start(initial, rng)`` — score the start, set ``_initial`` and
      ``_best`` (``(candidate, evaluation)`` pairs) and return the starting
      :class:`SearchState`;
    * ``_restore(engine_state)`` — restore what ``_engine_state`` saved;
    * ``_cycle(rng, state)`` — run one cycle and return its
      :class:`TrajectoryPoint` (see :meth:`_advance`), or a reason to stop;
    * ``_engine_state()`` — the engine's part of a checkpoint;
    * ``_front()`` — the front the run reports and checkpoints (by default
      the evaluator's, which is None unless it tracks one).
    """

    name = "base"

    def __init__(
        self,
        config: ExplorationConfig,
        evaluator: CachedEvaluator,
        sampler: NeighborhoodSampler,
        stopping: Sequence[StoppingCriterion],
    ) -> None:
        self._config = config
        self._evaluator = evaluator
        self._sampler = sampler
        self._stopping = list(stopping)
        # The tracer rides along on the shared evaluator; None by default,
        # keeping every engine loop on the plain code path.
        self._tracer = evaluator.tracer

    # -- common plumbing -----------------------------------------------------

    def _finish_run(self, span, cycles: int) -> Dict[str, Any]:
        """Close the engine span; return ExplorationResult timing fields.

        Closing the engine span also closes any cycle span an early stop
        left open (span close pops open descendants), so a cycle may end the
        search mid-cycle without leaking records.  The timings are the
        tracer's: its ``stage.*`` totals and the engine span's ``dt``.
        """
        if span is None:
            return {"stage_seconds": None, "wall_seconds": None, "batch": None}
        wall_seconds = span.close(cycles=cycles)
        return {
            "stage_seconds": {
                name[len(STAGE_PREFIX):]: seconds
                for name, (_, seconds) in self._tracer.totals().items()
                if name.startswith(STAGE_PREFIX)
            },
            "wall_seconds": wall_seconds,
            "batch": self._evaluator.batch_stats.snapshot(),
        }

    def _stop_reason(self, state: SearchState) -> Optional[str]:
        for criterion in self._stopping:
            reason = criterion(state)
            if reason is not None:
                return reason
        return None

    def _advance(
        self,
        state: SearchState,
        improved: bool,
        move: str,
        cost: float,
        accepted: int,
    ) -> TrajectoryPoint:
        """Count one completed cycle; return its trajectory point."""
        best_cost = self._best[1].cost
        state.cycle += 1
        if improved:
            state.cycles_since_improvement = 0
            state.best_cost = best_cost
        else:
            state.cycles_since_improvement += 1
        return TrajectoryPoint(
            cycle=state.cycle,
            move=move,
            cost=cost,
            best_cost=best_cost,
            accepted=accepted,
        )

    def _front(self) -> Optional[ParetoFront]:
        return self._evaluator.front

    # -- the search loop -----------------------------------------------------

    def run(
        self,
        initial: Candidate,
        resume: Optional[Dict[str, Any]] = None,
        checkpointer: Optional[Checkpointer] = None,
    ) -> ExplorationResult:
        """Search from ``initial``, or continue the run ``resume`` recorded."""
        config = self._config
        engine_span = (
            self._tracer.span("engine", engine=self.name)
            if self._tracer is not None
            else None
        )
        resumed_from: Optional[int] = None
        if resume is not None:
            rng = random.Random()
            rng.setstate(rng_state_from_json(resume["rng"]))
            self._initial = scored_from_json(resume["initial"])
            self._best = scored_from_json(resume["best"])
            self._restore(resume["engine_state"])
            trajectory = trajectory_from_json(resume["trajectory"])
            state = search_state_from_json(resume["state"])
            front = self._front()
            if front is not None:
                for entry in resume.get("front") or ():
                    front.offer(*scored_from_json(entry))
            resumed_from = state.cycle
        else:
            rng = random.Random(config.seed)
            state = self._start(initial, rng)
            trajectory = []

        def snapshot(completed: bool = False, reason: Optional[str] = None):
            return snapshot_document(
                engine=self.name,
                seed=config.seed,
                problem_key=self._evaluator.problem.content_key,
                state=state,
                rng_state=rng.getstate(),
                initial=self._initial,
                best=self._best,
                trajectory=trajectory,
                engine_state=self._engine_state(),
                front=self._front(),
                completed=completed,
                stop_reason=reason,
            )

        reason = self._stop_reason(state)
        while reason is None:
            cycle_span = (
                self._tracer.span("cycle") if self._tracer is not None else None
            )
            point = self._cycle(rng, state)
            if isinstance(point, str):
                reason = point  # the engine span closes this cycle's span
                break
            trajectory.append(point)
            if cycle_span is not None:
                cycle_span.close(cycle=state.cycle)
            if checkpointer is not None and checkpointer.due(state.cycle):
                checkpointer.save(snapshot())
            reason = self._stop_reason(state)

        reason = reason or "stopped"
        if checkpointer is not None:
            checkpointer.save(snapshot(completed=True, reason=reason))
        initial, initial_eval = self._initial
        best, best_eval = self._best
        front = self._front()
        return ExplorationResult(
            engine=self.name,
            initial_candidate=initial,
            initial=initial_eval,
            best_candidate=best,
            best=best_eval,
            trajectory=trajectory,
            cycles=state.cycle,
            evaluations=state.evaluations,
            stop_reason=reason,
            cache=self._evaluator.stats,
            stages=self._evaluator.stage_stats,
            resumed_from=resumed_from,
            front=front.snapshot() if front is not None else None,
            **self._finish_run(engine_span, state.cycle),
        )


class _SinglePointEngine(_EngineBase):
    """The current-point parts tabu search and annealing share."""

    def _start(self, initial: Candidate, rng: random.Random) -> SearchState:
        scored = (initial, self._evaluator.evaluate(initial))
        self._initial = self._best = self._current = scored
        return SearchState(evaluations=1, best_cost=scored[1].cost)

    def _restore(self, engine_state: Dict[str, Any]) -> None:
        self._current = scored_from_json(engine_state["current"])

    def _engine_state(self) -> Dict[str, Any]:
        return {"current": scored_to_json(*self._current)}


#: Tabu search: cycles a chosen design point stays on the tabu list.
TABU_TENURE = 12


class TabuSearchEngine(_SinglePointEngine):
    """Best-admissible-neighbour descent with a fingerprint tabu list."""

    name = "tabu"

    def _start(self, initial: Candidate, rng: random.Random) -> SearchState:
        state = super()._start(initial, rng)
        self._tabu = deque([initial.fingerprint], maxlen=TABU_TENURE)
        return state

    def _restore(self, engine_state: Dict[str, Any]) -> None:
        super()._restore(engine_state)
        self._tabu = deque(engine_state["tabu"], maxlen=TABU_TENURE)

    def _engine_state(self) -> Dict[str, Any]:
        return {**super()._engine_state(), "tabu": list(self._tabu)}

    def _cycle(
        self, rng: random.Random, state: SearchState
    ) -> Union[TrajectoryPoint, str]:
        neighbors = self._sampler.sample(
            self._current[0], rng, self._config.neighbors_per_cycle
        )
        if not neighbors:
            return "no distinct neighbors"
        best_cost = self._best[1].cost
        # The rule below, as data: the evaluator may skip the merges of
        # neighbours it proves cannot be chosen (they come back as None).
        selection = TabuSelection(frozenset(self._tabu), aspiration=best_cost)
        evaluations = self._evaluator.evaluate_many(
            [candidate for _, candidate in neighbors], select=selection
        )
        state.evaluations += len(neighbors)

        chosen: Optional[Tuple] = None  # (cost, fingerprint, move, cand, eval)
        fallback: Optional[Tuple] = None
        for (move, candidate), evaluation in zip(neighbors, evaluations):
            if evaluation is None or not evaluation.feasible:
                continue
            key = (evaluation.cost, candidate.fingerprint)
            admissible = selection.admissible(evaluation)
            entry = key + (move, candidate, evaluation)
            if admissible and (chosen is None or key < chosen[:2]):
                chosen = entry
            if fallback is None or key < fallback[:2]:
                fallback = entry
        if chosen is None:
            chosen = fallback  # every neighbour tabu: take the best anyway
        if chosen is None:
            return "no feasible neighbors"

        _, _, move, candidate, evaluation = chosen
        self._current = (candidate, evaluation)
        self._tabu.append(candidate.fingerprint)
        improved = evaluation.cost < best_cost - 1e-9
        if improved:
            self._best = self._current
        return self._advance(
            state, improved, move.describe(), evaluation.cost, accepted=1
        )


#: Simulated annealing: the start temperature, as a share of the initial
#: cost (of 1.0 when the start is infeasible).
INITIAL_TEMPERATURE_SHARE = 0.05
#: Simulated annealing: the factor the temperature cools by per proposal.
COOLING = 0.97


class SimulatedAnnealingEngine(_SinglePointEngine):
    """Metropolis acceptance over batched neighbour proposals."""

    name = "anneal"

    def _start(self, initial: Candidate, rng: random.Random) -> SearchState:
        state = super()._start(initial, rng)
        cost = self._initial[1].cost
        self._temperature = max(
            1e-9, INITIAL_TEMPERATURE_SHARE * (cost if math.isfinite(cost) else 1.0)
        )
        return state

    def _restore(self, engine_state: Dict[str, Any]) -> None:
        super()._restore(engine_state)
        self._temperature = float(engine_state["temperature"])

    def _engine_state(self) -> Dict[str, Any]:
        return {**super()._engine_state(), "temperature": self._temperature}

    def _cycle(
        self, rng: random.Random, state: SearchState
    ) -> Union[TrajectoryPoint, str]:
        current, current_eval = self._current
        proposals = self._sampler.sample(
            current, rng, self._config.neighbors_per_cycle
        )
        if not proposals:
            return "no distinct neighbors"
        evaluations = self._evaluator.evaluate_many(
            [candidate for _, candidate in proposals]
        )
        state.evaluations += len(proposals)

        temperature = self._temperature
        accepted = 0
        last_move = "-"
        improved = False
        for (move, candidate), evaluation in zip(proposals, evaluations):
            # Proposals were drawn around the cycle's entry point; the
            # acceptance walk is still sequential, so a batch behaves
            # like neighbors_per_cycle restarts of the same origin.
            delta = evaluation.cost - current_eval.cost
            accept = evaluation.feasible and (
                delta <= 0
                or (
                    temperature > 0
                    and rng.random() < math.exp(-delta / temperature)
                )
            )
            temperature *= COOLING
            if not accept:
                continue
            accepted += 1
            last_move = move.describe()
            current, current_eval = candidate, evaluation
            if current_eval.cost < self._best[1].cost - 1e-9:
                self._best = (current, current_eval)
                improved = True
        self._temperature = temperature
        self._current = (current, current_eval)
        return self._advance(
            state, improved, last_move, current_eval.cost, accepted
        )


ENGINES: Dict[str, type] = {
    TabuSearchEngine.name: TabuSearchEngine,
    SimulatedAnnealingEngine.name: SimulatedAnnealingEngine,
}


class Explorer:
    """One facade over both engines, sharing evaluator, cache and pool.

    Typical use::

        problem = ExplorationProblem.from_system(generate_system(40, 8, seed=1))
        explorer = Explorer(problem, config=ExplorationConfig(seed=1))
        result = explorer.explore("tabu")

    Consecutive ``explore`` calls reuse the evaluator, so comparing engines on
    the same problem pays for each distinct design point once.
    """

    def __init__(
        self,
        problem: ExplorationProblem,
        config: Optional[ExplorationConfig] = None,
        evaluator: Optional[CachedEvaluator] = None,
        pool: Optional[EvaluationPool] = None,
        stopping: Optional[Sequence[StoppingCriterion]] = None,
        tracer=None,
    ) -> None:
        self._problem = problem
        self._config = config or ExplorationConfig()
        # The tracer (repro.observability) applies to the evaluator the
        # explorer constructs; an explicitly-passed evaluator keeps its own.
        self._evaluator = evaluator or CachedEvaluator(
            problem,
            self._config.weights,
            pool=pool,
            front=ParetoFront() if self._config.track_front else None,
            tracer=tracer,
        )
        self._sampler = NeighborhoodSampler(problem)
        self._extra_stopping = list(stopping or ())

    @property
    def evaluator(self) -> CachedEvaluator:
        return self._evaluator

    @property
    def config(self) -> ExplorationConfig:
        return self._config

    @property
    def front(self) -> Optional[ParetoFront]:
        """The tracked Pareto front, or None when tracking is off."""
        return self._evaluator.front

    def _stopping_criteria(self) -> List[StoppingCriterion]:
        criteria: List[StoppingCriterion] = [MaxCycles(self._config.max_cycles)]
        if self._config.stall_cycles > 0:
            criteria.append(Stalled(self._config.stall_cycles))
        criteria.extend(self._extra_stopping)
        return criteria

    def explore(
        self,
        engine: str = "tabu",
        initial: Optional[Candidate] = None,
        *,
        checkpoint: Optional[Union[str, Path]] = None,
        resume: bool = False,
    ) -> ExplorationResult:
        """Run one engine from the seed mapping (or a given candidate).

        ``checkpoint`` names a JSON file the run snapshots its full state to
        every ``ExplorationConfig.checkpoint_every`` cycles (written
        atomically; see :mod:`repro.exploration.resilience`).  With
        ``resume=True`` an existing checkpoint is loaded first — after
        validating that it belongs to this engine, seed and problem — and
        the search continues bit-identically to the uninterrupted run; a
        missing checkpoint file simply starts from scratch, so resuming is
        idempotent job-runner behaviour, not an error.
        """
        try:
            engine_cls = ENGINES[engine]
        except KeyError:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {sorted(ENGINES)}"
            ) from None
        checkpointer: Optional[Checkpointer] = None
        resume_state: Optional[Dict[str, Any]] = None
        if checkpoint is not None:
            checkpointer = Checkpointer(
                checkpoint, every=self._config.checkpoint_every
            )
            if resume and Path(checkpoint).exists():
                resume_state = load_checkpoint(checkpoint)
                validate_checkpoint(
                    resume_state,
                    engine=engine,
                    seed=self._config.seed,
                    problem_key=self._problem.content_key,
                )
        elif resume:
            raise ValueError("resume=True requires a checkpoint path")
        if initial is None:
            initial = self._problem.initial_candidate()
        runner = engine_cls(
            self._config, self._evaluator, self._sampler, self._stopping_criteria()
        )
        return runner.run(initial, resume=resume_state, checkpointer=checkpointer)


# Registered last: genetic.py imports the engine plumbing defined above, so
# the import has to happen after every name it needs exists.
from .genetic import GeneticEngine  # noqa: E402

ENGINES[GeneticEngine.name] = GeneticEngine
