"""Content-hash evaluation cache in front of the merge pipeline.

Local search revisits design points constantly — a swap undone two moves
later, simulated annealing bouncing around a basin, a second engine re-walking
the region the first one covered.  The :class:`CachedEvaluator` keys every
evaluation on the candidate's content hash (:attr:`Candidate.fingerprint`), so
a revisited mapping/priority configuration never re-runs communication
expansion, per-path scheduling or schedule merging.

Batches are deduplicated *before* they reach the evaluation pool: within
one neighbourhood batch, duplicated candidates are evaluated once; across
batches, the cache answers directly.  Every *fresh batch* (the misses of one
engine step) goes to the evaluator's :class:`EvaluationPool` — a one-worker
pool over its own stage cache unless a pool is given.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from .candidate import Candidate
from .cost import (
    BatchStats,
    CandidateEvaluation,
    CostWeights,
    StageCache,
    StageStats,
    TabuSelection,
)
from .pareto import ParetoFront
from .pool import EvaluationPool
from .problem import ExplorationProblem


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one evaluator.

    ``misses`` counts fresh candidates; ``merges_pruned`` those of them
    whose merge was skipped because their bound showed tabu search could
    not choose them (see :func:`~repro.exploration.evaluate_neighbourhood`),
    and ``paths_pruned`` the paths of those that were neither read from the
    stage cache nor scheduled.  A warmer stage cache leaves fewer paths to
    prune, so ``paths_pruned``, like the stage counters (and next to them
    in result documents), depends on what the cache held; ``merges_pruned``
    does not.
    """

    hits: int
    misses: int
    size: int
    merges_pruned: int = 0
    paths_pruned: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CachedEvaluator:
    """Evaluates candidates through a fingerprint-keyed cache.

    Parameters
    ----------
    problem:
        The exploration problem supplying the evaluation pipeline.
    weights:
        Cost weights (must match the pool's weights when one is given).
    pool:
        Optional :class:`EvaluationPool` scoring the cache misses.  Its
        weights must equal ``weights`` (checked at construction — worker
        processes score with the pool's weights, so a mismatch would silently
        optimise the wrong objective).  Without one, the evaluator builds a
        one-worker pool over ``stage_cache``, ``tracer`` and ``metrics``.
    front:
        Optional :class:`~repro.exploration.ParetoFront`.  When given, every
        *fresh* feasible evaluation is offered to the front, so the front ends
        up covering every distinct design point the evaluator ever scored
        (cache hits were already offered when they were first computed).
    stage_cache:
        The :class:`~repro.exploration.StageCache` that makes whole-candidate
        cache misses *incremental*, for the one-worker pool the evaluator builds.
        None (the default) creates a private one; pass an instance to share
        it across evaluators of the *same problem*.  A given ``pool`` scores
        misses on its own stage caches, so passing both is an error.
    tracer:
        Optional :class:`~repro.observability.Tracer`.  In-process fresh
        evaluations run inside ``evaluate``/``stage.*`` spans; a given pool
        traces with its own tracer (pass it the same one).  None (the
        default) keeps the uninstrumented code path.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry` receiving
        ``cache.hits``/``cache.misses``/``cache.merges_pruned``/
        ``cache.paths_pruned`` counters and
        one ``batch.size`` observation per fresh batch; the pool adds the
        stage/evaluate latency histograms of in-process evaluations.  None
        disables, with ~zero overhead.
    """

    def __init__(
        self,
        problem: ExplorationProblem,
        weights: CostWeights = CostWeights(),
        pool: Optional[EvaluationPool] = None,
        front: Optional[ParetoFront] = None,
        stage_cache: Optional[StageCache] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        if pool is None:
            pool = EvaluationPool(
                problem,
                weights,
                stage_cache=stage_cache,
                tracer=tracer,
                metrics=metrics,
            )
        elif stage_cache is not None:
            raise ValueError(
                "pass a stage_cache or a pool, not both: the pool scores "
                "misses on its own stage caches"
            )
        elif pool.weights != weights:
            raise ValueError(
                f"pool weights {pool.weights} differ from evaluator weights "
                f"{weights}; the search would optimise the wrong objective"
            )
        self._problem = problem
        self._weights = weights
        self._pool = pool
        self._front = front
        self._tracer = tracer
        self._metrics = metrics
        self._cache: Dict[str, CandidateEvaluation] = {}
        self._hits = 0
        self._misses = 0
        self._merges_pruned = 0
        self._paths_pruned = 0
        self._batch_stats = BatchStats()

    @property
    def problem(self) -> ExplorationProblem:
        return self._problem

    @property
    def weights(self) -> CostWeights:
        return self._weights

    @property
    def front(self) -> Optional[ParetoFront]:
        """The Pareto front fresh evaluations feed, or None when not tracking."""
        return self._front

    @property
    def tracer(self):
        """The attached :class:`~repro.observability.Tracer`, or None."""
        return self._tracer

    @property
    def metrics(self):
        """The attached :class:`~repro.observability.MetricsRegistry`, or None."""
        return self._metrics

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            self._hits, self._misses, len(self._cache),
            self._merges_pruned, self._paths_pruned,
        )

    @property
    def stage_cache(self) -> Optional[StageCache]:
        """The pool's in-process stage cache (None on a process pool)."""
        return self._pool.stage_cache

    @property
    def batch_stats(self) -> BatchStats:
        """Running totals of the batched fresh evaluations (see BatchStats)."""
        return self._batch_stats

    @property
    def stage_stats(self) -> Optional[StageStats]:
        """Stage-level hit/miss counters of the pool's stage caches.

        None on a process pool, where the caches live in the workers and are
        not aggregated (see :meth:`EvaluationPool.stage_stats`).
        """
        return self._pool.stage_stats

    # -- scoring -------------------------------------------------------------

    def evaluate(self, candidate: Candidate) -> CandidateEvaluation:
        """Score one candidate (cache probe first)."""
        return self.evaluate_many([candidate])[0]

    def evaluate_many(
        self,
        candidates: Sequence[Candidate],
        select: Optional[TabuSelection] = None,
    ) -> List[Optional[CandidateEvaluation]]:
        """Score a batch, returning evaluations in input order.

        Cache misses are deduplicated by fingerprint and sent to the pool as
        one fresh batch.  ``select`` (tabu search's choice rule) travels
        with it, the batch's cache hits added as exact entries, so an
        in-process route can skip the merges of neighbours that cannot be
        chosen: those come back as None and are not cached, and the batch's
        ``paths_pruned`` (a :class:`~repro.exploration.cost.NeighbourhoodScores`
        count; a plain list prunes nothing) counts the paths they never
        scheduled.  An evaluator that tracks a Pareto front needs every
        evaluation and drops it.
        """
        fresh: List[Candidate] = []
        fresh_keys: Dict[str, int] = {}
        known: List[CandidateEvaluation] = []
        batch_hits = 0
        for candidate in candidates:
            key = candidate.fingerprint
            if key in self._cache:
                self._hits += 1
                batch_hits += 1
                known.append(self._cache[key])
            elif key in fresh_keys:
                self._hits += 1
                batch_hits += 1
            else:
                fresh_keys[key] = len(fresh)
                fresh.append(candidate)
                self._misses += 1
        if self._metrics is not None:
            if batch_hits:
                self._metrics.count("cache.hits", batch_hits)
            if fresh:
                self._metrics.count("cache.misses", len(fresh))
        if fresh:
            if select is not None and self._front is None:
                select = replace(select, known=tuple(known))
            else:
                select = None
            evaluations = self._evaluate_fresh(fresh, select)
            pruned = 0
            for candidate, evaluation in zip(fresh, evaluations):
                if evaluation is None:
                    pruned += 1
                else:
                    self._cache[candidate.fingerprint] = evaluation
            if pruned:
                paths_pruned = getattr(evaluations, "paths_pruned", 0)
                self._merges_pruned += pruned
                self._paths_pruned += paths_pruned
                if self._metrics is not None:
                    self._metrics.count("cache.merges_pruned", pruned)
                    self._metrics.count("cache.paths_pruned", paths_pruned)
            if self._front is not None:
                self._front.offer_many(fresh, evaluations)
        return [self._cache.get(candidate.fingerprint) for candidate in candidates]

    def _evaluate_fresh(
        self,
        candidates: List[Candidate],
        select: Optional[TabuSelection] = None,
    ) -> List[Optional[CandidateEvaluation]]:
        """Score one fresh batch on the pool and record it (see BatchStats)."""
        if self._metrics is not None:
            self._metrics.observe("batch.size", len(candidates))
        shipped_before = self._pool.payload_bytes_shipped
        evaluations = self._pool.evaluate(candidates, select)
        self._batch_stats.record_batch(
            len(candidates), self._pool.payload_bytes_shipped - shipped_before
        )
        return evaluations
