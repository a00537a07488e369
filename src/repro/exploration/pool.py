"""Parallel candidate evaluation on top of ``concurrent.futures``.

Scoring a candidate is an independent, pure computation (expand + schedule +
merge), so a neighbourhood batch parallelises perfectly.

Shape
-----
``workers`` is the pool's one shape setting.  One worker (the default)
scores each batch in-process, in one
:func:`~repro.exploration.evaluate_neighbourhood` call over the pool's stage
cache, and hands it the batch's selection (tabu search's choice rule), so it
may skip merges.  More workers score each batch with one
``ProcessPoolExecutor.map`` over pre-pickled chunks, results in submission
order; the workers evaluate every candidate in full.

The problem crosses the process boundary once per worker: the coordinator
pickles the repository's JSON system-description payload once, and each
worker's initialiser rebuilds the problem from that blob.  No scheduler
state, graph object or condition-universe bitmask ever crosses the boundary,
so worker-side bit interning stays internally consistent.  Because the
coordinator pickles everything it ships, it knows exactly how many bytes
cross: :attr:`EvaluationPool.payload_bytes_shipped` feeds the ``batch``
block of ``repro-cpg explore --json``.

Failures
--------
One rule, whatever the worker count.  A pipeline error (an infeasible
design point) scores infeasible inside
:func:`~repro.exploration.evaluate_candidate`; any other exception, such as
a merger bug (``MergeInvariantError``), propagates and fails the run.  A
worker that dies or cannot start (``BrokenExecutor``) is no candidate's
fault: the pool shuts its executor down and scores that batch, and every
later one, in-process (:attr:`EvaluationPool.degraded`).  Evaluation is
pure, so the evaluations are the same.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import List, Optional, Sequence

from .candidate import Candidate
from .cost import (
    CandidateEvaluation,
    CostWeights,
    StageCache,
    StageStats,
    TabuSelection,
    evaluate_candidate,
    evaluate_neighbourhood,
)
from .problem import ExplorationProblem
from .resilience import WorkerInitializationError

# Worker-process globals, set once per worker by _initialise_worker.
_WORKER_PROBLEM: Optional[ExplorationProblem] = None
_WORKER_WEIGHTS: Optional[CostWeights] = None
# Each worker keeps its own stage cache (expansion + per-path schedules, see
# cost.StageCache): stages are pure, so which worker a candidate lands on
# changes only how often stages recompute, never the evaluations.
_WORKER_STAGE_CACHE: Optional[StageCache] = None


def _initialise_worker(blob: bytes, weights: CostWeights) -> None:
    global _WORKER_PROBLEM, _WORKER_WEIGHTS, _WORKER_STAGE_CACHE
    _WORKER_PROBLEM = ExplorationProblem.from_payload(pickle.loads(blob))
    _WORKER_WEIGHTS = weights
    _WORKER_STAGE_CACHE = StageCache()


def _evaluate_chunk(blob: bytes) -> List[CandidateEvaluation]:
    """Score one pre-pickled chunk of candidates in a worker.

    The coordinator pickles the chunk itself (so the exact byte count is
    known) and ships the blob; ``concurrent.futures`` then only
    re-serialises a bytes object.
    """
    return [
        evaluate_candidate(
            _WORKER_PROBLEM,
            candidate,
            _WORKER_WEIGHTS,
            stage_cache=_WORKER_STAGE_CACHE,
        )
        for candidate in pickle.loads(blob)
    ]


class EvaluationPool:
    """Batched scoring of candidates, in-process or across worker processes.

    ``workers`` sets the shape: 1 scores in-process, more score on that many
    worker processes (below 1 raises ``ValueError``).  The pool is lazy: no
    executor exists until the first pooled batch, and ``close()`` (or use
    as a context manager) tears it down.  Results are always returned in
    submission order, so search engines stay deterministic regardless of
    worker scheduling.  Failures follow the module docstring's one rule.
    """

    def __init__(
        self,
        problem: ExplorationProblem,
        weights: CostWeights = CostWeights(),
        workers: int = 1,
        tracer=None,
        metrics=None,
        stage_cache: Optional[StageCache] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        # Incremental evaluation (cost.StageCache).  One worker scores
        # through this in-process cache; process workers each keep their
        # own cache instead, and the pool keeps none until it degrades, so
        # ``stage_stats`` never hides real caching activity.  An *injected*
        # cache (repro-cpg serve's shared cross-request cache, possibly
        # bounded) replaces the pool-private one.  Process workers cannot
        # honour it — their caches live in other processes — so the
        # mismatch is an error rather than a silent private cache.
        if stage_cache is not None and workers > 1:
            raise ValueError(
                "an injected stage_cache requires one worker; "
                "process workers keep per-process caches"
            )
        if stage_cache is None and workers == 1:
            stage_cache = StageCache()
        self._problem = problem
        self._weights = weights
        self._workers = workers
        self._stage_cache: Optional[StageCache] = stage_cache
        # Observability (repro.observability).  Process workers stay
        # uninstrumented — their spans would live in another process; the
        # coordinator records chunk latency, payload bytes and a degrade.
        self._tracer = tracer
        self._metrics = metrics
        self._executor: Optional[ProcessPoolExecutor] = None
        self._degraded = False
        self._payload_bytes_shipped = 0

    @property
    def weights(self) -> CostWeights:
        return self._weights

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def degraded(self) -> bool:
        """Whether a dead worker made the pool evaluate in-process for good."""
        return self._degraded

    @property
    def payload_bytes_shipped(self) -> int:
        """Cumulative bytes serialised across the process boundary.

        Counts the pickled-once problem blob (once per worker) plus every
        pre-pickled candidate chunk.  One worker ships nothing, so the
        counter stays 0 — the batch-stats block in ``explore --json``
        reports payload traffic only where it actually exists.
        """
        return self._payload_bytes_shipped

    @property
    def stage_cache(self) -> Optional[StageCache]:
        """The in-process stage cache; None on a process pool until a degrade."""
        return self._stage_cache

    @property
    def stage_stats(self) -> Optional[StageStats]:
        """Stage-cache counters of the in-process cache, when one exists.

        One worker reports its cache.  A process pool returns None until it
        degrades to in-process evaluation: each worker owns a private cache
        in its own process and the counters are deliberately not shipped
        back per batch.
        """
        if self._stage_cache is None:
            return None
        return self._stage_cache.stats

    # -- lifecycle -----------------------------------------------------------

    def _payload_blob(self) -> bytes:
        """The worker payload, proven rebuildable *before* any worker starts.

        A payload the workers cannot rebuild would otherwise kill every
        worker and degrade the pool; failing here names the problem instead.
        """
        payload = self._problem.to_payload()
        try:
            ExplorationProblem.from_payload(payload)
        except Exception as error:
            raise WorkerInitializationError(
                f"problem payload {self._problem.name!r} cannot be rebuilt "
                f"by evaluation workers: {error}"
            ) from error
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    def _ship(self, size: int) -> None:
        self._payload_bytes_shipped += size
        if self._metrics is not None:
            self._metrics.count("pool.payload_bytes", size)

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            blob = self._payload_blob()
            self._executor = ProcessPoolExecutor(
                max_workers=self._workers,
                initializer=_initialise_worker,
                initargs=(blob, self._weights),
            )
            # Each worker receives its own copy of the initargs blob.
            self._ship(len(blob) * self._workers)
        return self._executor

    def _degrade(self) -> None:
        """A worker died or failed to start: evaluate in-process from now on."""
        self._executor.shutdown(cancel_futures=True)
        self._executor = None
        self._degraded = True
        self._stage_cache = StageCache()
        if self._tracer is not None:
            self._tracer.event("pool.degraded", workers=self._workers)
        if self._metrics is not None:
            self._metrics.count("pool.degraded")

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "EvaluationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scoring -------------------------------------------------------------

    def evaluate(
        self,
        candidates: Sequence[Candidate],
        select: Optional[TabuSelection] = None,
    ) -> List[Optional[CandidateEvaluation]]:
        """Score a batch, in submission order.

        ``select`` lets a one-worker pool skip merges (None marks a skipped
        candidate, and the returned scores count the paths skipped with
        them, see :func:`evaluate_neighbourhood`); a process pool, degraded
        or not, ignores it and returns full evaluations.
        """
        candidates = list(candidates)
        if self._workers == 1:
            return self._evaluate_in_process(candidates, select)
        if not self._degraded:
            try:
                return self._evaluate_pooled(candidates)
            except BrokenExecutor:
                self._degrade()
        return self._evaluate_in_process(candidates)

    def _evaluate_in_process(
        self,
        candidates: List[Candidate],
        select: Optional[TabuSelection] = None,
    ) -> List[Optional[CandidateEvaluation]]:
        return evaluate_neighbourhood(
            self._problem,
            candidates,
            self._weights,
            stage_cache=self._stage_cache,
            tracer=self._tracer,
            metrics=self._metrics,
            select=select,
        )

    def _evaluate_pooled(
        self, candidates: List[Candidate]
    ) -> List[CandidateEvaluation]:
        """One ``map`` over pre-pickled chunks, ~4 chunks per worker."""
        executor = self._ensure_executor()
        size = max(1, len(candidates) // (self._workers * 4))
        blobs = []
        for start in range(0, len(candidates), size):
            blob = pickle.dumps(
                candidates[start:start + size], protocol=pickle.HIGHEST_PROTOCOL
            )
            self._ship(len(blob))
            blobs.append(blob)
        started = time.perf_counter()
        results: List[CandidateEvaluation] = []
        for chunk in executor.map(_evaluate_chunk, blobs):
            results.extend(chunk)
            if self._metrics is not None:
                # Coordinator-side submit-to-harvest latency per chunk.
                self._metrics.observe(
                    "pool.unit.seconds", time.perf_counter() - started
                )
        return results
