"""Job execution behind the service: scoped caches, batching, the job store.

Three pieces sit between a validated request document and its result:

* :class:`ScopedStageCaches` — one **bounded** shared
  :class:`~repro.exploration.StageCache` per *stage scope*
  (:attr:`~repro.exploration.ExplorationProblem.stage_scope_key`).
  Near-duplicate tenants — same graph content, architecture, bus policy and
  sizing bounds; any name or seed mapping — land in the same scope and serve
  each other's expansion and per-path schedule stages.  That cross-request
  reuse is the whole multi-tenant win of serving exploration instead of
  shipping a CLI.
* :class:`BatchLane` — coalesces the neighbourhood batches of concurrently
  running jobs into single :meth:`~repro.exploration.EvaluationPool.\
evaluate_batches` submission rounds.  Evaluation is pure and batch results
  split back by position, so coalescing is a throughput knob, never a
  semantics change.
* :class:`JobManager` — the submit→poll→fetch store.  Jobs run on a small
  thread pool; each one explores through a :class:`BatchingEvaluator` whose
  whole-candidate cache is job-private (fingerprints are problem-specific)
  but whose stage cache is the scope's shared one.

Determinism: a job's result document depends only on its request (given a
cold scope also byte-identically matching the one-shot CLI).  Stages are
pure, so a warm or concurrently-shared scope cache changes only the stage
hit *counters* in the document, never the search trajectory, best candidate
or front.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..exploration import (
    CachedEvaluator,
    EvaluationPool,
    Explorer,
    ExplorationProblem,
    ParetoFront,
    StageCache,
)
from .documents import explore_document
from .requests import config_from_request, engines_for, problem_and_origin

#: Default budgets of each scope's shared stage cache.  Large enough that a
#: single modest job never evicts its own working set (the CI byte-identity
#: smoke relies on a cold fig1 job staying eviction-free), small enough that
#: a long-running server cannot grow without bound.
DEFAULT_CACHE_MAX_ENTRIES = 4096
DEFAULT_CACHE_MAX_BYTES = 64 * 1024 * 1024


class ScopedStageCaches:
    """Shared bounded stage caches, one per problem stage scope."""

    def __init__(
        self,
        max_entries: Optional[int] = DEFAULT_CACHE_MAX_ENTRIES,
        max_bytes: Optional[int] = DEFAULT_CACHE_MAX_BYTES,
    ) -> None:
        self._max_entries = max_entries
        self._max_bytes = max_bytes
        self._caches: Dict[str, StageCache] = {}
        self._tenants: Dict[str, int] = {}
        self._lock = threading.Lock()

    def cache_for(self, scope: str) -> StageCache:
        """The scope's shared cache (created bounded on first use)."""
        with self._lock:
            cache = self._caches.get(scope)
            if cache is None:
                cache = StageCache(
                    max_entries=self._max_entries, max_bytes=self._max_bytes
                )
                self._caches[scope] = cache
                self._tenants[scope] = 0
            self._tenants[scope] += 1
            return cache

    def stats_document(self) -> Dict[str, Any]:
        """The eviction-stats document behind ``GET /cache``."""
        with self._lock:
            scopes = {}
            totals = {
                "entries": 0,
                "occupancy_bytes": 0,
                "lru_evictions": 0,
                "integrity_evictions": 0,
                "hits": 0,
                "misses": 0,
            }
            for scope, cache in sorted(self._caches.items()):
                stats = cache.stats
                entries = stats.expansions + stats.schedules
                hits = stats.expansion_hits + stats.schedule_hits
                misses = stats.expansion_misses + stats.schedule_misses
                scopes[scope] = {
                    "tenants": self._tenants[scope],
                    "entries": entries,
                    "expansions": stats.expansions,
                    "schedules": stats.schedules,
                    "occupancy_bytes": stats.occupancy_bytes,
                    "max_entries": stats.max_entries,
                    "max_bytes": stats.max_bytes,
                    "lru_evictions": stats.lru_evictions,
                    "integrity_evictions": stats.integrity_evictions,
                    "expansion_hits": stats.expansion_hits,
                    "expansion_misses": stats.expansion_misses,
                    "schedule_hits": stats.schedule_hits,
                    "schedule_misses": stats.schedule_misses,
                    "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                }
                totals["entries"] += entries
                totals["occupancy_bytes"] += stats.occupancy_bytes
                totals["lru_evictions"] += stats.lru_evictions
                totals["integrity_evictions"] += stats.integrity_evictions
                totals["hits"] += hits
                totals["misses"] += misses
            return {
                "budget": {
                    "max_entries": self._max_entries or 0,
                    "max_bytes": self._max_bytes or 0,
                },
                "scopes": scopes,
                "totals": totals,
            }


class _LaneEntry:
    """One waiting batch: its pool, candidates, and the result hand-off."""

    __slots__ = ("pool", "candidates", "results", "error", "done")

    def __init__(self, pool: EvaluationPool, candidates: List) -> None:
        self.pool = pool
        self.candidates = candidates
        self.results: Optional[List] = None
        self.error: Optional[BaseException] = None
        self.done = threading.Event()


class BatchLane:
    """Coalesces concurrent evaluation batches into pool submission rounds.

    Leader/follower: every caller appends its batch to the pending queue and
    then contends for the drain lock.  The winner drains *everything*
    pending — its own batch plus whatever other jobs queued while the
    previous round ran — groups the batches by their owning pool (pools are
    problem-specific; grouping keeps every candidate on the problem that
    spawned it) and submits each group as one
    :meth:`~repro.exploration.EvaluationPool.evaluate_batches` round.
    Followers find their entry completed and return without submitting.

    The counters (``rounds``, ``batches``, ``coalesced``) feed the service's
    ``GET /stats`` document; they are bookkeeping only.
    """

    def __init__(self) -> None:
        self._pending: List[_LaneEntry] = []
        self._lock = threading.Lock()
        self._drain = threading.Lock()
        self.rounds = 0
        self.batches = 0
        self.coalesced = 0

    def evaluate(self, pool: EvaluationPool, candidates: List) -> List:
        entry = _LaneEntry(pool, list(candidates))
        with self._lock:
            self._pending.append(entry)
        with self._drain:
            if not entry.done.is_set():
                self._drain_pending()
        if entry.error is not None:
            raise entry.error
        assert entry.results is not None
        return entry.results

    def _drain_pending(self) -> None:
        """Submit every pending batch (caller owns the drain lock)."""
        with self._lock:
            drained, self._pending = self._pending, []
        if not drained:
            return
        self.rounds += 1
        self.batches += len(drained)
        if len(drained) > 1:
            self.coalesced += len(drained) - 1
        groups: Dict[int, Tuple[EvaluationPool, List[_LaneEntry]]] = {}
        for entry in drained:
            groups.setdefault(id(entry.pool), (entry.pool, []))[1].append(entry)
        for pool, entries in groups.values():
            try:
                split = pool.evaluate_batches(
                    [entry.candidates for entry in entries]
                )
            except BaseException as error:  # hand the failure to every waiter
                for entry in entries:
                    entry.error = error
                    entry.done.set()
                continue
            for entry, results in zip(entries, split):
                entry.results = results
                entry.done.set()


class BatchingEvaluator(CachedEvaluator):
    """A :class:`CachedEvaluator` whose fresh batches ride the batch lane.

    The whole-candidate fingerprint cache stays job-private (exactly the
    CLI's serial shape, so ``resilience`` stays null and the result document
    byte-identical); only the *fresh* evaluations detour through the lane to
    the job's serial :class:`~repro.exploration.EvaluationPool`, which holds
    the scope's shared stage cache.
    """

    def __init__(
        self,
        problem: ExplorationProblem,
        lane: BatchLane,
        pool: EvaluationPool,
        weights,
        front: Optional[ParetoFront] = None,
        stage_cache: Optional[StageCache] = None,
    ) -> None:
        super().__init__(
            problem,
            weights=weights,
            front=front,
            stage_cache=stage_cache,
        )
        self._lane = lane
        self._batch_pool = pool

    def _evaluate_fresh(self, candidates: List) -> List:
        shipped_before = self._batch_pool.payload_bytes_shipped
        evaluations = self._lane.evaluate(self._batch_pool, candidates)
        # Keep the batch-stats contract of CachedEvaluator._evaluate_fresh:
        # one fresh batch recorded per detour through the lane.  The job
        # pool is serial, so the shipped-bytes delta is normally zero.
        self.batch_stats.record_batch(
            len(candidates),
            self._batch_pool.payload_bytes_shipped - shipped_before,
        )
        return evaluations


class Job:
    """One submitted exploration job and everything ever known about it."""

    __slots__ = (
        "id", "request", "state", "error", "origin", "scope",
        "document", "shared_cache",
    )

    def __init__(self, job_id: str, request: Dict[str, Any]) -> None:
        self.id = job_id
        self.request = request
        self.state = "queued"
        self.error: Optional[str] = None
        self.origin: Optional[str] = None
        self.scope: Optional[str] = None
        self.document: Optional[Dict[str, Any]] = None
        # Per-job slice of the scope cache's accounting: entries already in
        # the shared cache when the job started (nonzero = a near-duplicate
        # tenant ran before us) and the stage hits this job collected.
        self.shared_cache: Optional[Dict[str, Any]] = None

    def status_document(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "job": self.id,
            "state": self.state,
            "engine": self.request["engine"],
            "seed": self.request["seed"],
        }
        if self.origin is not None:
            document["problem"] = self.origin
        if self.scope is not None:
            document["cache_scope"] = self.scope
        if self.shared_cache is not None:
            document["shared_cache"] = self.shared_cache
        if self.error is not None:
            document["error"] = self.error
        return document


class JobManager:
    """Submit→poll→fetch job store over a worker thread pool."""

    def __init__(
        self,
        caches: Optional[ScopedStageCaches] = None,
        workers: int = 2,
        metrics=None,
        tracer=None,
    ) -> None:
        self._caches = caches if caches is not None else ScopedStageCaches()
        self._lane = BatchLane()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-job"
        )
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._metrics = metrics
        self._tracer = tracer

    @property
    def caches(self) -> ScopedStageCaches:
        return self._caches

    @property
    def lane(self) -> BatchLane:
        return self._lane

    def submit(self, request: Dict[str, Any]) -> Job:
        """Enqueue one validated explore request; returns the queued job."""
        with self._lock:
            self._next_id += 1
            job = Job(f"job-{self._next_id}", request)
            self._jobs[job.id] = job
            self._order.append(job.id)
        if self._metrics is not None:
            self._metrics.count("service.jobs.submitted")
        if self._tracer is not None:
            self._tracer.event("service.job_submitted", job=job.id)
        self._executor.submit(self._run, job)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list_documents(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [self._jobs[job_id].status_document() for job_id in self._order]

    def queue_depth(self) -> int:
        """Jobs submitted but not yet finished (queued + running)."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values()
                if job.state in ("queued", "running")
            )

    def close(self) -> None:
        """Stop accepting work and wait for running jobs to finish."""
        self._executor.shutdown(wait=True, cancel_futures=True)

    # -- execution -----------------------------------------------------------

    def _run(self, job: Job) -> None:
        job.state = "running"
        span = (
            self._tracer.span("service.job", job=job.id)
            if self._tracer is not None
            else None
        )
        try:
            self._execute(job)
            job.state = "done"
        except Exception as error:
            job.error = str(error)
            job.state = "failed"
            if self._metrics is not None:
                self._metrics.count("service.jobs.failed")
        finally:
            if span is not None:
                span.close(state=job.state)
            if self._metrics is not None:
                self._metrics.count("service.jobs.finished")

    def _execute(self, job: Job) -> None:
        request = job.request
        problem, origin = problem_and_origin(request)
        job.origin = origin
        scope = problem.stage_scope_key
        job.scope = scope
        cache = self._caches.cache_for(scope)
        before = cache.stats
        config = config_from_request(request)
        pool = EvaluationPool(
            problem,
            config.weights,
            workers=1,
            mode="serial",
            stage_cache=cache,
        )
        try:
            evaluator = BatchingEvaluator(
                problem,
                lane=self._lane,
                pool=pool,
                weights=config.weights,
                front=ParetoFront() if config.track_front else None,
                stage_cache=cache,
            )
            explorer = Explorer(problem, config=config, evaluator=evaluator)
            results = [
                explorer.explore(engine)
                for engine in engines_for(request["engine"])
            ]
        finally:
            pool.close()
        job.document = explore_document(
            origin,
            request["seed"],
            results,
            include_front=request["pareto"],
            problem=problem,
        )
        after = cache.stats
        job.shared_cache = {
            "scope": scope,
            "entries_at_start": before.expansions + before.schedules,
            "stage_hits": (
                (after.expansion_hits - before.expansion_hits)
                + (after.schedule_hits - before.schedule_hits)
            ),
            "stage_misses": (
                (after.expansion_misses - before.expansion_misses)
                + (after.schedule_misses - before.schedule_misses)
            ),
            "lru_evictions": after.lru_evictions - before.lru_evictions,
        }
        if self._metrics is not None:
            self._metrics.count(
                "service.stage_hits",
                job.shared_cache["stage_hits"],
            )
            self._metrics.gauge(
                "service.cache.occupancy_bytes", float(after.occupancy_bytes)
            )
