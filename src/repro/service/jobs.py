"""Job execution behind the service: scoped caches, one evaluation lock, jobs.

Three pieces sit between a validated request document and its result:

* :class:`ScopedStageCaches` — one **bounded** shared
  :class:`~repro.exploration.StageCache` per *stage scope*
  (:attr:`~repro.exploration.ExplorationProblem.stage_scope_key`).
  Near-duplicate tenants — same graph content, architecture, bus policy and
  sizing bounds; any name or seed mapping — land in the same scope and serve
  each other's expansion and per-path schedule stages.  That cross-request
  reuse is the whole multi-tenant win of serving exploration instead of
  shipping a CLI.
* :class:`EvaluationLock` — serialises the fresh batches of concurrently
  running jobs.  Evaluation is CPU-bound pure Python, so job threads that
  evaluated at the same time would only trade the GIL back and forth; taken
  once per batch (not per job), the lock keeps a short job from waiting
  behind a whole long one.
* :class:`JobManager` — the submit→poll→fetch store.  Jobs run on a small
  thread pool; each one explores through a
  :class:`~repro.exploration.CachedEvaluator` whose whole-candidate cache is
  job-private (fingerprints are problem-specific) but whose stage cache is
  the scope's shared one, and whose fresh batches hold the evaluation lock.

Determinism: a job's result document depends only on its request (given a
cold scope also byte-identically matching the one-shot CLI).  Stages are
pure, so a warm or concurrently-shared scope cache changes only the stage
hit *counters* in the document, never the search trajectory, best candidate
or front.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from ..exploration import CachedEvaluator, Explorer, ParetoFront, StageCache
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
        max_entries: int = DEFAULT_CACHE_MAX_ENTRIES,
        max_bytes: int = DEFAULT_CACHE_MAX_BYTES,
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
                    "expansion_hits": stats.expansion_hits,
                    "expansion_misses": stats.expansion_misses,
                    "schedule_hits": stats.schedule_hits,
                    "schedule_misses": stats.schedule_misses,
                    "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                }
                totals["entries"] += entries
                totals["occupancy_bytes"] += stats.occupancy_bytes
                totals["lru_evictions"] += stats.lru_evictions
                totals["hits"] += hits
                totals["misses"] += misses
            return {
                "budget": {
                    "max_entries": self._max_entries,
                    "max_bytes": self._max_bytes,
                },
                "scopes": scopes,
                "totals": totals,
            }


class EvaluationLock:
    """The one lock every job's fresh batch holds while it is evaluated.

    The counters feed ``GET /stats`` (bookkeeping only, updated under the
    lock): ``batches`` counts the fresh batches jobs evaluated, and
    ``coalesced`` the ones that found another job's batch running and
    waited for it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.batches = 0
        self.coalesced = 0

    def __enter__(self) -> "EvaluationLock":
        if not self._lock.acquire(blocking=False):
            self._lock.acquire()
            self.coalesced += 1
        self.batches += 1
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class _JobEvaluator(CachedEvaluator):
    """A :class:`CachedEvaluator` whose fresh batches hold the evaluation lock.

    Everything else is the CLI's serial shape — a one-worker pool over the
    given stage cache, so the result document stays byte-identical.
    """

    def __init__(self, problem, lock: EvaluationLock, **options) -> None:
        super().__init__(problem, **options)
        self._evaluation_lock = lock

    def _evaluate_fresh(self, candidates: List, select=None) -> List:
        with self._evaluation_lock:
            return super()._evaluate_fresh(candidates, select)


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
        tracer=None,
    ) -> None:
        self._caches = caches if caches is not None else ScopedStageCaches()
        self._evaluation_lock = EvaluationLock()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-job"
        )
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._tracer = tracer

    @property
    def caches(self) -> ScopedStageCaches:
        return self._caches

    @property
    def evaluation_lock(self) -> EvaluationLock:
        return self._evaluation_lock

    def submit(self, request: Dict[str, Any]) -> Job:
        """Enqueue one validated explore request; returns the queued job."""
        with self._lock:
            self._next_id += 1
            job = Job(f"job-{self._next_id}", request)
            self._jobs[job.id] = job
            self._order.append(job.id)
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
        finally:
            if span is not None:
                span.close(state=job.state)

    def _execute(self, job: Job) -> None:
        request = job.request
        problem, origin = problem_and_origin(request)
        job.origin = origin
        scope = problem.stage_scope_key
        job.scope = scope
        cache = self._caches.cache_for(scope)
        before = cache.stats
        config = config_from_request(request)
        evaluator = _JobEvaluator(
            problem,
            self._evaluation_lock,
            weights=config.weights,
            front=ParetoFront() if config.track_front else None,
            stage_cache=cache,
        )
        explorer = Explorer(problem, config=config, evaluator=evaluator)
        results = [
            explorer.explore(engine) for engine in engines_for(request["engine"])
        ]
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
