"""Parallel candidate evaluation on top of ``concurrent.futures``.

Scoring a candidate is an independent, pure computation (expand + schedule +
merge), so a neighbourhood batch parallelises perfectly.  The pool ships the
problem to each worker **once** — the repository's JSON system-description
payload, pickled *once* in the coordinator into a shared bytes blob that every
worker spawn reuses and the worker initialiser rebuilds — and then streams
small pre-pickled candidate units; evaluations come back as flat dataclasses
of floats.  No scheduler state, graph object or condition-universe bitmask
ever crosses the process boundary, so worker-side bit interning stays
internally consistent.  Because the coordinator serialises payloads itself,
it knows exactly how many bytes cross the boundary:
:attr:`EvaluationPool.payload_bytes_shipped` is a cumulative counter feeding
the ``repro-cpg explore --json`` batch-stats block.

Shape
-----
``workers`` is the pool's one shape setting.  One worker (the default)
scores in-process; more score on that many ``ProcessPoolExecutor`` worker
processes, with chunked submission amortising IPC per batch.

Every in-process route — one worker, a one-candidate batch on a process
pool and a degraded pool — scores through one
:func:`~repro.exploration.evaluate_neighbourhood` call over the in-process
stage cache.  An unarmed one-worker pool hands it the batch's selection
(tabu search's choice rule), so it may skip merges; every other route
ignores the selection and returns full evaluations, which is always
correct.  An armed one-worker pool scores one candidate at a time, each
attempt through the fault injector first, retried under the pooled path's
bookkeeping.

Resilience
----------
Pooled evaluation survives worker faults (see
:mod:`repro.exploration.resilience`).  Failures inside a worker come back as
marshalled exceptions and are retried under the :class:`RetryPolicy`; worker
*death* (``BrokenProcessPool``) tears the executor down, respawns it and
resubmits every unfinished unit; per-unit timeouts catch hung workers.  A
candidate that keeps failing attributably is *quarantined* — scored with the
infeasible sentinel instead of killing the run — and when respawned pools
keep dying without making progress, the pool degrades to trusted in-process
evaluation.  Because evaluation is pure and fault decisions are hashed from
``(seed, fingerprint, attempt)``, none of this changes any result: batches
come back in submission order with bit-identical evaluations, faults or not.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
)
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
from .resilience import (
    FaultInjector,
    ResilienceStats,
    RetryPolicy,
    WorkerInitializationError,
    quarantined_evaluation,
)

#: Seconds a fresh process pool may take before its first worker answers a
#: liveness probe; past it, start-up fails with WorkerInitializationError.
WORKER_STARTUP_TIMEOUT = 60.0

# Worker-process globals, set once per worker by _initialise_worker.
_WORKER_PROBLEM: Optional[ExplorationProblem] = None
_WORKER_WEIGHTS: Optional[CostWeights] = None
# Each worker keeps its own stage cache (expansion + per-path schedules, see
# cost.StageCache): stages are pure, so which worker a candidate lands on
# changes only how often stages recompute, never the evaluations — results
# stay submission-order deterministic whatever the chunking does.
_WORKER_STAGE_CACHE: Optional[StageCache] = None
_WORKER_INJECTOR: Optional[FaultInjector] = None


def _initialise_worker(
    payload: Any,
    weights: CostWeights,
    injector: Optional[FaultInjector] = None,
) -> None:
    global _WORKER_PROBLEM, _WORKER_WEIGHTS, _WORKER_STAGE_CACHE, _WORKER_INJECTOR
    if isinstance(payload, (bytes, bytearray, memoryview)):
        # The coordinator ships the payload pickled once as a shared blob;
        # each worker unpickles its copy exactly once, here.
        payload = pickle.loads(payload)
    if injector is not None and injector.fail_worker_init:
        raise WorkerInitializationError(
            f"injected worker-initialisation failure for problem "
            f"{payload.get('name')!r}"
        )
    _WORKER_PROBLEM = ExplorationProblem.from_payload(payload)
    _WORKER_WEIGHTS = weights
    _WORKER_STAGE_CACHE = StageCache()
    _WORKER_INJECTOR = injector


def _worker_probe() -> bool:
    """Cheap liveness check: did the initialiser complete in this worker?"""
    return _WORKER_PROBLEM is not None


def _evaluate_in_worker(candidate: Candidate) -> CandidateEvaluation:
    assert _WORKER_PROBLEM is not None and _WORKER_WEIGHTS is not None
    return evaluate_candidate(
        _WORKER_PROBLEM,
        candidate,
        _WORKER_WEIGHTS,
        stage_cache=_WORKER_STAGE_CACHE,
    )


def _evaluate_unit_in_worker(
    unit: Sequence[Tuple[Candidate, int]]
) -> List[CandidateEvaluation]:
    """Score one resubmittable unit of (candidate, attempt) pairs."""
    results: List[CandidateEvaluation] = []
    for candidate, attempt in unit:
        if _WORKER_INJECTOR is not None:
            _WORKER_INJECTOR.inject(candidate.fingerprint, attempt, in_worker=True)
        results.append(_evaluate_in_worker(candidate))
    return results


def _evaluate_unit_blob(blob: bytes) -> List[CandidateEvaluation]:
    """Score a unit shipped as a pre-pickled blob (process workers).

    The coordinator pickles the unit itself (so the exact byte count is
    known and accounted) and ships the blob; ``concurrent.futures`` then
    only re-serialises a bytes object — a memcpy, not a re-walk of the
    candidate structures.
    """
    return _evaluate_unit_in_worker(pickle.loads(blob))


@dataclass
class _ResilienceCounters:
    """Mutable tally behind the frozen :class:`ResilienceStats` snapshots."""

    retries: int = 0
    timeouts: int = 0
    worker_restarts: int = 0
    quarantined: int = 0
    injected: int = 0
    degraded: bool = False

    def snapshot(self) -> ResilienceStats:
        return ResilienceStats(
            retries=self.retries,
            timeouts=self.timeouts,
            worker_restarts=self.worker_restarts,
            quarantined=self.quarantined,
            injected=self.injected,
            degraded=self.degraded,
        )


class EvaluationPool:
    """Batched scoring of candidates, optionally across worker processes.

    ``workers`` sets the shape: 1 scores in-process, more score on that many
    worker processes (below 1 raises ``ValueError``).  The pool is lazy: no
    executor exists until the first batch that can use one, and ``close()``
    (or use as a context manager) tears it down.  Results are always
    returned in submission order, so search engines stay deterministic
    regardless of worker scheduling.

    ``retry`` and ``fault_injector`` arm the resilience layer (see the module
    docstring).  A process pool always detects broken executors and
    respawns them; an explicit retry policy additionally bounds
    per-unit evaluation time, and a fault injector exercises the whole
    machinery deterministically.  Unarmed, a one-worker pool scores each
    batch in one in-process call and has no resilience layer at all
    (:attr:`resilience_stats` is None).
    """

    def __init__(
        self,
        problem: ExplorationProblem,
        weights: CostWeights = CostWeights(),
        workers: int = 1,
        retry: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
        tracer=None,
        metrics=None,
        stage_cache: Optional[StageCache] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._problem = problem
        self._weights = weights
        self._workers = workers
        self._in_process = workers == 1
        self._executor: Optional[ProcessPoolExecutor] = None
        # Incremental evaluation (cost.StageCache).  One worker scores
        # through this in-process cache; process workers each keep their
        # own cache instead — and the pool keeps no in-process cache until
        # it degrades to in-process evaluation, so ``stage_stats`` never
        # hides real caching activity.  An *injected* cache (repro-cpg
        # serve's shared cross-request cache, possibly bounded) replaces the
        # pool-private one.  Process workers cannot honour it — their caches
        # live in other processes — so the mismatch is an error rather than
        # a silent private cache.
        if stage_cache is not None and not self._in_process:
            raise ValueError(
                "an injected stage_cache requires one worker; "
                "process workers keep per-process caches"
            )
        if stage_cache is None and self._in_process:
            stage_cache = StageCache()
        self._stage_cache: Optional[StageCache] = stage_cache
        self._armed = retry is not None or fault_injector is not None
        self._retry = retry if retry is not None else RetryPolicy()
        self._injector = fault_injector
        # Observability (repro.observability): resilience decisions become
        # first-class trace events and pool.* metrics.  Process workers stay
        # uninstrumented — their spans would live in another process; the
        # coordinator-side unit latency / queue depth still tell the story.
        self._tracer = tracer
        self._metrics = metrics
        self._counters = _ResilienceCounters()
        self._degraded = False
        self._payload: Optional[Dict[str, Any]] = None
        self._payload_validated = False
        # Pickled-once problem payload (process workers): every spawn
        # reuses this blob instead of re-serialising the nested payload dict.
        self._payload_blob: Optional[bytes] = None
        self._payload_bytes_shipped = 0

    @property
    def weights(self) -> CostWeights:
        return self._weights

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def degraded(self) -> bool:
        """Whether the pool fell back to in-process evaluation for good."""
        return self._degraded

    @property
    def payload_bytes_shipped(self) -> int:
        """Cumulative bytes serialised across the process boundary.

        Counts the pickled-once problem blob (once per worker, again after a
        restart respawns the pool) plus every pre-pickled candidate unit.
        One worker ships nothing, so the counter stays 0 — the
        batch-stats block in ``explore --json`` reports payload traffic only
        where it actually exists.
        """
        return self._payload_bytes_shipped

    @property
    def resilience_stats(self) -> Optional[ResilienceStats]:
        """Fault/retry counters accumulated over the pool's lifetime.

        None for an unarmed one-worker pool, which has no resilience layer:
        nothing it runs is ever retried, injected, timed out or respawned.
        """
        if self._in_process and not self._armed:
            return None
        return self._counters.snapshot()

    def _resilience(self, event: str, counter: str, **attrs) -> None:
        """Record one resilience decision as a trace event + pool counter."""
        if self._tracer is not None:
            self._tracer.event(event, **attrs)
        if self._metrics is not None:
            self._metrics.count(counter)

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

    def _validated_payload(self) -> Dict[str, Any]:
        """The worker payload, proven rebuildable *before* any worker starts.

        A payload the workers cannot rebuild would otherwise surface as an
        opaque ``BrokenProcessPool`` after every worker died trying; failing
        here names the problem instead.
        """
        if self._payload is None:
            self._payload = self._problem.to_payload()
        if not self._payload_validated:
            try:
                ExplorationProblem.from_payload(self._payload)
            except Exception as error:
                raise WorkerInitializationError(
                    f"problem payload {self._problem.name!r} cannot be rebuilt "
                    f"by evaluation workers: {error}"
                ) from error
            self._payload_validated = True
        return self._payload

    def _validated_payload_blob(self) -> bytes:
        """The worker payload pickled exactly once, shared by every spawn."""
        if self._payload_blob is None:
            self._payload_blob = pickle.dumps(
                self._validated_payload(), protocol=pickle.HIGHEST_PROTOCOL
            )
        return self._payload_blob

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            blob = self._validated_payload_blob()
            executor = ProcessPoolExecutor(
                max_workers=self._workers,
                initializer=_initialise_worker,
                initargs=(blob, self._weights, self._injector),
            )
            # Each spawned worker receives its own copy of the initargs blob
            # across the process boundary.
            self._payload_bytes_shipped += len(blob) * self._workers
            if self._metrics is not None:
                self._metrics.count("pool.payload_bytes", len(blob) * self._workers)
            probe = executor.submit(_worker_probe)
            try:
                probe.result(timeout=WORKER_STARTUP_TIMEOUT)
            except BrokenExecutor as error:
                executor.shutdown(wait=False, cancel_futures=True)
                raise WorkerInitializationError(
                    f"worker initialisation failed for problem "
                    f"{self._problem.name!r} ({self._workers} process "
                    f"worker(s)): {error}"
                ) from error
            except TimeoutError as error:
                executor.shutdown(wait=False, cancel_futures=True)
                raise WorkerInitializationError(
                    f"worker initialisation for problem {self._problem.name!r} "
                    f"timed out after {WORKER_STARTUP_TIMEOUT:g}s"
                ) from error
            self._executor = executor
        return self._executor

    def _restart_executor(self) -> None:
        """Tear down a broken/hung executor so the next round respawns it."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._counters.worker_restarts += 1
        self._resilience("resilience.worker_restart", "pool.worker_restarts")

    def _degrade(self) -> None:
        """Give up on pooled execution; evaluate in-process from now on."""
        self._degraded = True
        self._counters.degraded = True
        self._resilience("resilience.degrade", "pool.degraded")
        self._stage_cache = StageCache()

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

        ``select`` lets an unarmed one-worker pool skip merges (None marks a
        skipped candidate, and the returned scores count the paths skipped
        with them, see :func:`evaluate_neighbourhood`); every other route
        ignores it.
        """
        candidates = list(candidates)
        if self._in_process and self._armed:
            return self._evaluate_armed_in_process(candidates)
        if (
            self._degraded
            or self._in_process
            or (len(candidates) < 2 and not self._armed)
        ):
            # Trusted in-process evaluation.  A degraded pool's workers are
            # gone for good, and the injector simulates *worker* faults.
            return self._evaluate_in_process(
                candidates, select if self._in_process else None
            )
        return self._evaluate_pooled(candidates)

    def _evaluate_in_process(
        self,
        candidates: List[Candidate],
        select: Optional[TabuSelection] = None,
    ) -> List[Optional[CandidateEvaluation]]:
        """The pool's one in-process scoring call (see the module docstring)."""
        return evaluate_neighbourhood(
            self._problem,
            candidates,
            self._weights,
            stage_cache=self._stage_cache,
            tracer=self._tracer,
            metrics=self._metrics,
            select=select,
        )

    def _evaluate_armed_in_process(
        self, candidates: List[Candidate]
    ) -> List[CandidateEvaluation]:
        """Armed one-worker evaluation: every candidate is a singleton unit.

        Each attempt passes the fault injector first; an injected fault of
        any kind raises here (see :meth:`FaultInjector.inject`), since the
        coordinator must survive its own evaluations.  A failed attempt is
        attributed like a failed pooled unit (retry or quarantine, see
        :meth:`_attribute_failure`) and retried after the same deterministic
        backoff, before the next candidate starts.
        """
        total = len(candidates)
        results: List[Optional[CandidateEvaluation]] = [None] * total
        attempts = [0] * total
        failures = [0] * total
        for index, candidate in enumerate(candidates):
            while results[index] is None:
                try:
                    self._inject(candidate, attempts[index])
                    results[index] = self._evaluate_in_process([candidate])[0]
                except Exception as error:
                    retry: List[Tuple[int, ...]] = []
                    self._attribute_failure(
                        (index,), attempts, failures, results, candidates,
                        retry, str(error),
                    )
                    self._back_off(retry, failures, candidates)
        return results

    def _evaluate_pooled(
        self, candidates: List[Candidate]
    ) -> List[CandidateEvaluation]:
        """The resilient unit-based submission path (process workers).

        Candidates are grouped into *units* (index tuples).  Each round
        submits every outstanding unit, harvests results, and classifies
        failures:

        * a marshalled exception or a per-unit timeout is *attributable* —
          singleton units count a failure toward quarantine, larger units
          split into singletons so one poison candidate cannot take its
          chunk-mates down with it;
        * a broken executor is *collateral* — unfinished units resubmit with
          bumped attempt numbers (so injected 'exit' faults move to a fresh
          draw) but no candidate is blamed.

        Restart budget: ``RetryPolicy.max_pool_restarts`` consecutive
        restarts without harvesting a single unit degrade the pool to
        in-process evaluation.
        """
        total = len(candidates)
        results: List[Optional[CandidateEvaluation]] = [None] * total
        attempts = [0] * total
        failures = [0] * total
        chunk = max(1, total // (self._workers * 4))
        pending: List[Tuple[int, ...]] = [
            tuple(range(start, min(start + chunk, total)))
            for start in range(0, total, chunk)
        ]
        restarts_without_progress = 0

        while pending and not self._degraded:
            executor = self._ensure_executor()
            if self._metrics is not None:
                # High-water gauges (merges keep the max across snapshots).
                self._metrics.gauge("pool.queue_depth", float(len(pending)))
                self._metrics.gauge("pool.workers", float(self._workers))
            round_started = (
                time.perf_counter() if self._metrics is not None else 0.0
            )
            submitted: List[Tuple[Future, Tuple[int, ...]]] = []
            unsubmitted: List[Tuple[int, ...]] = []
            broken = False
            for position, unit in enumerate(pending):
                try:
                    future = executor.submit(
                        _evaluate_unit_blob,
                        self._unit_blob(candidates, attempts, unit),
                    )
                except BrokenExecutor:
                    # Workers died while the round was still being submitted;
                    # the rest of the round is collateral.
                    broken = True
                    unsubmitted = pending[position:]
                    break
                submitted.append((future, unit))
            pending = []
            for unit in unsubmitted:
                for index in unit:
                    attempts[index] += 1
                pending.append(unit)
            retry_round: List[Tuple[int, ...]] = []
            progress = False

            for future, unit in submitted:
                if broken:
                    # The executor already died this round; collect whatever
                    # finished, treat the rest as collateral.
                    if future.done():
                        try:
                            self._record(results, unit, future.result())
                            progress = True
                            continue
                        except Exception:
                            pass
                    for index in unit:
                        attempts[index] += 1
                    pending.append(unit)
                    continue
                try:
                    values = future.result(timeout=self._unit_timeout(unit))
                    self._record(results, unit, values)
                    progress = True
                    if self._metrics is not None:
                        # Coordinator-side submit-to-harvest latency per unit.
                        self._metrics.observe(
                            "pool.unit.seconds",
                            time.perf_counter() - round_started,
                        )
                except TimeoutError:
                    self._counters.timeouts += 1
                    self._resilience(
                        "resilience.timeout", "pool.timeouts", unit=len(unit)
                    )
                    broken = True  # a worker is stuck; tear the pool down
                    self._attribute_failure(
                        unit, attempts, failures, results, candidates,
                        pending, "evaluation timed out",
                    )
                except BrokenExecutor:
                    broken = True
                    for index in unit:
                        attempts[index] += 1
                    pending.append(unit)
                except Exception as error:
                    # Marshalled worker exception: injected crash or a
                    # genuinely poisoned candidate.
                    self._attribute_failure(
                        unit, attempts, failures, results, candidates,
                        retry_round, str(error),
                    )

            pending.extend(retry_round)
            if broken:
                self._restart_executor()
                restarts_without_progress = (
                    0 if progress else restarts_without_progress + 1
                )
                if restarts_without_progress > self._retry.max_pool_restarts:
                    self._degrade()
            else:
                # Plain retries with a healthy pool.
                self._back_off(retry_round, failures, candidates)

        # A degraded pool scores whatever is still outstanding in-process.
        remaining = [index for unit in pending for index in unit]
        self._record(
            results,
            remaining,
            self._evaluate_in_process([candidates[index] for index in remaining]),
        )
        return results

    def _unit_blob(
        self,
        candidates: List[Candidate],
        attempts: List[int],
        unit: Tuple[int, ...],
    ) -> bytes:
        """One unit's (candidate, attempt) pairs, pickled for a worker.

        Pickled here, once, so the executor only ships bytes and the exact
        payload traffic is known for batch stats.
        """
        payload = [(candidates[index], attempts[index]) for index in unit]
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._payload_bytes_shipped += len(blob)
        if self._metrics is not None:
            self._metrics.count("pool.payload_bytes", len(blob))
        return blob

    def _inject(self, candidate: Candidate, attempt: int) -> None:
        """Fire (and count) this in-process attempt's injected fault, if any."""
        if self._injector is None:
            return
        fault = self._injector.fault_for(candidate.fingerprint, attempt)
        if fault is not None:
            self._counters.injected += 1
            self._resilience(
                "resilience.fault_injected", "pool.injected",
                fingerprint=candidate.fingerprint, attempt=attempt, fault=fault,
            )
            self._injector.inject(candidate.fingerprint, attempt, in_worker=False)

    def _unit_timeout(self, unit: Tuple[int, ...]) -> Optional[float]:
        if self._retry.timeout is None:
            return None
        return self._retry.timeout * len(unit)

    @staticmethod
    def _record(
        results: List[Optional[CandidateEvaluation]],
        unit: Sequence[int],
        values: Sequence[CandidateEvaluation],
    ) -> None:
        for index, evaluation in zip(unit, values):
            results[index] = evaluation

    def _back_off(
        self,
        units: List[Tuple[int, ...]],
        failures: List[int],
        candidates: List[Candidate],
    ) -> None:
        """Sleep before retrying ``units``: their longest deterministic backoff."""
        delay = max(
            (
                self._retry.delay_for(
                    max(1, failures[unit[0]]), candidates[unit[0]].fingerprint
                )
                for unit in units
            ),
            default=0.0,
        )
        if delay > 0:
            time.sleep(delay)

    def _attribute_failure(
        self,
        unit: Tuple[int, ...],
        attempts: List[int],
        failures: List[int],
        results: List[Optional[CandidateEvaluation]],
        candidates: List[Candidate],
        resubmit: List[Tuple[int, ...]],
        error: str,
    ) -> None:
        """Handle an attributable unit failure: retry, split or quarantine."""
        for index in unit:
            attempts[index] += 1
        if len(unit) > 1:
            # Isolate the poison: retry members individually.
            self._counters.retries += 1
            self._resilience("resilience.retry", "pool.retries", unit=len(unit))
            for index in unit:
                resubmit.append((index,))
            return
        index = unit[0]
        failures[index] += 1
        if failures[index] >= self._retry.max_attempts:
            results[index] = quarantined_evaluation(
                candidates[index].fingerprint, failures[index], error
            )
            self._counters.quarantined += 1
            self._resilience(
                "resilience.quarantine", "pool.quarantined",
                fingerprint=candidates[index].fingerprint,
                failures=failures[index],
            )
        else:
            self._counters.retries += 1
            self._resilience(
                "resilience.retry", "pool.retries",
                fingerprint=candidates[index].fingerprint,
            )
            resubmit.append(unit)
