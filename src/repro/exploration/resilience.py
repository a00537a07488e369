"""Fault injection, retry policies and checkpointing for the explorer.

The evaluation layer is pure, which makes it *restartable*: a candidate that
was lost to a crashed worker, an injected hang or a poisoned chunk can simply
be evaluated again and must produce the identical
:class:`~repro.exploration.CandidateEvaluation`.  This module supplies the
three pieces the resilient runtime is built from:

:class:`FaultInjector`
    Deterministic, seeded fault decisions.  Faults are *not* drawn from the
    engine RNG: each decision hashes ``(seed, fingerprint, attempt)``, so
    whether an evaluation faults depends only on the candidate and how often
    it was tried — never on worker scheduling, chunking or pool size.  A
    retried evaluation moves to the next attempt and therefore to a fresh
    draw, so injected faults delay results but cannot change them: a run with
    faults injected reports the bit-identical best cost and trajectory as the
    fault-free run with the same engine seed.

:class:`RetryPolicy`
    Bounded retries with exponential backoff and deterministic jitter, a
    per-evaluation timeout for pooled execution, and the pool-restart budget
    after which the :class:`~repro.exploration.EvaluationPool` degrades to
    trusted in-process evaluation.

Checkpoint documents
    Versioned JSON snapshots of a running engine — RNG state, current/best
    candidate, tabu list / temperature / population, trajectory and Pareto
    front — written atomically by :class:`Checkpointer` and validated by
    :func:`load_checkpoint` / :func:`validate_checkpoint`.  Resuming from a
    checkpoint continues the search bit-identically to the uninterrupted run
    (cache *counters* restart from zero; every value the search reads is in
    the snapshot).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .candidate import Candidate
from .cost import CandidateEvaluation

CHECKPOINT_VERSION = 1

_INFEASIBLE_COST = float("inf")


class InjectedFault(RuntimeError):
    """The exception a 'crash' fault raises inside an evaluation."""


class WorkerInitializationError(RuntimeError):
    """Worker start-up failed: the problem payload or the workers are broken."""


class CheckpointError(ValueError):
    """A checkpoint file is missing, malformed or belongs to a different run."""


# -- fault injection ---------------------------------------------------------------


@dataclass(frozen=True)
class FaultInjector:
    """Seeded, deterministic fault decisions for evaluation workers.

    Rates are independent probabilities checked in order crash -> hang ->
    exit; at most one fault fires per (candidate, attempt).  ``hang_seconds``
    bounds an injected hang (a sleep, so a per-evaluation timeout can catch
    it without leaving an unkillable worker behind).  ``fail_worker_init``
    makes the *worker initialiser* raise instead — the deterministic handle
    on start-up failures.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    exit_rate: float = 0.0
    hang_seconds: float = 30.0
    fail_worker_init: bool = False

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "exit_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate!r}")
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be non-negative")

    @property
    def armed(self) -> bool:
        """Whether any fault can ever fire."""
        return (
            self.crash_rate > 0
            or self.hang_rate > 0
            or self.exit_rate > 0
            or self.fail_worker_init
        )

    def _draw(self, fingerprint: str, attempt: int, salt: str) -> float:
        digest = hashlib.sha256(
            f"{self.seed}|{fingerprint}|{attempt}|{salt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def fault_for(self, fingerprint: str, attempt: int) -> Optional[str]:
        """The fault (``'crash'``/``'hang'``/``'exit'``) for one attempt, or None.

        Pure and scheduling-independent: the same (fingerprint, attempt) pair
        always yields the same decision, whatever worker evaluates it.
        """
        if self._draw(fingerprint, attempt, "crash") < self.crash_rate:
            return "crash"
        if self._draw(fingerprint, attempt, "hang") < self.hang_rate:
            return "hang"
        if self._draw(fingerprint, attempt, "exit") < self.exit_rate:
            return "exit"
        return None

    def inject(self, fingerprint: str, attempt: int, in_worker: bool) -> None:
        """Fire the configured fault for this attempt, if any.

        ``in_worker`` distinguishes a pool worker process (where ``'exit'``
        may genuinely kill the process) from in-process evaluation, where
        'exit' and 'hang' both degrade to a crash-style exception — killing
        or sleeping the coordinator would take the whole run down, which is
        exactly what the resilience layer exists to prevent.
        """
        fault = self.fault_for(fingerprint, attempt)
        if fault is None:
            return
        if fault == "crash":
            raise InjectedFault(
                f"injected crash for candidate {fingerprint} (attempt {attempt})"
            )
        if fault == "hang":
            if in_worker:
                time.sleep(self.hang_seconds)
                return
            raise InjectedFault(
                f"injected hang for candidate {fingerprint} (attempt {attempt})"
            )
        # 'exit': abrupt worker death, the BrokenProcessPool case.
        if in_worker:
            os._exit(1)
        raise InjectedFault(
            f"injected exit for candidate {fingerprint} (attempt {attempt})"
        )


# -- retry policy ------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries, deterministic backoff and the pool-restart budget.

    ``max_attempts`` counts *attributable* failures per candidate before it
    is quarantined (scored with the infeasible sentinel instead of killing
    the run).  ``timeout`` bounds one pooled evaluation unit (None disables
    timeouts; injected hangs then merely delay the batch by
    ``FaultInjector.hang_seconds``).  ``max_pool_restarts`` bounds executor
    respawns *without progress* before the pool degrades to in-process
    evaluation.  Backoff for attempt ``k`` is
    ``min(backoff_max, backoff_base * backoff_factor**(k-1))`` plus a
    deterministic jitter hashed from the retried key, so reruns sleep
    identically.
    """

    max_attempts: int = 3
    timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    max_pool_restarts: int = 5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff bounds must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        if self.max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be non-negative")

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based), in seconds."""
        if attempt < 1 or self.backoff_base <= 0:
            return 0.0
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter > 0:
            digest = hashlib.sha256(f"backoff|{key}|{attempt}".encode()).digest()
            fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
            delay *= 1.0 - self.jitter * fraction
        return delay


@dataclass(frozen=True)
class ResilienceStats:
    """Fault/retry counters of one pool (reported in ExplorationResult).

    ``injected`` counts the faults injected into in-process evaluation (an
    armed serial pool); faults injected inside process workers are not
    shipped back, so they show only through the retries, timeouts and
    restarts they cause.
    """

    retries: int = 0
    timeouts: int = 0
    worker_restarts: int = 0
    quarantined: int = 0
    injected: int = 0
    degraded: bool = False

    @property
    def eventful(self) -> bool:
        """Whether anything at all went wrong (or was injected)."""
        return any(
            getattr(self, f.name) for f in fields(self) if f.name != "degraded"
        ) or self.degraded


def quarantined_evaluation(
    fingerprint: str, failures: int, error: str
) -> CandidateEvaluation:
    """The sentinel scored for a candidate that failed ``failures`` times.

    Infeasible with infinite cost, so every engine treats the design point as
    a dead end instead of dying with it; the error message preserves the last
    failure for diagnosis.
    """
    return CandidateEvaluation(
        fingerprint=fingerprint,
        cost=_INFEASIBLE_COST,
        feasible=False,
        error=f"quarantined after {failures} failed evaluations: {error}",
    )


# -- checkpoint serialisation helpers ----------------------------------------------
#
# Checkpoints are strict JSON (RFC 8259 has no Infinity/NaN), so the one
# non-finite value the search produces — the infeasible cost, float('inf') —
# round-trips as None.


def _cost_to_json(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def _cost_from_json(value: Optional[float]) -> float:
    return float(value) if value is not None else _INFEASIBLE_COST


def candidate_to_json(candidate: Candidate) -> Dict[str, Any]:
    return {
        "assignment": [list(pair) for pair in candidate.assignment],
        "priority_function": candidate.priority_function,
        "priority_bias": [list(pair) for pair in candidate.priority_bias],
        "platform": [list(pair) for pair in candidate.platform],
        "communication_assignment": [
            list(pair) for pair in candidate.communication_assignment
        ],
    }


def candidate_from_json(document: Dict[str, Any]) -> Candidate:
    return Candidate(
        assignment=tuple(
            (name, pe) for name, pe in document["assignment"]
        ),
        priority_function=document["priority_function"],
        priority_bias=tuple(
            (name, float(bias)) for name, bias in document["priority_bias"]
        ),
        platform=tuple((name, kind) for name, kind in document["platform"]),
        communication_assignment=tuple(
            (message, bus) for message, bus in document["communication_assignment"]
        ),
    )


def evaluation_to_json(evaluation: CandidateEvaluation) -> Dict[str, Any]:
    return {
        "fingerprint": evaluation.fingerprint,
        "cost": _cost_to_json(evaluation.cost),
        "feasible": evaluation.feasible,
        "delta_max": _cost_to_json(evaluation.delta_max),
        "delta_m": _cost_to_json(evaluation.delta_m),
        "mean_path_delay": _cost_to_json(evaluation.mean_path_delay),
        "load_imbalance": evaluation.load_imbalance,
        "architecture_cost": evaluation.architecture_cost,
        "bus_imbalance": evaluation.bus_imbalance,
        "paths": evaluation.paths,
        "error": evaluation.error,
    }


def evaluation_from_json(document: Dict[str, Any]) -> CandidateEvaluation:
    return CandidateEvaluation(
        fingerprint=document["fingerprint"],
        cost=_cost_from_json(document["cost"]),
        feasible=bool(document["feasible"]),
        delta_max=_cost_from_json(document["delta_max"]),
        delta_m=_cost_from_json(document["delta_m"]),
        mean_path_delay=_cost_from_json(document["mean_path_delay"]),
        load_imbalance=float(document["load_imbalance"]),
        architecture_cost=float(document["architecture_cost"]),
        bus_imbalance=float(document["bus_imbalance"]),
        paths=int(document["paths"]),
        error=document.get("error") or "",
    )


def scored_to_json(
    candidate: Candidate, evaluation: CandidateEvaluation
) -> Dict[str, Any]:
    return {
        "candidate": candidate_to_json(candidate),
        "evaluation": evaluation_to_json(evaluation),
    }


def scored_from_json(
    document: Dict[str, Any]
) -> Tuple[Candidate, CandidateEvaluation]:
    return (
        candidate_from_json(document["candidate"]),
        evaluation_from_json(document["evaluation"]),
    )


def rng_state_to_json(state: Tuple[Any, ...]) -> List[Any]:
    """``random.Random.getstate()`` output as a JSON-safe list."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def rng_state_from_json(document: Sequence[Any]) -> Tuple[Any, ...]:
    version, internal, gauss_next = document
    return (version, tuple(internal), gauss_next)


def trajectory_to_json(trajectory: Sequence[Any]) -> List[Dict[str, Any]]:
    return [
        {
            "cycle": point.cycle,
            "move": point.move,
            "cost": _cost_to_json(point.cost),
            "best_cost": _cost_to_json(point.best_cost),
            "accepted": point.accepted,
        }
        for point in trajectory
    ]


def trajectory_from_json(documents: Sequence[Dict[str, Any]]) -> List[Any]:
    from .engines import TrajectoryPoint  # circular at import time

    return [
        TrajectoryPoint(
            cycle=int(entry["cycle"]),
            move=entry["move"],
            cost=_cost_from_json(entry["cost"]),
            best_cost=_cost_from_json(entry["best_cost"]),
            accepted=int(entry["accepted"]),
        )
        for entry in documents
    ]


def search_state_to_json(state: Any) -> Dict[str, Any]:
    return {
        "cycle": state.cycle,
        "evaluations": state.evaluations,
        "cycles_since_improvement": state.cycles_since_improvement,
        "best_cost": _cost_to_json(state.best_cost),
    }


def search_state_from_json(document: Dict[str, Any]) -> Any:
    from .engines import SearchState  # circular at import time

    return SearchState(
        cycle=int(document["cycle"]),
        evaluations=int(document["evaluations"]),
        cycles_since_improvement=int(document["cycles_since_improvement"]),
        best_cost=_cost_from_json(document["best_cost"]),
    )


def front_to_json(front: Optional[Any]) -> Optional[List[Dict[str, Any]]]:
    """A ParetoFront's points, in offer order (first-offered wins ties)."""
    if front is None:
        return None
    return [
        scored_to_json(point.candidate, point.evaluation)
        for point in front.points
    ]


def snapshot_document(
    *,
    engine: str,
    seed: int,
    problem_key: str,
    state: Any,
    rng_state: Tuple[Any, ...],
    initial: Tuple[Candidate, CandidateEvaluation],
    best: Tuple[Candidate, CandidateEvaluation],
    trajectory: Sequence[Any],
    engine_state: Dict[str, Any],
    front: Optional[Any] = None,
    completed: bool = False,
    stop_reason: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble one versioned checkpoint document (plain JSON types only)."""
    return {
        "version": CHECKPOINT_VERSION,
        "engine": engine,
        "seed": seed,
        "problem": problem_key,
        "completed": completed,
        "stop_reason": stop_reason,
        "state": search_state_to_json(state),
        "rng": rng_state_to_json(rng_state),
        "initial": scored_to_json(*initial),
        "best": scored_to_json(*best),
        "trajectory": trajectory_to_json(trajectory),
        "engine_state": engine_state,
        "front": front_to_json(front),
    }


# -- checkpoint files --------------------------------------------------------------


class Checkpointer:
    """Atomic, periodic checkpoint writer.

    ``every`` is the cycle period (below 1 raises ``ValueError``); engines
    call :meth:`due` once per cycle and :meth:`save` with the full snapshot
    document.  Writes go to a temporary sibling first and are moved into
    place with ``os.replace``, so a crash mid-write never corrupts the
    previous checkpoint.
    """

    def __init__(self, path: Union[str, Path], every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"checkpoint period must be >= 1 cycle, got {every}")
        self.path = Path(path)
        self.every = every
        self.saves = 0

    def due(self, cycle: int) -> bool:
        return cycle % self.every == 0

    def save(self, document: Dict[str, Any]) -> None:
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(document, sort_keys=True) + "\n")
        os.replace(tmp, self.path)
        self.saves += 1


def load_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and structurally validate a checkpoint document."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {error}") from error
    if not isinstance(document, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    version = document.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    for key in ("engine", "seed", "problem", "state", "rng", "initial", "best",
                "trajectory", "engine_state"):
        if key not in document:
            raise CheckpointError(f"checkpoint {path} is missing {key!r}")
    return document


def validate_checkpoint(
    document: Dict[str, Any],
    *,
    engine: str,
    seed: int,
    problem_key: str,
) -> None:
    """Reject resuming a checkpoint into a different run.

    The engine, seed and problem content must match — resuming a tabu
    checkpoint into an annealing run (or onto a different system) could not
    possibly reproduce the uninterrupted trajectory.  A larger cycle budget
    is fine (that is the continuation use case) and not checked here.
    """
    if document["engine"] != engine:
        raise CheckpointError(
            f"checkpoint was written by engine {document['engine']!r}, "
            f"cannot resume with {engine!r}"
        )
    if document["seed"] != seed:
        raise CheckpointError(
            f"checkpoint was written with seed {document['seed']}, "
            f"cannot resume with seed {seed}"
        )
    if document["problem"] != problem_key:
        raise CheckpointError(
            "checkpoint belongs to a different problem "
            f"(content key {document['problem']!r} != {problem_key!r})"
        )
