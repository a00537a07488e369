"""Checkpointing for the explorer, and the pool's start-up error.

The evaluation layer is pure, which makes a search *resumable*: an engine's
whole state fits in a JSON document, and re-running from it reproduces the
uninterrupted search.

Checkpoint documents
    Versioned JSON snapshots of a running engine — RNG state, current/best
    candidate, tabu list / temperature / population, trajectory and Pareto
    front — written atomically by :class:`Checkpointer` and validated by
    :func:`load_checkpoint` / :func:`validate_checkpoint`.  Resuming from a
    checkpoint continues the search bit-identically to the uninterrupted run
    (cache *counters* restart from zero; every value the search reads is in
    the snapshot).

:class:`WorkerInitializationError`
    Raised by :class:`~repro.exploration.EvaluationPool` before any worker
    starts when the problem payload cannot be rebuilt.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .candidate import Candidate
from .cost import CandidateEvaluation

CHECKPOINT_VERSION = 1

_INFEASIBLE_COST = float("inf")


class WorkerInitializationError(RuntimeError):
    """Evaluation workers could not rebuild the problem from its payload."""


class CheckpointError(ValueError):
    """A checkpoint file is missing, malformed or belongs to a different run."""


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
