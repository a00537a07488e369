"""Canonical JSON response documents, shared by the CLI and the service.

``repro-cpg serve`` promises that a served job's result document is
**byte-identical** to what the one-shot CLI prints for the same request
(same seed, engine and budget): the service is a deployment shape, not a
semantics change.  The only way to keep that promise honest is to build the
documents in exactly one place — these functions — and have both front-ends
(`repro.cli` and `repro.service.server`) call them.  Everything here is a
pure value-to-dict transform; serialisation policy (``json.dumps`` with
``indent=2, sort_keys=True``) stays with the caller.

Non-finite floats (the infeasible-candidate sentinel cost) become ``null``:
``json.dumps`` would otherwise emit the spec-invalid token ``Infinity``,
which strict RFC 8259 parsers (jq, JavaScript) reject.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..exploration import OBJECTIVE_NAMES


def finite(value: float):
    """A float fit for strict JSON: non-finite values become None."""
    return value if math.isfinite(value) else None


def front_dict(front) -> dict:
    """Serialise a ParetoFront: sorted, deterministic per seed."""
    points = []
    for point in front:
        entry = {
            "fingerprint": point.candidate.fingerprint,
            "objectives": dict(zip(OBJECTIVE_NAMES, point.objectives)),
            "priority_function": point.candidate.priority_function,
        }
        if point.candidate.platform:
            entry["platform"] = {
                "processors": list(point.candidate.platform_processors),
                "buses": list(point.candidate.platform_buses),
            }
        if point.candidate.communication_assignment:
            entry["communication_assignment"] = dict(
                point.candidate.communication_assignment
            )
        points.append(entry)
    return {"size": len(points), "points": points}


def explore_result_dict(result, include_front: bool = False, problem=None) -> dict:
    """Serialise one :class:`~repro.exploration.ExplorationResult`."""
    document = {
        "engine": result.engine,
        "initial": {
            "feasible": result.initial.feasible,
            "delta_max": result.initial.delta_max,
            "delta_m": result.initial.delta_m,
            "cost": finite(result.initial.cost),
        },
        "best": {
            "fingerprint": result.best_candidate.fingerprint,
            "feasible": result.best.feasible,
            "delta_max": result.best.delta_max,
            "delta_m": result.best.delta_m,
            "cost": finite(result.best.cost),
            "mean_path_delay": result.best.mean_path_delay,
            "load_imbalance": result.best.load_imbalance,
            "architecture_cost": result.best.architecture_cost,
            "bus_imbalance": result.best.bus_imbalance,
            "priority_function": result.best_candidate.priority_function,
            "assignment": dict(result.best_candidate.assignment),
        },
        "improvement_percent": result.improvement_percent,
        "cycles": result.cycles,
        "evaluations": result.evaluations,
        "stop_reason": result.stop_reason,
        "cache": {
            "hits": result.cache.hits,
            "misses": result.cache.misses,
            "hit_rate": result.cache.hit_rate,
            "merges_pruned": result.cache.merges_pruned,
        },
        "stages": (
            {
                "expansion_hits": result.stages.expansion_hits,
                "expansion_misses": result.stages.expansion_misses,
                "expansion_hit_rate": result.stages.expansion_hit_rate,
                "schedule_hits": result.stages.schedule_hits,
                "schedule_misses": result.stages.schedule_misses,
                "schedule_hit_rate": result.stages.schedule_hit_rate,
                # Depends on what the stage cache held, like the hits.
                "paths_pruned": result.cache.paths_pruned,
            }
            if result.stages is not None
            else None
        ),
        "resumed_from": result.resumed_from,
        # Timing and batch stats (all None unless metrics are on: identical
        # invocations must keep producing byte-identical JSON).
        "stage_seconds": result.stage_seconds,
        "wall_seconds": result.wall_seconds,
        "batch": result.batch,
        "trajectory": [
            {
                "cycle": point.cycle,
                "move": point.move,
                "cost": finite(point.cost),
                "best_cost": finite(point.best_cost),
                "accepted": point.accepted,
            }
            for point in result.trajectory
        ],
    }
    if problem is not None and problem.map_communications:
        best = document["best"]
        best["communication_pins"] = dict(
            result.best_candidate.communication_assignment
        )
        if result.best.feasible:
            # The realised mapping: the bus every message actually rides
            # (explicit pins plus policy-derived picks).
            best["communication_mapping"] = problem.communications_for(
                result.best_candidate
            )
    if include_front and result.front is not None:
        document["front"] = front_dict(result.front)
    return document


def explore_document(
    origin: str,
    seed: int,
    results: Sequence,
    include_front: bool = False,
    problem=None,
) -> dict:
    """The full multi-engine exploration document (the CLI's --json shape)."""
    best = min(results, key=lambda r: (r.best.cost, r.engine))
    return {
        "problem": origin,
        "seed": seed,
        "results": [
            explore_result_dict(result, include_front=include_front, problem=problem)
            for result in results
        ],
        "best_engine": best.engine,
    }


def schedule_document(system_name: str, result, report=None) -> dict:
    """The ``repro-cpg schedule --json`` document for one merge result."""
    document = {
        "system": system_name,
        "alternative_paths": len(result.paths),
        "path_delays": {
            str(label): schedule.delay
            for label, schedule in sorted(
                result.path_schedules.items(), key=lambda kv: str(kv[0])
            )
        },
        "delta_m": result.delta_m,
        "delta_max": result.delta_max,
        "delay_increase_percent": result.delay_increase_percent,
    }
    if report is not None:
        document["validation"] = {
            "paths_checked": report.paths_checked,
            "worst_case_delay": report.worst_case_delay,
        }
    return document


def sweep_document(series: dict, graphs: int) -> dict:
    """The ``repro-cpg sweep --json`` document for one sweep series."""
    return {
        "metric": "average increase of delta_max over delta_M (%)",
        "graphs_per_setting": graphs,
        "series": series,
    }
