"""Benchmark harness: one registry of records, frozen in ``BENCH_core.json``.

A record is a workload, a measure function and the names of the fields it
gates, grouped by kind:

* **anchors** must reproduce exactly.  Every workload is seeded pure
  Python, so drift is a behaviour change, never timer noise.
* **timings** (seconds, lower is better) may grow by a tolerance, scaled
  by the host speed.
* **rates** (per second, higher is better) may shrink by a tolerance,
  scaled by the host speed.
* **ratios** of two measurements taken on the same host keep a floor or a
  ceiling, unscaled.

The host scale is ``max(1, now / captured)`` for a fixed pure-Python
calibration loop: ``captured`` is timed when a record is frozen and kept in
that record's ``captured`` stamp, ``now`` is timed when checking, each
right around the record's own measurement.  A host
slower than the one that froze a record is allowed proportionally more
time; a faster host keeps the unscaled limit, so a regression cannot hide
behind fast hardware.

Modes::

    PYTHONPATH=src python scripts/run_benchmarks.py                   # freeze every record
    PYTHONPATH=src python scripts/run_benchmarks.py --record genetic  # re-freeze one record
    PYTHONPATH=src python scripts/run_benchmarks.py --check           # exit 1 on any failure

Freezing refuses a record that would fail its own gates.  ``--check``
re-measures every record, prints one row per gated field and reports every
failing field of every record.  ``tests/test_perf_regression.py`` replays
the merge-grid records in tier-1 with a relaxed host scale.
"""

from __future__ import annotations

import argparse
import gc
import json
import operator
import os
import platform
import random
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Tuple

from repro.data import load_fig1_example
from repro.exploration import (
    ArchitectureBounds,
    CachedEvaluator,
    Checkpointer,
    EvaluationPool,
    ExplorationConfig,
    ExplorationProblem,
    Explorer,
    NeighborhoodSampler,
    StageCache,
    evaluate_candidate,
)
from repro.exploration.engines import SearchState, TrajectoryPoint
from repro.exploration.resilience import snapshot_document
from repro.generator import LARGE_SCALE_PRESETS, generate_system, large_scale_system
from repro.io import system_to_dict
from repro.observability import Tracer
from repro.scheduling import PathListScheduler, ScheduleMerger
from repro.service import ServiceClient, start_in_thread

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = ROOT / "BENCH_core.json"

DESCRIPTION = (
    "Benchmark records frozen by scripts/run_benchmarks.py, one per entry of "
    "its registry. A record holds its workload parameters, measured values "
    "and a 'captured' stamp whose calibration_seconds is the host-speed loop "
    "time its timing and rate gates scale against. The gated fields and "
    "their bounds live only in the registry: --check prints them next to "
    "fresh measurements, --record NAME re-freezes one record."
)

#: Merge wall-time of the seed implementation (best of 3, measured on the
#: same presets/host at the commit immediately before the bitmask +
#: incremental-scheduler rework).  Frozen so speedups stay comparable.
SEED_MERGE_SECONDS = {
    "small": 0.054,
    "medium": 0.211,
    "large": 1.306,
    "xlarge": 4.106,
}

#: Exploration-evaluator benchmark workload: a seeded 40-node/8-path system,
#: one neighbourhood of distinct candidates, replayed for several passes the
#: way local search revisits design points (undone moves, a second engine
#: re-walking the same region, annealing bouncing around a basin).  It is
#: scored naively (the whole pipeline per request) and through the
#: content-hash cache backed by the ``concurrent.futures`` pool.
EXPLORATION_WORKLOAD = {
    "nodes": 40,
    "alternative_paths": 8,
    "seed": 11,
    "distinct_candidates": 24,
    "passes": 3,
}

#: Genetic-engine benchmark workload: a seeded system explored with the
#: NSGA-style engine, architecture sizing enabled.  Besides the timing, the
#: record freezes the final Pareto-front objective vectors — the engine is
#: deterministic per seed and pure Python, so the front must reproduce
#: bit-exactly on any host.
GENETIC_WORKLOAD = {
    "nodes": 24,
    "alternative_paths": 4,
    "seed": 5,
    "generations": 6,
    "population": 10,
}

#: Communication-mapping benchmark workload: the paper's Fig. 1 graph on a
#: *two-bus* variant of its platform, explored twice with the same
#: engine/seed/cycle budget — once with the derived (least-index) bus
#: assignment only, once with communication mapping as an explored dimension.
#: Both searches are seeded pure Python, so the recorded best costs double as
#: a determinism anchor, and the mapped run beating the derived run is the
#: frozen acceptance fact of the communication-mapping work.
COMM_MAPPING_WORKLOAD = {
    "fig1_buses": 2,
    "engine": "tabu",
    "seed": 1,
    "cycles": 16,
    "neighbors": 6,
}

#: Incremental-evaluation benchmark workload: a *move-local* candidate
#: stream — a seeded walk where every candidate differs from the previous
#: design point by one local move (one process remapped, or one message
#: pinned to a different bus), the shape every engine's neighbourhood
#: produces — scored twice over distinct candidates only: once through the
#: full expand-schedule-merge pipeline per candidate, once through the
#: sub-fingerprint stage caches (`repro.exploration.StageCache`).  The
#: platform (6 programmable processors, 2 buses) sits inside the paper's
#: experimental range of 1-11 processors and 1-8 buses.
INCREMENTAL_WORKLOAD = {
    "nodes": 80,
    "alternative_paths": 8,
    "programmable_processors": 6,
    "buses": 2,
    "seed": 11,
    "stream_length": 140,
    "advance_probability": 0.3,
    "repeats": 2,
}

#: Resilience benchmark workload: what the evaluation pool and checkpointing
#: cost a search.  A prefix of the :data:`INCREMENTAL_WORKLOAD` move-local
#: candidate stream is scored twice — once through the bare staged loop, once
#: (the ``armed`` arm) one candidate at a time through a one-worker
#: :class:`EvaluationPool` over one stage cache that also writes a genuine
#: checkpoint document every ``checkpoint_every`` evaluations.
RESILIENCE_WORKLOAD = {
    "stream_length": 60,
    "checkpoint_every": 10,
    "repeats": 5,
}

#: Service benchmark workload: the exploration service under a replayed load.
#: One generated system is submitted as two near-duplicate tenants (same
#: graph/architecture, different system names) whose jobs replay the same
#: ~200-candidate search stream over a **real** localhost HTTP socket; the
#: second tenant answers from the first's shared stage cache.  After the jobs,
#: a burst of status requests measures the HTTP front-end's requests/sec.
SERVICE_WORKLOAD = {
    "nodes": 20,
    "alternative_paths": 4,
    "system_seed": 7,
    "engine": "tabu",
    "seed": 3,
    "cycles": 25,
    "neighbors": 8,
    "status_requests": 200,
    "status_bursts": 3,
}

#: The stage-cache counters the incremental record freezes as anchors.
STAGE_COUNTERS = ("expansion_hits", "expansion_misses", "structure_hits",
                  "structure_misses", "schedule_hits", "schedule_misses")


def _calibrate(repeats: int = 3) -> float:
    """Wall-time of a fixed pure-Python workload, proxying host speed."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i
        best = min(best, time.perf_counter() - started)
    return best


def _run(name: str):
    """Measure one record and calibrate right after it.

    Returns the workload parameters followed by the measured fields, and
    the calibration: load from other processes comes and goes within
    seconds on a shared host, so a calibration taken next to the
    measurement tracks it far better than one taken once per invocation.
    """
    record = RECORDS[name]
    measured = {**record.workload, **record.measure(record.workload)}
    return measured, _calibrate()


def _capture_metadata(timestamp: str | None, calibration: float) -> dict:
    """Provenance stamped on frozen records: interpreter, host, when, speed.

    The timestamp is *passed in* (``--timestamp``), never read from the
    clock: regenerating a record with a pinned timestamp stays byte-for-byte
    reproducible, and an unstamped regeneration is honestly ``null`` instead
    of silently dating itself.
    """
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp": timestamp,
        "calibration_seconds": round(calibration, 4),
    }


def _race(arms: Dict[str, Callable], repeats: int = 1, diverged: str = ""):
    """Best-of-``repeats`` wall time per arm, and the arms' common result.

    The arms run interleaved in alternating order, each after a full garbage
    collection, so neither always runs first on a warmer or quieter machine
    nor pays for the other's garbage.  Every repeat requires bit-identical
    results from all arms (an exception, not an assert: it must also hold
    under ``python -O``).
    """
    names = list(arms)
    best = dict.fromkeys(names, float("inf"))
    for repeat in range(repeats):
        results = []
        for name in names if repeat % 2 == 0 else names[::-1]:
            gc.collect()
            started = time.perf_counter()
            results.append(arms[name]())
            best[name] = min(best[name], time.perf_counter() - started)
        if any(result != results[0] for result in results[1:]):
            raise SystemExit(diverged)
    return best, results[0]


class _CountingScheduler(PathListScheduler):
    """A list scheduler that counts its calls, optimal and re-adjustment."""

    calls = 0

    def schedule(self, path, **locks):
        self.calls += 1
        return super().schedule(path, **locks)


def _measure_merge(spec: dict) -> dict:
    """Best-of-``repeats`` ``ScheduleMerger.merge`` wall-time on one preset.

    Every repeat must produce the identical ``delta_max``: the merge is
    pure, so the frozen value anchors its semantics on any host.  One more,
    untimed merge counts the work: list-scheduler calls and table entries
    are host-free, so a merge that does more work fails an exact anchor.
    """
    preset = spec["preset"]
    system = large_scale_system(preset)
    config = LARGE_SCALE_PRESETS[preset]
    best = float("inf")
    delta_max = set()
    gc.collect()
    for _ in range(spec["repeats"]):
        merger = ScheduleMerger(
            system.graph, system.expanded_mapping, system.architecture
        )
        started = time.perf_counter()
        delta_max.add(merger.merge().delta_max)
        best = min(best, time.perf_counter() - started)
    scheduler = _CountingScheduler(
        system.graph, system.expanded_mapping, system.architecture
    )
    counted = ScheduleMerger(
        system.graph, system.expanded_mapping, system.architecture, scheduler
    ).merge()
    delta_max.add(counted.delta_max)
    table = counted.table
    if len(delta_max) != 1:
        raise SystemExit(
            f"merge of {preset!r} is not deterministic across repeats: "
            f"{sorted(delta_max)}"
        )
    return {
        "nodes": config.nodes,
        "alternative_paths": config.alternative_paths,
        "seed": config.seed,
        "expanded_processes": len(system.graph),
        "delta_max": delta_max.pop(),
        "schedule_calls": scheduler.calls,
        "table_entries": sum(
            len(table.process_entries(name)) for name in table.process_names
        ) + sum(len(table.condition_entries(name)) for name in table.conditions),
        "merge_seconds": round(best, 4),
        "seed_merge_seconds": SEED_MERGE_SECONDS[preset],
        "speedup_vs_seed": round(SEED_MERGE_SECONDS[preset] / best, 2),
    }


def _measure_exploration(spec: dict) -> dict:
    """Time the exploration evaluator: cache + parallel pool vs naive serial."""
    system = generate_system(spec["nodes"], spec["alternative_paths"], seed=spec["seed"])
    problem = ExplorationProblem.from_system(system)
    rng = random.Random(spec["seed"])
    initial = problem.initial_candidate()
    neighbors = NeighborhoodSampler(problem).sample(
        initial, rng, spec["distinct_candidates"]
    )
    batch = [candidate for _, candidate in neighbors]
    stream = []
    for _ in range(spec["passes"]):
        replay = list(batch)
        rng.shuffle(replay)
        stream.extend(replay)

    workers = os.cpu_count() or 1
    with EvaluationPool(problem, workers=workers) as pool:
        seconds, _ = _race(
            {
                "naive": lambda: [evaluate_candidate(problem, c) for c in stream],
                "cached": lambda: CachedEvaluator(problem, pool=pool).evaluate_many(stream),
            },
            1,
            "cache/pool evaluation diverged from naive",
        )
    return {
        "stream_length": len(stream),
        "workers": workers,
        "pool_mode": "process" if workers > 1 else "serial",
        "naive_seconds": round(seconds["naive"], 4),
        "optimised_seconds": round(seconds["cached"], 4),
        "speedup": round(seconds["naive"] / seconds["cached"], 2),
    }


def _measure_genetic(spec: dict) -> dict:
    """Time one seeded genetic search and record its final front's vectors."""
    system = generate_system(spec["nodes"], spec["alternative_paths"], seed=spec["seed"])
    problem = ExplorationProblem.from_system(system, bounds=ArchitectureBounds())
    config = ExplorationConfig(
        seed=spec["seed"],
        max_cycles=spec["generations"],
        population_size=spec["population"],
        track_front=True,
    )
    seconds, result = _race(
        {"genetic": lambda: Explorer(problem, config=config).explore("genetic")}
    )
    return {
        "engine_seconds": round(seconds["genetic"], 4),
        "evaluations": result.evaluations,
        "cache_hits": result.cache.hits,
        "best_delta_max": result.best.delta_max,
        "front_size": len(result.front),
        "front_vectors": [list(vector) for vector in result.front.vectors()],
    }


def _measure_comm_mapping(spec: dict) -> dict:
    """Explore the two-bus Fig. 1 system without, then with, communication mapping.

    The derived run accepts the least-index bus pick for every message (the
    pre-mapping behaviour: the second bus stays idle); the mapped run, which
    is timed, may pin messages to buses and must strictly beat it.  One
    more, untimed mapped run on a fresh explorer counts the work: the
    schedules its stage cache missed (``path_schedules``: optimal path and
    re-adjustment schedules alike), its merges (the ``stage.merge`` span
    count of a tracer without a sink) and its pruned merges are host-free, so a search that does more work fails an exact anchor.  On
    this system δ_max > δ_M for some neighbours, so the tabu bound is
    inexact there.
    """
    example = load_fig1_example(num_buses=spec["fig1_buses"])
    config = ExplorationConfig(
        seed=spec["seed"],
        max_cycles=spec["cycles"],
        neighbors_per_cycle=spec["neighbors"],
    )
    for mapped in (False, True):
        problem = ExplorationProblem(
            example.process_graph,
            example.mapping,
            example.architecture,
            name="fig1-two-bus",
            map_communications=mapped,
        )
        seconds, result = _race(
            {"engine": lambda: Explorer(problem, config=config).explore(spec["engine"])}
        )
        if not mapped:
            derived = result
    if not result.best.cost < derived.best.cost:
        raise SystemExit(
            "exploring communication mapping no longer beats the derived "
            f"assignment: mapped {result.best.cost!r} vs derived "
            f"{derived.best.cost!r}; retune COMM_MAPPING_WORKLOAD"
        )

    tracer = Tracer()  # no sink: only its span totals are read
    explorer = Explorer(problem, config=config, tracer=tracer)
    counted = explorer.explore(spec["engine"])
    if counted.trajectory != result.trajectory or counted.best != result.best:
        raise SystemExit("the counted mapped run diverged from the timed one")

    bus_counts = Counter(problem.communications_for(result.best_candidate).values())
    return {
        "engine_seconds": round(seconds["engine"], 4),
        "evaluations": result.evaluations,
        "path_schedules": explorer.evaluator.stage_stats.schedule_misses,
        "merges": tracer.totals()["stage.merge"][0],
        "merges_pruned": counted.cache.merges_pruned,
        "derived_best_cost": derived.best.cost,
        "mapped_best_cost": result.best.cost,
        "mapped_pins": len(result.best_candidate.communication_assignment),
        "mapped_bus_distribution": dict(sorted(bus_counts.items())),
        "mapped_bus_imbalance": result.best.bus_imbalance,
    }


def _incremental_problem_and_stream():
    """Build the :data:`INCREMENTAL_WORKLOAD` problem and candidate stream."""
    spec = INCREMENTAL_WORKLOAD
    system = generate_system(
        spec["nodes"],
        spec["alternative_paths"],
        seed=spec["seed"],
        programmable_processors=spec["programmable_processors"],
        buses=spec["buses"],
    )
    problem = ExplorationProblem.from_system(system, map_communications=True)
    rng = random.Random(spec["seed"])
    current = problem.initial_candidate()
    stream = [current]
    seen = {current.fingerprint}
    processes = problem.movable_processes
    processors = problem.processor_names
    while len(stream) < spec["stream_length"]:
        if rng.random() < 0.5:  # move one process's PE ...
            process = rng.choice(processes)
            targets = [pe for pe in processors if pe != current.pe_of(process)]
            candidate = current.reassigned(process, rng.choice(targets))
        else:  # ... or one message's bus pin
            active = problem.active_messages(current)
            if not active:
                continue
            message, src, dst = rng.choice(active)
            buses = problem.connecting_buses(current, src, dst)
            if len(buses) < 2:
                continue
            candidate = current.with_communication(message, rng.choice(buses))
        if candidate.fingerprint in seen:
            continue
        seen.add(candidate.fingerprint)
        stream.append(candidate)
        if rng.random() < spec["advance_probability"]:
            current = candidate
    return problem, stream


def _best_feasible_cost(evaluations, workload: str) -> float:
    costs = [evaluation.cost for evaluation in evaluations if evaluation.feasible]
    if not costs:
        raise SystemExit(f"{workload} produced no feasible candidates; retune it")
    return min(costs)


def _measure_incremental(spec: dict) -> dict:
    """Time full-pipeline vs staged (incremental) evaluation, interleaved.

    Both arms are pure, so every per-candidate evaluation must agree
    bit-exactly; the stage hit/miss counters of one staged pass are
    deterministic too.
    """
    problem, stream = _incremental_problem_and_stream()
    caches = []

    def staged():
        caches.append(StageCache())
        return [
            evaluate_candidate(problem, candidate, stage_cache=caches[-1])
            for candidate in stream
        ]

    seconds, evaluations = _race(
        {"full": lambda: [evaluate_candidate(problem, c) for c in stream], "staged": staged},
        spec["repeats"],
        "incremental evaluation diverged from the full pipeline",
    )
    stats = caches[-1].stats
    return {
        "distinct_candidates": len(stream),
        "full_seconds": round(seconds["full"], 4),
        "incremental_seconds": round(seconds["staged"], 4),
        "speedup": round(seconds["full"] / seconds["staged"], 2),
        "best_cost": _best_feasible_cost(evaluations, "INCREMENTAL_WORKLOAD"),
        **{name: getattr(stats, name) for name in STAGE_COUNTERS},
    }


def _measure_resilience(spec: dict) -> dict:
    """Time the bare staged loop vs the pool plus checkpoint writes."""
    every = spec["checkpoint_every"]
    problem, stream = _incremental_problem_and_stream()
    stream = stream[: spec["stream_length"]]
    rng_state = random.Random(0).getstate()

    def bare():
        cache = StageCache()
        return [
            evaluate_candidate(problem, candidate, stage_cache=cache)
            for candidate in stream
        ]

    def armed():
        pool = EvaluationPool(problem)
        checkpointer = Checkpointer(checkpoint_path, every=every)
        evaluations = []
        trajectory = []
        for index, candidate in enumerate(stream):
            evaluations.extend(pool.evaluate([candidate]))
            if (index + 1) % every:
                continue
            best = min(range(len(evaluations)), key=lambda i: evaluations[i].cost)
            cycle = (index + 1) // every
            trajectory.append(
                TrajectoryPoint(
                    cycle=cycle,
                    move="bench",
                    cost=evaluations[index].cost,
                    best_cost=evaluations[best].cost,
                    accepted=index + 1,
                )
            )
            checkpointer.save(
                snapshot_document(
                    engine="bench-resilience",
                    seed=0,
                    problem_key=problem.content_key,
                    state=SearchState(
                        cycle=cycle,
                        evaluations=index + 1,
                        best_cost=evaluations[best].cost,
                    ),
                    rng_state=rng_state,
                    initial=(stream[0], evaluations[0]),
                    best=(stream[best], evaluations[best]),
                    trajectory=trajectory,
                    engine_state={"index": index},
                )
            )
        return evaluations

    with tempfile.TemporaryDirectory() as scratch:
        checkpoint_path = Path(scratch) / "bench.ckpt.json"
        seconds, evaluations = _race(
            {"bare": bare, "armed": armed},
            spec["repeats"],
            "pooled evaluation with checkpoints diverged from the bare loop",
        )
    overhead = 100.0 * (seconds["armed"] - seconds["bare"]) / seconds["bare"]
    return {
        "bare_seconds": round(seconds["bare"], 4),
        "armed_seconds": round(seconds["armed"], 4),
        "overhead_percent": round(overhead, 2),
        "checkpoint_saves": spec["stream_length"] // every,
        "best_cost": _best_feasible_cost(evaluations, "RESILIENCE_WORKLOAD"),
    }


def _measure_service(spec: dict) -> dict:
    """Drive an in-process exploration service over HTTP like a client would.

    Each tenant submits its job, polls it to completion and fetches the
    result; tenant B must start from tenant A's shared stage cache.
    """
    system = generate_system(
        spec["nodes"], spec["alternative_paths"], seed=spec["system_seed"]
    )

    def _run_tenant(client, name):
        request = {
            "system": system_to_dict(
                system.process_graph, system.architecture, system.mapping, name
            ),
            "engine": spec["engine"],
            "seed": spec["seed"],
            "cycles": spec["cycles"],
            "neighbors": spec["neighbors"],
        }
        started = time.perf_counter()
        submitted = client.submit(request)
        status = client.wait(submitted["job"], timeout=600, interval=0.02)
        document = client.result(submitted["job"])
        return time.perf_counter() - started, status, document

    with start_in_thread(job_workers=2) as running:
        client = ServiceClient(running.url, timeout=120.0)
        a_seconds, status_a, document_a = _run_tenant(client, "tenant-a")
        b_seconds, status_b, document_b = _run_tenant(client, "tenant-b")
        burst_times = []
        for _ in range(spec["status_bursts"]):  # best-of: socket churn is noisy
            started = time.perf_counter()
            for _ in range(spec["status_requests"]):
                client.status(status_a["job"])
            burst_times.append(time.perf_counter() - started)
        status_seconds = min(burst_times)
        cache = client.cache_stats()

    best_a = document_a["results"][0]["best"]["cost"]
    best_b = document_b["results"][0]["best"]["cost"]
    if best_a != best_b:  # the system name must never steer the search
        raise SystemExit(
            "near-duplicate service tenants disagree on the best cost: "
            f"{best_a!r} vs {best_b!r}"
        )
    shared = status_b["shared_cache"]
    if shared["entries_at_start"] == 0:
        raise SystemExit(
            "the warm service tenant started without shared cache entries; "
            "cross-request reuse is broken or SERVICE_WORKLOAD needs retuning"
        )
    queries = shared["stage_hits"] + shared["stage_misses"]
    return {
        "evaluations": document_a["results"][0]["evaluations"],
        "best_cost": best_a,
        "cold_job_seconds": round(a_seconds, 4),
        "warm_job_seconds": round(b_seconds, 4),
        "cross_request_hit_rate": round(
            shared["stage_hits"] / queries if queries else 0.0, 4
        ),
        "entries_at_start": shared["entries_at_start"],
        "stage_hits": shared["stage_hits"],
        "stage_misses": shared["stage_misses"],
        "lru_evictions": cache["totals"]["lru_evictions"],
        "status_requests_per_second": round(
            spec["status_requests"] / status_seconds, 1
        ),
    }


@dataclass(frozen=True)
class Record:
    """A workload, the function measuring it, and the gated result fields.

    ``timings`` and ``rates`` map a field to its tolerance, a fraction of
    the committed value before host scaling; ``ratios`` map a field to an
    ``(op, bound)`` pair, ``op`` being ``">="`` (a floor) or ``"<="`` (a
    ceiling).
    """

    measure: Callable[[dict], dict]
    workload: dict
    anchors: Tuple[str, ...] = ()
    timings: Dict[str, float] = field(default_factory=dict)
    rates: Dict[str, float] = field(default_factory=dict)
    ratios: Dict[str, Tuple[str, float]] = field(default_factory=dict)


#: Every benchmark record, in the order they are frozen, checked and printed.
#: One bound per gated field, kept here only.
RECORDS: Dict[str, Record] = {
    # Smaller presets get more repeats, so each best-of spans a window long
    # enough (~0.1 s or more) to outlast a burst of load from other processes.
    **{
        f"merge_{preset}": Record(
            _measure_merge,
            {"preset": preset, "repeats": repeats},
            anchors=(
                "expanded_processes", "delta_max", "schedule_calls", "table_entries"
            ),
            timings={"merge_seconds": 0.25},
        )
        for preset, repeats in zip(SEED_MERGE_SECONDS, (15, 7, 3, 3))
    },
    # The cache alone removes the revisit passes (~3x); any parallel
    # headroom is on top.  The floor is conservative so busy hosts do not
    # flake, while a broken cache (~1x) fails.
    "exploration": Record(
        _measure_exploration, EXPLORATION_WORKLOAD, ratios={"speedup": (">=", 1.5)}
    ),
    # More tolerant than the merge gate: one run covers population-dynamics
    # overhead on top of ~70 merges, so it is noisier.
    "genetic": Record(
        _measure_genetic,
        GENETIC_WORKLOAD,
        anchors=("front_vectors", "evaluations", "best_delta_max"),
        timings={"engine_seconds": 0.5},
    ),
    # A whole seeded search, like genetic, so the same tolerance.
    "comm_mapping": Record(
        _measure_comm_mapping,
        COMM_MAPPING_WORKLOAD,
        anchors=(
            "derived_best_cost", "mapped_best_cost", "evaluations",
            "path_schedules", "merges", "merges_pruned",
        ),
        timings={"engine_seconds": 0.5},
    ),
    # The speedup floor stays below every same-host run of the code and
    # above every run whose staged arm memoizes nothing, so a busy host
    # does not flag phantom regressions while a broken stage cache (~1x)
    # fails.  It has been recalibrated three times, each time because the
    # full-pipeline arm got cheaper: the flat schedule kernel roughly
    # halved the merge both arms run (~2.1x -> ~1.7x, floor 1.4),
    # inherited guards and paths removed the per-candidate structure
    # rebuild that only the full arm paid (floor 1.4 -> 1.25), and the
    # graph's own adjacency and sort made each structure build cheaper,
    # which the full arm does 140 times and the staged arm 35 times
    # (floor 1.25 -> 1.07).  When the floor was last set, 12 runs of the
    # code read 1.08-1.71 (1.67, 1.71, 1.43, 1.08, 1.44, 1.37, 1.38, 1.45,
    # 1.35, 1.39, 1.20, 1.41; the freeze then read 1.24), interleaved with
    # 12 runs of the previous code that read 1.07-1.79 (two below 1.25
    # there too), and 7 runs with StageCache(max_bytes=1) as the staged
    # arm read 0.67-1.06 (1.01, 1.06, 0.93, 1.02, 0.99, 1.01, 0.67), on
    # one shared 2-vCPU host.  The gap is narrow; the exact stage counters
    # above are what reliably catch a cache that stops hitting (that
    # variant fails four of them).
    "incremental": Record(
        _measure_incremental,
        INCREMENTAL_WORKLOAD,
        anchors=("best_cost", *STAGE_COUNTERS),
        ratios={"speedup": (">=", 1.07)},
    ),
    # The overhead is a small delta between two same-host timings that
    # scheduler noise can triple on a busy machine, while a genuinely heavy
    # pool or checkpoint layer (tens of percent) still fails.  The ceiling
    # was recalibrated (12% -> 25%) when the flat kernel landed: the
    # bookkeeping and checkpoint writes cost the same absolute time as
    # before, but the evaluations they wrap got ~2x faster.  The pool keeps
    # no retry bookkeeping, so the overhead is the pool's per-batch call
    # plus the checkpoint writes.
    "resilience": Record(
        _measure_resilience,
        RESILIENCE_WORKLOAD,
        anchors=("best_cost",),
        ratios={"overhead_percent": ("<=", 25.0)},
    ),
    # Status requests/sec is very tolerant: sequential one-connection-per-
    # request round-trips on a loopback interface swing by 2x with kernel
    # socket churn alone, so the gate only catches collapses; the anchors and
    # the hit-rate floor (the multi-tenant win the service exists for) do the
    # precise gating.
    "service": Record(
        _measure_service,
        SERVICE_WORKLOAD,
        anchors=("best_cost", "evaluations"),
        rates={"status_requests_per_second": 1.5},
        ratios={"cross_request_hit_rate": (">=", 0.5)},
    ),
}

_OPS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge}


def _gates(record: Record, committed: dict, scale: float):
    """``(field, kind, bound, op, limit)`` for every gated field of a record."""
    for name in record.anchors:
        yield name, "anchor", "exact", "==", committed[name]
    for name, tolerance in record.timings.items():
        limit = committed[name] * (1 + tolerance) * scale
        yield name, "timing", f"x{1 + tolerance:g} (host x{scale:.2f})", "<=", limit
    for name, tolerance in record.rates.items():
        limit = committed[name] / ((1 + tolerance) * scale)
        yield name, "rate", f"/{1 + tolerance:g} (host x{scale:.2f})", ">=", limit
    for name, (op, bound) in record.ratios.items():
        yield name, "ratio", f"{op} {bound:g}", op, bound


def _compare(name: str, committed: dict, measured: dict, scale: float, rows: list) -> list:
    """Gate one record's measurement; append table rows, return failures."""
    failures = []
    for field_name, kind, bound, op, limit in _gates(RECORDS[name], committed, scale):
        value = measured[field_name]
        ok = _OPS[op](value, limit)
        rows.append([
            name, field_name, kind, bound, _cell(committed[field_name]),
            _cell(value), _cell(limit), "ok" if ok else "FAIL",
        ])
        if not ok:
            failures.append(
                f"{name}.{field_name} ({kind}, {bound}): measured {value!r}, "
                f"committed {committed[field_name]!r}, limit {op} {limit!r}"
            )
    return failures


def _cell(value) -> str:
    if isinstance(value, list):
        return f"[{len(value)} items]"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_table(rows: list) -> None:
    header = ["record", "field", "kind", "bound", "committed", "measured", "limit", ""]
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def freeze(baseline_path: Path, names=None, timestamp: str | None = None) -> None:
    """Measure records and write them into the baseline file.

    Without ``names`` every record is measured and the file is rewritten
    from scratch; with ``names`` only those records are replaced and the
    rest stay byte-identical.  A record that fails its own gates — a ratio
    outside its floor or ceiling — is refused and nothing is written.
    """
    payload = json.loads(baseline_path.read_text()) if names else {}
    rows = []
    for name in names or RECORDS:
        measured, calibration = _run(name)
        failures = _compare(name, measured, measured, 1.0, rows)
        if failures:
            _print_table(rows)
            raise SystemExit(
                f"refusing to freeze {name!r}, it fails its own gates: "
                + "; ".join(failures)
                + ". Rerun on a quiet host or retune its workload."
            )
        payload[name] = {**measured, "captured": _capture_metadata(timestamp, calibration)}
    payload.pop("description", None)
    payload = {"description": DESCRIPTION, **payload}
    baseline_path.write_text(json.dumps(payload, indent=1) + "\n")
    _print_table(rows)
    print(f"wrote {baseline_path}")


def check(baseline_path: Path = DEFAULT_BASELINE, names=None, relax: float = 1.0) -> list:
    """Re-measure records against the committed baseline; return every failure.

    ``names`` selects records (default: all of them).  ``relax`` multiplies
    the host scale of timing and rate gates, for smoke runs on busy
    machines; anchors and same-host ratios are never relaxed.
    """
    baseline = json.loads(baseline_path.read_text())
    rows, failures = [], []
    for name in names or RECORDS:
        committed = baseline.get(name)
        if committed is None:
            failures.append(f"{name}: no committed record; freeze it with --record {name}")
            continue
        captured = committed["captured"]
        print(
            f"{name}: captured py{captured['python']} "
            f"{captured['timestamp'] or 'undated'} on {captured['platform']}"
        )
        measured, calibration = _run(name)
        scale = max(1.0, calibration / captured["calibration_seconds"]) * relax
        failures += _compare(name, committed, measured, scale, rows)
    _print_table(rows)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="re-measure and gate instead of freezing"
    )
    parser.add_argument(
        "--record",
        action="append",
        choices=list(RECORDS),
        metavar="NAME",
        help="only this record (repeatable): re-freeze it into the existing "
        "baseline, or with --check check only it; one of " + ", ".join(RECORDS),
    )
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--timestamp", metavar="ISO8601", help="capture time stamped on frozen records"
    )
    args = parser.parse_args(argv)
    if args.check:
        failures = check(args.baseline, args.record)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    freeze(args.baseline, args.record, args.timestamp)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
