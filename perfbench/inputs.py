"""Workload inputs, generated from the workload seed alone.

Every generator here is a pure function of ``(seed, sizes)``: the same seed
gives the same inputs, byte for byte, and the program under test only ever
sees the generated system descriptions and requests.  Seeds feed
:class:`random.Random` through a ``"<workload>:<seed>"`` string, which
Python hashes with SHA-512, so the derivation does not depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Sizes:
    """The scale of every workload (the defaults are the benchmark's)."""

    #: ``explore``: the ``medium`` preset's scale, the paper's largest graphs.
    explore_nodes: int = 120
    explore_paths: int = 12
    #: ``explore``'s system generator seeds: the ``medium`` preset's seed and
    #: the next three.  A fixed pool, visited in a seeded order: 120-node
    #: systems differ by up to ~1.6x in job time, which a run of ~8 jobs on
    #: seed-drawn systems turns into run-to-run spread.
    explore_systems: Tuple[int, ...] = (7, 8, 9, 10)
    #: Search budget of every tabu job (``explore`` and ``serve``).
    cycles: int = 10
    neighbors: int = 8
    #: ``schedule``: paper_experiment_configs sizes and path counts, crossed
    #: into strata of a fixed pool of systems.  Jobs take 0.1-1.6 s
    #: depending on the system, so every run visits the same pool, in
    #: rounds of seeded order, rather than seed-drawn systems.  A small pool
    #: gives each run several samples of the systems around the median job,
    #: which host noise (~15% per job) otherwise makes a one-sample figure.
    schedule_nodes: Tuple[int, ...] = (60, 80, 120)
    schedule_paths: Tuple[int, ...] = (10, 12)
    schedule_systems: int = 12
    #: ``serve``: one system content shared by a few tenant names.
    serve_nodes: int = 40
    serve_paths: int = 8
    serve_tenants: int = 3
    #: The serve system's generator seed.  Fixed rather than drawn from the
    #: workload seed: 40-node systems differ by ~30% in job time, and one
    #: scope per run would turn that into run-to-run spread.  The workload
    #: seed drives tenant names, tenant choice and every search seed.
    serve_system_seed: int = 1


TINY = Sizes(
    explore_nodes=16,
    explore_paths=2,
    explore_systems=(1, 2),
    cycles=2,
    neighbors=3,
    schedule_nodes=(12,),
    schedule_paths=(2,),
    schedule_systems=2,
    serve_nodes=12,
    serve_paths=2,
    serve_tenants=2,
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- explore ---------------------------------------------------------------------


@dataclass(frozen=True)
class ExploreJob:
    system_seed: int
    search_seed: int


def explore_jobs(seed: int, count: int, sizes: Sizes) -> List[ExploreJob]:
    """Rounds over the system pool in seeded order, each job a fresh search seed."""
    rng = _rng("explore", seed)
    jobs: List[ExploreJob] = []
    while len(jobs) < count:
        order = list(sizes.explore_systems)
        rng.shuffle(order)
        jobs += [
            ExploreJob(system_seed, rng.randrange(2**31)) for system_seed in order
        ]
    return jobs[:count]


def explore_problem(job: ExploreJob, sizes: Sizes):
    """The job's exploration problem, built fresh (cold lazy caches)."""
    from repro.exploration import ExplorationProblem
    from repro.generator import generate_system

    system = generate_system(
        sizes.explore_nodes, sizes.explore_paths, seed=job.system_seed
    )
    return ExplorationProblem.from_system(system)


def explore_config(job: ExploreJob, sizes: Sizes):
    from repro.exploration import ExplorationConfig

    return ExplorationConfig(
        seed=job.search_seed,
        max_cycles=sizes.cycles,
        neighbors_per_cycle=sizes.neighbors,
    )


# -- schedule --------------------------------------------------------------------


def schedule_documents(seed: int, sizes: Sizes) -> List[Tuple[Dict, int]]:
    """(system-description document, prescribed path count) per pool system.

    Pool system ``i`` falls in stratum ``i mod len(strata)`` of the
    (nodes, paths) grid and takes its config (processor and bus counts,
    execution-time distribution, graph seed) from
    ``paper_experiment_configs(..., base_seed=i)``.  The workload seed names
    the systems and orders :func:`schedule_order`.
    """
    from repro.generator import RandomSystemGenerator, paper_experiment_configs
    from repro.io import system_to_dict

    strata = [
        (nodes, paths)
        for paths in sizes.schedule_paths
        for nodes in sizes.schedule_nodes
    ]
    documents = []
    for index in range(sizes.schedule_systems):
        nodes, paths = strata[index % len(strata)]
        config = paper_experiment_configs(
            nodes, 1, paths_options=[paths], base_seed=index
        )[0]
        system = RandomSystemGenerator(config).generate()
        document = system_to_dict(
            system.process_graph,
            system.architecture,
            system.mapping,
            name=f"schedule-{seed}-{index}",
        )
        documents.append((document, paths))
    return documents


def schedule_order(seed: int, count: int, sizes: Sizes) -> List[int]:
    """Pool indices of the first ``count`` jobs: rounds in seeded order."""
    rng = _rng("schedule", seed)
    order: List[int] = []
    while len(order) < count:
        round_order = list(range(sizes.schedule_systems))
        rng.shuffle(round_order)
        order += round_order
    return order[:count]


def write_schedule_files(documents: List[Dict], directory: Path) -> List[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, document in enumerate(documents):
        path = directory / f"system-{index}.json"
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths


# -- serve -----------------------------------------------------------------------


def serve_requests(seed: int, count: int, sizes: Sizes) -> List[Dict]:
    """Explore requests over near-duplicate tenants, each with a fresh seed.

    Tenants carry the same system content under different names, so every
    request lands in one shared stage scope.  Requests are drawn one at a
    time, so a longer list extends a shorter one.
    """
    from repro.generator import generate_system
    from repro.io import system_to_dict

    rng = _rng("serve", seed)
    system = generate_system(
        sizes.serve_nodes, sizes.serve_paths, seed=sizes.serve_system_seed
    )
    tenants = [
        system_to_dict(
            system.process_graph,
            system.architecture,
            system.mapping,
            name=f"tenant-{seed}-{index}",
        )
        for index in range(sizes.serve_tenants)
    ]
    return [
        {
            "system": tenants[rng.randrange(len(tenants))],
            "seed": rng.randrange(2**31),
            "engine": "tabu",
            "cycles": sizes.cycles,
            "neighbors": sizes.neighbors,
        }
        for _ in range(count)
    ]
