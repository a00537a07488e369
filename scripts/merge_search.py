"""Seeded search over schedule merges: every table on the simulator, every conflict counted.

Three input families, each walked with seeded single neighbourhood moves;
the seed mapping and the candidate after every move are merged through the
exploration pipeline (``merge_candidate``):

* ``fig1`` -- the paper's Fig. 1 system on 1-2 buses, derived or mapped
  communications, both bus policies: walks 0-39 of 20 moves (6,720 tables,
  ~70 s);
* ``generated`` -- 6,000 random systems (8-40 processes, 2-8 paths, 1-4
  programmable processors, 0-1 ASIC, 1-3 buses, communication ratio 0-2,
  tau0 0-5), each walked 5 moves;
* ``fig1-times`` -- Fig. 1's graph and mapping with 3,000 draws of integer
  execution times 1-12, communication times 0-4 and tau0 0-3 on 1-2 buses,
  each walked 5 moves.

Per family it prints the tables merged, the tables the run-time simulator
rejects, the process and broadcast conflicts the merger resolved, and the
merges that raised (``MergeConflictError`` is an unresolved conflict), each
rejection and error with its input.  It exits 1 if any table is rejected or
any merge raised.  Every run searches the same inputs.

Usage (all families by default, ~12 min)::

    PYTHONPATH=src python scripts/merge_search.py [fig1] [generated] [fig1-times]
"""

from __future__ import annotations

import argparse
import random
from collections import Counter

from repro.architecture import ArchitectureError, MappingError
from repro.data import fig1
from repro.exploration import ExplorationProblem, NeighborhoodSampler, merge_candidate
from repro.exploration.problem import BUS_POLICIES
from repro.generator import GeneratorConfig, RandomSystemGenerator
from repro.scheduling import SchedulingError
from repro.scheduling.schedule_table import ScheduleTableError
from repro.simulation import SimulationError, validate_merge_result

#: Errors that make a candidate infeasible before its merge starts.
_INFEASIBLE = (ArchitectureError, MappingError, SchedulingError)

#: Moves per walk: on Fig. 1, and on the generated and random-times systems.
FIG1_MOVES = 20
MOVES = 5


def _walk(problem, seed, moves, counts, rejected, label):
    """Merge the seed mapping and each of ``moves`` seeded moves into ``counts``."""
    rng = random.Random(seed)
    candidate = problem.initial_candidate()
    for step in range(moves + 1):
        if step:
            moves = NeighborhoodSampler(problem).sample(candidate, rng, 1)
            if not moves:
                return
            candidate = moves[0][1]
        try:
            expanded, result = merge_candidate(problem, candidate)
        except _INFEASIBLE:
            counts["infeasible"] += 1
            continue
        except Exception as error:  # any other failure is a finding: count it
            counts[f"merges raising {type(error).__name__}"] += 1
            rejected.append((label, step, f"{type(error).__name__}: {error}"))
            continue
        counts["tables"] += 1
        # Decision nodes count process conflicts only; the trace counts both kinds.
        processes = sum(node.conflicts_resolved for node in result.trace.nodes())
        counts["process conflicts resolved"] += processes
        counts["broadcast conflicts resolved"] += result.trace.conflicts_resolved - processes
        try:
            validate_merge_result(
                expanded.graph, expanded.mapping, result,
                problem.architecture_for(candidate),
            )
        except (SimulationError, ScheduleTableError) as error:
            counts["tables the simulator rejects"] += 1
            rejected.append((label, step, str(error)))


def search_fig1(counts, rejected):
    for buses in (1, 2):
        example = fig1.load_fig1_example(num_buses=buses)
        for mapped in (False, True):
            for policy in BUS_POLICIES:
                problem = ExplorationProblem(
                    example.process_graph, example.mapping, example.architecture,
                    name="fig1", map_communications=mapped, bus_policy=policy,
                )
                for seed in range(40):
                    label = f"fig1 buses={buses} mapped={mapped} {policy} seed={seed}"
                    _walk(problem, seed, FIG1_MOVES, counts, rejected, label)


def search_generated(counts, rejected):
    rng = random.Random("generated")
    for index in range(6000):
        paths = rng.randint(2, 8)
        config = GeneratorConfig(
            nodes=rng.randint(max(8, 2 * paths), 40),
            alternative_paths=paths,
            execution_time_distribution=rng.choice(["uniform", "exponential"]),
            communication_to_computation_ratio=rng.uniform(0.0, 2.0),
            programmable_processors=rng.randint(1, 4),
            hardware_processors=rng.randint(0, 1),
            buses=rng.randint(1, 3),
            hardware_mapping_fraction=rng.uniform(0.0, 0.5),
            condition_broadcast_time=rng.choice([0.0, rng.uniform(0.0, 5.0)]),
            parallel_chains_probability=rng.uniform(0.0, 1.0),
            seed=rng.randrange(2**30),
        )
        problem = ExplorationProblem.from_system(
            RandomSystemGenerator(config).generate(),
            map_communications=rng.random() < 0.5,
            bus_policy=rng.choice(BUS_POLICIES),
        )
        label = f"generated #{index} {config}"
        _walk(problem, rng.randrange(2**30), MOVES, counts, rejected, label)


def search_fig1_times(counts, rejected):
    rng = random.Random("fig1-times")
    defaults = (fig1.EXECUTION_TIMES, fig1.COMMUNICATION_TIMES, fig1.CONDITION_BROADCAST_TIME)
    try:
        for index in range(3000):
            fig1.EXECUTION_TIMES = {name: rng.randint(1, 12) for name in defaults[0]}
            fig1.COMMUNICATION_TIMES = {edge: rng.randint(0, 4) for edge in defaults[1]}
            fig1.CONDITION_BROADCAST_TIME = float(rng.randint(0, 3))
            example = fig1.load_fig1_example(num_buses=rng.randint(1, 2))
            problem = ExplorationProblem(
                example.process_graph, example.mapping, example.architecture,
                name=f"fig1-times-{index}", map_communications=rng.random() < 0.5,
                bus_policy=rng.choice(BUS_POLICIES),
            )
            label = (
                f"fig1-times #{index} times={fig1.EXECUTION_TIMES} "
                f"communications={fig1.COMMUNICATION_TIMES} "
                f"tau0={fig1.CONDITION_BROADCAST_TIME} "
                f"buses={len(example.architecture.buses)}"
            )
            _walk(problem, rng.randrange(2**30), MOVES, counts, rejected, label)
    finally:
        fig1.EXECUTION_TIMES, fig1.COMMUNICATION_TIMES, fig1.CONDITION_BROADCAST_TIME = defaults


FAMILIES = {
    "fig1": search_fig1,
    "generated": search_generated,
    "fig1-times": search_fig1_times,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "families", nargs="*", metavar="FAMILY",
        help=f"any of {', '.join(FAMILIES)} (default: all)",
    )
    families = parser.parse_args(argv).families or list(FAMILIES)
    unknown = [family for family in families if family not in FAMILIES]
    if unknown:
        parser.error(f"unknown families {unknown}; choose from {list(FAMILIES)}")
    total, failed = Counter(), False
    for family in families:
        counts, rejected = Counter(), []
        FAMILIES[family](counts, rejected)
        total.update(counts)
        failed = failed or bool(rejected)
        print(f"{family}: " + ", ".join(f"{value} {key}" for key, value in sorted(counts.items())))
        for label, step, message in rejected:
            print(f"  {label} step={step}: {message}")
    print("all: " + ", ".join(f"{value} {key}" for key, value in sorted(total.items())))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
