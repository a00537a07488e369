#!/usr/bin/env python3
"""Design-space exploration walkthrough: optimising the mapping the paper assumes.

The paper takes the process-to-processor mapping as an input produced by an
upstream partitioning step (Eles et al., 1997 — simulated annealing / tabu
search).  This example closes that loop with ``repro.exploration``: starting
from the random generator's seed mapping it

1. scores the seed design point (worst-case delay ``delta_max`` of the merged
   schedule table, mean path delay, processor load balance),
2. runs tabu search and simulated annealing over remap / swap / priority
   moves — both engines share one content-hash evaluation cache, so design
   points revisited by the second engine are free, and
3. prints the best candidate of each engine and its trajectory.

Run it with::

    python examples/exploration.py                    # 40-node default
    REPRO_EXAMPLE_FAST=1 python examples/exploration.py   # tiny CI run
    REPRO_EXPLORE_WORKERS=4 python examples/exploration.py  # parallel pool
"""

from __future__ import annotations

import os

from repro.analysis import format_exploration_comparison, format_trajectory
from repro.exploration import (
    CostWeights,
    EvaluationPool,
    ExplorationConfig,
    ExplorationProblem,
    Explorer,
)
from repro.generator import generate_system


def main() -> None:
    fast = bool(os.environ.get("REPRO_EXAMPLE_FAST"))
    workers = int(os.environ.get("REPRO_EXPLORE_WORKERS", "1") or 1)
    nodes, paths, cycles = (16, 2, 5) if fast else (40, 8, 25)

    system = generate_system(nodes, paths, seed=0)
    problem = ExplorationProblem.from_system(system)
    print(f"problem: {len(problem.movable_processes)} processes on "
          f"{len(problem.processor_names)} processors, seed mapping from the "
          "random generator\n")

    # delta_max is the paper's metric; a pinch of load balance breaks ties
    # between mappings with equal worst-case delay.
    config = ExplorationConfig(
        seed=0,
        max_cycles=cycles,
        neighbors_per_cycle=6,
        weights=CostWeights(delta_max=1.0, load_imbalance=1.0),
    )
    with EvaluationPool(problem, config.weights, workers=workers) as pool:
        explorer = Explorer(problem, config=config, pool=pool)
        results = [explorer.explore(engine) for engine in ("tabu", "anneal")]

    print(format_exploration_comparison(
        "tabu search vs simulated annealing (shared evaluation cache)", results
    ))
    for result in results:
        print()
        print(format_trajectory(f"{result.engine} trajectory", result.trajectory))

    best = min(results, key=lambda r: r.best.cost)
    print(f"\nbest design point ({best.engine}): "
          f"delta_max {best.initial.delta_max:g} -> {best.best.delta_max:g}, "
          f"load imbalance {best.best.load_imbalance:.2f}, "
          f"priority function {best.best_candidate.priority_function!r}")
    stats = explorer.evaluator.stats
    print(f"evaluations: {stats.misses - stats.merges_pruned} merges "
          f"({stats.merges_pruned} pruned) for "
          f"{stats.hits + stats.misses} requests "
          f"({100.0 * stats.hit_rate:.0f}% served from the cache)")


if __name__ == "__main__":
    main()
