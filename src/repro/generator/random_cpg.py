"""Random conditional process graphs with a prescribed number of alternative paths.

The paper's evaluation (Section 6) uses 1080 graphs generated for experimental
purposes: 360 graphs for each size in {60, 80, 120} nodes, with 10, 12, 18, 24
or 32 alternative paths, execution times drawn from uniform and exponential
distributions, and architectures of one ASIC, one to eleven processors and one
to eight buses.  This module regenerates statistically equivalent workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..architecture import Architecture, Mapping, bus, hardware, programmable
from ..architecture.processing_element import ProcessingElement
from ..conditions import Condition, Literal
from ..graph import (
    CPGBuilder,
    ConditionalProcessGraph,
    ExpandedGraph,
    PathEnumerator,
    expand_communications,
)
from .structure import StructurePlan, distribute_sizes, plan_for_paths

#: The smallest graph the generator builds; explore requests check against it.
MIN_GENERATED_PROCESSES = 3


@dataclass
class GeneratorConfig:
    """Parameters of one randomly generated system (graph + architecture + mapping)."""

    nodes: int = 60
    alternative_paths: int = 10
    execution_time_distribution: str = "uniform"  # "uniform" or "exponential"
    min_execution_time: float = 2.0
    max_execution_time: float = 20.0
    mean_execution_time: float = 10.0
    communication_to_computation_ratio: float = 0.3
    programmable_processors: int = 3
    hardware_processors: int = 1
    buses: int = 2
    hardware_mapping_fraction: float = 0.2
    condition_broadcast_time: float = 1.0
    parallel_chains_probability: float = 0.4
    seed: int = 0

    def validate(self) -> None:
        if self.nodes < MIN_GENERATED_PROCESSES:
            raise ValueError(
                f"a generated graph needs at least {MIN_GENERATED_PROCESSES} processes"
            )
        if self.alternative_paths < 1:
            raise ValueError("the number of alternative paths must be positive")
        if self.execution_time_distribution not in ("uniform", "exponential"):
            raise ValueError(
                "execution_time_distribution must be 'uniform' or 'exponential'"
            )
        if self.programmable_processors < 1:
            raise ValueError("need at least one programmable processor")
        if self.buses < 1:
            raise ValueError("need at least one bus")


@dataclass
class GeneratedSystem:
    """A complete randomly generated system ready to be scheduled."""

    config: GeneratorConfig
    process_graph: ConditionalProcessGraph
    architecture: Architecture
    mapping: Mapping
    expanded: ExpandedGraph
    plan: StructurePlan

    @property
    def graph(self) -> ConditionalProcessGraph:
        """The expanded graph (communication processes included)."""
        return self.expanded.graph

    @property
    def expanded_mapping(self) -> Mapping:
        return self.expanded.mapping

    @property
    def alternative_path_count(self) -> int:
        return PathEnumerator(self.graph).count()


class RandomSystemGenerator:
    """Generates random conditional process graphs, architectures and mappings."""

    def __init__(self, config: GeneratorConfig) -> None:
        config.validate()
        self._config = config
        self._rng = random.Random(config.seed)

    # -- public API -----------------------------------------------------------------

    def generate(self) -> GeneratedSystem:
        """Generate one complete system."""
        config = self._config
        plan = plan_for_paths(config.alternative_paths, self._rng)
        distribute_sizes(plan, config.nodes, self._rng)
        process_graph = self._build_graph(plan)
        architecture = self._build_architecture()
        mapping = self._build_mapping(process_graph, architecture)
        bus_assignment = self._assign_buses(process_graph, mapping, architecture)
        expanded = expand_communications(
            process_graph, mapping, architecture, bus_assignment=bus_assignment
        )
        return GeneratedSystem(
            config=config,
            process_graph=process_graph,
            architecture=architecture,
            mapping=mapping,
            expanded=expanded,
            plan=plan,
        )

    # -- graph construction -------------------------------------------------------------

    def _execution_time(self) -> float:
        config = self._config
        if config.execution_time_distribution == "uniform":
            return round(
                self._rng.uniform(config.min_execution_time, config.max_execution_time),
                2,
            )
        time = self._rng.expovariate(1.0 / config.mean_execution_time)
        return round(max(config.min_execution_time, time), 2)

    def _communication_time(self) -> float:
        config = self._config
        mean = (
            config.mean_execution_time
            if config.execution_time_distribution == "exponential"
            else (config.min_execution_time + config.max_execution_time) / 2.0
        )
        time = mean * config.communication_to_computation_ratio
        jitter = self._rng.uniform(0.5, 1.5)
        return round(max(config.condition_broadcast_time, time * jitter), 2)

    def _build_graph(self, plan: StructurePlan) -> ConditionalProcessGraph:
        builder = CPGBuilder("generated")
        counters = {"process": 0, "condition": 0}

        def new_process() -> str:
            counters["process"] += 1
            name = f"P{counters['process']}"
            builder.process(name, self._execution_time())
            return name

        def new_condition() -> Condition:
            counters["condition"] += 1
            return Condition(f"C{counters['condition']}")

        def connect(
            sources: List[str], target: str, literal: Optional[Literal]
        ) -> None:
            for src in sources:
                builder.edge(
                    src,
                    target,
                    condition=literal,
                    communication_time=self._communication_time(),
                )

        def build(
            node: StructurePlan,
            entries: List[str],
            literal: Optional[Literal],
        ) -> List[str]:
            if node.kind == "segment":
                return build_segment(node.size, entries, literal)
            if node.kind == "series":
                current = entries
                current_literal = literal
                for child in node.children:
                    current = build(child, current, current_literal)
                    current_literal = None
                return current
            if node.kind == "branch":
                disjunction = new_process()
                connect(entries, disjunction, literal)
                condition = new_condition()
                true_exits = build(node.children[0], [disjunction], condition.true())
                false_exits = build(node.children[1], [disjunction], condition.false())
                conjunction = new_process()
                connect(true_exits, conjunction, None)
                connect(false_exits, conjunction, None)
                return [conjunction]
            raise ValueError(f"unknown structure kind {node.kind!r}")

        def build_segment(
            size: int, entries: List[str], literal: Optional[Literal]
        ) -> List[str]:
            chains = 1
            if size >= 4 and self._rng.random() < self._config.parallel_chains_probability:
                chains = self._rng.choice([2, 3]) if size >= 6 else 2
            per_chain = [size // chains] * chains
            for index in range(size - sum(per_chain)):
                per_chain[index % chains] += 1
            exits: List[str] = []
            for chain_size in per_chain:
                previous: Optional[str] = None
                for position in range(chain_size):
                    name = new_process()
                    if position == 0:
                        connect(entries, name, literal)
                    else:
                        connect([previous], name, None)
                    previous = name
                if previous is not None:
                    exits.append(previous)
            return exits

        build(plan, [], None)
        # ``build`` reaches itself through its closure cell, a cycle that
        # would keep the builder, and through it the graph, alive until a
        # collection; emptying the cell lets reference counting free them.
        del build
        return builder.build()

    # -- architecture and mapping ----------------------------------------------------------

    def _build_architecture(self) -> Architecture:
        config = self._config
        processors: List[ProcessingElement] = [
            programmable(f"pe{i + 1}") for i in range(config.programmable_processors)
        ]
        processors += [
            hardware(f"asic{i + 1}") for i in range(config.hardware_processors)
        ]
        buses = [bus(f"bus{i + 1}") for i in range(config.buses)]
        return Architecture(
            processors, buses, condition_broadcast_time=config.condition_broadcast_time
        )

    def _build_mapping(
        self, graph: ConditionalProcessGraph, architecture: Architecture
    ) -> Mapping:
        config = self._config
        mapping = Mapping(architecture)
        programmables = list(architecture.programmable_processors)
        hardwares = list(architecture.hardware_processors)
        for process in graph.ordinary_processes:
            if hardwares and self._rng.random() < config.hardware_mapping_fraction:
                target = self._rng.choice(hardwares)
            else:
                target = self._rng.choice(programmables)
            mapping.assign(process.name, target)
        return mapping

    def _assign_buses(
        self,
        graph: ConditionalProcessGraph,
        mapping: Mapping,
        architecture: Architecture,
    ) -> Dict[Tuple[str, str], ProcessingElement]:
        assignment: Dict[Tuple[str, str], ProcessingElement] = {}
        buses = list(architecture.buses)
        for edge in graph.edges:
            if graph[edge.src].is_dummy or graph[edge.dst].is_dummy:
                continue
            if mapping[edge.src] != mapping[edge.dst]:
                assignment[(edge.src, edge.dst)] = self._rng.choice(buses)
        return assignment


def generate_system(
    nodes: int,
    alternative_paths: int,
    seed: int = 0,
    **overrides,
) -> GeneratedSystem:
    """Convenience wrapper building one random system from keyword parameters."""
    config = GeneratorConfig(
        nodes=nodes, alternative_paths=alternative_paths, seed=seed, **overrides
    )
    return RandomSystemGenerator(config).generate()


#: Larger-than-paper generation presets for the perf-core benchmark harness.
#: The paper stops at 120-node graphs; the scaling presets stress the merge
#: loop up to high-hundreds of expanded processes (the ``xlarge`` system
#: expands to ~840 processes once communications are inserted) so the
#: benchmark trajectory in ``BENCH_core.json`` exercises production scale.
LARGE_SCALE_PRESETS: Dict[str, "GeneratorConfig"] = {
    "small": GeneratorConfig(nodes=60, alternative_paths=10, seed=7),
    "medium": GeneratorConfig(nodes=120, alternative_paths=12, seed=7),
    "large": GeneratorConfig(nodes=240, alternative_paths=16, seed=42),
    "xlarge": GeneratorConfig(nodes=480, alternative_paths=16, seed=42),
}


def large_scale_system(preset: str, seed: Optional[int] = None) -> GeneratedSystem:
    """Generate one of the :data:`LARGE_SCALE_PRESETS` systems.

    ``seed`` overrides the preset's seed to sample a different instance of
    the same scale.
    """
    try:
        base = LARGE_SCALE_PRESETS[preset]
    except KeyError:
        raise KeyError(
            f"unknown preset {preset!r}; choose from {sorted(LARGE_SCALE_PRESETS)}"
        ) from None
    config = replace(base, seed=base.seed if seed is None else seed)
    return RandomSystemGenerator(config).generate()


def paper_experiment_configs(
    nodes: int,
    graphs_per_setting: int,
    paths_options: Optional[List[int]] = None,
    base_seed: int = 0,
) -> List[GeneratorConfig]:
    """Configurations mirroring the paper's 1080-graph experiment for one size.

    For each number of alternative paths (10, 12, 18, 24, 32 by default) this
    returns ``graphs_per_setting`` configurations that alternate between
    uniform and exponential execution times and sweep the architecture between
    one and eleven processors and one and eight buses, as described in
    Section 6.
    """
    paths_options = paths_options or [10, 12, 18, 24, 32]
    rng = random.Random(base_seed)
    configs: List[GeneratorConfig] = []
    for paths in paths_options:
        for index in range(graphs_per_setting):
            configs.append(
                GeneratorConfig(
                    nodes=nodes,
                    alternative_paths=paths,
                    execution_time_distribution=(
                        "uniform" if index % 2 == 0 else "exponential"
                    ),
                    programmable_processors=rng.randint(1, 11),
                    hardware_processors=1,
                    buses=rng.randint(1, 8),
                    seed=rng.randint(0, 2**31 - 1),
                )
            )
    return configs

