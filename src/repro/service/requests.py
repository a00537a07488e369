"""From a validated request to what the command-line and the service run.

The functions here are the single source of truth for how a request —
whether it arrived as ``repro-cpg explore`` flags or as a ``POST /jobs``
body — turns into an :class:`~repro.exploration.ExplorationProblem`, its
human-readable origin string, an :class:`~repro.exploration.ExplorationConfig`
and the engine list.  Both front-ends build their runs through this module,
which is what makes the service's byte-identity promise checkable: same
request, same ingredients, same result document.  The ``schedule`` and
``sweep`` queries likewise run one pipeline each, :func:`schedule_system`
and :func:`sweep_series`, whichever front-end asked.

Request documents are the normalised output of
:func:`repro.io.serialization.validate_explore_request`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis import aggregate
from ..data import load_fig1_example
from ..exploration import (
    ArchitectureBounds,
    ExplorationConfig,
    ExplorationProblem,
)
from ..generator import (
    RandomSystemGenerator,
    generate_system,
    paper_experiment_configs,
)
from ..io.serialization import SystemDescription, system_from_dict
from ..scheduling import ScheduleMerger
from ..scheduling.merging import MergeResult
from ..simulation import ValidationReport, validate_merge_result

#: Engine aliases that expand to several runs sharing one evaluation cache.
ENGINE_CHOICES = {
    "both": ["tabu", "anneal"],
    "all": ["tabu", "anneal", "genetic"],
}


def engines_for(engine: str) -> List[str]:
    """Expand an engine choice ('both'/'all' aliases included) to a run list."""
    return ENGINE_CHOICES.get(engine, [engine])


def problem_and_origin(
    request: Dict[str, Any], origin: Optional[str] = None
) -> Tuple[ExplorationProblem, str]:
    """Build the problem + origin string for one validated explore request.

    The origin strings are exactly the ones the one-shot CLI prints, so a
    served result document matches the CLI's byte for byte.  ``origin``
    overrides the derived string (the CLI passes the file path when the
    system came from disk; the service has no path and labels the payload by
    its system name instead).  An inline system is the JSON document, as
    :func:`~repro.io.read_system_document` returns it.
    """
    sizing = request["sizing"]
    bounds = ArchitectureBounds(**sizing) if sizing is not None else None
    if request["fig1"]:
        example = load_fig1_example(num_buses=request["fig1_buses"])
        problem = ExplorationProblem(
            example.process_graph,
            example.mapping,
            example.architecture,
            name="fig1",
            bounds=bounds,
            map_communications=request["map_communications"],
            bus_policy=request["bus_policy"],
        )
        derived = "the paper's Fig. 1 example"
        if request["fig1_buses"] != 1:
            derived += f" ({request['fig1_buses']} buses)"
    elif request.get("system") is not None:
        system = system_from_dict(request["system"])
        system.graph.validate()
        problem = ExplorationProblem.from_system(
            system,
            bounds=bounds,
            map_communications=request["map_communications"],
            bus_policy=request["bus_policy"],
        )
        derived = f"submitted system {system.name!r}"
    else:
        spec = request["random"]
        generated = generate_system(
            spec["nodes"], spec["paths"], seed=request["seed"]
        )
        problem = ExplorationProblem.from_system(
            generated,
            bounds=bounds,
            map_communications=request["map_communications"],
            bus_policy=request["bus_policy"],
        )
        derived = (
            f"random system ({spec['nodes']} nodes, {spec['paths']} paths, "
            f"seed {request['seed']})"
        )
    return problem, origin if origin is not None else derived


def config_from_request(request: Dict[str, Any]) -> ExplorationConfig:
    """The search configuration of one validated explore request."""
    return ExplorationConfig(
        seed=request["seed"],
        max_cycles=request["cycles"],
        neighbors_per_cycle=request["neighbors"],
        stall_cycles=request["stall"],
        population_size=request["population"],
        track_front=request["pareto"],
    )


def schedule_system(
    system: SystemDescription, validate: bool
) -> Tuple[MergeResult, Optional[ValidationReport]]:
    """Validate, expand and merge one system (``schedule``).

    With ``validate``, every alternative path also runs on the run-time
    simulator; the report is None otherwise.
    """
    system.graph.validate()
    expanded = system.expand()
    result = ScheduleMerger(
        expanded.graph, expanded.mapping, system.architecture
    ).merge()
    report = None
    if validate:
        report = validate_merge_result(
            expanded.graph, expanded.mapping, result, system.architecture
        )
    return result, report


def sweep_series(
    nodes: Sequence[int], paths: Sequence[int], graphs: int
) -> Dict[str, Dict[int, float]]:
    """The Fig. 5 series behind ``sweep``.

    Per ``"<size> nodes"``: the average increase of delta_max over delta_M
    (%) per alternative-path count, over ``graphs`` seeded systems each.
    """
    series = {}
    for size in nodes:
        configs = paper_experiment_configs(
            size, graphs, paths_options=paths, base_seed=size
        )
        by_paths: Dict[int, list] = {}
        for config in configs:
            system = RandomSystemGenerator(config).generate()
            result = ScheduleMerger(
                system.graph, system.expanded_mapping, system.architecture
            ).merge()
            by_paths.setdefault(config.alternative_paths, []).append(result)
        series[f"{size} nodes"] = {
            count: aggregate(results).average_increase_percent
            for count, results in sorted(by_paths.items())
        }
    return series
