"""Command-line interface of the reproduction.

Eight subcommands cover the main uses of the library without writing Python:

``repro-cpg info <system.json>``
    Parse a system description, validate it and print its characteristics
    (processes, conditions, alternative paths, architecture).

``repro-cpg schedule <system.json>``
    Generate the schedule table for a system description, print the per-path
    delays, the worst-case delay and (optionally) the full table.
    ``--json`` emits the same results machine-readably.

``repro-cpg fig1``
    Run the paper's Fig. 1 example end to end.

``repro-cpg sweep``
    A small randomised sweep reporting the Fig. 5 metric (delay increase) for
    the requested sizes and path counts.  ``--json`` emits the series.

``repro-cpg explore``
    Design-space exploration: search the mapping/priority space of a seeded
    random system, a system description file or the paper's Fig. 1 example
    (``--fig1``) with tabu search, simulated annealing or the NSGA-style
    genetic engine, using the schedule merger as the evaluator.
    ``--size-architecture`` adds add/remove-processor and add/remove-bus
    moves within declared bounds; ``--map-communications`` makes
    communication-to-bus mapping explorable (remap_comm/swap_bus moves and
    per-message bus pins); ``--pareto`` reports the non-dominated front over
    (delta_max, mean path delay, load imbalance, architecture cost, bus
    imbalance) instead of only the best scalar design point.
    ``--trace FILE`` writes a structured span/event trace of the run and
    ``--metrics`` reports its wall-clock stage timings; both attach one
    tracer, whose span totals are the timings (see
    :mod:`repro.observability` and ``docs/observability.md``).

``repro-cpg trace-report <trace.jsonl>``
    Aggregate a trace written by ``explore --trace`` into per-stage and
    per-engine wall-time tables plus an event tally.

``repro-cpg serve``
    Run the exploration service: a long-running async HTTP/JSON job server
    whose tenants share LRU-bounded stage caches across requests (see
    :mod:`repro.service` and ``docs/service.md``).

``repro-cpg submit``
    Client for a running service: submit an exploration job (the same
    problem flags as ``explore``), wait for it and print the result —
    ``--json`` output is byte-identical to the one-shot
    ``explore --json`` for the same request.

``explore`` and ``serve`` run with a raised young-generation collection
threshold (:func:`_collector_policy`).

The console script ``repro-cpg`` is installed with the package; the module can
also be run with ``python -m repro.cli``.  See ``docs/cli.md`` for the full
flag reference.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, List, Optional, Sequence

from .analysis import (
    format_pareto_front,
    format_schedule_table,
    format_series,
    format_trajectory,
)
from .data import load_fig1_example
from .architecture.architecture import ArchitectureError
from .architecture.mapping import MappingError
from .exploration import (
    Checkpointer,
    CheckpointError,
    EvaluationPool,
    Explorer,
    WorkerInitializationError,
)
from .graph import BUS_POLICIES, PathEnumerator
from .graph.cpg import GraphStructureError
from .io import (
    RequestError,
    SerializationError,
    load_system,
    read_system_document,
    validate_explore_request,
)
from .io.serialization import EXPLORE_ENGINE_CHOICES
from .observability import (
    JsonlSink,
    TraceError,
    Tracer,
    aggregate_trace,
    format_trace_report,
    read_trace,
)
from .observability.report import SUBSTAGES
from .scheduling import ScheduleMerger
from .service import (
    ServiceClient,
    ServiceError,
    config_from_request,
    engines_for,
    explore_document,
    problem_and_origin,
    schedule_document,
    serve_forever,
    sweep_document,
)
from .service.requests import schedule_system, sweep_series
from .service.jobs import DEFAULT_CACHE_MAX_BYTES, DEFAULT_CACHE_MAX_ENTRIES
from .simulation import validate_merge_result


#: Request flags whose dests are explore-request keys as they stand.
_REQUEST_KEYS = (
    "fig1", "fig1_buses", "seed", "engine", "cycles", "neighbors",
    "population", "stall", "pareto", "map_communications", "bus_policy",
)
_RANDOM_KEYS = ("nodes", "paths")
_SIZING_KEYS = ("min_processors", "max_processors", "min_buses", "max_buses")

#: Young-generation collection threshold of the long-running commands
#: (``serve`` and ``explore``).  Their stage caches keep hundreds of
#: thousands of objects alive, and every collection that reaches the oldest
#: generation walks all of them; the evaluation pipeline itself makes no
#: reference cycles, so at the interpreter's default of 700 nearly all of
#: that work frees nothing.  See PERFORMANCE.md for the sweep behind the
#: value.
_YOUNG_COLLECTION_THRESHOLD = 50_000


@contextmanager
def _collector_policy() -> Iterator[None]:
    """Run the block at :data:`_YOUNG_COLLECTION_THRESHOLD`.

    Only the young generation's threshold changes; the older generations'
    thresholds and automatic collection itself stay as the caller set them,
    and all three are restored on the way out, raised or not.  Commands
    only: the library API never changes a process-wide collector setting.
    """
    previous = gc.get_threshold()
    gc.set_threshold(_YOUNG_COLLECTION_THRESHOLD, *previous[1:])
    try:
        yield
    finally:
        gc.set_threshold(*previous)


def _add_request_arguments(parser: argparse.ArgumentParser) -> None:
    """The explore-request flags ``explore`` and ``submit`` share.

    They carry no defaults of their own: a flag the user did not give is
    absent from the namespace, and :func:`_request_from_arguments` leaves it
    to :func:`~repro.io.validate_explore_request` — the schema ``POST /jobs``
    uses — to fill it in.
    """
    group = parser.add_argument_group(
        "explore request",
        "defaults, ranges and choices come from the request schema the "
        "service's POST /jobs uses (see docs/cli.md)",
        argument_default=argparse.SUPPRESS,
    )
    group.add_argument(
        "system",
        nargs="?",
        help="optional JSON system description; omitted: a seeded random system",
    )
    group.add_argument("--nodes", type=int, help="random-system size")
    group.add_argument(
        "--paths", type=int, help="random-system alternative paths"
    )
    group.add_argument("--seed", type=int, help="search + system seed")
    group.add_argument(
        "--fig1",
        action="store_true",
        help="explore the paper's Fig. 1 example instead of a random system",
    )
    group.add_argument(
        "--fig1-buses", type=int,
        help="with --fig1: number of shared buses of the platform (the "
        "paper's platform has 1; 2 makes communication mapping worthwhile)",
    )
    group.add_argument(
        "--engine",
        choices=EXPLORE_ENGINE_CHOICES,
        help="search engine ('both' runs tabu then annealing, 'all' adds the "
        "genetic engine; engines share one evaluation cache)",
    )
    group.add_argument(
        "--cycles", type=int,
        help="cycle budget (generations for the genetic engine)",
    )
    group.add_argument(
        "--neighbors", type=int, help="neighbours scored per cycle"
    )
    group.add_argument(
        "--population", type=int, help="genetic-engine population size"
    )
    group.add_argument(
        "--pareto",
        action="store_true",
        help="track and report the non-dominated front over "
        "(delta_max, mean path delay, load imbalance, architecture cost)",
    )
    group.add_argument(
        "--size-architecture",
        action="store_true",
        help="enable architecture sizing: the search may add/remove "
        "programmable processors and buses within the declared bounds",
    )
    group.add_argument(
        "--map-communications",
        action="store_true",
        help="explore communication-to-bus mapping: the search may pin "
        "individual messages to buses instead of accepting the derived "
        "assignment (adds remap_comm/swap_bus moves)",
    )
    group.add_argument(
        "--bus-policy",
        choices=BUS_POLICIES,
        help="derivation policy for messages without an explicit bus pin "
        "(least_index: the lexicographically least connecting bus)",
    )
    group.add_argument(
        "--min-processors", type=int,
        help="sizing: lower bound on programmable processors",
    )
    group.add_argument(
        "--max-processors", type=int,
        help="sizing: upper bound on programmable processors "
        "(omitted: seed count + 2)",
    )
    group.add_argument(
        "--min-buses", type=int, help="sizing: lower bound on buses"
    )
    group.add_argument(
        "--max-buses", type=int,
        help="sizing: upper bound on buses (omitted: seed count + 1)",
    )
    group.add_argument(
        "--stall", type=int,
        help="stop after N cycles without improvement (0: disabled)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cpg",
        description="Scheduling of conditional process graphs (Eles et al., DATE 1998)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="describe a system description file")
    info.add_argument("system", help="path to a JSON system description")

    schedule = subparsers.add_parser(
        "schedule", help="generate the schedule table for a system description"
    )
    schedule.add_argument("system", help="path to a JSON system description")
    schedule.add_argument(
        "--table", action="store_true", help="print the full schedule table"
    )
    schedule.add_argument(
        "--validate",
        action="store_true",
        help="execute every alternative path on the run-time simulator",
    )
    schedule.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    subparsers.add_parser("fig1", help="run the paper's Fig. 1 example")

    sweep = subparsers.add_parser(
        "sweep", help="randomised delay-increase sweep (the Fig. 5 metric)"
    )
    sweep.add_argument("--nodes", type=int, nargs="+", default=[40])
    sweep.add_argument("--paths", type=int, nargs="+", default=[4, 8])
    sweep.add_argument("--graphs", type=int, default=2, help="graphs per setting")
    sweep.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    explore = subparsers.add_parser(
        "explore",
        help="search the mapping/priority design space with the merge "
        "scheduler as evaluator",
    )
    _add_request_arguments(explore)
    explore.add_argument(
        "--workers",
        type=int,
        default=1,
        help="evaluation-pool workers (>1 scores each batch on that many "
        "processes, which evaluate every neighbour in full: tabu loses its "
        "pruning)",
    )
    explore.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a versioned JSON checkpoint of the full engine state "
        "every --checkpoint-every cycles (single engine only)",
    )
    explore.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint if it exists (continues "
        "bit-identically; a missing file starts from scratch)",
    )
    explore.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="cycle period of checkpoint writes (default: every cycle)",
    )
    explore.add_argument(
        "--trajectory", action="store_true", help="print the full trajectory"
    )
    explore.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a structured span/event trace (JSON lines) of the run "
        "and report its timings as --metrics does; aggregate it afterwards "
        "with 'repro-cpg trace-report FILE'",
    )
    explore.add_argument(
        "--metrics", action="store_true",
        help="report per-stage wall-clock timings, the span totals of the "
        "run's tracer, without writing a trace (--trace reports them too); "
        "fills stage_seconds/wall_seconds/batch in --json output",
    )
    explore.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    trace_report = subparsers.add_parser(
        "trace-report",
        help="aggregate an 'explore --trace' file into per-stage and "
        "per-engine wall-time tables",
    )
    trace_report.add_argument(
        "trace", help="path to a JSONL trace written by 'explore --trace'"
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the exploration service (async HTTP/JSON job server with "
        "shared LRU stage caches; see docs/service.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8765,
        help="listening port (default 8765; 0 picks an ephemeral port, "
        "printed on startup)",
    )
    serve.add_argument(
        "--job-workers", type=int, default=2,
        help="concurrent exploration jobs (default 2)",
    )
    serve.add_argument(
        "--cache-max-entries", type=int, default=DEFAULT_CACHE_MAX_ENTRIES,
        help="per-scope stage-cache entry budget "
        f"(default {DEFAULT_CACHE_MAX_ENTRIES})",
    )
    serve.add_argument(
        "--cache-max-bytes", type=int, default=DEFAULT_CACHE_MAX_BYTES,
        help="per-scope stage-cache byte budget "
        f"(default {DEFAULT_CACHE_MAX_BYTES}, ~64 MiB of estimated entry "
        "sizes)",
    )

    submit = subparsers.add_parser(
        "submit",
        help="submit an exploration job to a running service and print the "
        "result (--json is byte-identical to one-shot 'explore --json')",
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="service base URL (default http://127.0.0.1:8765)",
    )
    _add_request_arguments(submit)
    submit.add_argument(
        "--no-wait", action="store_true",
        help="print the queued job id and return without polling",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0,
        help="seconds to wait for the job (default 600)",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="print the full result document (byte-identical to the "
        "one-shot 'explore --json' for the same request)",
    )

    return parser


def _command_info(path: str) -> int:
    system = load_system(path)
    system.graph.validate()
    expanded = system.expand()
    paths = PathEnumerator(expanded.graph).count()
    print(f"system        : {system.name}")
    print(f"processes     : {len(system.graph.ordinary_processes)} ordinary, "
          f"{len(expanded.communications)} communications after expansion")
    print(f"conditions    : {[str(c) for c in system.graph.conditions]}")
    print(f"alternative paths: {paths}")
    print("architecture  :")
    for line in system.architecture.describe().splitlines():
        print(f"  {line}")
    print("mapping       :")
    for line in system.mapping.describe().splitlines():
        print(f"  {line}")
    return 0


def _command_schedule(
    path: str, show_table: bool, validate: bool, as_json: bool = False
) -> int:
    system = load_system(path)
    result, report = schedule_system(system, validate)
    if as_json:
        print(json.dumps(
            schedule_document(system.name, result, report),
            indent=2,
            sort_keys=True,
        ))
        return 0
    print(f"alternative paths : {len(result.paths)}")
    for label, schedule in sorted(
        result.path_schedules.items(), key=lambda kv: -kv[1].delay
    ):
        print(f"  {str(label):<16} optimal delay {schedule.delay:g}")
    print(f"delta_M   = {result.delta_m:g}")
    print(f"delta_max = {result.delta_max:g} "
          f"(increase {result.delay_increase_percent:.2f}%)")
    if show_table:
        print()
        print(format_schedule_table(result.table))
    if report is not None:
        print(f"validated {report.paths_checked} paths; "
              f"simulated worst case {report.worst_case_delay:g}")
    return 0


def _command_fig1() -> int:
    example = load_fig1_example()
    result = ScheduleMerger(
        example.graph, example.expanded_mapping, example.architecture
    ).merge()
    for label, schedule in sorted(
        result.path_schedules.items(), key=lambda kv: -kv[1].delay
    ):
        print(f"  {str(label):<14} optimal delay {schedule.delay:g}")
    print(f"delta_M   = {result.delta_m:g}")
    print(f"delta_max = {result.delta_max:g}")
    report = validate_merge_result(
        example.graph, example.expanded_mapping, result, example.architecture
    )
    print(f"validated {report.paths_checked} alternative paths")
    return 0


def _command_sweep(
    nodes: List[int], paths: List[int], graphs: int, as_json: bool = False
) -> int:
    series = sweep_series(nodes, paths, graphs)
    if as_json:
        print(json.dumps(
            sweep_document(series, graphs), indent=2, sort_keys=True
        ))
        return 0
    print(format_series(
        "average increase of delta_max over delta_M (%)", "paths", series
    ))
    return 0


def _request_from_arguments(arguments) -> dict:
    """The validated explore request the given flags spell.

    Only the flags the user gave go into the document, so
    :func:`~repro.io.validate_explore_request` — the call ``POST /jobs``
    makes — fills every default and checks every range and choice for
    ``explore`` and ``submit`` alike.  A system file is read with
    :func:`~repro.io.read_system_document` and goes inline, as the service
    receives it; without a file or ``--fig1`` the source is a random system.
    """
    given = vars(arguments)
    request = {key: given[key] for key in _REQUEST_KEYS if key in given}
    if "system" in given:
        request["system"] = read_system_document(given["system"])
    elif not request.get("fig1"):
        request["random"] = {key: given[key] for key in _RANDOM_KEYS if key in given}
    if given.get("size_architecture"):
        request["sizing"] = {key: given[key] for key in _SIZING_KEYS if key in given}
    return validate_explore_request(request)


class _UsageError(Exception):
    """A flag value or combination the command rejects (one error line)."""


def _checked(flags: str, build):
    """``build()``; a ``ValueError`` from the owner of ``flags`` names them."""
    try:
        return build()
    except ValueError as error:
        raise _UsageError(f"{flags}: {error}") from None


def _command_explore(arguments) -> int:
    request = _request_from_arguments(arguments)
    engines = engines_for(request["engine"])
    if arguments.checkpoint is not None and len(engines) > 1:
        raise _UsageError(
            "--checkpoint records the state of one engine; "
            f"--engine {request['engine']} runs several (pick one engine)"
        )
    if arguments.resume and arguments.checkpoint is None:
        raise _UsageError("--resume requires --checkpoint PATH")
    if arguments.checkpoint is not None:
        _checked("--checkpoint-every", lambda: Checkpointer(
            arguments.checkpoint, every=arguments.checkpoint_every
        ))
    seed = request["seed"]
    path = vars(arguments).get("system")
    problem, origin = problem_and_origin(request, origin=path)
    config = replace(
        config_from_request(request),
        checkpoint_every=arguments.checkpoint_every,
    )

    tracer = None
    if arguments.trace is not None or arguments.metrics:
        sink = JsonlSink(arguments.trace) if arguments.trace is not None else None
        tracer = Tracer(sink, run_id=f"explore-seed{seed}")
    try:
        with _checked("--workers", lambda: EvaluationPool(
            problem, config.weights, workers=arguments.workers, tracer=tracer
        )) as pool:
            explorer = Explorer(problem, config=config, pool=pool, tracer=tracer)
            results = [
                explorer.explore(
                    engine,
                    checkpoint=arguments.checkpoint,
                    resume=arguments.resume,
                )
                for engine in engines
            ]
    finally:
        if tracer is not None:
            tracer.close()

    if arguments.json:
        print(json.dumps(
            explore_document(
                origin,
                seed,
                results,
                include_front=request["pareto"],
                problem=problem,
            ),
            indent=2,
            sort_keys=True,
        ))
        return 0

    fallback = (
        " (a worker died; fell back to in-process evaluation)"
        if pool.degraded else ""
    )
    print(f"exploring {origin}")
    print(f"  processes {len(problem.movable_processes)}, "
          f"processors {len(problem.processor_names)}, "
          f"workers {pool.workers}{fallback}")
    if arguments.checkpoint is not None:
        print(f"  checkpoint {arguments.checkpoint} "
              f"(every {config.checkpoint_every} cycle(s))")
    staged_before = 0.0
    for result in results:
        if not result.initial.feasible:
            seed_text = "infeasible"
            verdict = (
                "feasible design point found"
                if result.best.feasible
                else "no feasible design point found"
            )
        else:
            seed_text = f"{result.initial.delta_max:g}"
            verdict = (
                f"improved {result.improvement_percent:.2f}%"
                if result.improved
                else "no improvement found (seed mapping kept)"
            )
        print(f"{result.engine:>7}: delta_max {seed_text} -> "
              f"{result.best.delta_max:g}  ({verdict})")
        print(f"         cycles {result.cycles}, evaluations {result.evaluations}, "
              f"cache hits {result.cache.hits} "
              f"({100.0 * result.cache.hit_rate:.0f}%), "
              f"merges pruned {result.cache.merges_pruned}, "
              f"stop: {result.stop_reason}")
        if result.stages is not None:
            stages = result.stages
            print(f"         stages: expansions "
                  f"{stages.expansion_hits}/"
                  f"{stages.expansion_hits + stages.expansion_misses} hits, "
                  f"path schedules {stages.schedule_hits}/"
                  f"{stages.schedule_hits + stages.schedule_misses} hits "
                  f"({100.0 * stages.schedule_hit_rate:.0f}%)")
        if result.stage_seconds is not None:
            breakdown = ", ".join(
                f"{stage} {seconds:.3f}s"
                for stage, seconds in sorted(
                    result.stage_seconds.items(), key=lambda kv: (-kv[1], kv[0])
                )
            ) or "no stages timed (process-mode workers are not instrumented)"
            line = (
                f"         timing: wall {result.wall_seconds:.3f}s; "
                f"stages (cumulative): {breakdown}"
            )
            # The stage totals are cumulative over the engines run so far,
            # so this engine's share is the growth since the previous one.
            # Process-mode workers time no stages, so only an in-process
            # run's stages can be reconciled with its wall time.
            staged = sum(
                seconds
                for stage, seconds in result.stage_seconds.items()
                if stage not in SUBSTAGES
            )
            if pool.workers == 1 and result.stage_seconds:
                unattributed = result.wall_seconds - (staged - staged_before)
                line += f"; unattributed {unattributed:.3f}s"
            staged_before = staged
            print(line)
        if result.resumed_from is not None:
            print(f"         resumed from checkpoint at cycle "
                  f"{result.resumed_from}")
        if request["map_communications"] and result.best.feasible:
            realised = problem.communications_for(result.best_candidate)
            per_bus = Counter(realised.values())
            distribution = ", ".join(
                f"{bus_name}: {count}" for bus_name, count in sorted(per_bus.items())
            ) or "no messages cross processors"
            pinned = len(result.best_candidate.communication_assignment)
            print(f"         communication mapping: {distribution} "
                  f"({pinned} pinned, bus imbalance "
                  f"{result.best.bus_imbalance:.3f})")
        if arguments.trajectory and result.trajectory:
            print(format_trajectory(
                f"  trajectory ({result.engine})", result.trajectory
            ))
        if request["pareto"] and result.front is not None:
            print(format_pareto_front(
                f"  Pareto front ({result.engine}): {len(result.front)} "
                "non-dominated trade-off points",
                result.front,
            ))
    return 0


def _command_trace_report(path: str) -> int:
    """Aggregate and print one trace file (the ``trace-report`` subcommand)."""
    records = read_trace(path)
    report = aggregate_trace(records)
    print(format_trace_report(report, source=path))
    return 0


def _command_serve(arguments) -> int:
    """Run the exploration service until interrupted (the ``serve`` command)."""
    return serve_forever(
        host=arguments.host,
        port=arguments.port,
        job_workers=arguments.job_workers,
        cache_max_entries=arguments.cache_max_entries,
        cache_max_bytes=arguments.cache_max_bytes,
    )


def _command_submit(arguments) -> int:
    """Submit one job to a running service (the ``submit`` command)."""
    request = _request_from_arguments(arguments)
    client = ServiceClient(arguments.url, timeout=arguments.timeout)
    try:
        submitted = client.submit(request)
        job_id = submitted["job"]
        if arguments.no_wait:
            print(f"submitted {job_id} ({submitted['state']}) to {arguments.url}")
            print(f"poll with: GET {arguments.url}/jobs/{job_id}")
            return 0
        status = client.wait(job_id, timeout=arguments.timeout)
        document = client.result(job_id)
    except (ConnectionError, OSError) as error:
        print(
            f"error: cannot reach service at {arguments.url}: {error}",
            file=sys.stderr,
        )
        return 2
    if arguments.json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    shared = status.get("shared_cache", {})
    print(f"job {job_id} done: {document['problem']}")
    for result in document["results"]:
        print(f"{result['engine']:>7}: delta_max "
              f"{result['best']['delta_max']:g} "
              f"(cost {result['best']['cost']}, "
              f"stop: {result['stop_reason']})")
    print(f"best engine: {document['best_engine']}")
    print(f"shared stage cache [{status.get('cache_scope', '?')}]: "
          f"{shared.get('stage_hits', 0)} hits, "
          f"{shared.get('stage_misses', 0)} misses, "
          f"{shared.get('entries_at_start', 0)} entries pre-warmed by "
          f"earlier tenants, {shared.get('lru_evictions', 0)} evictions")
    return 0


def _dispatch(arguments) -> int:
    if arguments.command == "info":
        return _command_info(arguments.system)
    if arguments.command == "schedule":
        return _command_schedule(
            arguments.system, arguments.table, arguments.validate, arguments.json
        )
    if arguments.command == "fig1":
        return _command_fig1()
    if arguments.command == "sweep":
        return _command_sweep(
            arguments.nodes, arguments.paths, arguments.graphs, arguments.json
        )
    if arguments.command == "explore":
        with _collector_policy():
            return _command_explore(arguments)
    if arguments.command == "trace-report":
        return _command_trace_report(arguments.trace)
    if arguments.command == "serve":
        with _collector_policy():
            return _command_serve(arguments)
    if arguments.command == "submit":
        return _command_submit(arguments)
    raise AssertionError(f"unhandled command {arguments.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-cpg`` console script.

    User-input problems — an unreadable or malformed system description, an
    invalid model, an explore request or flag its owner rejects, a foreign
    checkpoint, a problem the workers cannot rebuild — are reported as one
    actionable ``error:`` line on stderr with exit status 2 instead of a
    traceback.
    """
    arguments = _build_parser().parse_args(argv)
    try:
        return _dispatch(arguments)
    except (RequestError, _UsageError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        name = error.filename or error
        print(f"error: {name}: no such file", file=sys.stderr)
        return 2
    except SerializationError as error:
        print(f"error: invalid system description: {error}", file=sys.stderr)
        return 2
    except (GraphStructureError, ArchitectureError, MappingError) as error:
        print(f"error: invalid system: {error}", file=sys.stderr)
        return 2
    except CheckpointError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except TraceError as error:
        print(f"error: invalid trace: {error}", file=sys.stderr)
        return 2
    except WorkerInitializationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ServiceError as error:
        print(f"error: service request failed: {error}", file=sys.stderr)
        return 2
    except TimeoutError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
