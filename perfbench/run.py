#!/usr/bin/env python3
"""The repository's end-to-end benchmark, with per-layer tracing.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload explore|schedule|serve \\
        --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/WORKLOADS.md`` for the full record):

* ``explore`` -- one job is a fresh, serial, in-process
  ``Explorer(...).explore("tabu")`` on a 120-node / 12-path system;
* ``schedule`` -- one job is ``repro-cpg schedule --validate --json`` on a
  system-description file from ``paper_experiment_configs``;
* ``serve`` -- two closed-loop client threads against
  ``repro-cpg serve --port 0 --job-workers 2`` in its own process.

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` first runs half the time untraced, then re-runs exactly those
jobs with every layer entry point wrapped (:mod:`layers`), checks that the
results are identical, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit.  The program is built from ``src/``
next to this directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import (
    Recorder,
    clock,
    event_totals,
    in_window,
    install_client_layer,
    read_trace,
    totals,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: ``serve`` set-up (server start and a multi-second warm-up) costs more.
SERVE_SETUP_REPEATS = 3
#: Closed-loop client threads of ``serve`` (the host's 2 cores).
CLIENTS = 2
JOB_WORKERS = 2
#: Timed ``serve`` jobs whose documents are re-derived in-process.
SERVE_REFERENCES = 2
#: Jobs beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Upper bound on any single wait (server start, one job, shutdown).
WAIT_SECONDS = 60.0

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.expand_calls": "count",
    "graph.expand_s": "s",
    "graph.expand_hit_ratio": "ratio",
    "graph.structure_hit_ratio": "ratio",
    "scheduling.schedule_calls": "count",
    "scheduling.schedule_s": "s",
    "scheduling.readjust_calls": "count",
    "scheduling.readjust_s": "s",
    "scheduling.merge_calls": "count",
    "scheduling.merge_s": "s",
    "exploration.cache_hit_ratio": "ratio",
    "exploration.stage_hit_ratio": "ratio",
    "exploration.keys_s": "s",
    "exploration.moves_s": "s",
    "exploration.evaluate_s": "s",
    "exploration.engine_s": "s",
    "simulation.validate_calls": "count",
    "simulation.validate_s": "s",
    "simulation.paths_checked": "count",
    "io.load_s": "s",
    "service.request_s.submit": "s",
    "service.request_s.status": "s",
    "service.request_s.result": "s",
    "service.request_s.stats": "s",
    "service.request_s.cache": "s",
    "service.polls_per_job": "count",
    "service.coalesced_ratio": "ratio",
    "service.cache_hit_ratio": "ratio",
    "service.cache_evictions": "count",
    "service.cache_occupancy_mb": "MB",
    "service.warm_jobs": "count",
    "service.cold_jobs": "count",
    "unattributed_s": "s",
    "trace_overhead_ratio": "ratio",
    "job_count": "count",
    "job_tail_pct": "%",
}

#: Span names whose calls and self time are reported per job.
_SPAN_METRICS = {
    "graph.expand": ("graph.expand_calls", "graph.expand_s"),
    "scheduling.schedule": ("scheduling.schedule_calls", "scheduling.schedule_s"),
    "scheduling.readjust": ("scheduling.readjust_calls", "scheduling.readjust_s"),
    "scheduling.merge": ("scheduling.merge_calls", "scheduling.merge_s"),
    "exploration.keys": (None, "exploration.keys_s"),
    "exploration.moves": (None, "exploration.moves_s"),
    "exploration.evaluate": (None, "exploration.evaluate_s"),
    "exploration.engine": (None, "exploration.engine_s"),
    "simulation.validate": ("simulation.validate_calls", "simulation.validate_s"),
    "io.load": (None, "io.load_s"),
}


# -- shared bookkeeping ----------------------------------------------------------


@dataclass
class Job:
    """One timed job: its latency and outcome."""

    latency: float = 0.0
    error: Optional[str] = None
    #: What the output checks and the traced re-run compare.
    output: Any = None
    #: Fresh (whole-candidate cache miss) evaluations the job ran.
    fresh: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Phase:
    """The jobs of one timed phase, in input order."""

    jobs: List[Job]
    start: float
    end: float

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    @property
    def wall(self) -> float:
        return sum(job.latency for job in self.jobs)


@dataclass
class Outcome:
    metrics: Dict[str, float]
    units: Dict[str, str]
    attempted: int
    failed: int
    notes: List[str]

    def result_line(self) -> Dict[str, Any]:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


def tail_of(latencies: List[float]) -> Tuple[float, float, int]:
    """(latency, percentile, jobs beyond) of the highest percentile with 10
    jobs beyond it, but never below the median.

    The k-th fastest of n jobs has n - k jobs beyond it, so the reported job
    is k = n - 10; with fewer than 21 jobs that would fall below the median,
    and the (upper) median job, k = n // 2 + 1, is reported instead.
    """
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND, len(ordered) // 2 + 1)
    return ordered[k - 1], 100.0 * k / len(ordered), len(ordered) - k


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    setups: List[float], phase: Phase, rss_mb: float
) -> Tuple[Dict[str, float], List[str]]:
    latencies = [job.latency for job in phase.jobs]
    tail, percentile, beyond = tail_of(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail,
        "jobs_per_s": len(phase.jobs) / phase.elapsed,
        "evals_per_s": sum(job.fresh for job in phase.jobs) / phase.elapsed,
        "peak_rss_mb": rss_mb,
    }
    notes = [
        f"job_tail_s is p{percentile:.1f} of {len(latencies)} jobs "
        f"({beyond} beyond it)",
        f"setup_s is the median of {len(setups)} set-ups: "
        + ", ".join(f"{value:.3f}" for value in setups),
    ]
    return metrics, notes


def layer_metrics(
    spans, events, jobs: int, wall: float, overhead: float
) -> Dict[str, float]:
    """Per-job layer metrics from the spans and events of one traced phase.

    ``wall`` is the phase's summed job latency; ``overhead`` the traced
    phase's wall time over the untraced phase's, minus one.
    """
    metrics = {name: 0.0 for name in PER_LAYER}
    table = totals(spans)
    attributed = 0.0
    for span_name, (calls, self_seconds, _wall) in table.items():
        if span_name not in _SPAN_METRICS:
            continue
        calls_metric, seconds_metric = _SPAN_METRICS[span_name]
        if calls_metric is not None:
            metrics[calls_metric] = calls / jobs
        metrics[seconds_metric] = self_seconds / jobs
        attributed += self_seconds
    if events.get("graph.expand_probes"):
        metrics["graph.expand_hit_ratio"] = (
            events.get("graph.expand_hits", 0) / events["graph.expand_probes"]
        )
    if events.get("graph.structure_probes"):
        metrics["graph.structure_hit_ratio"] = (
            events.get("graph.structure_hits", 0) / events["graph.structure_probes"]
        )
    metrics["simulation.paths_checked"] = (
        events.get("simulation.paths_checked", 0) / jobs
    )
    metrics["unattributed_s"] = (wall - attributed) / jobs
    metrics["trace_overhead_ratio"] = overhead
    return metrics


def ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def compare_traced(untraced: Phase, traced: Phase, same: Callable) -> int:
    """Mark untraced jobs whose traced re-run differs; returns the count."""
    mismatches = 0
    for plain, rerun in zip(untraced.jobs, traced.jobs):
        if plain.error is None and (
            rerun.error is not None or not same(plain.output, rerun.output)
        ):
            plain.error = "traced re-run differs from the untraced run"
            mismatches += 1
    return mismatches


def run_phase(
    run_job: Callable[[int], Job],
    seconds: Optional[float],
    count: int,
    round_size: int = 1,
) -> Phase:
    """Run jobs 0, 1, ... until ``count`` jobs ran or ``seconds`` passed.

    Inputs come in rounds over a fixed pool of systems, and the phase stops
    only at a round boundary, so every run times whole rounds: the median
    and the throughput then do not depend on where the clock cut a round.
    """
    jobs: List[Job] = []
    start = clock()
    end = start
    while len(jobs) < count and (
        seconds is None or len(jobs) % round_size or end - start < seconds
    ):
        job_start = clock()
        try:
            job = run_job(len(jobs))
        except Exception as error:  # a job that raises is a failed job
            job = Job(error=f"{type(error).__name__}: {error}")
        end = clock()
        job.latency = end - job_start
        jobs.append(job)
    return Phase(jobs, start, end)


def setup_repeated(build: Callable[[], Any]) -> Tuple[Any, List[float]]:
    """Run ``build`` several times; keep the last result and every time."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = clock()
        built = build()
        times.append(clock() - started)
    return built, times


# -- explore ---------------------------------------------------------------------


def run_explore(seed: int, seconds: float, trace: bool, sizes) -> Outcome:
    from inputs import explore_config, explore_jobs, explore_problem
    from repro.exploration import Explorer
    from repro.service import explore_document

    pool = len(sizes.explore_systems)
    limit = pool * (int(seconds / 8) + 3)

    def build() -> list:
        return [
            (job, explore_problem(job, sizes))
            for job in explore_jobs(seed, limit, sizes)
        ]

    def job_runner(built: list) -> Callable[[int], Job]:
        def run_job(index: int) -> Job:
            spec, problem = built[index]
            explorer = Explorer(problem, config=explore_config(spec, sizes))
            result = explorer.explore("tabu")
            stats = explorer.evaluator.stats
            stages = explorer.evaluator.stage_stats
            return Job(
                output=explore_document("explore", spec.search_seed, [result]),
                fresh=stats.misses,
                extra={
                    "result": result,
                    "cache": (stats.hits, stats.hits + stats.misses),
                    "stages": (
                        stages.schedule_hits,
                        stages.schedule_hits + stages.schedule_misses,
                    ),
                },
            )

        return run_job

    if not trace:
        built, setups = setup_repeated(build)
        phase = run_phase(job_runner(built), seconds, limit, pool)
        check_explore(phase, built, sizes)
        metrics, notes = end_to_end(setups, phase, self_peak_rss_mb())
        return finish(metrics, END_TO_END, phase, notes)

    built = build()
    untraced = run_phase(job_runner(built), seconds / 2, limit, pool)
    check_explore(untraced, built, sizes)
    rebuilt = build()[: len(untraced.jobs)]
    recorder = Recorder()
    with recorder.installed():
        traced = run_phase(job_runner(rebuilt), None, len(rebuilt))
    recorder.write(str(WORK / "trace-explore.jsonl"))
    compare_traced(untraced, traced, lambda a, b: a == b)
    spans = in_window(recorder.spans, traced.start, traced.end)
    events = event_totals(recorder.events, traced.start, traced.end)
    jobs = len(traced.jobs)
    metrics = layer_metrics(
        spans, events, jobs, traced.wall, traced.wall / untraced.wall - 1.0
    )
    cache = [job.extra.get("cache", (0, 0)) for job in traced.jobs]
    stages = [job.extra.get("stages", (0, 0)) for job in traced.jobs]
    metrics["exploration.cache_hit_ratio"] = ratio(
        sum(hit for hit, _ in cache), sum(total for _, total in cache)
    )
    metrics["exploration.stage_hit_ratio"] = ratio(
        sum(hit for hit, _ in stages), sum(total for _, total in stages)
    )
    return finish_traced(metrics, untraced)


def check_explore(phase: Phase, built: list, sizes) -> None:
    """Re-score each best candidate without caches; validate the first table."""
    from repro.exploration import evaluate_candidate, merge_candidate
    from repro.simulation import validate_merge_result

    from inputs import explore_config

    for index, job in enumerate(phase.jobs):
        if job.error is not None:
            continue
        spec, problem = built[index]
        result = job.extra["result"]
        try:
            rescored = evaluate_candidate(
                problem, result.best_candidate, explore_config(spec, sizes).weights
            )
            if rescored != result.best:
                job.error = "cache-less re-score differs from the search's best"
            elif index == 0:
                expanded, merged = merge_candidate(problem, result.best_candidate)
                validate_merge_result(
                    expanded.graph,
                    expanded.mapping,
                    merged,
                    problem.architecture_for(result.best_candidate),
                )
        except Exception as error:
            job.error = f"check failed: {type(error).__name__}: {error}"


# -- schedule --------------------------------------------------------------------


def run_schedule(seed: int, seconds: float, trace: bool, sizes) -> Outcome:
    from inputs import schedule_documents, schedule_order, write_schedule_files
    from repro import cli

    directory = WORK / "schedule"
    pool = sizes.schedule_systems
    limit = pool * (int(seconds / 3) + 3)

    def build() -> list:
        systems = schedule_documents(seed, sizes)
        paths = write_schedule_files([document for document, _ in systems], directory)
        files = [
            (path, expected) for (_document, expected), path in zip(systems, paths)
        ]
        return [files[index] for index in schedule_order(seed, limit, sizes)]

    def job_runner(built: list) -> Callable[[int], Job]:
        def run_job(index: int) -> Job:
            path, expected_paths = built[index]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status = cli.main(["schedule", str(path), "--validate", "--json"])
            job = Job(output=stdout.getvalue(), fresh=1)
            job.error = check_schedule(status, job.output, expected_paths)
            return job

        return run_job

    if not trace:
        built, setups = setup_repeated(build)
        phase = run_phase(job_runner(built), seconds, limit, pool)
        metrics, notes = end_to_end(setups, phase, self_peak_rss_mb())
        return finish(metrics, END_TO_END, phase, notes)

    built = build()
    untraced = run_phase(job_runner(built), seconds / 2, limit, pool)
    recorder = Recorder()
    with recorder.installed():
        traced = run_phase(job_runner(built), None, len(untraced.jobs))
    recorder.write(str(WORK / "trace-schedule.jsonl"))
    compare_traced(untraced, traced, lambda a, b: a == b)
    spans = in_window(recorder.spans, traced.start, traced.end)
    events = event_totals(recorder.events, traced.start, traced.end)
    metrics = layer_metrics(
        spans, events, len(traced.jobs), traced.wall,
        traced.wall / untraced.wall - 1.0,
    )
    return finish_traced(metrics, untraced)


def check_schedule(status: int, output: str, expected_paths: int) -> Optional[str]:
    """Every job's validation report must pass and cover every path.

    The expected path count is the generator's prescribed number of
    alternative paths, independent of the scheduler and the simulator.
    """
    if status != 0:
        return f"repro-cpg schedule exited with status {status}"
    result = json.loads(output)
    validation = result.get("validation")
    if validation is None:
        return "no validation report"
    if result["alternative_paths"] != expected_paths:
        return "the table covers the wrong number of alternative paths"
    if validation["paths_checked"] != expected_paths:
        return "validation skipped alternative paths"
    if abs(validation["worst_case_delay"] - result["delta_max"]) > 1e-6:
        return "simulated worst case differs from delta_max"
    if result["delta_max"] + 1e-9 < result["delta_m"]:
        return "delta_max below delta_M"
    return None


# -- serve -----------------------------------------------------------------------


class Server:
    """``repro-cpg serve`` in its own process (traced through the launcher)."""

    def __init__(self, trace_path: Optional[Path] = None) -> None:
        arguments = ["--port", "0", "--job-workers", str(JOB_WORKERS)]
        if trace_path is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *arguments]
        else:
            command = [
                sys.executable, str(HERE / "serve_main.py"), str(trace_path),
                *arguments,
            ]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), environment.get("PYTHONPATH")])
        )
        self._log = open(WORK / "serve-stderr.log", "ab")
        self.process = subprocess.Popen(
            command,
            cwd=str(ROOT),
            env=environment,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.peak_rss_mb: Optional[float] = None
        try:
            self.url = self._read_url()
        except BaseException:
            self.close()
            raise

    def _read_url(self) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], WAIT_SECONDS)
        line = self.process.stdout.readline().decode() if ready else ""
        marker = "listening on "
        if marker not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        return line.split(marker, 1)[1].split()[0]

    def close(self) -> None:
        """Shut down cleanly (POST /shutdown), reap, and read peak RSS."""
        from repro.service import ServiceClient

        if self.process.returncode is None:
            try:
                ServiceClient(self.url, timeout=WAIT_SECONDS).shutdown()
            except (AttributeError, OSError, RuntimeError, ValueError):
                self.process.kill()
            self._reap()
        self.process.stdout.close()
        self._log.close()

    def _reap(self) -> None:
        deadline = clock() + WAIT_SECONDS
        while True:
            pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                break
            if clock() > deadline:
                self.process.kill()
                pid, status, usage = os.wait4(self.process.pid, 0)
                break
            threading.Event().wait(0.02)
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


def drive(
    url: str, requests: List[Dict], seconds: Optional[float], count: int
) -> Phase:
    """Closed loop: each client submits, waits, fetches, then goes again."""
    from repro.service import ServiceClient

    jobs: List[Optional[Job]] = [None] * count
    lock = threading.Lock()
    issued = [0]
    start = clock()
    ends = [start]

    def client_loop() -> None:
        client = ServiceClient(url, timeout=WAIT_SECONDS)
        while True:
            with lock:
                index = issued[0]
                if index >= count or (
                    seconds is not None and clock() - start >= seconds
                ):
                    return
                issued[0] += 1
            job_start = clock()
            job = Job()
            try:
                submitted = client.submit(requests[index])
                status = client.wait(submitted["job"], timeout=WAIT_SECONDS)
                job.output = client.result(submitted["job"])
                job.fresh = sum(
                    result["cache"]["misses"] for result in job.output["results"]
                )
                job.extra["warm"] = status["shared_cache"]["entries_at_start"] > 0
            except Exception as error:  # non-2xx, failed job, timeout, I/O
                job.error = f"{type(error).__name__}: {error}"
            end = clock()
            job.latency = end - job_start
            with lock:
                jobs[index] = job
                ends[0] = max(ends[0], end)

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Phase([job for job in jobs if job is not None], start, ends[0])


def warm_up(server: Server, requests: List[Dict]) -> None:
    """Run rounds of jobs until the scope cache reaches its entry budget."""
    from repro.service import ServiceClient

    client = ServiceClient(server.url, timeout=WAIT_SECONDS)
    for round_start in range(0, len(requests), CLIENTS):
        drive(server.url, requests[round_start:round_start + CLIENTS], None, CLIENTS)
        cache = client.cache_stats()
        if cache["totals"]["entries"] >= cache["budget"]["max_entries"]:
            return


def strip_stage_counters(document: Dict) -> Dict:
    """The document without its shared-cache-dependent ``stages`` blocks."""
    stripped = dict(document)
    stripped["results"] = [
        {key: value for key, value in result.items() if key != "stages"}
        for result in document["results"]
    ]
    return stripped


def serve_reference(request: Dict) -> Dict:
    """The in-process one-shot ``explore --json`` document of one request."""
    from repro.exploration import Explorer
    from repro.io import validate_explore_request
    from repro.service import (
        config_from_request,
        engines_for,
        explore_document,
        problem_and_origin,
    )

    validated = validate_explore_request(request)
    problem, origin = problem_and_origin(validated)
    explorer = Explorer(problem, config=config_from_request(validated))
    results = [explorer.explore(engine) for engine in engines_for(validated["engine"])]
    document = explore_document(
        origin, validated["seed"], results,
        include_front=validated["pareto"], problem=problem,
    )
    return json.loads(json.dumps(document))


def check_serve(phase: Phase, requests: List[Dict], seed: int) -> None:
    """Served documents of a seeded job sample must match the one-shot ones."""
    done = [index for index, job in enumerate(phase.jobs) if job.error is None]
    rng = random.Random(f"serve-references:{seed}")
    for index in rng.sample(done, min(SERVE_REFERENCES, len(done))):
        job = phase.jobs[index]
        try:
            reference = serve_reference(requests[index])
        except Exception as error:
            job.error = f"reference failed: {type(error).__name__}: {error}"
            continue
        if strip_stage_counters(reference) != strip_stage_counters(job.output):
            job.error = "served document differs from the one-shot document"


def run_serve(seed: int, seconds: float, trace: bool, sizes) -> Outcome:
    from inputs import serve_requests

    limit = int(seconds * 4) + 8
    warm_jobs = 4 * CLIENTS

    def build(trace_path: Optional[Path] = None) -> Tuple[Server, List[Dict]]:
        requests = serve_requests(seed, warm_jobs + limit, sizes)
        server = Server(trace_path)
        try:
            warm_up(server, requests[:warm_jobs])
        except BaseException:
            server.close()
            raise
        return server, requests[warm_jobs:]

    if not trace:
        setups: List[float] = []
        built = None
        try:
            for _ in range(SERVE_SETUP_REPEATS):
                if built is not None:
                    built[0].close()
                started = clock()
                built = build()
                setups.append(clock() - started)
            server, requests = built
            phase = drive(server.url, requests, seconds, limit)
        finally:
            if built is not None:
                built[0].close()
        check_serve(phase, requests, seed)
        metrics, notes = end_to_end(setups, phase, server.peak_rss_mb)
        notes.append(serve_warm_note(phase))
        return finish(metrics, END_TO_END, phase, notes)

    server, requests = build()
    try:
        untraced = drive(server.url, requests, seconds / 2, limit)
    finally:
        server.close()
    check_serve(untraced, requests, seed)
    trace_path = WORK / "trace-serve-server.jsonl"
    server, requests = build(trace_path)
    return serve_traced(server, trace_path, untraced, requests)


def serve_warm_note(phase: Phase) -> str:
    warm = sum(1 for job in phase.jobs if job.extra.get("warm"))
    return (
        f"serve jobs: {warm} warm, {len(phase.jobs) - warm} cold "
        "(cold: the shared scope was empty when the job started)"
    )


def serve_traced(
    server: Server, trace_path: Path, untraced: Phase, requests: List[Dict]
) -> Outcome:
    """Re-run the untraced jobs against a traced server (already warm)."""
    from repro.service import ServiceClient

    count = len(untraced.jobs)
    client_recorder = Recorder()
    try:
        client = ServiceClient(server.url, timeout=WAIT_SECONDS)
        stats_before = client.stats()
        cache_before = client.cache_stats()
        try:
            install_client_layer(client_recorder)
            traced = drive(server.url, requests, None, count)
            stats_after = client.stats()
            cache_after = client.cache_stats()
        finally:
            client_recorder.restore()
    finally:
        server.close()
    client_recorder.write(str(WORK / "trace-serve-client.jsonl"))
    compare_traced(
        untraced, traced,
        lambda a, b: strip_stage_counters(a) == strip_stage_counters(b),
    )
    spans, events = read_trace(str(trace_path))
    spans = in_window(spans, traced.start, traced.end)
    window_events = event_totals(events, traced.start, traced.end)
    jobs = len(traced.jobs)
    metrics = layer_metrics(
        spans, window_events, jobs, traced.wall,
        traced.elapsed / untraced.elapsed - 1.0,
    )
    documents = [job.output for job in traced.jobs if job.output is not None]
    hits = sum(r["cache"]["hits"] for d in documents for r in d["results"])
    probes = hits + sum(r["cache"]["misses"] for d in documents for r in d["results"])
    metrics["exploration.cache_hit_ratio"] = ratio(hits, probes)
    before, after = cache_before["totals"], cache_after["totals"]

    def scopes_delta(counter: str) -> int:
        return sum(
            scope[counter] for scope in cache_after["scopes"].values()
        ) - sum(scope[counter] for scope in cache_before["scopes"].values())

    stage_hits = scopes_delta("schedule_hits")
    stage_misses = scopes_delta("schedule_misses")
    metrics["exploration.stage_hit_ratio"] = ratio(
        stage_hits, stage_hits + stage_misses
    )
    client_table = totals(client_recorder.spans)
    for route in ("submit", "status", "result", "stats", "cache"):
        calls, _self, wall = client_table.get(f"service.request.{route}", (0, 0.0, 0.0))
        metrics[f"service.request_s.{route}"] = wall / calls if calls else 0.0
    polls = client_table.get("service.request.status", (0, 0.0, 0.0))[0]
    metrics["service.polls_per_job"] = polls / jobs
    batches = stats_after["batching"]["batches"] - stats_before["batching"]["batches"]
    coalesced = (
        stats_after["batching"]["coalesced"] - stats_before["batching"]["coalesced"]
    )
    metrics["service.coalesced_ratio"] = ratio(coalesced, batches)
    cache_hits = after["hits"] - before["hits"]
    metrics["service.cache_hit_ratio"] = ratio(
        cache_hits, cache_hits + after["misses"] - before["misses"]
    )
    metrics["service.cache_evictions"] = (
        after["lru_evictions"] - before["lru_evictions"]
    ) / jobs
    metrics["service.cache_occupancy_mb"] = after["occupancy_bytes"] / 2**20
    warm_count = sum(1 for job in traced.jobs if job.extra.get("warm"))
    metrics["service.warm_jobs"] = warm_count
    metrics["service.cold_jobs"] = jobs - warm_count
    return finish_traced(metrics, untraced)


# -- output ----------------------------------------------------------------------


def finish(
    metrics: Dict[str, float], units: Dict[str, str], phase: Phase, notes: List[str]
) -> Outcome:
    failed = sum(1 for job in phase.jobs if job.error is not None)
    notes = notes + [
        f"failed_ratio = {failed / len(phase.jobs):g} ({failed}/{len(phase.jobs)})"
    ]
    notes += [f"job {index} failed: {job.error}"
              for index, job in enumerate(phase.jobs) if job.error is not None][:5]
    return Outcome(metrics, units, len(phase.jobs), failed, notes)


def finish_traced(metrics: Dict[str, float], untraced: Phase) -> Outcome:
    latencies = [job.latency for job in untraced.jobs]
    _tail, percentile, _beyond = tail_of(latencies)
    metrics["job_count"] = len(latencies)
    metrics["job_tail_pct"] = percentile
    return finish(metrics, PER_LAYER, untraced, [])


WORKLOADS = {
    "explore": run_explore,
    "schedule": run_schedule,
    "serve": run_serve,
}


def run(workload: str, seed: int, seconds: float, trace: bool, sizes) -> Outcome:
    WORK.mkdir(exist_ok=True)
    return WORKLOADS[workload](seed, seconds, trace, sizes)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import Sizes

    outcome = run(
        arguments.workload, arguments.seed, arguments.seconds,
        bool(arguments.trace), Sizes(),
    )
    mode = "traced, per layer" if arguments.trace else "untraced, end to end"
    print(f"workload {arguments.workload} (seed {arguments.seed}, {mode})")
    for name, value in outcome.metrics.items():
        print(f"  {name} = {value:.6g} {outcome.units[name]}")
    for note in outcome.notes:
        print(f"  {note}")
    print(json.dumps(outcome.result_line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
