"""Tests of the benchmark itself, at tiny sizes.

Run with ``python3 -m pytest perfbench/selftest.py`` from the root of the
repository (the file name keeps them out of the repository's own suite).
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from inputs import (  # noqa: E402
    TINY,
    explore_jobs,
    schedule_documents,
    schedule_order,
    serve_requests,
)


def entry_points():
    """Identity of every attribute a traced run may patch."""
    from repro.exploration import (
        CachedEvaluator, ExplorationProblem, Explorer, NeighborhoodSampler, StageCache,
    )
    from repro.io.serialization import SystemDescription
    from repro.scheduling import PathListScheduler, ScheduleMerger
    from repro.service import ServiceClient

    owners = [
        module for name, module in sys.modules.items()
        if module is not None and (name == "repro" or name.startswith("repro."))
    ] + [
        CachedEvaluator, ExplorationProblem, Explorer, NeighborhoodSampler,
        StageCache, SystemDescription, PathListScheduler, ScheduleMerger,
        ServiceClient,
    ]
    return {
        (id(owner), attribute): id(value)
        for owner in owners
        for attribute, value in list(vars(owner).items())
    }


@pytest.mark.parametrize("make", [
    lambda seed: explore_jobs(seed, 6, TINY),
    lambda seed: (schedule_documents(seed, TINY), schedule_order(seed, 6, TINY)),
    lambda seed: serve_requests(seed, 5, TINY),
], ids=["explore", "schedule", "serve"])
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    latencies = [float(value) for value in range(30, 0, -1)]
    assert run.tail_of(latencies) == (20.0, 100.0 * 20 / 30, 10)
    # Fewer than 21 jobs: the (upper) median job.
    assert run.tail_of([3.0, 1.0, 2.0]) == (2.0, 200.0 / 3, 1)
    assert run.tail_of([4.0, 1.0, 3.0, 2.0]) == (3.0, 75.0, 1)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_untraced_run_is_correct(workload):
    outcome = run.run(workload, seed=5, seconds=0.5, trace=False, sizes=TINY)
    assert outcome.attempted >= 1
    assert outcome.failed == 0, outcome.notes
    assert set(outcome.metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in outcome.metrics.values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_matches_untraced_and_restores_entry_points(workload):
    before = entry_points()
    outcome = run.run(workload, seed=6, seconds=1.0, trace=True, sizes=TINY)
    # A traced re-run whose results differ counts as a failed job.
    assert outcome.failed == 0, outcome.notes
    assert set(outcome.metrics) == set(run.PER_LAYER)
    assert outcome.metrics["job_count"] == outcome.attempted
    assert entry_points() == before


def test_a_differing_traced_rerun_fails_the_job():
    untraced = run.Phase([run.Job(output=1), run.Job(output=2)], 0.0, 1.0)
    traced = run.Phase([run.Job(output=1), run.Job(output=3)], 0.0, 1.0)
    assert run.compare_traced(untraced, traced, lambda a, b: a == b) == 1
    assert untraced.jobs[0].error is None
    assert untraced.jobs[1].error is not None


def test_self_time_excludes_child_spans():
    recorder = layers.Recorder()

    def child():
        layers.clock()

    wrapped_child = recorder.wrap("child", child)

    def parent():
        wrapped_child()
        wrapped_child()

    recorder.wrap("parent", parent)()
    (name_a, _, start_a, end_a, self_a), (name_b, _, start_b, end_b, self_b), (
        name_p, _, start_p, end_p, self_p
    ) = recorder.spans
    assert (name_a, name_b, name_p) == ("child", "child", "parent")
    children = (end_a - start_a) + (end_b - start_b)
    assert self_p == pytest.approx((end_p - start_p) - children)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
