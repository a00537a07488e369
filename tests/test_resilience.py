"""Tests of the evaluation pool's failure rule and of checkpoint/resume.

The failure rule: a merger bug fails the run with any worker count, and a
worker that dies or cannot start makes the pool score that batch, and every
later one, in-process, with the same evaluations.  The payload is proven
rebuildable before any worker spawns.  Checkpoint/resume is bit-identical
to the uninterrupted run (property-based).
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.exploration import pool as pool_module
from repro.exploration import (
    CHECKPOINT_VERSION,
    CheckpointError,
    Checkpointer,
    EvaluationPool,
    ExplorationConfig,
    ExplorationProblem,
    Explorer,
    WorkerInitializationError,
    load_checkpoint,
    validate_checkpoint,
)
from repro.generator import generate_system
from repro.observability import MetricsRegistry, RingBufferSink, Tracer
from repro.scheduling import MergeInvariantError, ScheduleMerger


@pytest.fixture(scope="module")
def problem():
    """A small seeded problem (16 nodes, 2 alternative paths)."""
    return ExplorationProblem.from_system(generate_system(16, 2, seed=3))


def _batch(problem, count=6):
    """``count`` distinct candidates: the initial one plus single remaps."""
    initial = problem.initial_candidate()
    out = [initial]
    seen = {initial.fingerprint}
    processes = problem.movable_processes
    targets = problem.processor_names
    index = 0
    while len(out) < count:
        process = processes[index % len(processes)]
        target = targets[(index + 1) % len(targets)]
        candidate = initial.reassigned(process, target)
        if candidate.fingerprint not in seen:
            seen.add(candidate.fingerprint)
            out.append(candidate)
        index += 1
    return out


@pytest.fixture(scope="module")
def batch(problem):
    return _batch(problem)


@pytest.fixture(scope="module")
def reference(problem, batch):
    """One-worker evaluations of the batch (the bit-identity yardstick)."""
    return EvaluationPool(problem).evaluate(batch)


# -- the failure rule --------------------------------------------------------------


_FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patch must reach the workers through fork",
)


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=_FORK_ONLY)])
def test_a_merger_bug_fails_the_run(problem, batch, monkeypatch, workers):
    # A merger bug is never an infeasible design point, in-process or in a
    # worker: the pool neither retries it nor scores it.
    def broken_merge(self, *args, **kwargs):
        raise MergeInvariantError("simulated merger bug")

    monkeypatch.setattr(ScheduleMerger, "merge", broken_merge)
    with EvaluationPool(problem, workers=workers) as pool:
        with pytest.raises(MergeInvariantError, match="simulated merger bug"):
            pool.evaluate(batch)


def _exiting_chunk(blob):
    os._exit(1)


# Named like the function it replaces, so a chunk task pickles by name and
# the forked worker resolves it to the replacement.
_exiting_chunk.__module__ = pool_module.__name__
_exiting_chunk.__qualname__ = "_evaluate_chunk"


def _raising_initialiser(blob, weights):
    raise RuntimeError("worker cannot start")


@_FORK_ONLY
@pytest.mark.parametrize(
    "name,replacement",
    [
        pytest.param("_evaluate_chunk", _exiting_chunk, id="worker-exits"),
        pytest.param(
            "_initialise_worker", _raising_initialiser, id="initialiser-raises"
        ),
    ],
)
def test_a_dead_worker_leaves_the_evaluations_unchanged(
    problem, batch, reference, monkeypatch, name, replacement
):
    monkeypatch.setattr(pool_module, name, replacement)
    sink = RingBufferSink()
    metrics = MetricsRegistry()
    children = set(multiprocessing.active_children())
    with EvaluationPool(
        problem, workers=2, tracer=Tracer(sink), metrics=metrics
    ) as pool:
        assert pool.evaluate(batch) == reference
        assert pool.degraded
        # The degrade shut the executor down and reaped its workers.
        assert set(multiprocessing.active_children()) <= children
        assert pool.stage_stats is not None
        # Later batches are scored in-process, on the pool's stage cache.
        before = pool.stage_stats
        assert pool.evaluate(batch[:2]) == reference[:2]
        after = pool.stage_stats
        assert (
            after.expansion_hits + after.expansion_misses
            == before.expansion_hits + before.expansion_misses + 2
        )
    events = [r["name"] for r in sink.records if r["type"] == "event"]
    assert events == ["pool.degraded"]
    assert metrics.snapshot().counters["pool.degraded"] == 1


@_FORK_ONLY
def test_the_text_output_says_the_run_fell_back(monkeypatch, capsys):
    monkeypatch.setattr(pool_module, "_evaluate_chunk", _exiting_chunk)
    assert main([
        "explore", "--nodes", "16", "--paths", "2", "--seed", "3",
        "--cycles", "2", "--workers", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "workers 2 (a worker died; fell back to in-process evaluation)" in out


class TestWorkerInitialisation:
    def test_unrebuildable_payload_is_named_before_spawning(
        self, problem, batch, monkeypatch
    ):
        monkeypatch.setattr(
            ExplorationProblem,
            "to_payload",
            lambda self: {"name": problem.name, "nonsense": True},
        )
        pool = EvaluationPool(problem, workers=2)
        with pytest.raises(WorkerInitializationError) as excinfo:
            pool.evaluate(batch)
        assert "cannot be rebuilt" in str(excinfo.value)
        assert problem.name in str(excinfo.value)


def _config(seed=0, cycles=4):
    return ExplorationConfig(
        seed=seed,
        max_cycles=cycles,
        neighbors_per_cycle=4,
        population_size=6,
        stall_cycles=0,
    )


# -- checkpoint / resume -----------------------------------------------------------


class TestCheckpointResume:
    @pytest.mark.parametrize("engine", ["tabu", "anneal", "genetic"])
    def test_kill_and_resume_matches_uninterrupted(self, problem, tmp_path, engine):
        total, split = 6, 3

        def points(front):
            return [(p.candidate.fingerprint, p.objectives) for p in front]

        # With track_front the evaluator tracks the front, so resuming
        # re-offers the checkpointed points into the evaluator's live front.
        for track_front in (False, True):
            config = replace(_config(cycles=total), track_front=track_front)
            reference = Explorer(problem, config=config).explore(engine)

            path = tmp_path / f"{engine}-{track_front}.ckpt.json"
            # "Kill" the run at the split point: the partial run stops there
            # and only its checkpoint survives.
            Explorer(problem, config=replace(config, max_cycles=split)).explore(
                engine, checkpoint=path
            )
            resumed = Explorer(problem, config=config).explore(
                engine, checkpoint=path, resume=True
            )
            assert resumed.resumed_from == split
            assert resumed.best.cost == reference.best.cost
            assert resumed.best_candidate == reference.best_candidate
            assert resumed.trajectory == reference.trajectory
            if reference.front is None:
                assert resumed.front is None
            else:
                assert points(resumed.front) == points(reference.front)

    def test_completed_checkpoint_records_final_state(self, problem, tmp_path):
        path = tmp_path / "done.json"
        result = Explorer(problem, config=_config(cycles=3)).explore(
            "tabu", checkpoint=path
        )
        document = load_checkpoint(path)
        assert document["version"] == CHECKPOINT_VERSION
        assert document["completed"] is True
        assert document["engine"] == "tabu"
        assert document["state"]["cycle"] == 3
        assert document["best"]["evaluation"]["cost"] == result.best.cost

    def test_resume_into_wrong_run_is_rejected(self, problem, tmp_path):
        path = tmp_path / "tabu.json"
        Explorer(problem, config=_config(cycles=2)).explore("tabu", checkpoint=path)
        document = load_checkpoint(path)
        key = document["problem"]
        validate_checkpoint(document, engine="tabu", seed=0, problem_key=key)
        with pytest.raises(CheckpointError, match="engine"):
            validate_checkpoint(document, engine="anneal", seed=0, problem_key=key)
        with pytest.raises(CheckpointError, match="seed"):
            validate_checkpoint(document, engine="tabu", seed=1, problem_key=key)
        with pytest.raises(CheckpointError, match="problem"):
            validate_checkpoint(document, engine="tabu", seed=0, problem_key="other")
        # The same rejection, end to end through the explorer.
        with pytest.raises(CheckpointError):
            Explorer(problem, config=_config(cycles=2)).explore(
                "anneal", checkpoint=path, resume=True
            )

    def test_corrupt_checkpoint_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(path)
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)
        with pytest.raises(CheckpointError, match="exist"):
            load_checkpoint(tmp_path / "never-written.json")

    def test_resume_with_missing_file_starts_fresh(self, problem, tmp_path):
        # Idempotent job-runner behaviour: --resume before any checkpoint
        # exists is a fresh start, not an error.
        path = tmp_path / "never.json"
        config = _config(cycles=3)
        reference = Explorer(problem, config=config).explore("tabu")
        fresh = Explorer(problem, config=config).explore(
            "tabu", checkpoint=path, resume=True
        )
        assert fresh.resumed_from is None
        assert fresh.best.cost == reference.best.cost
        assert path.exists()  # and it still checkpoints the new run

    def test_checkpointer_period_and_atomicity(self, tmp_path):
        path = tmp_path / "periodic.json"
        checkpointer = Checkpointer(path, every=3)
        assert [cycle for cycle in range(1, 10) if checkpointer.due(cycle)] == [3, 6, 9]
        checkpointer.save({"version": CHECKPOINT_VERSION, "payload": 1})
        checkpointer.save({"version": CHECKPOINT_VERSION, "payload": 2})
        assert checkpointer.saves == 2
        assert json.loads(path.read_text())["payload"] == 2
        assert not path.with_name(path.name + ".tmp").exists()

    def test_checkpoint_period_below_one_rejected(self, tmp_path):
        for every in (0, -2):
            with pytest.raises(ValueError, match="checkpoint period"):
                Checkpointer(tmp_path / "never.json", every=every)

    def test_checkpoint_every_reduces_writes(self, problem, tmp_path):
        path = tmp_path / "sparse.json"
        config = replace(_config(cycles=5), checkpoint_every=2)
        result = Explorer(problem, config=config).explore("tabu", checkpoint=path)
        document = load_checkpoint(path)
        # The final save always lands, whatever the period.
        assert document["completed"] is True
        assert document["state"]["cycle"] == 5
        assert result.best.cost == document["best"]["evaluation"]["cost"]

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        engine=st.sampled_from(["tabu", "anneal", "genetic"]),
        split=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2),
    )
    def test_resume_is_bit_identical_property(
        self, problem, tmp_path, engine, split, seed
    ):
        total = 5
        config = _config(seed=seed, cycles=total)
        reference = Explorer(problem, config=config).explore(engine)
        path = tmp_path / f"{engine}-{split}-{seed}.json"
        Explorer(problem, config=_config(seed=seed, cycles=split)).explore(
            engine, checkpoint=path
        )
        resumed = Explorer(problem, config=config).explore(
            engine, checkpoint=path, resume=True
        )
        assert resumed.resumed_from == split
        assert resumed.best.cost == reference.best.cost
        assert resumed.best_candidate == reference.best_candidate
        assert resumed.trajectory == reference.trajectory

    def test_resume_without_checkpoint_path_is_an_error(self, problem):
        with pytest.raises(ValueError, match="resume"):
            Explorer(problem, config=_config(cycles=2)).explore("tabu", resume=True)
