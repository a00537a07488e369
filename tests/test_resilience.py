"""Tests of the resilient exploration runtime.

Fault-injection matrix (crash / hang / exit at seeded rates, across pool
modes and engines): because fault decisions are hashed from
``(seed, fingerprint, attempt)`` and evaluation is pure, every faulted run
must report *bit-identical* results to the fault-free run with the same
engine seed.  Plus: per-unit timeouts of hung workers, quarantine of
poison candidates, graceful degrade to in-process evaluation, fail-fast
worker initialisation and checkpoint/resume bit-identity (property-based).
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exploration import cost as cost_module
from repro.exploration import (
    CHECKPOINT_VERSION,
    CheckpointError,
    Checkpointer,
    EvaluationPool,
    ExplorationConfig,
    ExplorationProblem,
    Explorer,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    WorkerInitializationError,
    load_checkpoint,
    quarantined_evaluation,
    validate_checkpoint,
)
from repro.generator import generate_system


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
    """Fault-free evaluations of the batch (the bit-identity yardstick)."""
    return EvaluationPool(problem).evaluate(batch)


# -- fault injector ----------------------------------------------------------------


class TestFaultInjector:
    def test_unarmed_by_default(self):
        injector = FaultInjector()
        assert not injector.armed
        assert all(injector.fault_for(f"fp{i}", 0) is None for i in range(50))

    def test_decisions_are_deterministic(self):
        first = FaultInjector(seed=7, crash_rate=0.3, hang_rate=0.2, exit_rate=0.1)
        second = FaultInjector(seed=7, crash_rate=0.3, hang_rate=0.2, exit_rate=0.1)
        decisions = [(f"fp{i}", attempt) for i in range(40) for attempt in range(3)]
        assert [first.fault_for(*d) for d in decisions] == [
            second.fault_for(*d) for d in decisions
        ]

    def test_seed_changes_decisions(self):
        a = FaultInjector(seed=1, crash_rate=0.5)
        b = FaultInjector(seed=2, crash_rate=0.5)
        decisions = [a.fault_for(f"fp{i}", 0) for i in range(64)]
        assert decisions != [b.fault_for(f"fp{i}", 0) for i in range(64)]

    def test_certain_rates(self):
        assert FaultInjector(crash_rate=1.0).fault_for("fp", 0) == "crash"
        assert FaultInjector(hang_rate=1.0).fault_for("fp", 0) == "hang"
        assert FaultInjector(exit_rate=1.0).fault_for("fp", 0) == "exit"

    def test_retry_reaches_a_clean_attempt(self):
        injector = FaultInjector(seed=0, crash_rate=0.5)
        # P(20 consecutive faulted attempts) = 0.5**20; seeded, so stable.
        for i in range(20):
            fingerprint = f"fp{i}"
            assert any(
                injector.fault_for(fingerprint, attempt) is None
                for attempt in range(20)
            )

    def test_inject_raises_in_process(self):
        crash = FaultInjector(crash_rate=1.0)
        with pytest.raises(InjectedFault, match="crash"):
            crash.inject("fp", 0, in_worker=False)
        # In-process, hang and exit degrade to raised faults: sleeping or
        # killing the coordinator would take the whole run down.
        with pytest.raises(InjectedFault, match="hang"):
            FaultInjector(hang_rate=1.0, hang_seconds=0.0).inject(
                "fp", 0, in_worker=False
            )
        with pytest.raises(InjectedFault, match="exit"):
            FaultInjector(exit_rate=1.0).inject("fp", 0, in_worker=False)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(hang_seconds=-1.0)


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_factor=2.0, backoff_max=0.4)
        delays = [policy.delay_for(attempt, "key") for attempt in range(1, 10)]
        assert delays == [policy.delay_for(attempt, "key") for attempt in range(1, 10)]
        assert all(0 < delay <= 0.4 for delay in delays)
        # Jitter only ever shortens the nominal exponential delay.
        nominal = [min(0.4, 0.05 * 2.0 ** (attempt - 1)) for attempt in range(1, 10)]
        assert all(d <= n for d, n in zip(delays, nominal))

    def test_zero_base_disables_backoff(self):
        policy = RetryPolicy(backoff_base=0.0)
        assert policy.delay_for(3, "key") == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


# -- fault matrix: pool modes ------------------------------------------------------


FAULT_RATES = [
    pytest.param(0.2, 0.0, 0.0, id="crash"),
    pytest.param(0.0, 0.2, 0.0, id="hang"),
    pytest.param(0.0, 0.0, 0.2, id="exit"),
    pytest.param(0.15, 0.1, 0.1, id="mixed"),
]


def _retry():
    return RetryPolicy(max_attempts=10, timeout=30.0, backoff_base=0.0)


class TestPoolFaultMatrix:
    @pytest.mark.parametrize("crash,hang,exit_", FAULT_RATES)
    def test_serial_faults_do_not_change_results(
        self, problem, batch, reference, crash, hang, exit_
    ):
        injector = FaultInjector(
            seed=11, crash_rate=crash, hang_rate=hang, exit_rate=exit_,
            hang_seconds=0.01,
        )
        pool = EvaluationPool(
            problem, retry=_retry(), fault_injector=injector
        )
        assert pool.evaluate(batch) == reference
        stats = pool.resilience_stats
        assert stats.retries == stats.injected  # every injected fault retried
        assert stats.quarantined == 0

    @pytest.mark.parametrize("crash,hang,exit_", FAULT_RATES)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_pooled_faults_do_not_change_results(
        self, problem, batch, reference, crash, hang, exit_, workers
    ):
        injector = FaultInjector(
            seed=11, crash_rate=crash, hang_rate=hang, exit_rate=exit_,
            hang_seconds=0.01,
        )
        with EvaluationPool(
            problem,
            workers=workers,
            retry=_retry(),
            fault_injector=injector,
        ) as pool:
            assert pool.evaluate(batch) == reference
            assert pool.resilience_stats.quarantined == 0

    def test_process_faults_do_not_change_results(self, problem, batch, reference):
        # Seed 0 deterministically draws both a 'crash' and an 'exit' on the
        # batch's first attempts, so a worker genuinely dies mid-round.
        injector = FaultInjector(seed=0, crash_rate=0.2, exit_rate=0.15)
        with EvaluationPool(
            problem,
            workers=2,
            retry=_retry(),
            fault_injector=injector,
        ) as pool:
            assert pool.evaluate(batch) == reference
            stats = pool.resilience_stats
            assert not stats.degraded
            # injected 'exit' kills a worker: the pool must have respawned.
            assert stats.worker_restarts >= 1

    def test_hung_workers_time_out_and_restart(self, problem, batch, reference):
        # Seed 1 draws a hang on the batch's first attempts; the hung unit
        # outlives its timeout, so the pool tears the workers down, respawns
        # them and resubmits.
        injector = FaultInjector(seed=1, hang_rate=0.3, hang_seconds=2.0)
        with EvaluationPool(
            problem,
            workers=2,
            retry=RetryPolicy(timeout=0.5, max_attempts=10, backoff_base=0.0),
            fault_injector=injector,
        ) as pool:
            assert pool.evaluate(batch) == reference
            stats = pool.resilience_stats
            assert stats.timeouts >= 1
            assert stats.worker_restarts >= stats.timeouts
            assert not stats.degraded

    def test_unarmed_pool_has_quiet_stats(self, problem, batch, reference):
        # An unarmed serial pool has no resilience layer at all; an unarmed
        # process pool has one, and it stays quiet.
        pool = EvaluationPool(problem)
        assert pool.evaluate(batch) == reference
        assert pool.resilience_stats is None
        with EvaluationPool(problem, workers=2) as pool:
            assert pool.evaluate(batch) == reference
            assert not pool.resilience_stats.eventful


# -- quarantine, degrade, worker init ----------------------------------------------


class TestQuarantine:
    def test_always_crashing_candidates_are_quarantined(self, problem, batch):
        pool = EvaluationPool(
            problem,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            fault_injector=FaultInjector(crash_rate=1.0),
        )
        evaluations = pool.evaluate(batch)
        assert len(evaluations) == len(batch)
        for candidate, evaluation in zip(batch, evaluations):
            assert evaluation.fingerprint == candidate.fingerprint
            assert not evaluation.feasible
            assert math.isinf(evaluation.cost)
            assert "quarantined" in evaluation.error
        assert pool.resilience_stats.quarantined == len(batch)

    def test_serial_pool_quarantines_a_genuinely_failing_candidate(
        self, problem, batch, reference, monkeypatch
    ):
        # Not an injected fault: the pipeline itself raises for one candidate,
        # which the armed serial pool retries and then quarantines alone.
        poison = batch[1].fingerprint
        evaluate = cost_module.evaluate_candidate

        def poisoned(problem, candidate, *args, **kwargs):
            if candidate.fingerprint == poison:
                raise RuntimeError("poisoned candidate")
            return evaluate(problem, candidate, *args, **kwargs)

        monkeypatch.setattr(cost_module, "evaluate_candidate", poisoned)
        pool = EvaluationPool(
            problem, retry=RetryPolicy(max_attempts=3, backoff_base=0.0)
        )
        evaluations = pool.evaluate(batch)
        assert evaluations[1] == quarantined_evaluation(poison, 3, "poisoned candidate")
        assert evaluations[:1] + evaluations[2:] == reference[:1] + reference[2:]
        stats = pool.resilience_stats
        assert (stats.retries, stats.quarantined, stats.injected) == (2, 1, 0)

    def test_process_mode_quarantines_poison_without_killing_chunk_mates(
        self, problem, batch
    ):
        with EvaluationPool(
            problem,
            workers=2,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            fault_injector=FaultInjector(crash_rate=1.0),
        ) as pool:
            evaluations = pool.evaluate(batch)
            assert len(evaluations) == len(batch)
            assert all(not e.feasible for e in evaluations)
            assert pool.resilience_stats.quarantined == len(batch)

    def test_quarantined_evaluation_sentinel(self):
        sentinel = quarantined_evaluation("fp", 3, "boom")
        assert not sentinel.feasible
        assert math.isinf(sentinel.cost)
        assert "fp" not in sentinel.error or sentinel.fingerprint == "fp"
        assert "3" in sentinel.error and "boom" in sentinel.error


class TestDegrade:
    def test_pool_degrades_to_in_process_and_still_answers(
        self, problem, batch, reference
    ):
        # Every pooled attempt kills its worker; after the restart budget the
        # pool must fall back to trusted in-process evaluation and still
        # return the exact fault-free evaluations.
        with EvaluationPool(
            problem,
            workers=2,
            retry=RetryPolicy(
                max_attempts=10, timeout=30.0, backoff_base=0.0, max_pool_restarts=1
            ),
            fault_injector=FaultInjector(exit_rate=1.0),
        ) as pool:
            assert pool.evaluate(batch) == reference
            stats = pool.resilience_stats
            assert stats.degraded and pool.degraded
            assert stats.worker_restarts >= 2
            # Degraded pools evaluate in-process from then on.
            assert pool.evaluate(batch[:2]) == reference[:2]
            assert pool.stage_stats is not None


class TestWorkerInitialisation:
    def test_injected_init_failure_fails_fast(self, problem, batch):
        with EvaluationPool(
            problem,
            workers=2,
            fault_injector=FaultInjector(fail_worker_init=True),
        ) as pool:
            with pytest.raises(WorkerInitializationError) as excinfo:
                pool.evaluate(batch)
        message = str(excinfo.value)
        assert problem.name in message
        assert "worker" in message

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


# -- engines under faults ----------------------------------------------------------


def _config(seed=0, cycles=4):
    return ExplorationConfig(
        seed=seed,
        max_cycles=cycles,
        neighbors_per_cycle=4,
        population_size=6,
        stall_cycles=0,
    )


class TestEngineFaultMatrix:
    @pytest.mark.parametrize("engine", ["tabu", "anneal", "genetic"])
    def test_faulted_search_is_bit_identical(self, problem, engine):
        config = _config()
        clean = Explorer(problem, config=config).explore(engine)
        pool = EvaluationPool(
            problem,
            retry=_retry(),
            fault_injector=FaultInjector(
                seed=5, crash_rate=0.1, hang_rate=0.05, exit_rate=0.05,
                hang_seconds=0.01,
            ),
        )
        faulted = Explorer(problem, config=config, pool=pool).explore(engine)
        assert faulted.best.cost == clean.best.cost
        assert faulted.best_candidate == clean.best_candidate
        assert faulted.trajectory == clean.trajectory
        assert faulted.resilience is not None
        assert clean.resilience is None  # no pool, no resilience layer

    def test_resilience_stats_surface_in_result(self, problem):
        pool = EvaluationPool(
            problem,
            retry=_retry(),
            fault_injector=FaultInjector(seed=5, crash_rate=0.3),
        )
        result = Explorer(problem, config=_config(), pool=pool).explore("tabu")
        assert result.resilience.injected > 0
        assert result.resilience.eventful


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
