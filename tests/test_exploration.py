"""Tests of the design-space exploration subsystem.

Covers the candidate algebra, the content-hash evaluation cache, the parallel
evaluation pool (all modes must agree), engine determinism (same seed + config
=> identical best candidate and trajectory) and the validity property: every
mapping the search explores still validates against the architecture.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exploration import (
    CachedEvaluator,
    Candidate,
    CostWeights,
    EvaluationPool,
    ExplorationConfig,
    ExplorationProblem,
    Explorer,
    MaxCycles,
    NeighborhoodSampler,
    TargetCost,
    evaluate_candidate,
    load_imbalance_of,
)
from repro.generator import generate_system


@pytest.fixture(scope="module")
def problem():
    """A small seeded problem (16 nodes, 2 alternative paths, 4 processors)."""
    return ExplorationProblem.from_system(generate_system(16, 2, seed=3))


@pytest.fixture(scope="module")
def initial(problem):
    return problem.initial_candidate()


class TestCandidate:
    def test_initial_candidate_matches_seed_mapping(self, problem, initial):
        for name, pe_name in initial.assignment:
            assert problem.base_mapping[name].name == pe_name
        assert set(dict(initial.assignment)) == set(problem.movable_processes)

    def test_fingerprint_is_content_based(self, initial):
        twin = Candidate(
            assignment=initial.assignment,
            priority_function=initial.priority_function,
        )
        assert twin.fingerprint == initial.fingerprint
        assert twin == initial

    def test_reassigned_and_swapped(self, problem, initial):
        process = problem.movable_processes[0]
        target = next(
            pe for pe in problem.processor_names if pe != initial.pe_of(process)
        )
        moved = initial.reassigned(process, target)
        assert moved.pe_of(process) == target
        assert initial.pe_of(process) != target  # origin untouched
        assert moved.fingerprint != initial.fingerprint

        first, second = problem.movable_processes[:2]
        swapped = initial.swapped(first, second)
        assert swapped.pe_of(first) == initial.pe_of(second)
        assert swapped.pe_of(second) == initial.pe_of(first)

    def test_reassigning_unknown_process_raises(self, initial):
        with pytest.raises(KeyError):
            initial.reassigned("not-a-process", "pe1")

    def test_bias_cancellation_restores_fingerprint(self, problem, initial):
        process = problem.movable_processes[0]
        biased = initial.with_bias(process, 2.0)
        assert biased.fingerprint != initial.fingerprint
        restored = biased.with_bias(process, -2.0)
        assert restored.fingerprint == initial.fingerprint

    def test_mapping_roundtrip(self, problem, initial):
        mapping = problem.mapping_for(initial)
        again = Candidate.from_mapping(mapping, problem.movable_processes)
        assert again.fingerprint == initial.fingerprint


class TestEvaluation:
    def test_seed_evaluation_is_feasible(self, problem, initial):
        evaluation = evaluate_candidate(problem, initial)
        assert evaluation.feasible
        assert evaluation.delta_max >= evaluation.delta_m > 0
        assert evaluation.paths == 2
        assert evaluation.cost == pytest.approx(evaluation.delta_max)

    def test_weights_combine_components(self, problem, initial):
        weighted = evaluate_candidate(
            problem,
            initial,
            CostWeights(delta_max=1.0, mean_path_delay=2.0, load_imbalance=3.0),
        )
        assert weighted.cost == pytest.approx(
            weighted.delta_max
            + 2.0 * weighted.mean_path_delay
            + 3.0 * weighted.load_imbalance
        )

    def test_load_imbalance_bounds(self, problem, initial):
        imbalance = load_imbalance_of(problem, initial)
        assert imbalance >= 0.0

    def test_cache_counts_hits_and_misses(self, problem, initial):
        evaluator = CachedEvaluator(problem)
        first = evaluator.evaluate(initial)
        second = evaluator.evaluate(initial)
        assert first == second
        assert evaluator.stats.hits == 1
        assert evaluator.stats.misses == 1
        assert evaluator.stats.size == 1

    def test_batch_deduplicates_before_evaluating(self, problem, initial):
        moved = initial.reassigned(
            problem.movable_processes[0],
            next(
                pe
                for pe in problem.processor_names
                if pe != initial.pe_of(problem.movable_processes[0])
            ),
        )
        evaluator = CachedEvaluator(problem)
        results = evaluator.evaluate_many([initial, moved, initial, moved])
        assert results[0] == results[2] and results[1] == results[3]
        assert evaluator.stats.misses == 2
        assert evaluator.stats.hits == 2


class TestEvaluationPool:
    @pytest.fixture(scope="class")
    def batch(self, problem, initial):
        rng = random.Random(7)
        sampled = NeighborhoodSampler(problem).sample(initial, rng, 6)
        return [candidate for _, candidate in sampled]

    @pytest.fixture(scope="class")
    def serial_results(self, problem, batch):
        return EvaluationPool(problem).evaluate(batch)

    def test_process_mode_matches_serial(self, problem, batch, serial_results):
        with EvaluationPool(problem, workers=2) as pool:
            assert pool.evaluate(batch) == serial_results

    def test_single_worker_auto_runs_serially(self, problem, batch, serial_results):
        # One worker, the default, scores in-process: nothing crosses a
        # process boundary, and the pool keeps its own stage cache.
        pool = EvaluationPool(problem)
        assert pool.workers == 1
        assert pool.evaluate(batch) == serial_results
        assert pool.payload_bytes_shipped == 0
        assert pool.stage_stats is not None

    def test_workers_below_one_rejected(self, problem):
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                EvaluationPool(problem, workers=workers)

    def test_weights_mismatch_with_pool_rejected(self, problem):
        pool = EvaluationPool(problem, CostWeights(load_imbalance=50.0), workers=1)
        with pytest.raises(ValueError, match="pool weights"):
            CachedEvaluator(problem, CostWeights(), pool=pool)
        # Matching weights are accepted.
        CachedEvaluator(problem, CostWeights(load_imbalance=50.0), pool=pool)


class _RecordingEvaluator(CachedEvaluator):
    """Evaluator that records every candidate the search asks about."""

    def __init__(self, problem, weights=CostWeights()):
        super().__init__(problem, weights)
        self.seen = []

    def evaluate_many(self, candidates, select=None):
        self.seen.extend(candidates)
        return super().evaluate_many(candidates, select)


class TestEngines:
    @pytest.mark.parametrize("engine", ["tabu", "anneal"])
    def test_deterministic_per_seed(self, problem, engine):
        config = ExplorationConfig(seed=5, max_cycles=6, neighbors_per_cycle=4)
        first = Explorer(problem, config=config).explore(engine)
        second = Explorer(problem, config=config).explore(engine)
        assert first.best_candidate == second.best_candidate
        assert first.best == second.best
        assert first.trajectory == second.trajectory
        assert first.stop_reason == second.stop_reason

    @pytest.mark.parametrize("engine", ["tabu", "anneal"])
    def test_never_worse_than_seed_and_budget_respected(self, problem, engine):
        config = ExplorationConfig(seed=1, max_cycles=5, neighbors_per_cycle=4)
        result = Explorer(problem, config=config).explore(engine)
        assert result.best.cost <= result.initial.cost + 1e-9
        assert result.cycles <= config.max_cycles
        assert result.best.feasible

    @pytest.mark.parametrize("engine", ["tabu", "anneal"])
    def test_every_explored_mapping_validates(self, problem, engine):
        recorder = _RecordingEvaluator(problem)
        config = ExplorationConfig(seed=2, max_cycles=5, neighbors_per_cycle=4)
        Explorer(problem, config=config, evaluator=recorder).explore(engine)
        assert recorder.seen
        processors = set(problem.processor_names)
        for candidate in recorder.seen:
            mapping = problem.mapping_for(candidate)  # raises if invalid
            mapping.validate_for(problem.movable_processes)
            assert set(candidate.assignment_dict.values()) <= processors

    def test_engines_share_the_explorer_cache(self, problem):
        config = ExplorationConfig(seed=3, max_cycles=4, neighbors_per_cycle=4)
        explorer = Explorer(problem, config=config)
        explorer.explore("tabu")
        misses_after_tabu = explorer.evaluator.stats.misses
        second = explorer.explore("anneal")
        # The annealing run starts from the same seed candidate, which must
        # come from the cache (at minimum; usually many more hits).
        assert second.cache.hits > 0
        assert explorer.evaluator.stats.misses >= misses_after_tabu

    def test_unknown_engine_rejected(self, problem):
        with pytest.raises(ValueError, match="unknown engine"):
            Explorer(problem).explore("gradient-descent")

    def test_target_cost_stops_immediately(self, problem, initial):
        seed_cost = evaluate_candidate(problem, initial).cost
        config = ExplorationConfig(seed=0, max_cycles=50)
        result = Explorer(
            problem, config=config, stopping=[TargetCost(seed_cost + 1)]
        ).explore("tabu")
        assert result.cycles == 0
        assert "target cost" in result.stop_reason

    def test_stall_criterion_stops_early(self, problem):
        config = ExplorationConfig(
            seed=4, max_cycles=50, neighbors_per_cycle=2, stall_cycles=2
        )
        result = Explorer(problem, config=config).explore("tabu")
        assert result.cycles < 50
        assert ("stalled" in result.stop_reason
                or "cycle budget" in result.stop_reason)

    def test_extra_stopping_criteria_are_honoured(self, problem):
        config = ExplorationConfig(seed=0, max_cycles=50)
        explorer = Explorer(problem, config=config, stopping=[MaxCycles(2)])
        result = explorer.explore("tabu")
        assert result.cycles == 2

    def test_improves_seed_on_forty_node_system(self):
        """The acceptance scenario: a seeded 40-node system must improve."""
        forty = ExplorationProblem.from_system(generate_system(40, 8, seed=0))
        config = ExplorationConfig(seed=0, max_cycles=8, neighbors_per_cycle=6)
        result = Explorer(forty, config=config).explore("tabu")
        assert result.improved
        assert result.best.delta_max < result.initial.delta_max


class TestInfeasibleSeed:
    @pytest.fixture()
    def infeasible_problem(self):
        """Two communicating processes split across processors with no shared bus.

        The seed mapping cannot be expanded (no bus connects pe1 and pe2), so
        its evaluation is infeasible; co-locating the processes is feasible.
        """
        from repro.architecture import Architecture, bus, programmable
        from repro.architecture.mapping import Mapping
        from repro.graph import CPGBuilder

        architecture = Architecture(
            [programmable("pe1"), programmable("pe2")],
            [bus("bus1")],
            connectivity={"bus1": ["pe1"]},
        )
        builder = CPGBuilder("split")
        builder.process("A", 2.0)
        builder.process("B", 3.0)
        builder.edge("A", "B", communication_time=1.0)
        graph = builder.build()
        mapping = Mapping(architecture, {"A": "pe1", "B": "pe2"})
        return ExplorationProblem(graph, mapping)

    def test_seed_scores_infeasible_without_raising(self, infeasible_problem):
        evaluation = evaluate_candidate(
            infeasible_problem, infeasible_problem.initial_candidate()
        )
        assert not evaluation.feasible
        assert evaluation.cost == float("inf")
        assert "bus" in evaluation.error

    def test_explorer_recovers_a_feasible_design_point(self, infeasible_problem):
        config = ExplorationConfig(seed=0, max_cycles=6, neighbors_per_cycle=6)
        result = Explorer(infeasible_problem, config=config).explore("tabu")
        assert not result.initial.feasible
        assert result.best.feasible
        assert result.improved

    def test_explore_json_stays_parseable(self, infeasible_problem, tmp_path, capsys):
        import json as json_module

        from repro.cli import main
        from repro.io import save_system

        path = tmp_path / "split.json"
        save_system(
            path,
            infeasible_problem.graph,
            infeasible_problem.architecture,
            infeasible_problem.base_mapping,
            name="split",
        )
        assert main(["explore", str(path), "--cycles", "4", "--neighbors", "6",
                     "--json"]) == 0
        output = capsys.readouterr().out
        assert "Infinity" not in output  # RFC 8259: Infinity is not JSON
        document = json_module.loads(output)
        assert document["results"][0]["initial"]["feasible"] is False
        assert document["results"][0]["initial"]["cost"] is None


class TestProblemPayload:
    def test_payload_roundtrip_preserves_evaluation(self, problem, initial):
        rebuilt = ExplorationProblem.from_payload(problem.to_payload())
        assert rebuilt.movable_processes == problem.movable_processes
        assert rebuilt.processor_names == problem.processor_names
        original = evaluate_candidate(problem, initial)
        again = evaluate_candidate(rebuilt, rebuilt.initial_candidate())
        assert again == original


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_random_move_sequences_keep_candidates_valid(data):
    """Property: any move sequence yields mappings that still validate."""
    problem = _MOVE_PROBLEM
    sampler = NeighborhoodSampler(problem)
    rng = random.Random(data.draw(st.integers(0, 2**16), label="seed"))
    candidate = problem.initial_candidate()
    for _ in range(data.draw(st.integers(1, 6), label="moves")):
        neighbors = sampler.sample(candidate, rng, 1)
        if not neighbors:
            break
        _, candidate = neighbors[0]
        mapping = problem.mapping_for(candidate)
        mapping.validate_for(problem.movable_processes)
    assert set(candidate.assignment_dict) == set(problem.movable_processes)


#: Module-level problem for the hypothesis test (built once; hypothesis
#: disallows function-scoped fixtures).
_MOVE_PROBLEM = ExplorationProblem.from_system(generate_system(12, 2, seed=9))
