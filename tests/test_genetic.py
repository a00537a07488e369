"""Tests of the genetic engine and architecture sizing.

Covers per-seed determinism of the final Pareto front, the non-domination
invariant of every reported front, validity of sized architectures after
add/remove-PE/bus move sequences (including a hypothesis sweep), pool-mode
equivalence of genetic evaluation batches, and the payload round trip that
ships sizing bounds to pool workers.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exploration import (
    ArchitectureBounds,
    EvaluationPool,
    ExplorationConfig,
    ExplorationProblem,
    Explorer,
    NeighborhoodSampler,
    dominates,
    evaluate_candidate,
)
from repro.generator import generate_system


@pytest.fixture(scope="module")
def problem():
    """A small fixed-architecture problem (16 nodes, 2 paths)."""
    return ExplorationProblem.from_system(generate_system(16, 2, seed=3))


@pytest.fixture(scope="module")
def sized_problem():
    """The same system with architecture sizing enabled (default bounds)."""
    return ExplorationProblem.from_system(
        generate_system(16, 2, seed=3), bounds=ArchitectureBounds()
    )


def _config(**overrides):
    defaults = dict(seed=5, max_cycles=4, population_size=8)
    defaults.update(overrides)
    return ExplorationConfig(**defaults)


class TestGeneticEngine:
    @pytest.mark.parametrize("fixture", ["problem", "sized_problem"])
    def test_front_deterministic_per_seed(self, fixture, request):
        target = request.getfixturevalue(fixture)
        first = Explorer(target, config=_config()).explore("genetic")
        second = Explorer(target, config=_config()).explore("genetic")
        assert first.best_candidate == second.best_candidate
        assert first.best == second.best
        assert first.trajectory == second.trajectory
        assert first.front.vectors() == second.front.vectors()
        assert [p.candidate.fingerprint for p in first.front] == [
            p.candidate.fingerprint for p in second.front
        ]

    def test_different_seeds_may_differ_but_stay_valid(self, sized_problem):
        results = [
            Explorer(sized_problem, config=_config(seed=seed)).explore("genetic")
            for seed in (0, 1)
        ]
        for result in results:
            assert result.best.feasible
            assert len(result.front) >= 1

    @pytest.mark.parametrize("fixture", ["problem", "sized_problem"])
    def test_front_is_mutually_non_dominated(self, fixture, request):
        target = request.getfixturevalue(fixture)
        result = Explorer(target, config=_config()).explore("genetic")
        vectors = result.front.vectors()
        assert vectors
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                if i != j:
                    assert not dominates(a, b), (a, b)

    def test_never_worse_than_seed_and_budget_respected(self, problem):
        result = Explorer(problem, config=_config()).explore("genetic")
        assert result.best.cost <= result.initial.cost + 1e-9
        assert result.cycles <= _config().max_cycles
        assert result.best.feasible

    def test_front_covers_best_candidate(self, sized_problem):
        """The scalar-best candidate can never be dominated by a front point
        on the delta_max axis (it minimises the default scalar = delta_max)."""
        result = Explorer(sized_problem, config=_config()).explore("genetic")
        best_delta = result.best.delta_max
        assert min(v[0] for v in result.front.vectors()) <= best_delta + 1e-9

    def test_shares_explorer_cache_with_other_engines(self, problem):
        explorer = Explorer(problem, config=_config())
        explorer.explore("tabu")
        result = explorer.explore("genetic")
        assert result.cache.hits > 0

    def test_stopping_criteria_apply(self, problem):
        config = _config(max_cycles=50, stall_cycles=2)
        result = Explorer(problem, config=config).explore("genetic")
        assert result.cycles < 50
        assert ("stalled" in result.stop_reason
                or "cycle budget" in result.stop_reason)

    def test_track_front_snapshots_evaluator_front(self, problem):
        explorer = Explorer(problem, config=_config(track_front=True))
        result = explorer.explore("genetic")
        assert result.front is not explorer.front  # an independent snapshot
        assert result.front.vectors() == explorer.front.vectors()

    def test_earlier_result_front_is_isolated_from_later_runs(self, problem):
        """A result's front snapshot must not grow when a later engine run on
        the shared explorer discovers new points."""
        explorer = Explorer(problem, config=_config(track_front=True))
        first = explorer.explore("tabu")
        before = first.front.vectors()
        explorer.explore("genetic")
        assert first.front.vectors() == before


class TestGeneticPoolEquivalence:
    @pytest.mark.parametrize("workers", [2], ids=["process"])
    def test_pool_modes_match_serial(self, sized_problem, workers):
        serial = Explorer(sized_problem, config=_config()).explore("genetic")
        with EvaluationPool(sized_problem, workers=workers) as pool:
            pooled = Explorer(
                sized_problem, config=_config(), pool=pool
            ).explore("genetic")
        assert pooled.best_candidate == serial.best_candidate
        assert pooled.best == serial.best
        assert pooled.front.vectors() == serial.front.vectors()
        assert pooled.trajectory == serial.trajectory


class TestArchitectureSizing:
    def test_initial_platform_mirrors_seed_architecture(self, sized_problem):
        candidate = sized_problem.initial_candidate()
        assert set(candidate.platform_processors) == {
            pe.name for pe in sized_problem.architecture.programmable_processors
        }
        assert set(candidate.platform_buses) == {
            pe.name for pe in sized_problem.architecture.buses
        }
        # The seed platform materialises the base architecture's evaluation.
        fixed = ExplorationProblem.from_system(generate_system(16, 2, seed=3))
        sized_eval = evaluate_candidate(sized_problem, candidate)
        fixed_eval = evaluate_candidate(fixed, fixed.initial_candidate())
        assert sized_eval.delta_max == fixed_eval.delta_max

    def test_bounds_resolution_and_validation(self, sized_problem):
        bounds = sized_problem.bounds
        seed_processors = len(sized_problem.architecture.programmable_processors)
        assert bounds.max_processors == seed_processors + 2
        assert bounds.max_buses == len(sized_problem.architecture.buses) + 1
        with pytest.raises(ValueError, match="min_processors"):
            ArchitectureBounds(min_processors=0).resolved_for(
                sized_problem.architecture
            )
        with pytest.raises(ValueError, match="max_processors"):
            ArchitectureBounds(max_processors=1, min_processors=2).validate()

    def test_spare_names_avoid_collisions(self, sized_problem):
        taken = {pe.name for pe in sized_problem.architecture.processing_elements}
        for name in sized_problem.spare_processor_names:
            assert name not in taken
        for name in sized_problem.spare_bus_names:
            assert name not in taken
            assert name not in sized_problem.spare_processor_names

    def test_add_then_remove_processor_roundtrip(self, sized_problem):
        initial = sized_problem.initial_candidate()
        spare = sized_problem.spare_processor_names[0]
        grown = initial.with_element(spare, "programmable")
        assert spare in grown.platform_processors
        architecture = sized_problem.architecture_for(grown)
        assert spare in {pe.name for pe in architecture.programmable_processors}
        architecture.validate()
        evaluation = evaluate_candidate(sized_problem, grown)
        assert evaluation.feasible
        assert evaluation.architecture_cost > evaluate_candidate(
            sized_problem, initial
        ).architecture_cost
        shrunk = grown.without_element(spare)
        assert shrunk.fingerprint == initial.fingerprint

    def test_platform_duplicates_and_unknowns_rejected(self, sized_problem):
        initial = sized_problem.initial_candidate()
        existing = initial.platform_processors[0]
        with pytest.raises(ValueError, match="already part"):
            initial.with_element(existing, "programmable")
        with pytest.raises(ValueError, match="not part"):
            initial.without_element("nonexistent")

    def test_payload_roundtrip_preserves_bounds_and_evaluation(self, sized_problem):
        rebuilt = ExplorationProblem.from_payload(sized_problem.to_payload())
        assert rebuilt.bounds == sized_problem.bounds
        assert rebuilt.spare_processor_names == sized_problem.spare_processor_names
        candidate = sized_problem.initial_candidate()
        spare = sized_problem.spare_processor_names[0]
        grown = candidate.with_element(spare, "programmable")
        assert evaluate_candidate(rebuilt, grown) == evaluate_candidate(
            sized_problem, grown
        )

    def test_sampler_emits_sizing_moves(self, sized_problem):
        sampler = NeighborhoodSampler(sized_problem)
        rng = random.Random(0)
        kinds = set()
        candidate = sized_problem.initial_candidate()
        for _ in range(60):
            for move, neighbor in sampler.sample(candidate, rng, 4):
                kinds.add(move.kind)
                candidate = neighbor
        assert "add_pe" in kinds or "add_bus" in kinds
        assert kinds & {"remap", "swap", "priority", "bias"}

    def test_remove_pe_only_retires_empty_processors(self, sized_problem):
        sampler = NeighborhoodSampler(sized_problem)
        candidate = sized_problem.initial_candidate()
        occupied = set(candidate.assignment_dict.values())
        for move in sampler._sizing_moves(candidate):
            if move.kind == "remove_pe":
                assert move.operands[0] not in occupied


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sized_move_sequences_keep_architectures_valid(data):
    """Property: any move sequence (including sizing moves) yields platforms
    within bounds whose architectures construct, validate and map cleanly."""
    problem = _SIZED_MOVE_PROBLEM
    bounds = problem.bounds
    sampler = NeighborhoodSampler(problem)
    rng = random.Random(data.draw(st.integers(0, 2**16), label="seed"))
    candidate = problem.initial_candidate()
    for _ in range(data.draw(st.integers(1, 8), label="moves")):
        neighbors = sampler.sample(candidate, rng, 1)
        if not neighbors:
            break
        _, candidate = neighbors[0]
        processors = candidate.platform_processors
        buses = candidate.platform_buses
        assert bounds.min_processors <= len(processors) <= bounds.max_processors
        assert bounds.min_buses <= len(buses) <= bounds.max_buses
        architecture = problem.architecture_for(candidate)  # raises if malformed
        assert {pe.name for pe in architecture.programmable_processors} == set(
            processors
        )
        assert {pe.name for pe in architecture.buses} == set(buses)
        mapping = problem.mapping_for(candidate)  # raises if invalid
        mapping.validate_for(problem.movable_processes)
        assert set(candidate.assignment_dict.values()) <= set(
            problem.processors_for(candidate)
        )


#: Module-level problem for the hypothesis test (built once; hypothesis
#: disallows function-scoped fixtures).
_SIZED_MOVE_PROBLEM = ExplorationProblem.from_system(
    generate_system(12, 2, seed=9), bounds=ArchitectureBounds()
)
