"""Tests of the incremental (staged) candidate evaluation.

The contract under test: evaluating a candidate through the sub-fingerprint
stage caches (:class:`repro.exploration.StageCache`) is **bit-identical** to
the plain expand-schedule-merge pipeline (the ``reference_merge`` fixture) —
schedule table, per-path delays and ``delta_max`` alike — for any sequence
of neighbourhood moves, and scoring is identical whether candidates go one
by one, as one batch, or through every evaluation-pool mode.  On top of the
equivalence property, the sub-fingerprint slicing helpers and the
stage-level hit/miss accounting are covered directly.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import format_schedule_table
from repro.architecture import ArchitectureError, MappingError
from repro.data import load_fig1_example
from repro.exploration import (
    ArchitectureBounds,
    BatchStats,
    CachedEvaluator,
    EvaluationPool,
    ExplorationConfig,
    ExplorationProblem,
    Explorer,
    NeighborhoodSampler,
    StageCache,
    evaluate_candidate,
    evaluate_neighbourhood,
    merge_candidate,
)
from repro.generator import generate_system
from repro.graph.communication import (
    assign_buses,
    crossing_edges,
    expand_communications,
    expansion_structure,
)
from repro.scheduling import (
    PATH_LOCAL_PRIORITY_FUNCTIONS,
    MergeConflictError,
    SchedulingError,
)


@pytest.fixture(scope="module")
def problem():
    """A compact comm-mapping problem: every move kind is available."""
    example = load_fig1_example(num_buses=2)
    return ExplorationProblem(
        example.process_graph,
        example.mapping,
        example.architecture,
        name="fig1-two-bus",
        map_communications=True,
    )


@pytest.fixture(scope="module")
def generated_problem():
    return ExplorationProblem.from_system(
        generate_system(16, 2, seed=3), map_communications=True
    )


def _walk(problem, seed, moves):
    """A seeded chain of candidates, one sampler move apart each."""
    sampler = NeighborhoodSampler(problem)
    rng = random.Random(seed)
    current = problem.initial_candidate()
    chain = [current]
    for _ in range(moves):
        neighbors = sampler.sample(current, rng, 1)
        if not neighbors:
            break
        current = neighbors[0][1]
        chain.append(current)
    return chain


def assert_matches_reference(problem, candidate, cache, reference_merge):
    """Staged evaluation through ``cache`` == the plain pipeline, bit for bit."""
    try:
        reference = reference_merge(problem, candidate)
    except (ArchitectureError, MappingError, SchedulingError, MergeConflictError):
        assert not evaluate_candidate(problem, candidate, stage_cache=cache).feasible
        return
    _, staged = merge_candidate(problem, candidate, stage_cache=cache)
    assert format_schedule_table(staged.table) == format_schedule_table(
        reference.table
    )
    assert staged.table_path_delays == reference.table_path_delays
    assert staged.delta_max == reference.delta_max
    evaluation = evaluate_candidate(problem, candidate, stage_cache=cache)
    assert evaluation.delta_max == reference.delta_max
    assert evaluation.delta_m == reference.delta_m


class TestEquivalenceProperty:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), moves=st.integers(1, 8))
    def test_random_move_sequences_evaluate_identically(
        self, problem, reference_merge, seed, moves
    ):
        """Replay a random move sequence; staged == the plain pipeline.

        The sampler draws every registered move kind (remap / swap / priority
        switch incl. the non-path-local ``static_order`` / bias / remap_comm
        / swap_bus), so the sub-fingerprint completeness invariant is what
        this property actually exercises.
        """
        cache = StageCache()
        for candidate in _walk(problem, seed, moves):
            assert_matches_reference(problem, candidate, cache, reference_merge)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_schedule_tables_are_identical(self, problem, reference_merge, seed):
        """Without a cache, each call runs over a private one: same tables."""
        cache = StageCache()
        for candidate in _walk(problem, seed, 4):
            _, staged = merge_candidate(problem, candidate, stage_cache=cache)
            _, private = merge_candidate(problem, candidate)
            reference = reference_merge(problem, candidate)
            for result in (staged, private):
                assert format_schedule_table(result.table) == format_schedule_table(
                    reference.table
                )
                assert result.table_path_delays == reference.table_path_delays
                assert result.delta_max == reference.delta_max

    def test_sizing_moves_evaluate_identically(self, reference_merge):
        """Platform changes (add/remove PE/bus) must re-key every stage.

        ``platform`` is a load-bearing component of both sub-fingerprints;
        a bounded problem makes the sampler draw the four sizing kinds too.
        """
        problem = ExplorationProblem.from_system(
            generate_system(16, 2, seed=3),
            bounds=ArchitectureBounds(),
            map_communications=True,
        )
        cache = StageCache()
        platforms = set()
        for seed in (1, 2, 3):
            for candidate in _walk(problem, seed, 10):
                platforms.add(candidate.platform)
                assert_matches_reference(problem, candidate, cache, reference_merge)
        assert len(platforms) > 1, "the walks never resized the platform"

    def test_generated_system_walk_is_identical(
        self, generated_problem, reference_merge
    ):
        cache = StageCache()
        for candidate in _walk(generated_problem, 11, 20):
            assert_matches_reference(
                generated_problem, candidate, cache, reference_merge
            )
        stats = cache.stats
        assert stats.schedule_hits > 0  # locality actually paid off


class TestSubFingerprints:
    def test_assignment_and_bias_slices(self, problem):
        initial = problem.initial_candidate()
        names = [name for name, _ in initial.assignment]
        subset = {names[0], names[-1]}
        sliced = initial.assignment_slice(subset)
        assert set(name for name, _ in sliced) == subset
        assert sliced == tuple(
            pair for pair in initial.assignment if pair[0] in subset
        )
        biased = initial.with_bias(names[0], 2.0).with_bias(names[1], -1.0)
        assert biased.bias_slice({names[0]}) == ((names[0], 2.0),)
        assert biased.bias_slice({names[-1]}) == ()

    def test_dormant_pin_does_not_fragment_expansion_key(self, problem):
        initial = problem.initial_candidate()
        message, src, dst = problem.active_messages(initial)[0]
        # Co-locate the endpoints: the pin goes dormant and must not change
        # the expansion key versus the same co-location without the pin.
        pinned = initial.with_communication(
            message, problem.connecting_buses(initial, src, dst)[0]
        )
        colocated = pinned.reassigned(src, pinned.pe_of(dst))
        without = initial.reassigned(src, initial.pe_of(dst))
        assert problem.expansion_key(colocated) == problem.expansion_key(without)

    def test_unaffected_path_keys_survive_a_remap(self, generated_problem):
        problem = generated_problem
        initial = problem.initial_candidate()
        cache = StageCache()
        expanded, paths = cache.expansion(problem, initial)
        # Move a process that is NOT active on some path; that path's
        # schedule key must not change (this is what turns a local move into
        # cache hits everywhere else).
        moved = None
        for path in paths:
            active = set(path.active_processes)
            outside = [p for p in problem.movable_processes if p not in active]
            if outside:
                moved = (path, outside[0])
                break
        assert moved is not None, "need a path not covering every process"
        path, process = moved
        target = next(
            pe
            for pe in problem.processor_names
            if pe != initial.pe_of(process)
        )
        neighbor = initial.reassigned(process, target)
        expanded_n, _ = cache.expansion(problem, neighbor)
        assert problem.path_schedule_key(
            initial, path, expanded
        ) == problem.path_schedule_key(neighbor, path, expanded_n)

    def test_static_order_keys_on_the_whole_expansion(self, generated_problem):
        problem = generated_problem
        assert "static_order" not in PATH_LOCAL_PRIORITY_FUNCTIONS
        initial = problem.initial_candidate().with_priority_function(
            "static_order"
        )
        cache = StageCache()
        expanded, paths = cache.expansion(problem, initial)
        key = problem.path_schedule_key(initial, paths[0], expanded)
        assert problem.expansion_key(initial) in key

    def test_expansion_structure_split_matches_monolithic(self, problem):
        initial = problem.initial_candidate()
        mapping = problem.mapping_for(initial)
        monolithic = expand_communications(
            problem.graph, mapping, problem.architecture
        )
        structure = expansion_structure(
            problem.graph, crossing_edges(problem.graph, mapping)
        )
        relayered = assign_buses(structure, mapping, problem.architecture)
        assert set(relayered.communications) == set(monolithic.communications)
        assert relayered.bus_assignment == monolithic.bus_assignment
        assert relayered.bus_loads == monolithic.bus_loads
        assert sorted(relayered.graph.topological_order()) == sorted(
            monolithic.graph.topological_order()
        )


class TestStageAccounting:
    def test_second_evaluation_hits_every_stage(self, problem):
        cache = StageCache()
        initial = problem.initial_candidate()
        evaluate_candidate(problem, initial, stage_cache=cache)
        first = cache.stats
        assert first.expansion_misses == 1
        assert first.schedule_hits == 0
        evaluate_candidate(problem, initial, stage_cache=cache)
        second = cache.stats
        assert second.expansion_hits == 1
        assert second.schedule_misses == first.schedule_misses
        assert second.schedule_hits > 0

    def test_local_move_hits_unaffected_paths(self, generated_problem):
        problem = generated_problem
        cache = StageCache()
        initial = problem.initial_candidate()
        evaluate_candidate(problem, initial, stage_cache=cache)
        chain = _walk(problem, 5, 6)
        for candidate in chain:
            evaluate_candidate(problem, candidate, stage_cache=cache)
        stats = cache.stats
        assert stats.schedule_hits > 0
        assert 0.0 <= stats.schedule_hit_rate <= 1.0
        assert 0.0 <= stats.expansion_hit_rate <= 1.0

    def test_evaluator_exposes_stage_stats(self, problem):
        evaluator = CachedEvaluator(problem)
        evaluator.evaluate(problem.initial_candidate())
        stats = evaluator.stage_stats
        assert stats is not None and stats.expansion_misses == 1
        assert evaluator.stage_stats == evaluator.stage_cache.stats

    def test_shared_stage_cache_instance(self, problem):
        shared = StageCache()
        first = CachedEvaluator(problem, stage_cache=shared)
        second = CachedEvaluator(problem, stage_cache=shared)
        first.evaluate(problem.initial_candidate())
        second.evaluate(problem.initial_candidate())
        assert shared.stats.expansion_hits == 1  # second evaluator reused it

    def test_clear_drops_memos_but_keeps_counters(self, problem):
        cache = StageCache()
        evaluate_candidate(problem, problem.initial_candidate(), stage_cache=cache)
        assert cache.stats.schedules > 0
        cache.clear()
        stats = cache.stats
        assert stats.schedules == 0 and stats.expansions == 0
        assert stats.schedule_misses > 0  # running totals survive
        # and the cache still works after clearing
        evaluate_candidate(problem, problem.initial_candidate(), stage_cache=cache)
        assert cache.stats.expansion_misses == 2

    def test_pooled_evaluator_defers_stage_caching_to_the_pool(self, problem):
        with EvaluationPool(problem) as pool:
            evaluator = CachedEvaluator(problem, pool=pool)
            assert evaluator.stage_cache is pool.stage_cache  # pool owns it
            evaluator.evaluate_many(_walk(problem, 21, 3))
            assert evaluator.stage_stats == pool.stage_stats
            # A second cache next to the pool's would be silently unused.
            with pytest.raises(ValueError, match="not both"):
                CachedEvaluator(problem, pool=pool, stage_cache=StageCache())


class TestPoolEquivalence:
    def test_process_pool_with_stage_caches_matches_serial(self, problem):
        batch = _walk(problem, 13, 7)
        serial = [evaluate_candidate(problem, candidate) for candidate in batch]
        with EvaluationPool(problem, workers=2) as pool:
            assert pool.evaluate(batch) == serial
            # per-worker caches are deliberately not aggregated
            assert pool.stage_stats is None

    def test_explorer_results_identical_with_and_without_stages(self, problem):
        config = ExplorationConfig(seed=4, max_cycles=6, neighbors_per_cycle=4)
        staged = Explorer(problem, config=config).explore("tabu")
        plain = Explorer(
            problem,
            config=config,
            evaluator=_CachelessEvaluator(problem, config.weights),
        ).explore("tabu")
        assert staged.best_candidate == plain.best_candidate
        assert staged.best == plain.best
        assert staged.trajectory == plain.trajectory
        assert staged.stages.schedule_hits > 0
        assert plain.stages.schedule_hits == plain.stages.schedule_misses == 0


class _CachelessEvaluator(CachedEvaluator):
    """Scores every miss without stage reuse (a private cache per call)."""

    def _evaluate_fresh(self, candidates, select=None):
        return [
            evaluate_candidate(self.problem, candidate, self.weights)
            for candidate in candidates
        ]


# -- batch-vs-serial evaluation equivalence ----------------------------------


def neighbourhood(problem, count=8, seed=7):
    base = problem.initial_candidate()
    sampler = NeighborhoodSampler(problem)
    rng = random.Random(seed)
    return [base] + [candidate for _, candidate in sampler.sample(base, rng, count)]


@pytest.fixture(scope="module")
def fig1_problem():
    return ExplorationProblem.from_system(load_fig1_example())


def test_batch_matches_serial_evaluation(fig1_problem):
    candidates = neighbourhood(fig1_problem)
    serial_cache = StageCache()
    serial = [
        evaluate_candidate(fig1_problem, candidate, stage_cache=serial_cache)
        for candidate in candidates
    ]
    batch_cache = StageCache()
    batched = evaluate_neighbourhood(fig1_problem, candidates, stage_cache=batch_cache)
    assert batched == serial
    # Batched scoring probes the stage cache in the same order as the serial
    # loop, so the hit/miss accounting must be identical, not just similar.
    assert batch_cache.stats == serial_cache.stats
    # The evaluator records its fresh (deduplicated) batch, one per call.
    evaluator = CachedEvaluator(fig1_problem)
    assert evaluator.evaluate_many(candidates) == serial
    unique = len({candidate.fingerprint for candidate in candidates})
    stats = evaluator.batch_stats
    assert stats.batches == 1
    assert stats.candidates == unique
    assert stats.mean_batch_size == pytest.approx(unique)
    assert stats.payload_bytes == 0


def _mapped_two_bus_fig1():
    example = load_fig1_example(num_buses=2)
    return ExplorationProblem(
        example.process_graph,
        example.mapping,
        example.architecture,
        name="fig1-two-bus",
        map_communications=True,
    )


def test_batch_slices_follow_each_expansions_buses(reference_merge):
    """Two candidates of one batch share an assignment (so an expansion
    structure) but pin other buses: the second must be sliced and keyed on
    its own buses, not served the first one's schedules.  (Cycle 14 of
    ``explore --fig1 --fig1-buses 2 --map-communications --seed 6
    --cycles 16 --neighbors 6``.)"""
    problem = _mapped_two_bus_fig1()
    base = problem.initial_candidate()
    for process, pe in (
        ("P1", "pe2"), ("P10", "pe3"), ("P11", "pe1"), ("P15", "pe3"),
        ("P16", "pe1"), ("P5", "pe3"), ("P6", "pe2"), ("P9", "pe3"),
    ):
        base = base.reassigned(process, pe)
    for process, delta in (("P2", -1.0), ("P5", -4.0), ("P8", 4.0)):
        base = base.with_bias(process, delta)
    first = base.with_communication("P6->P8", "pe5").with_communication(
        "P7->P10", "pe5"
    )
    second = base.with_communication("P6->P8", "pe4")
    batch = evaluate_neighbourhood(
        problem, [first, second], stage_cache=StageCache()
    )
    for candidate, evaluation in zip((first, second), batch):
        assert evaluation == evaluate_candidate(problem, candidate)
        reference = reference_merge(problem, candidate)
        assert evaluation.delta_max == reference.delta_max
        assert evaluation.delta_m == reference.delta_m


def test_every_fresh_evaluation_of_a_mapped_run_matches_a_rescore():
    problem = _mapped_two_bus_fig1()

    class _Recorder(CachedEvaluator):
        def __init__(self):
            super().__init__(problem)
            self.fresh = []

        def _evaluate_fresh(self, candidates, select=None):
            evaluations = super()._evaluate_fresh(candidates, select)
            self.fresh.extend(zip(candidates, evaluations))
            return evaluations

    recorder = _Recorder()
    config = ExplorationConfig(seed=6, max_cycles=16, neighbors_per_cycle=6)
    Explorer(problem, config=config, evaluator=recorder).explore("tabu")
    scored = [(c, e) for c, e in recorder.fresh if e is not None]
    assert len(scored) > 16
    for candidate, evaluation in scored:
        assert evaluation == evaluate_candidate(problem, candidate)


def test_batch_stats_snapshot_accumulates():
    stats = BatchStats()
    assert stats.snapshot() == {
        "batches": 0,
        "candidates": 0,
        "mean_batch_size": 0.0,
        "payload_bytes": 0,
    }
    stats.record_batch(4)
    stats.record_batch(6, payload_bytes=120)
    snapshot = stats.snapshot()
    assert snapshot["batches"] == 2
    assert snapshot["candidates"] == 10
    assert snapshot["mean_batch_size"] == pytest.approx(5.0)
    assert snapshot["payload_bytes"] == 120


@pytest.mark.parametrize("workers", [1, 2], ids=["serial-1", "process-2"])
def test_pool_modes_score_identically(fig1_problem, workers):
    candidates = neighbourhood(fig1_problem)
    unique = len({candidate.fingerprint for candidate in candidates})
    expected = [
        evaluate_candidate(fig1_problem, candidate) for candidate in candidates
    ]
    with EvaluationPool(fig1_problem, workers=workers) as pool:
        evaluator = CachedEvaluator(fig1_problem, pool=pool)
        got = evaluator.evaluate_many(candidates)
        assert got == expected
        stats = evaluator.batch_stats
        assert stats.batches == 1
        assert stats.candidates == unique
        if workers > 1:
            # The pickled-once problem blob plus the pre-pickled units all
            # crossed the process boundary and were counted.
            assert pool.payload_bytes_shipped > 0
            assert stats.payload_bytes == pool.payload_bytes_shipped
        else:
            # Nothing is serialised in-process.
            assert pool.payload_bytes_shipped == 0
            assert stats.payload_bytes == 0
