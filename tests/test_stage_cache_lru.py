"""Property tests for the bounded (LRU) stage cache behind the service.

The shared cross-request cache of ``repro-cpg serve`` must (1) never exceed
its entry/byte budget, (2) evict cheapest-to-recompute entries first within
the recency window, and (3) stay semantically invisible: a post-eviction
re-query recomputes a bit-identical stage result.  (1) and (2) are checked
with hypothesis against an executable model of the documented policy; (3)
against the plain pipeline on a small problem.  A long walk on a small budget also
checks that the expansion structures hanging off memoized expansions are
evicted with them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import gc
import random
import sys
import threading
import tracemalloc

from repro.exploration import (
    CostWeights,
    ExplorationProblem,
    NeighborhoodSampler,
    StageCache,
    evaluate_candidate,
    merge_candidate,
)
from repro.exploration.cost import (
    _EVICTION_WINDOW,
    expansion_entry_cost,
    schedule_entry_cost,
)
from repro.generator import generate_system
from repro.scheduling import PathListScheduler

import pytest


class _FakeSchedule:
    """Just enough of a PathSchedule for cost accounting."""

    def __init__(self, label, tasks, broadcasts=0):
        self.label = label
        self.tasks = [None] * tasks
        self.broadcasts = [None] * broadcasts
        self.delay = float(tasks)


def _run_model(cache, max_entries, max_bytes, operations):
    """Drive cache and model together; return the model's (key, cost) order."""
    model = []  # least recent first, mirroring the cache's recency order

    def model_evict():
        while model and (
            (max_entries and len(model) > max_entries)
            or (max_bytes and sum(cost for _, cost in model) > max_bytes)
        ):
            window = model[:_EVICTION_WINDOW]
            victim = min(window, key=lambda item: item[1])
            model.remove(victim)

    for is_store, key_id, tasks in operations:
        key = (("path", key_id), key_id)
        if is_store:
            schedule = _FakeSchedule(("path", key_id), tasks)
            cost = schedule_entry_cost(schedule)
            cache.store_schedule(key, schedule)
            if not (max_bytes and cost > max_bytes):
                model[:] = [item for item in model if item[0] != key]
                model.append((key, cost))
                model_evict()
        else:
            hit = cache.lookup_schedule(key) is not None
            in_model = any(item[0] == key for item in model)
            assert hit == in_model
            if in_model:
                entry = next(item for item in model if item[0] == key)
                model.remove(entry)
                model.append(entry)
    return model


_OPERATIONS = st.lists(
    st.tuples(
        st.booleans(),  # store (True) or lookup (False)
        st.integers(min_value=0, max_value=24),  # key id
        st.integers(min_value=0, max_value=20),  # schedule size
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(
    operations=_OPERATIONS,
    max_entries=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    max_bytes=st.one_of(
        st.none(), st.integers(min_value=200, max_value=6000)
    ),
)
def test_bounded_cache_matches_the_eviction_model(
    operations, max_entries, max_bytes
):
    if max_entries is None and max_bytes is None:
        max_entries = 4  # at least one budget, else the cache is unbounded
    cache = StageCache(max_entries=max_entries, max_bytes=max_bytes)
    model = _run_model(cache, max_entries, max_bytes, operations)

    stats = cache.stats
    # Budgets are invariants, not targets: never exceeded, not even
    # transiently observable after any operation.
    if max_entries:
        assert stats.schedules <= max_entries
    if max_bytes:
        assert stats.occupancy_bytes <= max_bytes
    # The cache holds exactly what the documented policy says it should:
    # same keys, same recency order, same byte accounting.
    assert list(cache._lru) == [("schedule", key) for key, _ in model]
    assert set(cache._schedules) == {key for key, _ in model}
    assert stats.occupancy_bytes == sum(cost for _, cost in model)
    assert stats.lru_evictions == cache.lru_evictions


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(
        st.integers(min_value=0, max_value=15),
        min_size=_EVICTION_WINDOW + 1,
        max_size=_EVICTION_WINDOW + 1,
    )
)
def test_eviction_prefers_cheapest_in_the_recency_window(sizes):
    max_entries = _EVICTION_WINDOW
    cache = StageCache(max_entries=max_entries)
    schedules = [
        _FakeSchedule(("path", index), tasks) for index, tasks in enumerate(sizes)
    ]
    for index, schedule in enumerate(schedules[:max_entries]):
        cache.store_schedule((("path", index), index), schedule)
    assert cache.lru_evictions == 0

    # The next store overflows the entry budget; the victim must be the
    # cheapest entry in the window (ties fall to the least recent).
    costs = [schedule_entry_cost(schedule) for schedule in schedules[:max_entries]]
    expected_victim = (("path", costs.index(min(costs))), costs.index(min(costs)))
    cache.store_schedule(
        (("path", max_entries), max_entries), schedules[max_entries]
    )
    assert cache.lru_evictions == 1
    assert cache.lookup_schedule(expected_victim) is None
    # Every other pre-overflow entry survived.
    for index in range(max_entries):
        key = (("path", index), index)
        if key != expected_victim:
            assert cache.lookup_schedule(key) is not None


def test_oversize_entries_are_computed_but_never_memoized():
    cache = StageCache(max_bytes=300)
    small = _FakeSchedule(("path", 0), 1)
    huge = _FakeSchedule(("path", 1), 50)
    assert schedule_entry_cost(huge) > 300
    cache.store_schedule((("path", 0), 0), small)
    cache.store_schedule((("path", 1), 1), huge)
    assert cache.lookup_schedule((("path", 0), 0)) is small
    assert cache.lookup_schedule((("path", 1), 1)) is None
    assert cache.occupancy_bytes == schedule_entry_cost(small)


def _allocated(build):
    """``build()``'s result and the bytes it left allocated (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = build()
        gc.collect()
        return value, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_entry_estimates_track_measured_memory():
    """The byte budget bounds real memory: each estimate is within 2x of it."""
    problem = ExplorationProblem.from_system(generate_system(40, 8, seed=1))
    seed = problem.initial_candidate()
    StageCache().expansion(problem, seed)  # the problem's own derivations, once
    neighbour = NeighborhoodSampler(problem).sample(seed, random.Random(1), 1)[0][1]
    cache = StageCache()
    (expanded, paths), expansion_bytes = _allocated(
        lambda: cache.expansion(problem, neighbour)
    )
    assert cache.structure_misses == 1  # the structure was built, not shared
    assert 0.5 <= expansion_entry_cost(expanded, paths) / expansion_bytes <= 2.0

    scheduler = PathListScheduler(
        expanded.graph, expanded.mapping, problem.architecture_for(neighbour)
    )
    for path in paths:
        scheduler.schedule(path)  # the path's context stays with the scheduler
        schedule, schedule_bytes = _allocated(lambda: scheduler.schedule(path))
        assert 0.5 <= schedule_entry_cost(schedule) / schedule_bytes <= 2.0


def test_invalid_budgets_are_rejected():
    with pytest.raises(ValueError):
        StageCache(max_entries=0)
    with pytest.raises(ValueError):
        StageCache(max_bytes=-1)


#: Module-level problem for the re-query tests (hypothesis disallows
#: function-scoped fixtures; building once also keeps them fast).
_PROBLEM = ExplorationProblem.from_system(generate_system(10, 2, seed=5))
_WEIGHTS = CostWeights()
_RNG = random.Random(7)
_SAMPLER = NeighborhoodSampler(_PROBLEM)
_CANDIDATES = [_PROBLEM.initial_candidate()]
for _move, _neighbor in _SAMPLER.sample(_CANDIDATES[0], _RNG, 6):
    _CANDIDATES.append(_neighbor)


def _evaluation_key(evaluation):
    return (
        evaluation.feasible,
        evaluation.cost,
        evaluation.delta_max,
        evaluation.delta_m,
        evaluation.objectives,
    )


def _entry_costs(cache):
    """The largest memoized expansion and path-schedule estimates."""
    costs = {"expansion": 0, "schedule": 0}
    for (kind, _key), cost in cache._lru.items():
        costs[kind] = max(costs[kind], cost)
    return costs["expansion"], costs["schedule"]


def test_post_eviction_requery_recomputes_bit_identical_results(reference_merge):
    # Room for one expansion and one path schedule, and three entries: a
    # budget this tight evicts constantly, expansions and schedules alike;
    # results must not notice.
    sizing = StageCache()
    for candidate in _CANDIDATES:
        evaluate_candidate(_PROBLEM, candidate, _WEIGHTS, stage_cache=sizing)
    expansion_bytes, schedule_bytes = _entry_costs(sizing)
    max_bytes = expansion_bytes + schedule_bytes
    bounded = StageCache(max_entries=3, max_bytes=max_bytes)
    unbounded = StageCache()
    for sweep in range(2):  # second sweep re-queries evicted stages
        for candidate in _CANDIDATES:
            reference = reference_merge(_PROBLEM, candidate)
            with_bound = evaluate_candidate(
                _PROBLEM, candidate, _WEIGHTS, stage_cache=bounded
            )
            without = evaluate_candidate(
                _PROBLEM, candidate, _WEIGHTS, stage_cache=unbounded
            )
            assert _evaluation_key(with_bound) == _evaluation_key(without)
            assert with_bound.delta_max == reference.delta_max
            assert with_bound.delta_m == reference.delta_m
    assert bounded.lru_evictions > 0
    assert bounded.stats.schedules <= 3
    assert bounded.occupancy_bytes <= max_bytes
    # Both kinds were evicted: each re-query missed where the unbounded
    # cache hit.
    assert bounded.expansion_misses > unbounded.expansion_misses
    assert bounded.schedule_misses > unbounded.schedule_misses


def _assert_maps_follow_the_memo(cache):
    """Every unmanaged map is bounded by the LRU-managed entries it serves."""
    stats = cache.stats
    assert stats.expansions + stats.schedules <= stats.max_entries
    assert set(cache._expansion_patterns) == set(cache._expansions)
    assert sum(cache._structure_users.values()) == stats.expansions
    assert set(cache._structures) == set(cache._structure_users)


def test_long_walk_keeps_every_map_bounded(reference_merge):
    problem = ExplorationProblem.from_system(
        generate_system(16, 3, seed=2), map_communications=True
    )
    sampler = NeighborhoodSampler(problem)
    rng = random.Random(3)
    bounded = StageCache(max_entries=24)
    unbounded = StageCache()
    current = problem.initial_candidate()
    for step in range(60):
        with_bound = evaluate_candidate(problem, current, stage_cache=bounded)
        assert with_bound == evaluate_candidate(
            problem, current, stage_cache=unbounded
        )
        if step % 10 == 0:
            _, merged = merge_candidate(problem, current, stage_cache=bounded)
            assert merged.table_path_delays == (
                reference_merge(problem, current).table_path_delays
            )
        _assert_maps_follow_the_memo(bounded)
        current = sampler.sample(current, rng, 1)[0][1]
    assert bounded.lru_evictions > 0
    # The unbounded cache kept what the bounded one let go.
    assert unbounded.stats.schedules > bounded.stats.schedules


def test_shared_bounded_cache_survives_concurrent_walks():
    """More threads than cores on one small budget: no lost link updates."""
    problem = ExplorationProblem.from_system(generate_system(12, 3, seed=4))
    sampler = NeighborhoodSampler(problem)
    walks = []
    for seed in range(4):
        rng = random.Random(seed)
        current = problem.initial_candidate()
        walk = [current]
        for _ in range(10):
            current = sampler.sample(current, rng, 1)[0][1]
            walk.append(current)
        walks.append(walk)
    expected = [
        [evaluate_candidate(problem, candidate) for candidate in walk]
        for walk in walks
    ]
    shared = StageCache(max_entries=16)
    results = [None] * len(walks)

    def run(index):
        results[index] = [
            evaluate_candidate(problem, candidate, stage_cache=shared)
            for candidate in walks[index]
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=run, args=(index,))
            for index in range(len(walks))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected
    assert shared.lru_evictions > 0
    _assert_maps_follow_the_memo(shared)
