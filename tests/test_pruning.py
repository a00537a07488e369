"""Bound-ordered tabu selection: skipping merges never changes a search.

Tabu search hands the evaluator its choice rule (:class:`TabuSelection`);
an in-process batch then merges its neighbours in ascending δ_M-bound order
and stops once no neighbour left can be chosen.  The contract under test:
every trajectory point and the best candidate are identical to a search
whose evaluator ignores the selection and merges every neighbour; the bound
never exceeds an exact cost; and pruning stays off wherever it is unsound
or the batch leaves the process.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import load_fig1_example
from repro.exploration import (
    CachedEvaluator,
    CostWeights,
    EvaluationPool,
    ExplorationConfig,
    ExplorationProblem,
    Explorer,
    StageCache,
    TabuSelection,
    evaluate_candidate,
    evaluate_neighbourhood,
)
from repro.exploration import cost as cost_module
from repro.generator import generate_system
from repro.observability import RingBufferSink, Tracer


class _FullEvaluator(CachedEvaluator):
    """Ignores the selection: every fresh neighbour is merged."""

    def _evaluate_fresh(self, candidates, select=None):
        return super()._evaluate_fresh(candidates, None)


class _AuditedEvaluator(CachedEvaluator):
    """The pruning evaluator, recording what each fresh batch merged."""

    def __init__(self, problem, weights=CostWeights()):
        super().__init__(problem, weights)
        self.merged = []  # per fresh batch: the merged evaluations

    def _evaluate_fresh(self, candidates, select=None):
        evaluations = super()._evaluate_fresh(candidates, select)
        self.merged.append([e for e in evaluations if e is not None])
        return evaluations


def _bound(weights, evaluation):
    """The cost expression with δ_M in place of δ_max (mean term zero)."""
    return (
        weights.delta_max * evaluation.delta_m
        + weights.mean_path_delay * 0.0
        + weights.load_imbalance * evaluation.load_imbalance
        + weights.architecture_cost * evaluation.architecture_cost
        + weights.bus_imbalance * evaluation.bus_imbalance
    )


def _differential(problem, config):
    """Run tabu pruned and unpruned; assert identical searches."""
    audited = _AuditedEvaluator(problem, config.weights)
    pruned = Explorer(problem, config=config, evaluator=audited).explore("tabu")
    full = Explorer(
        problem, config=config, evaluator=_FullEvaluator(problem, config.weights)
    ).explore("tabu")
    assert pruned.trajectory == full.trajectory
    assert pruned.best_candidate == full.best_candidate
    assert pruned.best == full.best
    assert pruned.evaluations == full.evaluations
    assert pruned.stop_reason == full.stop_reason
    assert full.cache.merges_pruned == 0
    # Every neighbour is still one cache probe; a pruned one is a miss.
    assert pruned.cache.hits + pruned.cache.misses == (
        full.cache.hits + full.cache.misses
    )
    for batch in audited.merged:
        for evaluation in batch:
            if evaluation.feasible:
                assert evaluation.cost >= _bound(config.weights, evaluation)
    return pruned, audited


def _fig1_problem(buses, mapped):
    example = load_fig1_example(num_buses=buses)
    return ExplorationProblem(
        example.process_graph,
        example.mapping,
        example.architecture,
        name="fig1",
        map_communications=mapped,
    )


@pytest.mark.parametrize(
    "buses,mapped", [(1, False), (2, False), (2, True)],
    ids=["one-bus", "two-bus-derived", "two-bus-mapped"],
)
def test_fig1_searches_are_identical_with_and_without_pruning(buses, mapped):
    problem = _fig1_problem(buses, mapped)
    pruned_total = 0
    multi_merge = inexact = False
    for seed in range(1, 9):
        config = ExplorationConfig(seed=seed, max_cycles=16, neighbors_per_cycle=6)
        result, audited = _differential(problem, config)
        pruned_total += result.cache.merges_pruned
        multi_merge |= any(len(batch) > 1 for batch in audited.merged)
        inexact |= any(
            e.feasible and e.delta_max > e.delta_m
            for batch in audited.merged
            for e in batch
        )
    assert pruned_total > 0
    # Some batch merged past its first neighbour, and some merged neighbour's
    # bound was not its cost: the inexact-bound branch ran.
    assert multi_merge
    assert inexact


@pytest.mark.parametrize(
    "nodes,paths,seed,cycles", [(16, 2, 3, 8), (40, 8, 3, 4)]
)
def test_generated_searches_are_identical_with_and_without_pruning(
    nodes, paths, seed, cycles
):
    problem = ExplorationProblem.from_system(generate_system(nodes, paths, seed=seed))
    config = ExplorationConfig(seed=seed, max_cycles=cycles, neighbors_per_cycle=8)
    result, _ = _differential(problem, config)
    assert result.cache.merges_pruned > 0


_FIG1_MAPPED = _fig1_problem(2, True)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), neighbors=st.integers(1, 10))
def test_pruning_never_changes_a_search(seed, neighbors):
    config = ExplorationConfig(seed=seed, max_cycles=6, neighbors_per_cycle=neighbors)
    _differential(_FIG1_MAPPED, config)


# -- where pruning stays off -------------------------------------------------


@pytest.fixture(scope="module")
def problem():
    return ExplorationProblem.from_system(generate_system(16, 2, seed=3))


_CONFIG = ExplorationConfig(seed=3, max_cycles=4, neighbors_per_cycle=8)


def test_pruning_is_on_by_default_for_tabu(problem):
    assert Explorer(problem, config=_CONFIG).explore("tabu").cache.merges_pruned > 0


def test_a_tracked_front_turns_pruning_off(problem):
    config = ExplorationConfig(
        seed=3, max_cycles=4, neighbors_per_cycle=8, track_front=True
    )
    tracked = Explorer(problem, config=config).explore("tabu")
    assert tracked.cache.merges_pruned == 0
    plain = Explorer(problem, config=_CONFIG).explore("tabu")
    assert tracked.trajectory == plain.trajectory
    assert tracked.best == plain.best


@pytest.mark.parametrize(
    "weights",
    [CostWeights(mean_path_delay=1.0), CostWeights(delta_max=-1.0)],
    ids=["mean-path-delay", "negative-delta-max"],
)
def test_weights_without_a_valid_bound_turn_pruning_off(problem, weights):
    config = ExplorationConfig(
        seed=3, max_cycles=4, neighbors_per_cycle=8, weights=weights
    )
    assert Explorer(problem, config=config).explore("tabu").cache.merges_pruned == 0


def test_a_process_pool_ignores_the_selection(problem):
    with EvaluationPool(problem, workers=2) as pool:
        pooled = Explorer(problem, config=_CONFIG, pool=pool).explore("tabu")
    serial = Explorer(problem, config=_CONFIG).explore("tabu")
    assert pooled.cache.merges_pruned == 0
    assert serial.cache.merges_pruned > 0
    assert pooled.trajectory == serial.trajectory
    assert pooled.best == serial.best


@pytest.mark.parametrize("engine", ["anneal", "genetic"])
def test_other_engines_pass_no_selection(problem, engine):
    assert Explorer(problem, config=_CONFIG).explore(engine).cache.merges_pruned == 0


# -- the batch call itself ---------------------------------------------------


def _neighbourhood(problem):
    base = problem.initial_candidate()
    candidates = [base]
    for process in problem.movable_processes[:5]:
        for pe in problem.processor_names:
            if pe != base.pe_of(process):
                candidates.append(base.reassigned(process, pe))
                break
    return candidates


def test_an_empty_selection_still_finds_the_winner(problem):
    candidates = _neighbourhood(problem)
    full = evaluate_neighbourhood(problem, candidates)
    pruned = evaluate_neighbourhood(problem, candidates, select=TabuSelection())
    winner = min(
        (e.cost, e.fingerprint) for e in full if e.feasible
    )
    for exact, got in zip(full, pruned):
        assert got is None or got == exact
    chosen = min((e.cost, e.fingerprint) for e in pruned if e is not None and e.feasible)
    assert chosen == winner
    assert sum(e is None for e in pruned) > 0


def test_every_tabu_neighbour_is_merged_when_none_is_admissible(problem):
    candidates = _neighbourhood(problem)
    select = TabuSelection(
        frozenset(c.fingerprint for c in candidates), aspiration=float("-inf")
    )
    assert evaluate_neighbourhood(problem, candidates, select=select) == (
        evaluate_neighbourhood(problem, candidates)
    )


def test_a_known_admissible_entry_prunes_every_worse_neighbour(problem):
    candidates = _neighbourhood(problem)
    full = evaluate_neighbourhood(problem, candidates)
    best = min((e for e in full if e.feasible), key=lambda e: (e.cost, e.fingerprint))
    rest = [c for c in candidates if c.fingerprint != best.fingerprint]
    pruned = evaluate_neighbourhood(
        problem, rest, select=TabuSelection(known=(best,))
    )
    exact = {e.fingerprint: e for e in full}
    for candidate, got in zip(rest, pruned):
        assert got is None or got == exact[candidate.fingerprint]
        if got is None:
            # Skipped only when its bound could not beat the known entry.
            assert (exact[candidate.fingerprint].cost, candidate.fingerprint) > (
                best.cost, best.fingerprint
            )


def test_a_cost_below_its_bound_is_reported(problem, monkeypatch):
    """The soundness check names the candidate whose merge broke the bound."""
    merge = cost_module._PathStage.merge

    def undercut(self, tracer=None):
        result = merge(self, tracer)
        result.delta_max = result.delta_m - 1.0
        return result

    monkeypatch.setattr(cost_module._PathStage, "merge", undercut)
    candidates = _neighbourhood(problem)
    with pytest.raises(RuntimeError, match="below its delta_M bound") as raised:
        evaluate_neighbourhood(
            problem, candidates, stage_cache=StageCache(), select=TabuSelection()
        )
    assert any(c.fingerprint in str(raised.value) for c in candidates)


# -- the path-by-path bound --------------------------------------------------


@pytest.fixture(scope="module")
def eight_paths():
    return ExplorationProblem.from_system(generate_system(40, 8, seed=3))


def _winner(evaluations):
    return min(
        (e.cost, e.fingerprint) for e in evaluations if e is not None and e.feasible
    )


def test_a_first_path_shorter_than_the_longest_picks_the_same_neighbour(
    eight_paths, monkeypatch
):
    taken = {}  # stage -> the delays of its schedules, in the order taken
    add = cost_module._PathStage.add

    def recording(self, path, schedule, seen=None):
        taken.setdefault(id(self), []).append(schedule.delay)
        add(self, path, schedule, seen)

    monkeypatch.setattr(cost_module._PathStage, "add", recording)
    candidates = _neighbourhood(eight_paths)
    pruned = evaluate_neighbourhood(
        eight_paths, candidates, stage_cache=StageCache(), select=TabuSelection()
    )
    monkeypatch.undo()
    # Some neighbour's first schedule was not its longest path: its bound
    # grew path by path before it merged or was pruned.
    assert any(delays[0] < max(delays) for delays in taken.values())
    assert _winner(pruned) == _winner(evaluate_neighbourhood(eight_paths, candidates))


def test_a_batch_schedules_the_same_paths_on_fresh_caches(eight_paths):
    candidates = _neighbourhood(eight_paths)
    runs = []
    for _ in range(2):
        cache = StageCache()
        scores = evaluate_neighbourhood(
            eight_paths, candidates, stage_cache=cache, select=TabuSelection()
        )
        runs.append((list(scores), scores.paths_pruned, set(cache._schedules)))
    assert runs[0] == runs[1]
    assert runs[0][1] > 0


def test_a_pruned_neighbour_had_paths_left_unscheduled(eight_paths):
    candidates = _neighbourhood(eight_paths)
    cache = StageCache()
    scores = evaluate_neighbourhood(
        eight_paths, candidates, stage_cache=cache, select=TabuSelection()
    )
    pruned = [c for c, e in zip(candidates, scores) if e is None]
    assert pruned
    # Scoring them in full now schedules the paths the batch skipped: at
    # most paths_pruned of them (pruned neighbours may share a path).
    sink = RingBufferSink()
    for candidate in pruned:
        evaluate_candidate(eight_paths, candidate, stage_cache=cache, tracer=Tracer(sink))
    misses = [
        record for record in sink.records
        if record["name"] == "stage.path_schedule" and not record["attrs"]["hit"]
    ]
    assert 0 < len(misses) <= scores.paths_pruned

