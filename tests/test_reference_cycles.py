"""Generated systems and the evaluation pipeline are freed by reference counting.

``repro-cpg serve`` and ``explore`` raise the young-generation collection
threshold (``repro.cli._collector_policy``) because what a search drops is
freed without the cyclic collector: neither the generator nor the
expand → schedule → merge pipeline, nor a bounded stage cache evicting
entries, makes reference cycles.  These tests pin that premise.  Each runs
its block with automatic collection off, then collects under
``gc.DEBUG_SAVEALL``, which keeps everything the collector would have freed
in ``gc.garbage``.
"""

import gc
from collections import Counter
from contextlib import contextmanager

from repro.exploration import (
    EvaluationPool,
    ExplorationConfig,
    ExplorationProblem,
    Explorer,
    StageCache,
)
from repro.generator import generate_system


@contextmanager
def _collector_garbage():
    """Run the block with automatic collection off.

    Yields a list that, once the block is done, holds every object only
    the collector could free.
    """
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    found = []
    try:
        yield found
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found.extend(gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _types(objects):
    return Counter(f"{type(o).__module__}.{type(o).__qualname__}" for o in objects)


def test_a_dropped_generated_system_leaves_nothing_to_collect():
    with _collector_garbage() as garbage:
        system = generate_system(120, 12, seed=1)
        del system
    assert not garbage, _types(garbage)


def test_a_tabu_search_through_an_evicting_cache_makes_no_cycles():
    config = ExplorationConfig(seed=1, max_cycles=6, neighbors_per_cycle=6)
    with _collector_garbage() as garbage:
        problem = ExplorationProblem.from_system(generate_system(40, 8, seed=1))
        cache = StageCache(max_entries=64)
        with EvaluationPool(problem, config.weights, stage_cache=cache) as pool:
            result = Explorer(problem, config=config, pool=pool).explore("tabu")
        evictions = cache.lru_evictions
        del problem, cache, pool, result
    assert evictions > 0
    ours = [o for o in garbage if type(o).__module__.startswith("repro")]
    assert not ours, _types(ours)
