"""Cost model of the design-space explorer.

Scoring a candidate runs the full pipeline the repository already trusts —
communication expansion, per-path list scheduling with the candidate's
priority configuration, schedule merging — on the candidate's (possibly
sized) architecture, and condenses the result into a scalar cost plus the
objective vector the multi-objective machinery consumes:

* ``delta_max`` — the worst-case delay of the generated schedule table, the
  paper's primary quality metric;
* ``mean_path_delay`` — the table-execution delay averaged over the
  alternative paths (weights candidates that keep *every* scenario fast, not
  only the worst one);
* ``load_imbalance`` — how far the most loaded processor sits above the mean
  processor load (a dimensionless ratio; 0 is perfectly balanced);
* ``architecture_cost`` — what the candidate's platform costs in abstract
  units: ``processor_cost`` per programmable processor plus ``bus_cost`` per
  bus (hardware processors are fixed and excluded).  Constant unless
  architecture sizing is enabled.
* ``bus_imbalance`` — the same ratio over the *buses*: how far the most
  loaded bus sits above the mean bus communication load.  This is the
  contention objective of communication mapping — a design point that dumps
  every message on one bus of a multi-bus platform scores 1.0 (or worse),
  one that spreads them evenly scores 0.

Evaluations are plain frozen dataclasses of floats and strings so they travel
unchanged through the parallel evaluation pool and the content-hash cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from heapq import heapify, heappop, heapreplace
from itertools import islice
from typing import Dict, FrozenSet, Optional, Tuple, Union

from ..architecture.architecture import Architecture, ArchitectureError
from ..architecture.mapping import MappingError
from ..graph.communication import (
    ExpandedGraph,
    ExpansionStructure,
    assign_buses,
    crossing_edges,
    expansion_structure,
)
from ..graph.paths import AlternativePath
from ..scheduling.list_scheduler import PathListScheduler, SchedulingError
from ..scheduling.merging import MergeConflictError, MergeResult, ScheduleMerger
from ..scheduling.priorities import (
    PATH_LOCAL_PRIORITY_FUNCTIONS,
    priority_function,
)
from ..scheduling.schedule import PathSchedule
from .candidate import Candidate
from .problem import ExplorationProblem

_INFEASIBLE_COST = float("inf")

#: Deterministic per-entry size estimates for the bounded-LRU budget.
#: ``sys.getsizeof`` and wall clocks are banned here — eviction decisions
#: feed frozen benchmark anchors, so an entry's cost must be the same on
#: every host and every run.  The estimates are structural proxies for the
#: python-object footprint of the memoized value, fitted to what
#: ``tracemalloc`` measures on generated systems of 16–120 processes once
#: the value has been used (``tests/test_stage_cache_lru.py`` keeps them
#: within 2x of it).
_ENTRY_OVERHEAD_BYTES = 64
#: A scheduled task or broadcast: the slotted task, its start time and its
#: slot in the schedule's maps.
_SCHEDULE_TASK_BYTES = 160
#: A process of the expanded graph: its adjacency lists, its entries in the
#: graph's and the extended mapping's dicts, and in the in-edge map the
#: list scheduler builds on the graph's first use.
_EXPANSION_PROCESS_BYTES = 680
#: An inserted communication on top of that: its process, name, two edges
#: and the bus layer's record of it.
_COMMUNICATION_BYTES = 480
#: One active process of one enumerated path.
_PATH_ENTRY_BYTES = 24
#: How many least-recently-used entries compete per eviction: the victim is
#: the *cheapest to recompute* among this window, so one cold-but-expensive
#: merge artefact survives a burst of cheap re-adjustment schedules.
_EVICTION_WINDOW = 8


def schedule_entry_cost(schedule: PathSchedule) -> int:
    """Deterministic size estimate (bytes) of one memoized path schedule.

    Proportional to the number of scheduled tasks and condition broadcasts —
    the objects a :class:`~repro.scheduling.schedule.PathSchedule` actually
    holds — so the estimate doubles when the schedule does.
    """
    return _ENTRY_OVERHEAD_BYTES + _SCHEDULE_TASK_BYTES * (
        len(schedule.tasks) + len(schedule.broadcasts)
    )


def expansion_entry_cost(expanded, paths) -> int:
    """Deterministic size estimate (bytes) of one memoized expansion stage.

    Counts everything the entry keeps alive: the structure's graph (every
    process, communication processes included), the bus layer of each
    communication, and the active sets of the enumerated alternative paths.
    Expansions that share a structure each count it in full, so the
    estimate bounds the memory the memo holds from above.
    """
    return (
        _ENTRY_OVERHEAD_BYTES
        + _EXPANSION_PROCESS_BYTES * len(expanded.graph)
        + _COMMUNICATION_BYTES * len(expanded.communications)
        + _PATH_ENTRY_BYTES * sum(len(path.active_processes) for path in paths)
    )


@contextmanager
def _timed_stage(tracer, name: str, **attrs):
    """Time one region into a ``name`` span; read no clock without a tracer.

    The yielded dict collects outcome attributes known only at the end
    (``hit``, ``feasible``); they are added to the span when it closes.
    """
    outcome: Dict = {}
    if tracer is None:
        yield outcome
        return
    span = tracer.span(name, **attrs)
    try:
        yield outcome
    finally:
        span.close(**outcome)


@dataclass(frozen=True)
class StageStats:
    """Hit/miss counters of one :class:`StageCache` (misses = actual work).

    ``expansion_*`` counts communication-expansion + path-enumeration stage
    probes (one per evaluation); ``schedule_*`` counts per-path schedule
    probes (one per alternative path per evaluation).  Sizes are the number
    of memoized entries.
    """

    expansion_hits: int
    expansion_misses: int
    schedule_hits: int
    schedule_misses: int
    expansions: int
    schedules: int
    #: Structure-layer counters: on an expansion miss, the mapping-independent
    #: graph structure + path enumeration may still be reused from a candidate
    #: with the same co-location pattern (only the bus layer is rebuilt).
    structure_hits: int = 0
    structure_misses: int = 0
    structures: int = 0
    #: Entries evicted by the bounded-LRU budget (cheapest-to-recompute
    #: first within the recency window; see the :class:`StageCache`
    #: docstring).  Zero on unbounded caches.
    lru_evictions: int = 0
    #: Estimated bytes currently held by the LRU-managed memos (expansion +
    #: per-path schedule entries), per the deterministic
    #: :func:`schedule_entry_cost` / :func:`expansion_entry_cost` estimates.
    occupancy_bytes: int = 0
    #: The configured budgets; 0 means unbounded on that axis.
    max_entries: int = 0
    max_bytes: int = 0

    @property
    def expansion_hit_rate(self) -> float:
        """Fraction of expansion-stage probes answered from the cache."""
        total = self.expansion_hits + self.expansion_misses
        return self.expansion_hits / total if total else 0.0

    @property
    def schedule_hit_rate(self) -> float:
        """Fraction of per-path schedule probes answered from the cache."""
        total = self.schedule_hits + self.schedule_misses
        return self.schedule_hits / total if total else 0.0


class StageCache:
    """Memo of the evaluation pipeline's *stages*, keyed by sub-fingerprints.

    The whole-candidate cache (:class:`~repro.exploration.CachedEvaluator`)
    only helps when a design point is revisited exactly.  Most neighbourhood
    moves are *local* — one process remapped, one message repinned — so on a
    whole-candidate miss nearly all of the per-path schedules are still
    bit-identical to ones already computed.  A ``StageCache`` memoizes the
    two expensive stages independently:

    * **expansion** — communication expansion + path enumeration, keyed by
      :meth:`ExplorationProblem.expansion_key` (assignment, platform,
      effective bus pins);
    * **per-path schedules** — one optimal (lock-free) list schedule per
      alternative path, keyed by
      :meth:`ExplorationProblem.path_schedule_key`, i.e. by only the state
      that path can observe.

    Invariants: evaluation must stay **pure** (the cached stages are reused
    verbatim), a cache must serve a **single problem** (keys do not include
    problem identity), and every sub-fingerprint must be **complete** — it
    must cover everything that can change the stage's output (see
    PERFORMANCE.md, "Incremental evaluation").  One instance may be shared
    across threads — ``repro-cpg serve``'s job threads and its ``/cache``
    readers share each scope's cache — so every store, touch and eviction
    takes the cache's one lock.  The counters may undercount under
    contention.

    Without a budget, stage memos grow for the lifetime of the cache
    (per-path schedules are the bulky part — one ``PathSchedule`` per
    distinct sub-fingerprint + lock set); call :meth:`clear` between
    independent long searches if memory matters more than cross-search hits.

    **Budgets** (``max_entries`` and/or ``max_bytes``) cap the LRU-managed
    memos — expansions and per-path schedules — for long-running
    deployments such as ``repro-cpg serve``, where one shared cache answers
    an unbounded request stream.  Entry sizes are the deterministic
    structural estimates of :func:`schedule_entry_cost` /
    :func:`expansion_entry_cost` (never ``sys.getsizeof`` or wall clocks, so
    eviction decisions replay identically on every host).  When a budget is
    exceeded, the victim is the **cheapest-to-recompute** entry among the
    ``_EVICTION_WINDOW`` least-recently-used ones (ties fall to the least
    recent), so recency decides *who competes* and stage cost decides *who
    goes* — an old-but-expensive artefact outlives a burst of cheap ones.
    An entry larger than ``max_bytes`` on its own is computed but never
    memoized, so occupancy never exceeds the byte budget.  Eviction is
    self-healing by construction: stages are pure, so a re-query after
    eviction recomputes a bit-identical value.  Evicting a schedule drops
    only that entry; an expansion structure leaves with the last memoized
    expansion built on it, so every map stays bounded by the budget.  Every
    cache keeps this bookkeeping; one without a budget
    simply never evicts (the bookkeeping costs no measurable time, see
    PERFORMANCE.md).
    """

    __slots__ = (
        "_expansions",
        "_structures",
        "_schedules",
        "_lock",
        "_max_entries",
        "_max_bytes",
        "_lru",
        "_occupancy_bytes",
        "_expansion_patterns",
        "_structure_users",
        "expansion_hits",
        "expansion_misses",
        "structure_hits",
        "structure_misses",
        "schedule_hits",
        "schedule_misses",
        "lru_evictions",
    )

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self._expansions: Dict[
            Tuple, Tuple[ExpandedGraph, Tuple[AlternativePath, ...]]
        ] = {}
        # Mapping-independent expansion structures (graph + alternative
        # paths), keyed by the crossing-edge pattern: candidates that only
        # shuffle processes between processors without co-locating (or
        # splitting) any connected pair share one structure — and everything
        # cached on its graph object (guards, topological order).
        self._structures: Dict[Tuple, ExpansionStructure] = {}
        # (path sub-fingerprint, lock-set key) -> schedule.
        self._schedules: Dict[Tuple, PathSchedule] = {}
        self._lock = threading.Lock()
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self._max_entries = max_entries or 0
        self._max_bytes = max_bytes or 0
        # Recency order of the LRU-managed entries: (kind, key) -> byte cost,
        # least recently used first.  Mutated only under _lock.
        self._lru: "OrderedDict[Tuple[str, Tuple], int]" = OrderedDict()
        self._occupancy_bytes = 0
        # The links that evict expansion structures with the LRU-managed
        # expansions: expansion key -> its crossing pattern, and pattern ->
        # memoized expansions built on it.
        self._expansion_patterns: Dict[Tuple, Tuple] = {}
        self._structure_users: Dict[Tuple, int] = {}
        self.expansion_hits = 0
        self.expansion_misses = 0
        self.structure_hits = 0
        self.structure_misses = 0
        self.schedule_hits = 0
        self.schedule_misses = 0
        self.lru_evictions = 0

    @property
    def stats(self) -> StageStats:
        """A snapshot of the stage-level hit/miss counters."""
        return StageStats(
            expansion_hits=self.expansion_hits,
            expansion_misses=self.expansion_misses,
            schedule_hits=self.schedule_hits,
            schedule_misses=self.schedule_misses,
            expansions=len(self._expansions),
            schedules=len(self._schedules),
            structure_hits=self.structure_hits,
            structure_misses=self.structure_misses,
            structures=len(self._structures),
            lru_evictions=self.lru_evictions,
            occupancy_bytes=self._occupancy_bytes,
            max_entries=self._max_entries,
            max_bytes=self._max_bytes,
        )

    # -- LRU bookkeeping (a cache without a budget never evicts) -------------

    @property
    def occupancy_bytes(self) -> int:
        """Estimated bytes held by the LRU-managed memos."""
        return self._occupancy_bytes

    def _touch(self, kind: str, key: Tuple) -> None:
        """Mark one LRU-managed entry as most recently used."""
        with self._lock:
            if (kind, key) in self._lru:
                self._lru.move_to_end((kind, key))

    def _record_locked(self, kind: str, key: Tuple, value, cost: int) -> bool:
        """Store one LRU-managed entry as most recent; True if it is new.

        The caller owns ``_lock`` (store + bookkeeping share it, so
        eviction can never orphan a stored value outside the recency order)
        and evicts back under budget once the entry's links are recorded.
        """
        previous = self._lru.pop((kind, key), None)
        if previous is not None:
            self._occupancy_bytes -= previous
        (self._expansions if kind == "expansion" else self._schedules)[key] = value
        self._lru[(kind, key)] = cost
        self._occupancy_bytes += cost
        return previous is None

    def _evict_to_budget_locked(self) -> None:
        """Evict until both budgets hold (caller owns ``_lock``)."""
        while self._lru and (
            (self._max_entries and len(self._lru) > self._max_entries)
            or (self._max_bytes and self._occupancy_bytes > self._max_bytes)
        ):
            window = list(islice(self._lru.items(), _EVICTION_WINDOW))
            # min() is stable, so equal costs fall to the least recent.
            (kind, key), _cost = min(window, key=lambda item: item[1])
            self._forget_locked(kind, key)
            self.lru_evictions += 1

    def _forget_locked(self, kind: str, key: Tuple) -> None:
        """Drop one memoized entry and what only it kept alive.

        The caller owns ``_lock``.
        """
        cost = self._lru.pop((kind, key), None)
        if cost is not None:
            self._occupancy_bytes -= cost
        if kind == "expansion":
            self._expansions.pop(key, None)
            pattern = self._expansion_patterns.pop(key, None)
            if pattern is not None:
                users = self._structure_users[pattern] - 1
                if users:
                    self._structure_users[pattern] = users
                else:
                    del self._structure_users[pattern]
                    self._structures.pop(pattern, None)
        else:
            self._schedules.pop(key, None)

    # -- stage probes (used by merge_candidate) ------------------------------

    def expansion(
        self,
        problem: ExplorationProblem,
        candidate: Candidate,
        pins: Optional[Dict[str, str]] = None,
    ) -> Tuple[ExpandedGraph, Tuple[AlternativePath, ...]]:
        """The expansion stage: expanded graph + enumerated paths, memoized.

        Two layers: the full expansion is keyed by everything it can observe
        (:meth:`ExplorationProblem.expansion_key`); on a miss, the
        mapping-independent *structure* (graph + alternative paths) is still
        reused across co-location patterns and only the bus-assignment layer
        is rebuilt.  A structure miss splices
        the base graph, derives no guard and enumerates no path: the
        structure's graph inherits the base graph's guards and its paths are
        built from :attr:`ExplorationProblem.base_paths` (both derived once
        per problem, on the first miss).  ``pins`` takes the candidate's
        already-filtered bus pins (empty dict = none) so callers holding
        them skip refiltering.
        """
        if pins is None:
            pins = problem.bus_assignment_for(candidate) or {}
        key = problem.expansion_key(candidate, pins=pins)
        cached = self._expansions.get(key)
        if cached is not None:
            self.expansion_hits += 1
            self._touch("expansion", key)
            return cached
        self.expansion_misses += 1
        mapping = problem.mapping_for(candidate)
        pattern = crossing_edges(problem.graph, mapping)
        structure = self._structures.get(pattern)
        if structure is None:
            self.structure_misses += 1
            structure = expansion_structure(
                problem.graph, pattern, problem.base_paths
            )
        else:
            self.structure_hits += 1
        paths = structure.paths
        expanded = assign_buses(
            structure,
            mapping,
            problem.architecture_for(candidate),
            bus_assignment=pins or None,
            bus_policy=problem.bus_policy,
        )
        cost = expansion_entry_cost(expanded, paths)
        if self._max_bytes and cost > self._max_bytes:
            return expanded, paths  # computed but never memoized: see store_schedule
        with self._lock:
            if self._record_locked("expansion", key, (expanded, paths), cost):
                # Link the entry to its structure (evicted with the last one).
                self._expansion_patterns[key] = pattern
                self._structure_users[pattern] = (
                    self._structure_users.get(pattern, 0) + 1
                )
                self._structures.setdefault(pattern, structure)
            self._evict_to_budget_locked()
        return expanded, paths

    def clear(self) -> None:
        """Drop every memoized stage (counters keep running totals).

        Entries are keyed by the values they cache, so clearing concurrently
        with an in-flight evaluation wastes that evaluation's memo entries
        but cannot corrupt them.
        """
        with self._lock:
            self._expansions.clear()
            self._structures.clear()
            self._schedules.clear()
            self._lru.clear()
            self._occupancy_bytes = 0
            self._expansion_patterns.clear()
            self._structure_users.clear()

    def holds_schedule(self, key: Tuple) -> bool:
        """Whether the per-path schedule memo holds ``key`` (counts nothing)."""
        return key in self._schedules

    def lookup_schedule(self, key: Tuple) -> Optional[PathSchedule]:
        """Probe the per-path schedule memo (counts the hit/miss)."""
        cached = self._schedules.get(key)
        if cached is not None:
            self.schedule_hits += 1
            self._touch("schedule", key)
        else:
            self.schedule_misses += 1
        return cached

    def store_schedule(self, key: Tuple, schedule: PathSchedule) -> None:
        """Record a freshly computed per-path schedule.

        An entry whose cost alone exceeds ``max_bytes`` is not memoized at
        all — the caller keeps the computed value, occupancy never exceeds
        the budget.
        """
        cost = schedule_entry_cost(schedule)
        if self._max_bytes and cost > self._max_bytes:
            return
        with self._lock:
            self._record_locked("schedule", key, schedule, cost)
            self._evict_to_budget_locked()


def _locks_key(
    locked_starts: Optional[Dict[str, float]],
    locked_broadcasts: Optional[Dict],
    ordered: bool,
) -> Tuple:
    """Hashable form of one schedule request's lock set.

    ``locked_broadcasts`` values are :class:`ScheduledTask` objects; only
    their primitive content enters the key.  ``ordered`` distinguishes
    adjustment requests (dispatch follows the original start order) from
    optimal ones — the hint *content* is derived from the path's optimal
    schedule and therefore already covered by the path sub-fingerprint.
    """
    starts = (
        tuple(sorted(locked_starts.items())) if locked_starts else ()
    )
    broadcasts = ()
    if locked_broadcasts:
        broadcasts = tuple(sorted(
            (
                str(condition),
                task.start,
                task.duration,
                task.pe.name if task.pe is not None else "",
            )
            for condition, task in locked_broadcasts.items()
        ))
    return (starts, broadcasts, ordered)


#: The lock-set key of an optimal (lock-free) path schedule.
_OPTIMAL = _locks_key(None, None, False)


class _StagedScheduler:
    """Memoizing facade the staged pipeline hands to the schedule merger.

    Every ``schedule`` request — the optimal per-path schedules *and* the
    locked re-adjustments the merger issues while walking its decision tree —
    is keyed by ``(path sub-fingerprint, lock set)`` in the shared
    :class:`StageCache`.  The inner scheduler is pure, so a request repeated
    for a later candidate whose relevant slice is unchanged (the common case
    under move-local search: the early decision-tree branches lock the same
    times) returns the memoized schedule without re-dispatching.

    Every request is timed as a ``path_schedule`` stage (the initial optimal
    schedules) or a ``merge_readjust`` stage (the locked re-scheduling
    requests the merger issues while walking its decision tree); the span
    records whether the memo answered (``hit``).  :meth:`cached` reads an
    optimal schedule only when the memo holds it.
    """

    __slots__ = ("_cache", "_inner", "_path_keys", "_tracer")

    def __init__(
        self,
        cache: StageCache,
        inner: PathListScheduler,
        path_keys: Dict,
        tracer=None,
    ) -> None:
        self._cache = cache
        self._inner = inner
        self._path_keys = path_keys
        self._tracer = tracer

    def schedule(
        self,
        path: AlternativePath,
        *,
        locked_starts: Optional[Dict[str, float]] = None,
        locked_broadcasts: Optional[Dict] = None,
        order_hint: Optional[Dict[str, float]] = None,
    ) -> PathSchedule:
        locked = bool(locked_starts or locked_broadcasts) or order_hint is not None
        with _timed_stage(
            self._tracer,
            "stage.merge_readjust" if locked else "stage.path_schedule",
            **({"path": str(path.label)} if self._tracer is not None else {}),
        ) as outcome:
            key = (
                self._path_keys[path.label],
                _locks_key(locked_starts, locked_broadcasts, order_hint is not None),
            )
            schedule = self._cache.lookup_schedule(key)
            outcome["hit"] = schedule is not None
            if schedule is None:
                schedule = self._inner.schedule(
                    path,
                    locked_starts=locked_starts,
                    locked_broadcasts=locked_broadcasts,
                    order_hint=order_hint,
                )
                self._cache.store_schedule(key, schedule)
        return schedule

    def cached(self, path: AlternativePath) -> Optional[PathSchedule]:
        """The path's optimal schedule if the memo holds it, else None.

        Only a hit is counted (and timed as a ``path_schedule`` stage): a
        path the memo lacks is probed, and counted, when it is scheduled.
        """
        if not self._cache.holds_schedule((self._path_keys[path.label], _OPTIMAL)):
            return None
        return self.schedule(path)


@dataclass(frozen=True)
class CostWeights:
    """Relative weights of the scalar-cost components (see module docstring).

    The default optimises ``delta_max`` alone, matching the paper's metric;
    ``load_imbalance`` is a ratio, so its weight is interpreted in the same
    time unit as the delays (weight 10 adds 10 time units per 100% imbalance).
    ``architecture_cost`` weights the platform cost into the scalar;
    ``processor_cost`` and ``bus_cost`` are the per-element units that make up
    that platform cost (they also feed the fourth objective-vector component,
    whatever the scalar weight is).  ``bus_imbalance`` weights bus contention
    — like ``load_imbalance`` it is a ratio, interpreted in the same time
    unit as the delays.
    """

    delta_max: float = 1.0
    mean_path_delay: float = 0.0
    load_imbalance: float = 0.0
    architecture_cost: float = 0.0
    processor_cost: float = 1.0
    bus_cost: float = 0.5
    bus_imbalance: float = 0.0


@dataclass(frozen=True)
class CandidateEvaluation:
    """The scored outcome of merging one candidate's schedule table."""

    fingerprint: str
    cost: float
    feasible: bool
    delta_max: float = 0.0
    delta_m: float = 0.0
    mean_path_delay: float = 0.0
    load_imbalance: float = 0.0
    architecture_cost: float = 0.0
    bus_imbalance: float = 0.0
    paths: int = 0
    error: str = ""

    @property
    def delay_increase_percent(self) -> float:
        """How far the table's worst case exceeds the ideal delay, in percent."""
        if self.delta_m <= 0:
            return 0.0
        return 100.0 * (self.delta_max - self.delta_m) / self.delta_m

    @property
    def objectives(self) -> Tuple[float, float, float, float, float]:
        """The minimised objective vector (see ``pareto.OBJECTIVE_NAMES``)."""
        return (
            self.delta_max,
            self.mean_path_delay,
            self.load_imbalance,
            self.architecture_cost,
            self.bus_imbalance,
        )


def load_imbalance_of(problem: ExplorationProblem, candidate: Candidate) -> float:
    """``max processor load / mean processor load - 1`` under a candidate.

    Loads sum the execution time of every ordinary process on its assigned
    processor (communications are excluded here: their bus placement is
    priced separately by :func:`bus_imbalance_of`).  With architecture
    sizing, the mean runs
    over the candidate's *active* processors, so emptier, smaller platforms
    are not penalised for processors they no longer instantiate.
    """
    loads: Dict[str, float] = {
        name: 0.0 for name in problem.processors_for(candidate)
    }
    graph = problem.graph
    architecture = problem.architecture_for(candidate)
    for name, pe_name in candidate.assignment:
        loads[pe_name] += graph[name].duration_on(architecture[pe_name])
    mean = sum(loads.values()) / len(loads) if loads else 0.0
    if mean <= 0:
        return 0.0
    return max(loads.values()) / mean - 1.0


def bus_imbalance_of(architecture: Architecture, expanded: ExpandedGraph) -> float:
    """``max bus load / mean bus load - 1`` over an expanded graph.

    Loads sum the duration of every communication process on its assigned bus
    (scaled by bus speed, like the scheduler sees it); the mean runs over
    *every* bus of the architecture, so leaving a bus idle on a multi-bus
    platform registers as contention.  Zero when the architecture has fewer
    than two buses or nothing communicates.
    """
    if len(architecture.buses) < 2:
        return 0.0
    # The expansion already accumulated these sums while assigning buses
    # (ExpandedGraph.bus_loads, shared with the least_loaded policy); buses
    # that carry nothing still enter the mean at zero load.
    loads: Dict[str, float] = {
        pe.name: expanded.bus_loads.get(pe.name, 0.0) for pe in architecture.buses
    }
    mean = sum(loads.values()) / len(loads)
    if mean <= 0:
        return 0.0
    return max(loads.values()) / mean - 1.0


def architecture_cost_of(
    problem: ExplorationProblem,
    candidate: Candidate,
    weights: CostWeights = CostWeights(),
) -> float:
    """Platform cost of a candidate in abstract units.

    ``processor_cost`` per programmable processor plus ``bus_cost`` per bus of
    the candidate's (possibly sized) architecture.  Hardware processors are
    not sizable and carry no cost here.
    """
    architecture = problem.architecture_for(candidate)
    return (
        weights.processor_cost * len(architecture.programmable_processors)
        + weights.bus_cost * len(architecture.buses)
    )


_PIPELINE_ERRORS = (
    ArchitectureError, MappingError, SchedulingError, MergeConflictError
)


@dataclass
class _PathStage:
    """One candidate between expansion and merge: its paths and their schedules.

    ``path_schedules`` holds the optimal schedules the candidate has so far,
    by path label, and ``longest`` the largest of their delays: δ_M once
    every path is scheduled.  ``terms`` are the merge-free cost terms (load
    imbalance, platform cost, bus imbalance) and ``bound`` the cost
    expression with ``longest`` in place of δ_max; the bound phase sets
    both, and each further schedule can only raise the bound.
    """

    expanded: ExpandedGraph
    architecture: Architecture
    paths: Tuple[AlternativePath, ...]
    scheduler: _StagedScheduler
    path_schedules: Dict = field(default_factory=dict)
    longest: float = 0.0
    terms: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    bound: float = 0.0

    @property
    def complete(self) -> bool:
        """Whether every path is scheduled (the bound is then δ_M's)."""
        return len(self.path_schedules) == len(self.paths)

    def add(
        self,
        path: AlternativePath,
        schedule: PathSchedule,
        seen: Optional[Dict] = None,
    ) -> None:
        """Record one path's optimal schedule (and its delay in ``seen``)."""
        self.path_schedules[path.label] = schedule
        delay = schedule.delay
        if delay > self.longest:
            self.longest = delay
        if seen is not None and delay > seen.get(path.label, -1.0):
            seen[path.label] = delay

    def schedule_next(self, seen: Dict) -> None:
        """Schedule the path most likely to raise the bound, and record it.

        ``seen`` maps a path label to the largest delay any candidate of the
        batch has had on it so far: the label with the largest one goes
        first, labels not seen yet follow in enumeration order.
        """
        path = min(
            (path for path in self.paths if path.label not in self.path_schedules),
            key=lambda path: (
                path.label not in seen, -seen.get(path.label, 0.0), path.index
            ),
        )
        self.add(path, self.scheduler.schedule(path), seen)

    def merge(self, tracer=None) -> MergeResult:
        merger = ScheduleMerger(
            self.expanded.graph, self.expanded.mapping, self.architecture,
            self.scheduler,
        )
        # Enumeration order, whatever order the schedules were taken in.
        schedules = {path.label: self.path_schedules[path.label] for path in self.paths}
        with _timed_stage(tracer, "stage.merge"):
            return merger.merge(paths=list(self.paths), path_schedules=schedules)


def _schedule_paths(
    problem: ExplorationProblem,
    candidate: Candidate,
    stage_cache: Optional[StageCache],
    tracer,
    seen: Optional[Dict] = None,
) -> _PathStage:
    """Expand, key and schedule every path of one candidate (no merge).

    With ``seen`` (the batch's delays by path label, see
    :meth:`_PathStage.schedule_next`) the candidate takes only the
    schedules the stage cache already holds, and records their delays in
    ``seen``.
    """
    if stage_cache is None:
        stage_cache = StageCache()
    architecture = problem.architecture_for(candidate)
    pins = problem.bus_assignment_for(candidate) or {}
    with _timed_stage(tracer, "stage.expansion"):
        expanded, paths = stage_cache.expansion(problem, candidate, pins=pins)
    inner = PathListScheduler(
        expanded.graph,
        expanded.mapping,
        architecture,
        priority_function=priority_function(candidate.priority_function),
        priority_bias=candidate.bias_dict,
    )
    # Non-path-local priority functions key every path on the full expansion;
    # build that key once per candidate (reusing the filtered pins), not once
    # per path.
    expansion_key = None
    if candidate.priority_function not in PATH_LOCAL_PRIORITY_FUNCTIONS:
        expansion_key = problem.expansion_key(candidate, pins=pins)

    with _timed_stage(tracer, "stage.path_keys", paths=len(paths)):
        path_keys = {
            path.label: problem.path_schedule_key(
                candidate, path, expanded, expansion_key=expansion_key
            )
            for path in paths
        }
    scheduler = _StagedScheduler(stage_cache, inner, path_keys, tracer=tracer)
    stage = _PathStage(expanded, architecture, paths, scheduler)
    for path in paths:
        schedule = scheduler.schedule(path) if seen is None else scheduler.cached(path)
        if schedule is not None:
            stage.add(path, schedule, seen)
    return stage


def merge_candidate(
    problem: ExplorationProblem,
    candidate: Candidate,
    stage_cache: Optional[StageCache] = None,
    tracer=None,
) -> Tuple[ExpandedGraph, MergeResult]:
    """Run the merge pipeline for one candidate through a stage cache.

    Expand communications, schedule every alternative path, merge: the
    expansion and the per-path schedules are looked up by sub-fingerprint
    in ``stage_cache`` first, so a move-local candidate recomputes only the
    paths its move can actually affect.  Without a ``stage_cache`` the
    pipeline runs over a private one for this call.

    The result is bit-identical to the plain pipeline (expand, then
    :meth:`ScheduleMerger.merge` with a :class:`PathListScheduler`): the
    merger gets the same paths (enumeration is part of the memoized
    expansion stage, preserving order) and the same per-path schedules (the
    scheduler is deterministic and the sub-fingerprints cover everything it
    observes).  Raises the pipeline's errors (``MappingError`` etc.);
    callers wanting infinite-cost semantics use :func:`evaluate_candidate`.

    ``tracer`` (see :mod:`repro.observability`) times the stages:
    ``expansion``, ``path_keys`` (the path sub-fingerprints),
    ``path_schedule`` per alternative path, ``merge`` (wall time including
    re-adjustments) and ``merge_readjust`` (the locked re-scheduling share
    within the merge).  Timing never changes the result.
    """
    stage = _schedule_paths(problem, candidate, stage_cache, tracer)
    return stage.expanded, stage.merge(tracer)


def _weighted_cost(
    weights: CostWeights,
    worst_delay: float,
    mean_path_delay: float,
    terms: Tuple[float, float, float],
) -> float:
    """The scalar cost; the bound phase and the merge phase both sum here.

    Summing the terms in one order for both keeps ``bound <= cost`` exact
    under IEEE rounding, which is monotone: the bound passes δ_M or a
    smaller delay (never above δ_max) and a zero mean path delay.
    """
    imbalance, platform_cost, contention = terms
    return (
        weights.delta_max * worst_delay
        + weights.mean_path_delay * mean_path_delay
        + weights.load_imbalance * imbalance
        + weights.architecture_cost * platform_cost
        + weights.bus_imbalance * contention
    )


def _infeasible(candidate: Candidate, error: Exception) -> CandidateEvaluation:
    return CandidateEvaluation(
        fingerprint=candidate.fingerprint,
        cost=_INFEASIBLE_COST,
        feasible=False,
        error=str(error),
    )


def _bound_phase(
    problem: ExplorationProblem,
    candidate: Candidate,
    weights: CostWeights,
    stage_cache: Optional[StageCache],
    tracer,
    seen: Optional[Dict] = None,
) -> Union[_PathStage, CandidateEvaluation]:
    """Phase one: path schedules, merge-free terms and the bound.

    Every path is scheduled unless ``seen`` is given (see
    :func:`_schedule_paths`).  Returns the exact (infeasible) evaluation
    instead when the candidate already fails here.
    """
    try:
        stage = _schedule_paths(problem, candidate, stage_cache, tracer, seen)
    except _PIPELINE_ERRORS as error:
        return _infeasible(candidate, error)
    stage.terms = (
        load_imbalance_of(problem, candidate),
        architecture_cost_of(problem, candidate, weights),
        bus_imbalance_of(stage.architecture, stage.expanded),
    )
    stage.bound = _weighted_cost(weights, stage.longest, 0.0, stage.terms)
    return stage


def _merge_phase(
    candidate: Candidate,
    stage: _PathStage,
    weights: CostWeights,
    tracer,
) -> CandidateEvaluation:
    """Phase two: merge the path schedules and score the table."""
    try:
        result = stage.merge(tracer)
    except _PIPELINE_ERRORS as error:
        return _infeasible(candidate, error)
    path_delays = [result.table_path_delays[path.label] for path in result.paths]
    mean_path_delay = sum(path_delays) / len(path_delays)
    imbalance, platform_cost, contention = stage.terms
    return CandidateEvaluation(
        fingerprint=candidate.fingerprint,
        cost=_weighted_cost(weights, result.delta_max, mean_path_delay, stage.terms),
        feasible=True,
        delta_max=result.delta_max,
        delta_m=result.delta_m,
        mean_path_delay=mean_path_delay,
        load_imbalance=imbalance,
        architecture_cost=platform_cost,
        bus_imbalance=contention,
        paths=len(result.paths),
    )


def evaluate_candidate(
    problem: ExplorationProblem,
    candidate: Candidate,
    weights: CostWeights = CostWeights(),
    stage_cache: Optional[StageCache] = None,
    tracer=None,
) -> CandidateEvaluation:
    """Score one candidate by running the merge pipeline end to end.

    The bound phase (expansion, path schedules, merge-free cost terms)
    followed by the merge phase.  Infeasible candidates (unconnectable
    communications, unschedulable paths, unresolvable merge conflicts,
    malformed sized platforms) get infinite cost instead of raising, so a
    search can step over them.  A ``stage_cache`` shared across calls makes
    the pipeline incremental (see :func:`merge_candidate`); the evaluation
    is bit-identical either way.

    ``tracer`` wraps the whole evaluation in an ``evaluate`` span and times
    the pipeline stages inside (see :func:`merge_candidate`).
    """
    with _timed_stage(tracer, "evaluate") as outcome:
        stage = _bound_phase(problem, candidate, weights, stage_cache, tracer)
        if isinstance(stage, _PathStage):
            stage = _merge_phase(candidate, stage, weights, tracer)
        outcome["feasible"] = stage.feasible
    return stage


class BatchStats:
    """Running totals of batched neighbourhood evaluation.

    ``batches``/``candidates`` count the fresh batches a
    :class:`~repro.exploration.CachedEvaluator` sent to its pool and the
    candidates they held; ``payload_bytes`` accumulates the serialized bytes
    shipped to evaluation-pool workers (pickled-once shared problem buffers
    plus per-batch task payloads — zero for in-process evaluation).
    All counters are deterministic, so snapshots are safe to surface in
    byte-compared JSON documents.
    """

    __slots__ = ("batches", "candidates", "payload_bytes")

    def __init__(self) -> None:
        self.batches = 0
        self.candidates = 0
        self.payload_bytes = 0

    def record_batch(self, size: int, payload_bytes: int = 0) -> None:
        """Count one evaluated batch of ``size`` candidates."""
        self.batches += 1
        self.candidates += size
        self.payload_bytes += payload_bytes

    @property
    def mean_batch_size(self) -> float:
        return self.candidates / self.batches if self.batches else 0.0

    def snapshot(self) -> Dict[str, float]:
        """The ``batch`` stats block of ``repro-cpg explore --json``."""
        return {
            "batches": self.batches,
            "candidates": self.candidates,
            "mean_batch_size": self.mean_batch_size,
            "payload_bytes": self.payload_bytes,
        }


@dataclass(frozen=True)
class TabuSelection:
    """Tabu search's choice rule, handed down with a batch as data.

    A neighbour is *admissible* when it is feasible and either not tabu or
    cheaper than ``aspiration`` (the best cost found so far); tabu search
    moves to the admissible neighbour with the least ``(cost,
    fingerprint)``.  ``known`` holds evaluations the caller already has
    (whole-candidate cache hits of the same neighbourhood): they enter
    :func:`evaluate_neighbourhood`'s merge order as exact entries.
    """

    tabu: FrozenSet[str] = frozenset()
    aspiration: float = _INFEASIBLE_COST
    known: Tuple[CandidateEvaluation, ...] = ()

    def admissible(self, evaluation: CandidateEvaluation) -> bool:
        """Whether tabu search may move to this evaluated neighbour."""
        return evaluation.feasible and (
            evaluation.fingerprint not in self.tabu
            or evaluation.cost < self.aspiration
        )


class NeighbourhoodScores(list):
    """One scored batch: evaluations in input order, None where a merge was pruned.

    ``paths_pruned`` counts the paths of those pruned neighbours that were
    neither read from the stage cache nor scheduled.
    """

    paths_pruned = 0


def evaluate_neighbourhood(
    problem: ExplorationProblem,
    candidates,
    weights: CostWeights = CostWeights(),
    stage_cache: Optional[StageCache] = None,
    tracer=None,
    select: Optional[TabuSelection] = None,
) -> NeighbourhoodScores:
    """Score a whole move batch against one shared expansion state.

    Without ``select`` this is :func:`evaluate_candidate` mapped over
    ``candidates`` in order.  With ``select`` (tabu search's rule, see
    :class:`TabuSelection`), and while the bound below is a lower bound — a
    zero ``mean_path_delay`` weight and a non-negative ``delta_max`` weight
    — the batch is scored one path schedule at a time:

    * each candidate is expanded and keyed, and takes the path schedules the
      stage cache already holds (its ``evaluate`` span).  Its bound is the
      cost expression with the longest of those delays in place of δ_max:
      the longest path runs in exactly δ_M (Section 6), so δ_max >= δ_M >=
      any one path's delay;
    * a heap keyed by ``(bound, fingerprint)`` then takes the least
      candidate, again and again.  One with paths left schedules the next
      (see :meth:`_PathStage.schedule_next`) and goes back with its raised
      bound; one with every path scheduled is merged.  The loop stops once
      the best admissible ``(cost, fingerprint)`` so far is below the
      heap's least key: no candidate left can be chosen, and those come
      back as None, their unscheduled paths counted in
      ``paths_pruned``.  With no admissible candidate every one is merged,
      so the caller's fallback to the best of all stays exact.  A merged
      candidate whose exact cost is below its bound raises ``RuntimeError``
      naming it.

    A partial bound never exceeds the candidate's δ_M bound, so candidates
    merge in ascending ``(δ_M bound, fingerprint)`` order and the same ones
    are pruned whichever paths were scheduled first (docs/exploration.md,
    "Bound-ordered tabu selection").

    This is the one in-process scoring call of
    :class:`~repro.exploration.EvaluationPool`.
    """
    if select is None or not (weights.mean_path_delay == 0 and weights.delta_max >= 0):
        return NeighbourhoodScores(
            evaluate_candidate(problem, candidate, weights, stage_cache, tracer)
            for candidate in candidates
        )
    if stage_cache is None:
        stage_cache = StageCache()
    candidates = list(candidates)
    results = NeighbourhoodScores([None] * len(candidates))
    stages: Dict[int, _PathStage] = {}
    seen: Dict = {}  # path label -> the largest delay of the batch so far
    for index, candidate in enumerate(candidates):
        with _timed_stage(tracer, "evaluate") as outcome:
            stage = _bound_phase(
                problem, candidate, weights, stage_cache, tracer, seen
            )
            if isinstance(stage, _PathStage):
                outcome["bound"] = stage.bound
                stages[index] = stage
            else:
                outcome["feasible"] = False
                results[index] = stage
    heap = [
        (stage.bound, candidates[index].fingerprint, index)
        for index, stage in stages.items()
    ]
    heapify(heap)
    best = min(
        (
            (known.cost, known.fingerprint)
            for known in select.known
            if select.admissible(known)
        ),
        default=None,
    )
    while heap and (best is None or not best < heap[0][:2]):
        _, fingerprint, index = heap[0]
        stage, candidate = stages[index], candidates[index]
        if not stage.complete:
            try:
                stage.schedule_next(seen)
            except _PIPELINE_ERRORS as error:
                heappop(heap)
                results[index] = _infeasible(candidate, error)
                continue
            stage.bound = _weighted_cost(weights, stage.longest, 0.0, stage.terms)
            heapreplace(heap, (stage.bound, fingerprint, index))
            continue
        heappop(heap)
        evaluation = _merge_phase(candidate, stage, weights, tracer)
        if evaluation.cost < stage.bound:
            raise RuntimeError(
                f"candidate {candidate.fingerprint} costs {evaluation.cost!r}, "
                f"below its delta_M bound {stage.bound!r}; the bound that "
                "ordered its batch is unsound"
            )
        key = (evaluation.cost, fingerprint)
        if select.admissible(evaluation) and (best is None or key < best):
            best = key
        results[index] = evaluation
    results.paths_pruned = sum(
        len(stages[index].paths) - len(stages[index].path_schedules)
        for _, _, index in heap
    )
    return results
