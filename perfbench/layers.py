"""Per-layer spans, recorded from outside the program.

The benchmark never edits ``src/repro``.  A traced run instead replaces each
layer's public entry point, at the name its callers resolve, with a wrapper
that records a span (name, thread, start, end, self time) and restores every
original afterwards.  Methods are patched on their class; functions are
patched in every ``repro`` module that imported them by name.

Self time is a span's duration minus the time its direct child spans cover
(children on the same thread nest strictly, so their durations never
overlap).  Spans stay in memory and are written out when the run ends.

Clock: :func:`time.monotonic`, i.e. ``CLOCK_MONOTONIC`` on Linux, which is
shared by every process on the host, so spans written by the server process
can be cut to the load generator's timed window.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.monotonic

#: One recorded span: (name, thread id, start, end, self seconds).
Span = Tuple[str, int, float, float, float]
#: One counter increment measured at a layer boundary: (name, time, value).
Event = Tuple[str, float, float]

MERGE = "scheduling.merge"


class Recorder:
    """In-memory span and counter store with patch/restore of entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: List[Event] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        # list.append is atomic, so job threads need no lock here.
        self.events.append((name, clock(), value))

    def wrap(
        self,
        name: str,
        fn: Callable,
        name_of: Optional[Callable] = None,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``name_of(stack, args, kwargs)`` picks the span name per call (the
        stack holds the enclosing spans of this thread); ``before(args)``
        returns a token handed to ``after(token, args, result)`` when the
        call returns normally, for counters measured at the boundary.
        """
        stack_of = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_name = name if name_of is None else name_of(stack, args, kwargs)
            token = before(args) if before is not None else None
            frame = [span_name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append(
                    (span_name, threading.get_ident(), start, end,
                     duration - frame[1])
                )
            if after is not None:
                after(token, args, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch_method(self, cls, attribute: str, name: str, **hooks) -> None:
        original = cls.__dict__[attribute]
        setattr(cls, attribute, self.wrap(name, original, **hooks))
        self._patches.append((cls, attribute, original))

    def patch_function(self, fn: Callable, name: str, **hooks) -> None:
        """Patch ``fn`` in every loaded ``repro`` module that holds it."""
        wrapper = self.wrap(name, fn, **hooks)
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attribute, wrapper)
                    self._patches.append((module, attribute, fn))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        """Patch every program layer entry point for the duration of the block."""
        try:
            install_program_layers(self)
            yield self
        finally:
            self.restore()

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write spans and events as JSON lines (``["span", ...]``)."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(["span", *span]) + "\n")
            for event in self.events:
                handle.write(json.dumps(["event", *event]) + "\n")


def read_trace(path: str) -> Tuple[List[Span], List[Event]]:
    spans: List[Span] = []
    events: List[Event] = []
    with open(path) as handle:
        for line in handle:
            kind, *record = json.loads(line)
            (spans if kind == "span" else events).append(tuple(record))
    return spans, events


# -- the layer entry points ------------------------------------------------------


def _schedule_name(stack: list, args, kwargs) -> str:
    """A list-scheduler call inside a merge that carries locks is a readjust.

    The merger's own first pass (``ScheduleMerger.merge`` without
    precomputed path schedules, as ``repro-cpg schedule`` runs it) schedules
    every path lock-free; those calls count as optimal path schedules.
    """
    locked = (
        bool(kwargs.get("locked_starts") or kwargs.get("locked_broadcasts"))
        or kwargs.get("order_hint") is not None
    )
    if locked and any(frame[0] == MERGE for frame in stack):
        return "scheduling.readjust"
    return "scheduling.schedule"


def install_program_layers(recorder: Recorder) -> None:
    from repro.exploration import (
        CachedEvaluator,
        ExplorationProblem,
        Explorer,
        NeighborhoodSampler,
        StageCache,
    )
    from repro.io.serialization import SystemDescription, system_from_dict
    from repro.scheduling import PathListScheduler, ScheduleMerger
    from repro.simulation import validate_merge_result

    def expansion_before(args):
        cache = args[0]
        return (cache.expansion_hits, cache.structure_hits, cache.structure_misses)

    def expansion_after(token, args, _result):
        cache = args[0]
        hits, structure_hits, structure_misses = token
        recorder.count("graph.expand_probes")
        recorder.count("graph.expand_hits", cache.expansion_hits - hits)
        recorder.count("graph.structure_hits", cache.structure_hits - structure_hits)
        recorder.count(
            "graph.structure_probes",
            (cache.structure_hits - structure_hits)
            + (cache.structure_misses - structure_misses),
        )

    def validate_after(_token, _args, report):
        recorder.count("simulation.paths_checked", report.paths_checked)

    recorder.patch_method(
        StageCache, "expansion", "graph.expand",
        before=expansion_before, after=expansion_after,
    )
    recorder.patch_method(SystemDescription, "expand", "graph.expand")
    recorder.patch_method(
        PathListScheduler, "schedule", "scheduling.schedule",
        name_of=_schedule_name,
    )
    recorder.patch_method(ScheduleMerger, "merge", MERGE)
    recorder.patch_method(ExplorationProblem, "path_schedule_key", "exploration.keys")
    recorder.patch_method(ExplorationProblem, "expansion_key", "exploration.keys")
    recorder.patch_method(NeighborhoodSampler, "sample", "exploration.moves")
    recorder.patch_method(CachedEvaluator, "evaluate_many", "exploration.evaluate")
    recorder.patch_method(Explorer, "explore", "exploration.engine")
    recorder.patch_function(
        validate_merge_result, "simulation.validate", after=validate_after
    )
    recorder.patch_function(system_from_dict, "io.load")


def route_of(method: str, path: str) -> str:
    """The service route of one client request: ``submit``, ``status``, ..."""
    segments = path.split("?", 1)[0].strip("/").split("/")
    if segments[0] == "jobs":
        if len(segments) == 1:
            return "submit" if method == "POST" else "jobs"
        return "result" if len(segments) > 2 else "status"
    return segments[0] or "root"


def install_client_layer(recorder: Recorder) -> None:
    from repro.service import ServiceClient

    def request_name(_stack, args, _kwargs):
        return "service.request." + route_of(args[1], args[2])

    recorder.patch_method(
        ServiceClient, "request", "service.request", name_of=request_name
    )


# -- aggregation -----------------------------------------------------------------


def in_window(spans: Iterable[Span], start: float, end: float) -> List[Span]:
    return [span for span in spans if span[2] >= start and span[3] <= end]


def event_totals(events: Iterable[Event], start: float, end: float) -> Dict[str, float]:
    table: Dict[str, float] = {}
    for name, at, value in events:
        if start <= at <= end:
            table[name] = table.get(name, 0) + value
    return table


def totals(spans: Sequence[Span]) -> Dict[str, Tuple[int, float, float]]:
    """name -> (calls, summed self seconds, summed wall seconds)."""
    table: Dict[str, Tuple[int, float, float]] = {}
    for name, _thread, start, end, self_seconds in spans:
        calls, self_total, wall_total = table.get(name, (0, 0.0, 0.0))
        table[name] = (calls + 1, self_total + self_seconds, wall_total + end - start)
    return table
