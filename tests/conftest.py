"""Shared fixtures: the paper's Fig. 1 example and a few small hand-built systems.

Also installs a per-test wall-clock timeout (SIGALRM-based, POSIX main thread
only) so a hung evaluation worker or a deadlocked pool aborts the single test
with a traceback instead of wedging the whole suite.  Configure with the
``REPRO_TEST_TIMEOUT`` environment variable (seconds; ``0`` disables; default
300).
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro import (
    Architecture,
    CPGBuilder,
    Condition,
    Mapping,
    bus,
    hardware,
    programmable,
)
from repro.data import load_fig1_example
from repro.graph import expand_communications
from repro.io import system_to_dict


@pytest.fixture(scope="session")
def fig1():
    """The paper's Fig. 1 system (graph, architecture, mapping, expansion)."""
    return load_fig1_example()


@pytest.fixture(scope="session")
def fig1_merge_result(fig1):
    """The merged schedule table of the Fig. 1 system (computed once)."""
    from repro import ScheduleMerger

    return ScheduleMerger(fig1.graph, fig1.expanded_mapping).merge()


def plain_merge(problem, candidate):
    """Merge one explorer candidate through the plain, cache-free pipeline.

    ``expand_communications`` → ``PathListScheduler`` (the candidate's
    priority function and bias) → ``ScheduleMerger.merge()``: the code
    ``repro-cpg schedule`` runs and the golden tables pin.  The staged
    evaluation is checked against this independent reference.
    """
    from repro import ScheduleMerger
    from repro.scheduling import PathListScheduler, priority_function

    architecture = problem.architecture_for(candidate)
    expanded = expand_communications(
        problem.graph,
        problem.mapping_for(candidate),
        architecture,
        bus_assignment=problem.bus_assignment_for(candidate),
        bus_policy=problem.bus_policy,
    )
    scheduler = PathListScheduler(
        expanded.graph,
        expanded.mapping,
        architecture,
        priority_function=priority_function(candidate.priority_function),
        priority_bias=candidate.bias_dict,
    )
    return ScheduleMerger(
        expanded.graph, expanded.mapping, architecture, scheduler
    ).merge()


@pytest.fixture(scope="session")
def reference_merge():
    """:func:`plain_merge`, as a fixture (test modules never import conftest)."""
    return plain_merge


@pytest.fixture()
def two_processor_architecture():
    """Two programmable processors, one ASIC and one bus (tau0 = 1)."""
    return Architecture(
        processors=[programmable("pe1"), programmable("pe2"), hardware("hw1")],
        buses=[bus("bus1")],
        condition_broadcast_time=1.0,
    )


def build_small_conditional_system(architecture: Architecture):
    """A five-process graph with one condition, mapped on two processors.

    Structure::

        P1 (pe1, computes C) --C--> P2 (pe2) ----\\
           \\--!C--> P3 (pe1) --------------------> P5 (pe2)
        P4 (pe2) --------------------------------/
    """
    C = Condition("C")
    builder = CPGBuilder("small")
    builder.process("P1", 4.0)
    builder.process("P2", 3.0)
    builder.process("P3", 5.0)
    builder.process("P4", 2.0)
    builder.process("P5", 1.0)
    builder.edge("P1", "P2", condition=C.true(), communication_time=2.0)
    builder.edge("P1", "P3", condition=C.false())
    builder.edge("P2", "P5")
    builder.edge("P3", "P5", communication_time=2.0)
    builder.edge("P4", "P5")
    graph = builder.build()

    mapping = Mapping(architecture)
    mapping.assign("P1", architecture["pe1"])
    mapping.assign("P3", architecture["pe1"])
    mapping.assign("P2", architecture["pe2"])
    mapping.assign("P4", architecture["pe2"])
    mapping.assign("P5", architecture["pe2"])
    expanded = expand_communications(graph, mapping, architecture)
    return graph, mapping, expanded


@pytest.fixture()
def small_system(two_processor_architecture):
    """The small one-condition system plus its communication expansion."""
    graph, mapping, expanded = build_small_conditional_system(
        two_processor_architecture
    )
    return {
        "architecture": two_processor_architecture,
        "graph": graph,
        "mapping": mapping,
        "expanded": expanded,
    }


@pytest.fixture()
def malformed_system_documents(small_system):
    """Case name -> (broken system document, the entry its error must name,
    what the error must say).

    Each document is the small system with one entry the schema rejects;
    edge 0 is ``P1 -C-> P2`` and edge 1 is ``P1 -!C-> P3``.
    """

    def valid():
        return system_to_dict(
            small_system["graph"],
            small_system["architecture"],
            small_system["mapping"],
            name="broken",
        )

    def broken(section, index, key, value):
        document = valid()
        document[section][index][key] = value
        return document

    def replaced(key, value, *path):
        document = valid()
        entry = document
        for step in path:
            entry = entry[step]
        entry[key] = value
        return document

    cyclic = valid()
    # P1 and P4 are the roots; each gains a predecessor on a cycle.
    cyclic["edges"] += [{"src": "P5", "dst": "P1"}, {"src": "P5", "dst": "P4"}]

    edge_0, edge_1, process = "edge 'P1' -> 'P2'", "edge 'P1' -> 'P3'", "process 'P1'"
    return {
        "self-loop": (
            broken("edges", 0, "dst", "P1"), "edge 'P1' -> 'P1'", "self-loop"
        ),
        "negative execution_time": (
            broken("processes", 0, "execution_time", -1.0), process, "negative"
        ),
        "negative communication_time": (
            broken("edges", 0, "communication_time", -2.0), edge_0, "negative"
        ),
        "non-string condition": (
            broken("edges", 0, "condition", 7), edge_0, "non-empty string"
        ),
        "string value": (
            broken("edges", 1, "value", "false"), edge_1, "'value' must be a boolean"
        ),
        "string is_conjunction": (
            broken("processes", 0, "is_conjunction", "no"), process, "must be a boolean"
        ),
        "non-object execution_times": (
            broken("processes", 0, "execution_times", [4.0]),
            process,
            "object of numbers",
        ),
        "non-numeric execution_times": (
            broken("processes", 0, "execution_times", {"pe1": "fast"}),
            process,
            "object of numbers",
        ),
        "execution_times on an unknown element": (
            broken("processes", 0, "execution_times", {"pe99": 1.0}),
            process,
            "'pe99', which is not a processor of the architecture",
        ),
        "execution_times on a bus": (
            broken("processes", 0, "execution_times", {"bus1": 1.0}),
            process,
            "'bus1', which is not a processor of the architecture",
        ),
        "cyclic": (cyclic, "process graph must be acyclic", "acyclic"),
        "boolean execution_time": (
            broken("processes", 0, "execution_time", True), process, "must be a number"
        ),
        "string communication_time": (
            broken("edges", 0, "communication_time", "3"), edge_0, "must be a number"
        ),
        "boolean speed": (
            replaced("speed", True, "architecture", "processors", 0),
            "processor 'pe1'",
            "must be a number",
        ),
        "string condition_broadcast_time": (
            replaced("condition_broadcast_time", "1", "architecture"),
            "architecture",
            "must be a number",
        ),
        "non-string name": (
            replaced("name", 5), "system document", "'name' must be a non-empty string"
        ),
        "object name": (
            replaced("name", {}), "system document", "'name' must be a non-empty string"
        ),
    }


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf: wall-clock smoke checks against the BENCH_core.json baseline "
        "(deselect with -m 'not perf' on constrained machines)",
    )


_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "300"))

# Background resources (service threads, event loops) the timeout must tear
# down: a bare TimeoutError would otherwise leak the server thread past the
# test that started it.  Tests register a shutdown callable; the registry is
# drained — timeout or not — when the test call phase ends.
_timeout_cleanups = []


def register_timeout_cleanup(cleanup) -> None:
    """Run ``cleanup()`` when this test ends (normally or by timeout)."""
    _timeout_cleanups.append(cleanup)


@pytest.fixture()
def timeout_cleanup():
    """The cleanup-registering function, as a fixture."""
    return register_timeout_cleanup


def _drain_timeout_cleanups() -> None:
    while _timeout_cleanups:
        cleanup = _timeout_cleanups.pop()
        try:
            cleanup()
        except Exception:
            pass  # teardown best effort; the test outcome is already decided


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    del _timeout_cleanups[:]
    if (
        _TEST_TIMEOUT <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        try:
            return (yield)
        finally:
            _drain_timeout_cleanups()

    def _expired(signum, frame):
        # Tear the registered services down first so their loops terminate
        # cleanly instead of leaking past the failed test.
        _drain_timeout_cleanups()
        raise TimeoutError(
            f"test exceeded REPRO_TEST_TIMEOUT={_TEST_TIMEOUT:g}s wall-clock limit"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, _TEST_TIMEOUT)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        _drain_timeout_cleanups()
