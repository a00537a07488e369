"""Tests for the per-path list scheduler (resources, dependencies, broadcasts, locks)."""

from collections import Counter

import pytest

from repro.architecture import Architecture, Mapping, bus, hardware, programmable
from repro.conditions import Condition, Conjunction
from repro.exploration import ExplorationProblem, merge_candidate
from repro.generator import generate_system
from repro.graph import AlternativePath, CPGBuilder, PathEnumerator, expand_communications
from repro.scheduling import PathListScheduler, ScheduleMerger, SchedulingError
from repro.scheduling.priorities import critical_path_priorities, static_order_priorities

C = Condition("C")


def single_path_of(graph):
    paths = PathEnumerator(graph).paths()
    assert len(paths) == 1
    return paths[0]


def test_chain_respects_dependencies_and_communication():
    architecture = Architecture(
        [programmable("pe1"), programmable("pe2")], [bus("bus1")]
    )
    builder = CPGBuilder("chain")
    builder.process("A", 3.0)
    builder.process("B", 4.0)
    builder.edge("A", "B", communication_time=2.0)
    graph = builder.build()
    mapping = Mapping(
        architecture, {"A": architecture["pe1"], "B": architecture["pe2"]}
    )
    expanded = expand_communications(graph, mapping, architecture)
    scheduler = PathListScheduler(expanded.graph, expanded.mapping, architecture)
    schedule = scheduler.schedule(single_path_of(expanded.graph))
    comm = expanded.communication_between("A", "B").name
    assert schedule.start_of("A") == 0.0
    assert schedule.start_of(comm) == pytest.approx(3.0)
    assert schedule.start_of("B") == pytest.approx(5.0)
    assert schedule.delay == pytest.approx(9.0)


def test_programmable_processor_serialises_processes():
    architecture = Architecture([programmable("pe1")], [bus("bus1")])
    builder = CPGBuilder("parallel")
    builder.process("A", 3.0)
    builder.process("B", 4.0)
    graph = builder.build()
    mapping = Mapping(architecture, {"A": architecture["pe1"], "B": architecture["pe1"]})
    scheduler = PathListScheduler(graph, mapping, architecture)
    schedule = scheduler.schedule(single_path_of(graph))
    schedule.validate_resources()
    assert schedule.delay == pytest.approx(7.0)


def test_hardware_processor_runs_in_parallel():
    architecture = Architecture([programmable("pe1"), hardware("hw1")], [bus("bus1")])
    builder = CPGBuilder("parallel-hw")
    builder.process("A", 3.0)
    builder.process("B", 4.0)
    graph = builder.build()
    mapping = Mapping(architecture, {"A": architecture["hw1"], "B": architecture["hw1"]})
    scheduler = PathListScheduler(graph, mapping, architecture)
    schedule = scheduler.schedule(single_path_of(graph))
    assert schedule.start_of("A") == 0.0 and schedule.start_of("B") == 0.0
    assert schedule.delay == pytest.approx(4.0)


def test_priorities_pick_critical_chain_first():
    # Two independent chains compete for one processor; the longer chain's head
    # must be dispatched first to minimise the makespan.
    architecture = Architecture([programmable("pe1")], [bus("bus1")])
    builder = CPGBuilder("priorities")
    builder.process("long1", 5.0)
    builder.process("long2", 5.0)
    builder.process("short", 2.0)
    builder.chain("long1", "long2")
    graph = builder.build()
    mapping = Mapping(architecture)
    for name in ("long1", "long2", "short"):
        mapping.assign(name, architecture["pe1"])
    scheduler = PathListScheduler(graph, mapping, architecture)
    path = single_path_of(graph)
    schedule = scheduler.schedule(path)
    assert schedule.start_of("long1") == 0.0
    priorities = critical_path_priorities(graph, path, mapping)
    assert priorities["long1"] > priorities["short"]


def test_speed_scaling_applies_to_durations():
    architecture = Architecture([programmable("fast", speed=2.0)], [bus("bus1")])
    builder = CPGBuilder("speed")
    builder.process("A", 10.0)
    graph = builder.build()
    mapping = Mapping(architecture, {"A": architecture["fast"]})
    schedule = PathListScheduler(graph, mapping, architecture).schedule(
        single_path_of(graph)
    )
    assert schedule.delay == pytest.approx(5.0)


def test_unmapped_process_raises():
    architecture = Architecture([programmable("pe1")], [bus("bus1")])
    builder = CPGBuilder("unmapped")
    builder.process("A", 1.0)
    graph = builder.build()
    scheduler = PathListScheduler(graph, Mapping(architecture), architecture)
    with pytest.raises(SchedulingError):
        scheduler.schedule(single_path_of(graph))


def build_conditional_system(num_buses=1):
    architecture = Architecture(
        [programmable("pe1"), programmable("pe2")],
        [bus(f"bus{i+1}") for i in range(num_buses)],
        condition_broadcast_time=1.0,
    )
    builder = CPGBuilder("conditional")
    builder.process("D", 4.0)     # disjunction process computing C on pe1
    builder.process("T", 3.0)     # guard C, on pe2
    builder.process("F", 2.0)     # guard !C, on pe1
    builder.process("J", 1.0)     # conjunction
    builder.edge("D", "T", condition=C.true(), communication_time=2.0)
    builder.edge("D", "F", condition=C.false())
    builder.edge("T", "J", communication_time=1.0)
    builder.edge("F", "J", communication_time=1.0)
    graph = builder.build()
    mapping = Mapping(architecture)
    mapping.assign("D", architecture["pe1"])
    mapping.assign("F", architecture["pe1"])
    mapping.assign("T", architecture["pe2"])
    mapping.assign("J", architecture["pe2"])
    expanded = expand_communications(graph, mapping, architecture)
    return architecture, expanded


class TestConditionBroadcasts:
    def test_broadcast_scheduled_after_disjunction_process(self):
        architecture, expanded = build_conditional_system()
        scheduler = PathListScheduler(expanded.graph, expanded.mapping, architecture)
        enumerator = PathEnumerator(expanded.graph)
        path = enumerator.path_for(Conjunction.of(C.true()))
        schedule = scheduler.schedule(path)
        assert C in schedule.broadcasts
        broadcast = schedule.broadcasts[C]
        assert broadcast.start >= schedule.end_of("D")
        assert broadcast.duration == pytest.approx(1.0)
        assert broadcast.pe.is_bus

    def test_condition_known_earlier_on_origin_processor(self):
        architecture, expanded = build_conditional_system()
        scheduler = PathListScheduler(expanded.graph, expanded.mapping, architecture)
        path = PathEnumerator(expanded.graph).path_for(Conjunction.of(C.true()))
        schedule = scheduler.schedule(path)
        pe1, pe2 = architecture["pe1"], architecture["pe2"]
        assert schedule.condition_known_time(C, pe1) == pytest.approx(
            schedule.end_of("D")
        )
        assert schedule.condition_known_time(C, pe2) >= schedule.end_of("D") + 1.0

    def test_guarded_process_waits_for_condition_knowledge(self):
        # T runs on pe2 and is guarded by C; it must not start before the value
        # of C has reached pe2 (requirement 4 of the paper).
        architecture, expanded = build_conditional_system()
        scheduler = PathListScheduler(expanded.graph, expanded.mapping, architecture)
        path = PathEnumerator(expanded.graph).path_for(Conjunction.of(C.true()))
        schedule = scheduler.schedule(path)
        assert schedule.start_of("T") >= schedule.condition_known_time(
            C, architecture["pe2"]
        )

    def test_single_processor_system_needs_no_broadcast(self):
        architecture = Architecture(
            [programmable("pe1")], [bus("bus1")], condition_broadcast_time=1.0
        )
        builder = CPGBuilder("single")
        builder.process("D", 2.0)
        builder.process("T", 1.0)
        builder.process("F", 1.0)
        builder.edge("D", "T", condition=C.true())
        builder.edge("D", "F", condition=C.false())
        graph = builder.build()
        mapping = Mapping(architecture)
        for name in ("D", "T", "F"):
            mapping.assign(name, architecture["pe1"])
        schedule = PathListScheduler(graph, mapping, architecture).schedule(
            PathEnumerator(graph).path_for(Conjunction.of(C.true()))
        )
        assert schedule.broadcasts[C].duration == 0.0


class TestLockingAndAdjustment:
    def test_locked_start_is_respected(self):
        architecture, expanded = build_conditional_system()
        scheduler = PathListScheduler(expanded.graph, expanded.mapping, architecture)
        path = PathEnumerator(expanded.graph).path_for(Conjunction.of(C.false()))
        free = scheduler.schedule(path)
        locked_time = free.start_of("F") + 5.0
        locked = scheduler.schedule(path, locked_starts={"F": locked_time})
        assert locked.start_of("F") == pytest.approx(locked_time)

    def test_locked_reservation_pushes_other_processes(self):
        architecture = Architecture([programmable("pe1")], [bus("bus1")])
        builder = CPGBuilder("locked")
        builder.process("A", 3.0)
        builder.process("B", 3.0)
        graph = builder.build()
        mapping = Mapping(architecture, {"A": architecture["pe1"], "B": architecture["pe1"]})
        scheduler = PathListScheduler(graph, mapping, architecture)
        path = single_path_of(graph)
        schedule = scheduler.schedule(path, locked_starts={"A": 2.0})
        assert schedule.start_of("A") == pytest.approx(2.0)
        # B must not overlap the locked reservation of A.
        assert (
            schedule.start_of("B") >= 5.0 or schedule.end_of("B") <= 2.0
        )
        schedule.validate_resources()

    def test_order_hint_preserves_relative_order(self):
        architecture = Architecture([programmable("pe1")], [bus("bus1")])
        builder = CPGBuilder("hinted")
        builder.process("A", 3.0)
        builder.process("B", 3.0)
        graph = builder.build()
        mapping = Mapping(architecture, {"A": architecture["pe1"], "B": architecture["pe1"]})
        scheduler = PathListScheduler(graph, mapping, architecture)
        path = single_path_of(graph)
        forward = scheduler.schedule(path, order_hint={"A": 0.0, "B": 10.0})
        backward = scheduler.schedule(path, order_hint={"A": 10.0, "B": 0.0})
        assert forward.start_of("A") < forward.start_of("B")
        assert backward.start_of("B") < backward.start_of("A")

    def test_static_order_priorities_reverse_order_values(self):
        path = PathEnumerator(build_conditional_system()[1].graph).paths()[0]
        priorities = static_order_priorities(path, {"D": 0.0, "T": 5.0})
        assert priorities["D"] > priorities["T"]

    def test_schedule_all_covers_every_path(self):
        architecture, expanded = build_conditional_system()
        scheduler = PathListScheduler(expanded.graph, expanded.mapping, architecture)
        paths = PathEnumerator(expanded.graph).paths()
        schedules = {path: scheduler.schedule(path) for path in paths}
        assert set(schedules) == set(paths)
        for path, schedule in schedules.items():
            for name in path.active_processes:
                if not expanded.graph[name].is_dummy:
                    assert name in schedule.tasks


class TestResourceCorrectness:
    @pytest.mark.parametrize("num_buses", [1, 2])
    def test_no_overlap_on_sequential_resources(self, num_buses):
        architecture, expanded = build_conditional_system(num_buses)
        scheduler = PathListScheduler(expanded.graph, expanded.mapping, architecture)
        for path in PathEnumerator(expanded.graph).paths():
            schedule = scheduler.schedule(path)
            schedule.validate_resources()

    def test_every_dependency_respected_on_fig1(self, fig1):
        scheduler = PathListScheduler(fig1.graph, fig1.expanded_mapping, fig1.architecture)
        enumerator = PathEnumerator(fig1.graph)
        for path in enumerator.paths():
            schedule = scheduler.schedule(path)
            schedule.validate_resources()
            for name in path.active_processes:
                if fig1.graph[name].is_dummy:
                    continue
                for pred in fig1.graph.active_predecessors(name, path.label):
                    if fig1.graph[pred].is_dummy:
                        continue
                    assert schedule.start_of(name) >= schedule.end_of(pred) - 1e-9


class TestBroadcastDispatchOrder:
    """The heap-backed pending-broadcast queue must preserve dispatch order.

    Broadcasts are dispatched in ascending (determination time, condition)
    order — the order the former sort-then-pop(0) implementation produced —
    so conditions determined earlier grab the bus first.
    """

    def build_multi_condition_system(self):
        architecture = Architecture(
            [programmable("pe1"), programmable("pe2")],
            [bus("bus1")],
            condition_broadcast_time=2.0,
        )
        builder = CPGBuilder("multi-cond")
        K1, K2, K3 = Condition("K1"), Condition("K2"), Condition("K3")
        builder.process("S", 1.0)
        # Three disjunction processes finishing at staggered times on pe1/pe2.
        builder.process("D1", 2.0)
        builder.process("D2", 3.0)
        builder.process("D3", 5.0)
        for name, cond in (("D1", K1), ("D2", K2), ("D3", K3)):
            builder.process(f"{name}t", 1.0)
            builder.process(f"{name}f", 1.0)
            builder.edge("S", name)
            builder.edge(name, f"{name}t", condition=cond.true())
            builder.edge(name, f"{name}f", condition=cond.false())
        builder.process("T", 1.0, is_conjunction=True)
        for name in ("D1", "D2", "D3"):
            builder.edge(f"{name}t", "T")
            builder.edge(f"{name}f", "T")
        graph = builder.build()
        mapping = Mapping(architecture)
        pe1, pe2 = architecture["pe1"], architecture["pe2"]
        for process in graph.ordinary_processes:
            mapping.assign(process.name, pe1 if process.name != "D2" else pe2)
        expanded = expand_communications(graph, mapping, architecture)
        return architecture, expanded, (K1, K2, K3)

    def test_broadcasts_dispatched_in_determination_order(self):
        architecture, expanded, conditions = self.build_multi_condition_system()
        scheduler = PathListScheduler(expanded.graph, expanded.mapping, architecture)
        for path in PathEnumerator(expanded.graph).paths():
            schedule = scheduler.schedule(path)
            determined = sorted(
                schedule.determination_times.items(), key=lambda kv: (kv[1], kv[0])
            )
            starts = [schedule.broadcasts[cond].start for cond, _ in determined]
            # Earlier-determined conditions are granted the bus first: the
            # broadcast start times are non-decreasing in dispatch order.
            assert starts == sorted(starts)
            # And on a single-bus system the broadcasts never overlap.
            ordered = sorted(
                (schedule.broadcasts[cond] for cond in schedule.broadcasts),
                key=lambda task: task.start,
            )
            for first, second in zip(ordered, ordered[1:]):
                assert second.start >= first.end - 1e-9


class TestContextReuse:
    """One dependency context per path, keyed by label, guarded by active set."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Counts of ``_build_context`` and ``schedule`` calls, by path label."""
        calls = {"build": [], "schedule": []}
        build, schedule = PathListScheduler._build_context, PathListScheduler.schedule

        def counting_build(self, path):
            calls["build"].append(path.label)
            return build(self, path)

        def counting_schedule(self, path, **locks):
            calls["schedule"].append(path.label)
            return schedule(self, path, **locks)

        monkeypatch.setattr(PathListScheduler, "_build_context", counting_build)
        monkeypatch.setattr(PathListScheduler, "schedule", counting_schedule)
        return calls

    @pytest.mark.parametrize("system", ["fig1", "generated_40_8"])
    @pytest.mark.parametrize("route", ["merger", "merge_candidate"])
    def test_a_merge_builds_one_context_per_path(self, system, route, fig1, calls):
        source = fig1 if system == "fig1" else generate_system(40, 8, seed=3)
        if route == "merger":
            result = ScheduleMerger(
                source.graph, source.expanded_mapping, source.architecture
            ).merge()
        else:
            problem = ExplorationProblem.from_system(source)
            _, result = merge_candidate(problem, problem.initial_candidate())
        labels = [path.label for path in result.paths]
        assert len(labels) == (6 if system == "fig1" else 8)
        assert Counter(calls["build"]) == Counter(labels)
        # The merge re-adjusted paths, so the contexts were reused.
        assert len(calls["schedule"]) > len(labels)

    def test_same_label_other_active_set_gets_a_fresh_schedule(self, fig1):
        graph, mapping = fig1.graph, fig1.expanded_mapping
        path = PathEnumerator(graph).paths()[0]
        trimmed = AlternativePath(path.label, path.active_processes[:-1], path.index)

        def rows(schedule):
            return sorted(
                (task.name, task.start, task.duration, getattr(task.pe, "name", None))
                for task in [*schedule.tasks.values(), *schedule.broadcasts.values()]
            )

        shared = PathListScheduler(graph, mapping, fig1.architecture)
        served = []
        for request in (path, trimmed, path, trimmed):
            fresh = PathListScheduler(graph, mapping, fig1.architecture)
            served.append(rows(shared.schedule(request)))
            assert served[-1] == rows(fresh.schedule(request))
        assert served[0] != served[1]
