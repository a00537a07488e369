"""Tests of communication-to-bus mapping as an explored design dimension.

Covers the graph layer (stable message ids, explicit per-message bus
assignment with connectivity validation, the least-index and least-loaded
derivation policies, the (src, dst)-indexed lookup), the exploration layer
(candidate pins, remap_comm/swap_bus moves, sizing-aware bus removal, the
bus-contention objective, payload/pool transport) and the acceptance
scenario: on a seeded two-bus Fig. 1-style system, exploring the bus
assignment strictly beats the derived default under an identical
engine/seed/cycle budget — deterministically.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.architecture import (
    Architecture,
    Mapping,
    MappingError,
    bus,
    programmable,
)
from repro.conditions import Condition
from repro.data import load_fig1_example
from repro.graph import (
    BUS_POLICIES,
    CPGBuilder,
    expand_communications,
    message_id,
)
from repro.exploration import (
    CachedEvaluator,
    Candidate,
    CostWeights,
    EvaluationPool,
    ExplorationConfig,
    ExplorationProblem,
    Explorer,
    NeighborhoodSampler,
    OBJECTIVE_NAMES,
    evaluate_candidate,
)

C = Condition("C")

#: The frozen acceptance configuration (also recorded in BENCH_core.json's
#: ``comm_mapping`` entry): same engine/seed/cycles, mapped must beat derived.
ACCEPTANCE = {"engine": "tabu", "seed": 1, "cycles": 16, "neighbors": 6}


def build_two_pe_system(num_buses=2, connectivity=None, reverse_buses=False):
    """Three processes over two processors, ``num_buses`` shared buses."""
    bus_names = [f"bus{i + 1}" for i in range(num_buses)]
    if reverse_buses:
        bus_names.reverse()  # registration order must not matter
    architecture = Architecture(
        [programmable("pe1"), programmable("pe2")],
        [bus(name) for name in bus_names],
        connectivity=connectivity,
    )
    builder = CPGBuilder("comm")
    builder.process("P1", 2.0)
    builder.process("P2", 3.0)
    builder.process("P3", 4.0)
    builder.edge("P1", "P2", communication_time=1.5)
    builder.edge("P2", "P3", condition=C.true(), communication_time=2.5)
    graph = builder.build(validate=False)
    mapping = Mapping(
        architecture, {"P1": "pe1", "P2": "pe2", "P3": "pe1"}
    )
    return architecture, graph, mapping


class TestMessageIds:
    def test_message_id_names_the_edge(self):
        assert message_id("P1", "P2") == "P1->P2"

    def test_expansion_records_message_ids(self):
        architecture, graph, mapping = build_two_pe_system()
        expanded = expand_communications(graph, mapping, architecture)
        info = expanded.communication_between("P1", "P2")
        assert info.message == "P1->P2"
        assert expanded.bus_assignment == {
            "P1->P2": "bus1",
            "P2->P3": "bus1",
        }
        assert expanded.bus_of("P1->P2").name == "bus1"
        assert expanded.bus_of("P1->P3") is None  # no such communication

    def test_assignment_by_message_id_matches_tuple_key(self):
        architecture, graph, mapping = build_two_pe_system()
        by_id = expand_communications(
            graph, mapping, architecture, bus_assignment={"P1->P2": "bus2"}
        )
        by_tuple = expand_communications(
            graph,
            mapping,
            architecture,
            bus_assignment={("P1", "P2"): architecture["bus2"]},
        )
        assert by_id.bus_assignment == by_tuple.bus_assignment
        assert by_id.bus_assignment["P1->P2"] == "bus2"

    def test_assignment_survives_remapping_of_endpoints(self):
        """The pin stays keyed to the edge: after the endpoints move, the
        message rides the pinned bus again wherever it crosses processors."""
        architecture, graph, mapping = build_two_pe_system()
        assignment = {"P1->P2": "bus2"}
        # Co-locate P1 and P2: the message goes dormant, the pin is ignored.
        co_located = mapping.reassigned({"P1": "pe2"})
        expanded = expand_communications(
            graph, co_located, architecture, bus_assignment=assignment
        )
        assert "P1->P2" not in expanded.bus_assignment
        # Split them again (the other way around): the pin applies again.
        split = co_located.reassigned({"P2": "pe1"})
        expanded = expand_communications(
            graph, split, architecture, bus_assignment=assignment
        )
        assert expanded.bus_assignment["P1->P2"] == "bus2"


class TestAssignmentValidation:
    def test_unknown_bus_rejected(self):
        architecture, graph, mapping = build_two_pe_system()
        with pytest.raises(MappingError, match="not a processing element"):
            expand_communications(
                graph, mapping, architecture, bus_assignment={"P1->P2": "bus9"}
            )

    def test_non_bus_element_rejected(self):
        architecture, graph, mapping = build_two_pe_system()
        with pytest.raises(MappingError, match="is not a bus"):
            expand_communications(
                graph, mapping, architecture, bus_assignment={"P1->P2": "pe1"}
            )

    def test_non_connecting_bus_rejected(self):
        architecture, graph, mapping = build_two_pe_system(
            num_buses=2, connectivity={"bus2": ["pe1"]}
        )
        with pytest.raises(MappingError, match="does not connect"):
            expand_communications(
                graph, mapping, architecture, bus_assignment={"P1->P2": "bus2"}
            )

    def test_foreign_processing_element_rejected(self):
        architecture, graph, mapping = build_two_pe_system()
        foreign = bus("bus1", speed=2.0)  # same name, different element
        with pytest.raises(MappingError, match="does not belong"):
            expand_communications(
                graph, mapping, architecture, bus_assignment={"P1->P2": foreign}
            )

    def test_unknown_policy_rejected(self):
        architecture, graph, mapping = build_two_pe_system()
        with pytest.raises(ValueError, match="unknown bus policy"):
            expand_communications(graph, mapping, architecture, bus_policy="round_robin")
        assert set(BUS_POLICIES) == {"least_index", "least_loaded"}


class TestBusPolicies:
    def test_default_policy_is_deterministic_by_name(self):
        """Regression: the least-index pick is the lexicographically least
        connecting bus name, however the architecture registered its buses."""
        forward = build_two_pe_system(num_buses=2, reverse_buses=False)
        reverse = build_two_pe_system(num_buses=2, reverse_buses=True)
        for architecture, graph, mapping in (forward, reverse):
            expanded = expand_communications(graph, mapping, architecture)
            assert set(expanded.bus_assignment.values()) == {"bus1"}

    def test_least_loaded_spreads_messages_over_buses(self):
        architecture, graph, mapping = build_two_pe_system(num_buses=2)
        expanded = expand_communications(
            graph, mapping, architecture, bus_policy="least_loaded"
        )
        # Two messages, two idle buses: each message gets its own bus
        # (first by name tie-break, then the unloaded one).
        assert expanded.bus_assignment == {
            "P1->P2": "bus1",
            "P2->P3": "bus2",
        }

    def test_least_loaded_balances_by_accumulated_time(self):
        """A long transfer on one bus pushes later messages to the other."""
        architecture = Architecture(
            [programmable("pe1"), programmable("pe2")],
            [bus("bus1"), bus("bus2")],
        )
        builder = CPGBuilder("load")
        for name in ("A", "B", "C", "D"):
            builder.process(name, 1.0)
        builder.edge("A", "B", communication_time=10.0)
        builder.edge("A", "C", communication_time=1.0)
        builder.edge("A", "D", communication_time=1.0)
        graph = builder.build(validate=False)
        mapping = Mapping(
            architecture, {"A": "pe1", "B": "pe2", "C": "pe2", "D": "pe2"}
        )
        expanded = expand_communications(
            graph, mapping, architecture, bus_policy="least_loaded"
        )
        assignment = expanded.bus_assignment
        # The 10-unit transfer lands on bus1 (name tie-break on an idle
        # platform); both small transfers then prefer the emptier bus2.
        assert assignment["A->B"] == "bus1"
        assert assignment["A->C"] == "bus2"
        assert assignment["A->D"] == "bus2"

    def test_explicit_pins_count_towards_least_loaded(self):
        architecture, graph, mapping = build_two_pe_system(num_buses=2)
        expanded = expand_communications(
            graph,
            mapping,
            architecture,
            bus_assignment={"P1->P2": "bus1"},
            bus_policy="least_loaded",
        )
        # The pinned message loads bus1, so the derived one avoids it.
        assert expanded.bus_assignment["P2->P3"] == "bus2"


class TestCommunicationLookup:
    def test_communication_between_is_indexed(self):
        architecture, graph, mapping = build_two_pe_system()
        expanded = expand_communications(graph, mapping, architecture)
        assert expanded.communication_between("P1", "P2").message == "P1->P2"
        assert expanded.communication_between("P2", "P3").message == "P2->P3"
        assert expanded.communication_between("P1", "P3") is None
        # The index is the lookup path: it covers exactly the inserted set.
        assert set(expanded._by_endpoints) == {("P1", "P2"), ("P2", "P3")}


class TestCandidatePins:
    def test_with_and_without_communication(self):
        """The candidate with a pin is a copy; the one without keeps none."""
        candidate = Candidate(assignment=(("P1", "pe1"),))
        pinned = candidate.with_communication("P1->P2", "bus2")
        assert pinned.communication_dict == {"P1->P2": "bus2"}
        assert pinned.fingerprint != candidate.fingerprint
        assert candidate.communication_assignment == ()  # origin untouched


@pytest.fixture(scope="module")
def two_bus_fig1():
    return load_fig1_example(num_buses=2)


@pytest.fixture(scope="module")
def mapped_problem(two_bus_fig1):
    return ExplorationProblem(
        two_bus_fig1.process_graph,
        two_bus_fig1.mapping,
        two_bus_fig1.architecture,
        name="fig1-two-bus",
        map_communications=True,
    )


class TestProblemCommunicationLayer:
    def test_message_universe_covers_mapped_edges(self, mapped_problem):
        messages = {message for message, _, _ in mapped_problem.messages}
        assert "P1->P3" in messages and "P2->P5" in messages
        active = mapped_problem.active_messages(
            mapped_problem.initial_candidate()
        )
        # The paper's mapping splits exactly fourteen connections.
        assert len(active) == 14

    def test_connecting_buses_are_sorted_names(self, mapped_problem):
        initial = mapped_problem.initial_candidate()
        assert mapped_problem.connecting_buses(initial, "P1", "P3") == (
            "pe4",
            "pe5",
        )

    def test_bus_assignment_filters_stale_pins(self, mapped_problem):
        initial = mapped_problem.initial_candidate()
        candidate = (
            initial.with_communication("P1->P3", "pe5")     # valid pin
            .with_communication("P1->P2", "pe5")            # dormant: co-located
            .with_communication("nope->nada", "pe5")        # unknown message
            .with_communication("P2->P5", "no-such-bus")    # unknown bus
        )
        assert mapped_problem.bus_assignment_for(candidate) == {
            "P1->P3": "pe5"
        }

    def test_communications_for_reports_realised_buses(self, mapped_problem):
        initial = mapped_problem.initial_candidate()
        derived = mapped_problem.communications_for(initial)
        assert set(derived.values()) == {"pe4"}  # least-index collapses
        pinned = mapped_problem.communications_for(
            initial.with_communication("P1->P3", "pe5")
        )
        assert pinned["P1->P3"] == "pe5"
        assert len(pinned) == 14

    def test_pin_changes_cost_and_fingerprint_consistently(self, mapped_problem):
        initial = mapped_problem.initial_candidate()
        pinned = initial.with_communication("P1->P3", "pe5")
        base = evaluate_candidate(mapped_problem, initial)
        moved = evaluate_candidate(mapped_problem, pinned)
        assert base.fingerprint != moved.fingerprint
        assert base.feasible and moved.feasible
        # Routing one message off the shared bus reduces contention.
        assert moved.bus_imbalance < base.bus_imbalance

    def test_objective_vector_has_five_components(self, mapped_problem):
        evaluation = evaluate_candidate(
            mapped_problem, mapped_problem.initial_candidate()
        )
        assert len(evaluation.objectives) == len(OBJECTIVE_NAMES) == 5
        assert OBJECTIVE_NAMES[-1] == "bus_imbalance"
        # All fourteen messages on one of two buses: maximal contention.
        assert evaluation.objectives[-1] == pytest.approx(1.0)

    def test_bus_imbalance_weight_enters_scalar_cost(self, mapped_problem):
        weighted = evaluate_candidate(
            mapped_problem,
            mapped_problem.initial_candidate(),
            CostWeights(bus_imbalance=10.0),
        )
        assert weighted.cost == pytest.approx(
            weighted.delta_max + 10.0 * weighted.bus_imbalance
        )

    def test_payload_roundtrip_preserves_communication_flags(self, mapped_problem):
        rebuilt = ExplorationProblem.from_payload(mapped_problem.to_payload())
        assert rebuilt.map_communications is True
        assert rebuilt.bus_policy == "least_index"
        assert rebuilt.messages == mapped_problem.messages
        candidate = mapped_problem.initial_candidate().with_communication(
            "P1->P3", "pe5"
        )
        assert evaluate_candidate(rebuilt, candidate) == evaluate_candidate(
            mapped_problem, candidate
        )

    def test_payload_roundtrip_preserves_bus_policy(self, two_bus_fig1):
        problem = ExplorationProblem(
            two_bus_fig1.process_graph,
            two_bus_fig1.mapping,
            two_bus_fig1.architecture,
            bus_policy="least_loaded",
        )
        rebuilt = ExplorationProblem.from_payload(problem.to_payload())
        assert rebuilt.bus_policy == "least_loaded"
        assert rebuilt.map_communications is False

    def test_unknown_bus_policy_rejected(self, two_bus_fig1):
        with pytest.raises(ValueError, match="unknown bus policy"):
            ExplorationProblem(
                two_bus_fig1.process_graph,
                two_bus_fig1.mapping,
                two_bus_fig1.architecture,
                bus_policy="fastest",
            )

    def test_least_loaded_policy_reduces_contention(self, two_bus_fig1):
        """The derivation policy alone already spreads load: on the seed
        mapping, least_loaded yields a lower bus imbalance than least_index."""
        imbalance = {}
        for policy in ("least_index", "least_loaded"):
            problem = ExplorationProblem(
                two_bus_fig1.process_graph,
                two_bus_fig1.mapping,
                two_bus_fig1.architecture,
                bus_policy=policy,
            )
            imbalance[policy] = evaluate_candidate(
                problem, problem.initial_candidate()
            ).bus_imbalance
        assert imbalance["least_loaded"] < imbalance["least_index"]


class TestCommunicationMoves:
    def test_comm_moves_only_sampled_when_enabled(self, two_bus_fig1, mapped_problem):
        plain = ExplorationProblem(
            two_bus_fig1.process_graph,
            two_bus_fig1.mapping,
            two_bus_fig1.architecture,
        )
        for problem, expected in ((plain, False), (mapped_problem, True)):
            sampler = NeighborhoodSampler(problem)
            rng = random.Random(0)
            kinds = set()
            candidate = problem.initial_candidate()
            for _ in range(40):
                for move, neighbor in sampler.sample(candidate, rng, 4):
                    kinds.add(move.kind)
                    candidate = neighbor
            assert (
                bool(kinds & {"remap_comm", "swap_bus"}) is expected
            ), kinds

    def test_remap_comm_pins_a_connecting_bus(self, mapped_problem):
        sampler = NeighborhoodSampler(mapped_problem)
        rng = random.Random(3)
        candidate = mapped_problem.initial_candidate()
        seen = 0
        for _ in range(60):
            for move, neighbor in sampler.sample(candidate, rng, 4):
                if move.kind == "remap_comm":
                    message, bus_name = move.operands
                    endpoints = {
                        m: (s, d) for m, s, d in mapped_problem.messages
                    }
                    src, dst = endpoints[message]
                    assert bus_name in mapped_problem.connecting_buses(
                        candidate, src, dst
                    )
                    assert neighbor.communication_dict[message] == bus_name
                    seen += 1
                candidate = neighbor
        assert seen > 0

    def test_swap_bus_exchanges_two_messages(self, mapped_problem):
        candidate = (
            mapped_problem.initial_candidate()
            .with_communication("P1->P3", "pe5")
            .with_communication("P3->P6", "pe4")
        )
        sampler = NeighborhoodSampler(mapped_problem)
        rng = random.Random(1)
        for _ in range(300):
            move = sampler._draw_swap_bus(candidate, rng)
            if move is None:
                continue
            (first, first_bus), (second, second_bus) = move.operands
            assert first_bus != second_bus
            swapped = move.apply(candidate)
            assert swapped.communication_dict[first] == first_bus
            assert swapped.communication_dict[second] == second_bus
            return
        pytest.fail("no swap_bus move drawn in 300 attempts")


class TestInfeasibleSeedWithMapping:
    def test_search_survives_unconnectable_messages(self):
        """Regression: swap_bus draws on a candidate with an unconnectable
        message must yield None, not crash — the search prices the seed as
        infeasible and repairs it, like the non-mapping engines do."""
        architecture = Architecture(
            [programmable("pe1"), programmable("pe2"), programmable("pe3")],
            [bus("bus1")],
            connectivity={"bus1": ["pe1", "pe2"]},
        )
        builder = CPGBuilder("split")
        builder.process("A", 2.0)
        builder.process("B", 3.0)
        builder.process("C", 2.0)
        builder.process("D", 3.0)
        builder.edge("A", "B", communication_time=1.0)  # pe1 -> pe3: no bus
        builder.edge("C", "D", communication_time=1.0)  # pe1 -> pe2: bus1
        graph = builder.build()
        mapping = Mapping(
            architecture,
            {"A": "pe1", "B": "pe3", "C": "pe1", "D": "pe2"},
        )
        problem = ExplorationProblem(
            graph, mapping, architecture, map_communications=True
        )
        config = ExplorationConfig(seed=0, max_cycles=8, neighbors_per_cycle=6)
        result = Explorer(problem, config=config).explore("tabu")
        assert not result.initial.feasible
        assert result.best.feasible  # repaired, not crashed


class TestSizingAwareBusRemoval:
    @pytest.fixture()
    def sized_problem(self, two_bus_fig1):
        from repro.exploration import ArchitectureBounds

        return ExplorationProblem(
            two_bus_fig1.process_graph,
            two_bus_fig1.mapping,
            two_bus_fig1.architecture,
            bounds=ArchitectureBounds(),
            map_communications=True,
        )

    def test_remove_bus_never_strands_a_message(self, sized_problem):
        """Removing either of two fully-connected buses is fine, but a
        candidate pinned to the removed bus gets rerouted, not stranded."""
        sampler = NeighborhoodSampler(sized_problem)
        candidate = sized_problem.initial_candidate().with_communication(
            "P1->P3", "pe5"
        )
        removals = [
            move
            for move in sampler._sizing_moves(candidate)
            if move.kind == "remove_bus"
        ]
        assert removals, "two buses above the minimum: removal must be offered"
        for move in removals:
            neighbor = move.apply(candidate)
            evaluation = evaluate_candidate(sized_problem, neighbor)
            assert evaluation.feasible, (move.describe(), evaluation.error)
            if move.operands[0] == "pe5":
                # The pin pointed at the removed bus: rerouted explicitly.
                assert neighbor.communication_dict["P1->P3"] == "pe4"
                assert "reroutes" in move.describe()

    def test_last_connecting_bus_is_never_removed(self):
        """On a platform where one bus is a pair's only connection, that
        bus's removal is not offered even when the bus count allows it."""
        from repro.exploration import ArchitectureBounds

        architecture = Architecture(
            [programmable("pe1"), programmable("pe2"), programmable("pe3")],
            [bus("bus_all"), bus("bus_pair")],
            connectivity={"bus_pair": ["pe1", "pe2"]},
        )
        builder = CPGBuilder("strand")
        builder.process("A", 2.0)
        builder.process("B", 2.0)
        builder.edge("A", "B", communication_time=1.0)
        graph = builder.build(validate=False)
        mapping = Mapping(architecture, {"A": "pe1", "B": "pe3"})
        problem = ExplorationProblem(
            graph,
            mapping,
            architecture,
            bounds=ArchitectureBounds(min_buses=1),
            map_communications=True,
        )
        sampler = NeighborhoodSampler(problem)
        candidate = problem.initial_candidate()
        removable = {
            move.operands[0]
            for move in sampler._sizing_moves(candidate)
            if move.kind == "remove_bus"
        }
        # A->B crosses pe1->pe3: only bus_all connects them, so only the
        # pair-local bus may be retired.
        assert removable == {"bus_pair"}


class TestAcceptanceScenario:
    """The frozen demonstration: mapped beats derived, deterministically."""

    def _explore(self, two_bus_fig1, mapped: bool):
        problem = ExplorationProblem(
            two_bus_fig1.process_graph,
            two_bus_fig1.mapping,
            two_bus_fig1.architecture,
            name="fig1-two-bus",
            map_communications=mapped,
        )
        config = ExplorationConfig(
            seed=ACCEPTANCE["seed"],
            max_cycles=ACCEPTANCE["cycles"],
            neighbors_per_cycle=ACCEPTANCE["neighbors"],
            track_front=True,
        )
        return problem, Explorer(problem, config=config).explore(
            ACCEPTANCE["engine"]
        )

    def test_mapping_beats_derived_default(self, two_bus_fig1):
        _, derived = self._explore(two_bus_fig1, mapped=False)
        problem, mapped = self._explore(two_bus_fig1, mapped=True)
        assert mapped.best.cost < derived.best.cost
        # The win is genuine routing, not rng luck: the winning candidate
        # pins messages and the realised mapping uses both buses.
        assert mapped.best_candidate.communication_assignment
        realised = problem.communications_for(mapped.best_candidate)
        assert len(set(realised.values())) == 2

    def test_same_seed_reproduces_best_and_front(self, two_bus_fig1):
        _, first = self._explore(two_bus_fig1, mapped=True)
        _, second = self._explore(two_bus_fig1, mapped=True)
        assert first.best_candidate == second.best_candidate
        assert first.best == second.best
        assert first.trajectory == second.trajectory
        assert first.front.vectors() == second.front.vectors()

    def test_cli_acceptance_run(self, capsys):
        from repro.cli import main

        base = ["explore", "--fig1", "--fig1-buses", "2",
                "--engine", ACCEPTANCE["engine"],
                "--seed", str(ACCEPTANCE["seed"]),
                "--cycles", str(ACCEPTANCE["cycles"]),
                "--neighbors", str(ACCEPTANCE["neighbors"]), "--json"]
        assert main(base) == 0
        derived = json.loads(capsys.readouterr().out)
        assert main(base + ["--map-communications"]) == 0
        mapped = json.loads(capsys.readouterr().out)
        (derived_result,) = derived["results"]
        (mapped_result,) = mapped["results"]
        assert mapped_result["best"]["cost"] < derived_result["best"]["cost"]
        # The JSON reports the chosen bus per message.
        realised = mapped_result["best"]["communication_mapping"]
        assert set(realised.values()) == {"pe4", "pe5"}
        assert mapped_result["best"]["communication_pins"]
        assert "communication_mapping" not in derived_result["best"]
        # Determinism: identical JSON for identical arguments.
        assert main(base + ["--map-communications"]) == 0
        assert json.loads(capsys.readouterr().out) == mapped


class TestPoolTransport:
    def test_pool_modes_match_serial_with_pins(self, mapped_problem):
        rng = random.Random(5)
        sampler = NeighborhoodSampler(mapped_problem)
        candidate = mapped_problem.initial_candidate()
        batch = []
        for _ in range(4):
            for _, neighbor in sampler.sample(candidate, rng, 3):
                batch.append(neighbor)
                candidate = neighbor
        assert any(c.communication_assignment for c in batch)
        serial = EvaluationPool(mapped_problem).evaluate(batch)
        with EvaluationPool(mapped_problem, workers=2) as pool:
            assert pool.evaluate(batch) == serial


# -- connectivity-restricted platforms (hypothesis) ---------------------------


def _restricted_problem() -> ExplorationProblem:
    """Three processors, three buses of which two connect only PE subsets."""
    architecture = Architecture(
        [programmable("pe1"), programmable("pe2"), programmable("pe3")],
        [bus("bus_all"), bus("bus_left"), bus("bus_right")],
        connectivity={
            "bus_left": ["pe1", "pe2"],
            "bus_right": ["pe2", "pe3"],
        },
    )
    builder = CPGBuilder("restricted")
    builder.process("A", 2.0)
    builder.process("B", 3.0)
    builder.process("C", 2.0)
    builder.process("D", 4.0)
    builder.process("E", 3.0)
    builder.edge("A", "B", communication_time=2.0)
    builder.edge("A", "C", communication_time=1.0)
    builder.edge("B", "D", condition=C.true(), communication_time=2.0)
    builder.edge("B", "E", condition=C.false(), communication_time=1.0)
    builder.edge("C", "D")
    builder.edge("C", "E")
    graph = builder.build()
    mapping = Mapping(
        architecture,
        {"A": "pe1", "B": "pe2", "C": "pe3", "D": "pe1", "E": "pe2"},
    )
    return ExplorationProblem(
        graph, mapping, architecture, map_communications=True
    )


#: Module-level problem for the hypothesis tests (built once; hypothesis
#: disallows function-scoped fixtures).
_RESTRICTED_PROBLEM = _restricted_problem()


def _assert_connecting(problem: ExplorationProblem, candidate) -> None:
    """Every realised communication must ride a bus connecting its endpoints."""
    try:
        realised = problem.communications_for(candidate)
    except MappingError:
        return  # infeasible candidates never produce a schedule
    architecture = problem.architecture_for(candidate)
    assignment = candidate.assignment_dict
    endpoints = {message: (src, dst) for message, src, dst in problem.messages}
    for message, bus_name in realised.items():
        src, dst = endpoints[message]
        connecting = {
            pe.name
            for pe in architecture.buses_between(
                architecture[assignment[src]], architecture[assignment[dst]]
            )
        }
        assert bus_name in connecting, (message, bus_name, connecting)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_restricted_move_sequences_stay_on_connecting_buses(data):
    """Property: any remap/swap/comm move sequence on a connectivity-
    restricted platform yields candidates whose realised communication
    mapping only ever uses buses that connect the endpoints."""
    problem = _RESTRICTED_PROBLEM
    sampler = NeighborhoodSampler(problem)
    rng = random.Random(data.draw(st.integers(0, 2**16), label="seed"))
    candidate = problem.initial_candidate()
    for _ in range(data.draw(st.integers(1, 8), label="moves")):
        neighbors = sampler.sample(candidate, rng, 1)
        if not neighbors:
            break
        _, candidate = neighbors[0]
        _assert_connecting(problem, candidate)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_restricted_exploration_only_evaluates_connecting_buses(seed):
    """Property: every candidate an engine evaluates on the restricted
    platform maps each communication to a connecting bus."""
    problem = _RESTRICTED_PROBLEM

    class _Recorder(CachedEvaluator):
        def __init__(self):
            super().__init__(problem)
            self.seen = []

        def evaluate_many(self, candidates, select=None):
            self.seen.extend(candidates)
            return super().evaluate_many(candidates, select)

    recorder = _Recorder()
    config = ExplorationConfig(seed=seed, max_cycles=4, neighbors_per_cycle=4)
    Explorer(problem, config=config, evaluator=recorder).explore("tabu")
    assert recorder.seen
    for candidate in recorder.seen:
        _assert_connecting(problem, candidate)
