"""Neighbourhood moves over the mapping/priority/platform design space.

Four move kinds span the space every problem exposes:

* ``remap``    — move one process to a different (active) processor;
* ``swap``     — exchange the processors of two processes;
* ``priority`` — switch the list scheduler to another registered priority
  function;
* ``bias``     — perturb the dispatch priority of one process by a small
  additive step (ties the explorer into the scheduler's secondary degrees of
  freedom, not only the mapping).

When the problem enables communication mapping
(``ExplorationProblem(map_communications=True)``), two *communication* kinds
join, so the search can route messages instead of accepting the derived
first-bus pick:

* ``remap_comm`` — pin one active message to a different bus connecting its
  endpoints;
* ``swap_bus``   — exchange the buses of two active messages (each target
  bus must connect the other message's endpoints).

When the problem declares :class:`~repro.exploration.ArchitectureBounds`,
four *architecture-sizing* kinds join the neighbourhood, so the search can
resize the platform instead of only remapping onto it:

* ``add_pe`` / ``remove_pe`` — instantiate one more programmable processor
  (from the problem's deterministic spare-name pool) or retire an *empty*
  one, staying within the declared processor bounds;
* ``add_bus`` / ``remove_bus`` — likewise for buses.  Bus removal is
  *sizing-aware*: a bus whose removal would strand a communication (no other
  bus connects the endpoints) is never offered, and explicit bus pins on the
  removed bus are rerouted onto the least remaining connecting bus as part
  of the move, so removal produces reroutable candidates instead of
  trivially infeasible ones.

Moves are small frozen descriptions (kind + operands) applied functionally:
``move.apply(candidate)`` derives the neighbour without mutating the origin.
The :class:`NeighborhoodSampler` draws a batch of *distinct* neighbours from a
seeded ``random.Random``, which is the only source of randomness in a search —
the evaluation itself is deterministic, so a seed fully determines a run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .candidate import Candidate
from .problem import ExplorationProblem

#: The registered priority functions a ``priority`` move switches between.
PRIORITY_CHOICES: Tuple[str, ...] = (
    "critical_path",
    "upward_rank",
    "static_order",
)

#: The additive dispatch-priority steps a ``bias`` move draws from.
BIAS_STEPS: Tuple[float, ...] = (-4.0, -1.0, 1.0, 4.0)

#: Draws :meth:`NeighborhoodSampler.sample` may spend per requested
#: neighbour before it returns a short batch.
ATTEMPTS_PER_NEIGHBOR = 8

#: Relative draw frequency of the move kinds (mapping moves dominate: they
#: change the communication structure, which is where the big wins are).
_MOVE_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("remap", 0.45),
    ("swap", 0.25),
    ("bias", 0.2),
    ("priority", 0.1),
)

#: Extra draw weight of the architecture-sizing kinds, appended only when the
#: problem declares bounds, so fixed-architecture searches keep the exact
#: neighbourhood (and per-seed trajectories) they had before sizing existed.
_SIZING_WEIGHT: float = 0.25

#: Extra draw weight of the communication-mapping kinds, appended only when
#: the problem enables ``map_communications`` — problems that derive their
#: bus assignment keep the exact pre-mapping neighbourhood.
_COMM_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("remap_comm", 0.2),
    ("swap_bus", 0.1),
)


@dataclass(frozen=True)
class Move:
    """One neighbourhood move: a kind plus its operands."""

    kind: str
    operands: Tuple = ()

    def apply(self, candidate: Candidate) -> Candidate:
        """Derive the neighbour this move describes (the origin is untouched)."""
        if self.kind == "remap":
            process, pe_name = self.operands
            return candidate.reassigned(process, pe_name)
        if self.kind == "swap":
            first, second = self.operands
            return candidate.swapped(first, second)
        if self.kind == "priority":
            (name,) = self.operands
            return candidate.with_priority_function(name)
        if self.kind == "bias":
            process, delta = self.operands
            return candidate.with_bias(process, delta)
        if self.kind == "remap_comm":
            message, bus_name = self.operands
            return candidate.with_communication(message, bus_name)
        if self.kind == "swap_bus":
            (first_message, first_bus), (second_message, second_bus) = self.operands
            return candidate.with_communication(
                first_message, first_bus
            ).with_communication(second_message, second_bus)
        if self.kind == "add_pe":
            (name,) = self.operands
            return candidate.with_element(name, "programmable")
        if self.kind == "add_bus":
            (name,) = self.operands
            return candidate.with_element(name, "bus")
        if self.kind == "remove_pe":
            (name,) = self.operands
            return candidate.without_element(name)
        if self.kind == "remove_bus":
            name = self.operands[0]
            # Sizing-aware form: reroutes pin stranded messages onto a
            # remaining connecting bus.  The bare (name,) form stays valid.
            reroutes = self.operands[1] if len(self.operands) > 1 else ()
            shrunk = candidate.without_element(name)
            for message, bus_name in reroutes:
                shrunk = shrunk.with_communication(message, bus_name)
            return shrunk
        raise ValueError(f"unknown move kind {self.kind!r}")

    def describe(self) -> str:
        """Short human-readable form used in trajectories and reports."""
        if self.kind == "remap":
            process, pe_name = self.operands
            return f"remap {process} -> {pe_name}"
        if self.kind == "swap":
            first, second = self.operands
            return f"swap {first} <-> {second}"
        if self.kind == "priority":
            return f"priority -> {self.operands[0]}"
        if self.kind == "bias":
            process, delta = self.operands
            return f"bias {process} {delta:+g}"
        if self.kind == "remap_comm":
            message, bus_name = self.operands
            return f"comm {message} -> {bus_name}"
        if self.kind == "swap_bus":
            (first_message, _), (second_message, _) = self.operands
            return f"swap bus {first_message} <-> {second_message}"
        if self.kind in ("add_pe", "add_bus"):
            return f"add {self.operands[0]}"
        if self.kind == "remove_pe":
            return f"remove {self.operands[0]}"
        if self.kind == "remove_bus":
            reroutes = self.operands[1] if len(self.operands) > 1 else ()
            suffix = f" (+{len(reroutes)} reroutes)" if reroutes else ""
            return f"remove {self.operands[0]}{suffix}"
        return self.kind

    def __str__(self) -> str:
        return self.describe()


class NeighborhoodSampler:
    """Draws batches of distinct neighbour candidates around a design point."""

    def __init__(self, problem: ExplorationProblem) -> None:
        if len(problem.processor_names) < 1:
            raise ValueError("the problem has no processors to map onto")
        self._problem = problem
        weights = list(_MOVE_WEIGHTS)
        if problem.map_communications:
            weights.extend(_COMM_WEIGHTS)
        if problem.bounds is not None:
            weights.append(("size", _SIZING_WEIGHT))
        self._kinds = [kind for kind, _ in weights]
        self._weights = [weight for _, weight in weights]

    # -- communication sub-moves ----------------------------------------------

    def _effective_bus(
        self, candidate: Candidate, message: str, connecting: Sequence[str]
    ) -> str:
        """The bus a message currently rides: its pin, or the derived default.

        The ``least_loaded`` policy depends on expansion order, so the
        least-index bus is used as the stand-in default either way — the
        point is only to avoid proposing a no-op pin.
        """
        pinned = candidate.communication_dict.get(message)
        if pinned is not None and pinned in connecting:
            return pinned
        return connecting[0]

    def _draw_remap_comm(
        self, candidate: Candidate, rng: random.Random
    ) -> Optional[Move]:
        active = self._problem.active_messages(candidate)
        if not active:
            return None
        message, src, dst = rng.choice(active)
        connecting = self._problem.connecting_buses(candidate, src, dst)
        if len(connecting) < 2:
            return None  # unconnectable or forced: nothing to remap
        current = self._effective_bus(candidate, message, connecting)
        targets = [bus_name for bus_name in connecting if bus_name != current]
        return Move("remap_comm", (message, rng.choice(targets)))

    def _draw_swap_bus(
        self, candidate: Candidate, rng: random.Random
    ) -> Optional[Move]:
        active = self._problem.active_messages(candidate)
        if len(active) < 2:
            return None
        (first, first_src, first_dst), (second, second_src, second_dst) = (
            rng.sample(active, 2)
        )
        first_buses = self._problem.connecting_buses(candidate, first_src, first_dst)
        second_buses = self._problem.connecting_buses(
            candidate, second_src, second_dst
        )
        if not first_buses or not second_buses:
            return None  # an unconnectable (infeasible) message: nothing to swap
        first_bus = self._effective_bus(candidate, first, first_buses)
        second_bus = self._effective_bus(candidate, second, second_buses)
        if first_bus == second_bus:
            return None
        if second_bus not in first_buses or first_bus not in second_buses:
            return None  # a swapped bus would not connect the other endpoints
        return Move(
            "swap_bus", ((first, second_bus), (second, first_bus))
        )

    # -- sizing sub-moves ----------------------------------------------------

    def _sizing_moves(self, candidate: Candidate) -> List[Move]:
        """Every legal add/remove move around a candidate, in a stable order."""
        bounds = self._problem.bounds
        if bounds is None or not candidate.platform:
            return []
        moves: List[Move] = []
        active_processors = set(candidate.platform_processors)
        active_buses = set(candidate.platform_buses)
        if len(active_processors) < bounds.max_processors:
            for name in self._problem.spare_processor_names:
                if name not in active_processors:
                    moves.append(Move("add_pe", (name,)))
                    break  # deterministic: always the first spare name
        if len(active_processors) > bounds.min_processors:
            occupied = set(candidate.assignment_dict.values())
            moves.extend(
                Move("remove_pe", (name,))
                for name in sorted(active_processors - occupied)
            )
        if len(active_buses) < bounds.max_buses:
            for name in self._problem.spare_bus_names:
                if name not in active_buses:
                    moves.append(Move("add_bus", (name,)))
                    break
        if len(active_buses) > bounds.min_buses:
            for name in sorted(active_buses):
                move = self._remove_bus_move(candidate, name)
                if move is not None:
                    moves.append(move)
        return moves

    def _remove_bus_move(
        self, candidate: Candidate, bus_name: str
    ) -> Optional[Move]:
        """A sizing-aware ``remove_bus``, or None when removal would strand.

        Every active message must keep at least one connecting bus after the
        removal; explicit pins on the removed bus are rerouted onto the least
        remaining connecting bus as part of the move.
        """
        pins = candidate.communication_dict
        reroutes: List[Tuple[str, str]] = []
        for message, src, dst in self._problem.active_messages(candidate):
            connecting = self._problem.connecting_buses(candidate, src, dst)
            remaining = [name for name in connecting if name != bus_name]
            if connecting and not remaining:
                return None  # this bus is the message's last connection
            if pins.get(message) == bus_name and remaining:
                reroutes.append((message, remaining[0]))
        if reroutes:
            return Move("remove_bus", (bus_name, tuple(reroutes)))
        return Move("remove_bus", (bus_name,))

    def _draw(self, candidate: Candidate, rng: random.Random) -> Optional[Move]:
        kind = rng.choices(self._kinds, weights=self._weights, k=1)[0]
        processes = self._problem.movable_processes
        processors = self._problem.processors_for(candidate)
        if kind == "remap" and len(processors) > 1:
            process = rng.choice(processes)
            targets = [pe for pe in processors if pe != candidate.pe_of(process)]
            return Move("remap", (process, rng.choice(targets)))
        if kind == "swap" and len(processes) > 1:
            first, second = rng.sample(processes, 2)
            if candidate.pe_of(first) != candidate.pe_of(second):
                return Move("swap", (first, second))
            return None
        if kind == "priority":
            others = [
                name
                for name in PRIORITY_CHOICES
                if name != candidate.priority_function
            ]
            return Move("priority", (rng.choice(others),))
        if kind == "bias":
            process = rng.choice(processes)
            return Move("bias", (process, rng.choice(BIAS_STEPS)))
        if kind == "remap_comm":
            return self._draw_remap_comm(candidate, rng)
        if kind == "swap_bus":
            return self._draw_swap_bus(candidate, rng)
        if kind == "size":
            legal = self._sizing_moves(candidate)
            if legal:
                return rng.choice(legal)
            return None
        return None

    def sample(
        self,
        candidate: Candidate,
        rng: random.Random,
        count: int,
    ) -> List[Tuple[Move, Candidate]]:
        """Draw up to ``count`` neighbours with pairwise-distinct fingerprints.

        Draws that produce no-ops (swapping two processes already co-located,
        remapping on a single-processor architecture, sizing a platform
        already at its bounds) or duplicate an earlier neighbour are retried
        up to :data:`ATTEMPTS_PER_NEIGHBOR` times per neighbour in total, so
        degenerate design spaces yield short batches instead of looping
        forever.
        """
        neighbors: List[Tuple[Move, Candidate]] = []
        seen = {candidate.fingerprint}
        budget = count * ATTEMPTS_PER_NEIGHBOR
        while len(neighbors) < count and budget > 0:
            budget -= 1
            move = self._draw(candidate, rng)
            if move is None:
                continue
            neighbor = move.apply(candidate)
            if neighbor.fingerprint in seen:
                continue
            seen.add(neighbor.fingerprint)
            neighbors.append((move, neighbor))
        return neighbors
