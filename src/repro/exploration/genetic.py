"""NSGA-style genetic engine over the mapping/priority/platform design space.

Where tabu search and simulated annealing walk one design point, the genetic
engine evolves a *population* and reports a whole Pareto front: the
non-dominated trade-offs between the paper's worst-case delay, the mean
path delay, processor load balance and — with architecture sizing enabled —
the platform cost (see :mod:`repro.exploration.pareto`).

The engine plugs into the exact same machinery as the single-point engines:

* it draws all randomness from one ``random.Random(seed)``, so a seed fully
  determines the final population, the reported front and the trajectory;
* every evaluation goes through the shared :class:`CachedEvaluator` — whole
  generations are scored as one batch, which the optional
  :class:`~repro.exploration.EvaluationPool` parallelises across workers;
* stopping is the same pluggable criterion list (one *cycle* is one
  generation).

Generation sketch (NSGA-II selection, the repository's moves as mutation):

1. score the current population (batch evaluation, cache-deduplicated);
2. rank it by non-dominated front and crowding distance;
3. breed ``population_size`` children: :data:`TOURNAMENT_SIZE`-way
   tournaments pick parents, uniform mapping crossover mixes their
   assignments with probability :data:`CROSSOVER_RATE` (the platform and its
   validity come from one *donor* parent), and one to
   :data:`MUTATION_MOVES` neighbourhood moves mutate the child;
4. score the children, pool parents + children, and keep the best
   ``population_size`` by (front rank, crowding distance) — elitism falls out
   of pooling, diversity out of the crowding tie-break.

Infeasible candidates rank behind every feasible front, so an infeasible seed
population repairs itself the same way the single-point engines do.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Sequence, Tuple

from .candidate import Candidate
from .cost import CandidateEvaluation
from .engines import SearchState, TrajectoryPoint, _EngineBase
from .pareto import ParetoFront, crowding_distances, non_dominated_sort
from .resilience import (
    candidate_from_json,
    candidate_to_json,
    evaluation_from_json,
    evaluation_to_json,
)

#: Contenders per parent-selection tournament.
TOURNAMENT_SIZE = 3
#: Probability that two parents are crossed (else the tournament winner is
#: copied).
CROSSOVER_RATE = 0.9
#: Most neighbourhood moves one mutation applies (it applies at least one).
MUTATION_MOVES = 2


class GeneticEngine(_EngineBase):
    """Population search with NSGA-II selection and Pareto-front reporting."""

    name = "genetic"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # The engine always reports a front: its own, unless the evaluator
        # tracks one (and then also does the offering).
        self._own_front = (
            ParetoFront() if self._evaluator.front is None else None
        )

    # -- population helpers --------------------------------------------------

    def _mutate(self, candidate: Candidate, rng: random.Random) -> Candidate:
        """Apply 1..:data:`MUTATION_MOVES` sampled neighbourhood moves."""
        moves = rng.randint(1, MUTATION_MOVES)
        for _ in range(moves):
            neighbors = self._sampler.sample(candidate, rng, 1)
            if not neighbors:
                break
            _, candidate = neighbors[0]
        return candidate

    def _initial_population(
        self, initial: Candidate, rng: random.Random
    ) -> List[Candidate]:
        """The seed candidate plus distinct mutants of it."""
        population = [initial]
        seen = {initial.fingerprint}
        budget = self._config.population_size * 8
        while len(population) < self._config.population_size and budget > 0:
            budget -= 1
            mutant = self._mutate(initial, rng)
            if mutant.fingerprint in seen:
                continue
            seen.add(mutant.fingerprint)
            population.append(mutant)
        return population

    def _crossover(
        self, first: Candidate, second: Candidate, rng: random.Random
    ) -> Candidate:
        """Uniform mapping crossover; platform and validity come from a donor.

        Each process takes its processor from either parent, falling back to
        the donor's choice when the other parent's processor is not active on
        the donor's platform (only possible with architecture sizing).
        Communication pins cross over the same way, message by message —
        "unpinned" (derived) is a legitimate allele, inherited like any pin.
        Only a pin naming a bus the donor's platform does not instantiate
        falls back to the donor's pin for that message, or is dropped (stale
        pins are additionally filtered at evaluation time).
        """
        donor, other = (first, second) if rng.random() < 0.5 else (second, first)
        problem = self._evaluator.problem
        allowed = set(problem.processors_for(donor))
        other_assignment = other.assignment_dict
        pairs: List[Tuple[str, str]] = []
        for name, pe_name in donor.assignment:
            choice = pe_name if rng.random() < 0.5 else other_assignment[name]
            if choice not in allowed:
                choice = pe_name
            pairs.append((name, choice))
        priority = (
            donor.priority_function
            if rng.random() < 0.5
            else other.priority_function
        )
        bias = donor.priority_bias if rng.random() < 0.5 else other.priority_bias
        donor_pins = donor.communication_dict
        other_pins = other.communication_dict
        allowed_buses = (
            set(donor.platform_buses) if donor.platform else None
        )
        pins: List[Tuple[str, str]] = []
        for message in sorted(set(donor_pins) | set(other_pins)):
            side = donor_pins if rng.random() < 0.5 else other_pins
            bus_name = side.get(message)
            if bus_name is None:
                continue  # the chosen parent leaves this message derived
            if allowed_buses is not None and bus_name not in allowed_buses:
                bus_name = donor_pins.get(message)
                if bus_name is None or bus_name not in allowed_buses:
                    continue
            pins.append((message, bus_name))
        return Candidate(
            assignment=tuple(sorted(pairs)),
            priority_function=priority,
            priority_bias=bias,
            platform=donor.platform,
            communication_assignment=tuple(pins),
        )

    # -- NSGA ranking ---------------------------------------------------------

    @staticmethod
    def _rank(
        evaluations: Sequence[CandidateEvaluation],
    ) -> Tuple[List[int], List[float]]:
        """Front rank and crowding distance per individual.

        Feasible individuals are ranked by non-dominated sorting of their
        objective vectors; infeasible ones all share the worst rank with zero
        crowding, so they only survive when there is nothing better.
        """
        feasible = [i for i, ev in enumerate(evaluations) if ev.feasible]
        ranks = [len(evaluations) + 1] * len(evaluations)
        crowding = [0.0] * len(evaluations)
        if feasible:
            vectors = [evaluations[i].objectives for i in feasible]
            fronts = non_dominated_sort(vectors)
            for rank, front in enumerate(fronts):
                front_vectors = [vectors[j] for j in front]
                distances = crowding_distances(front_vectors)
                for j, distance in zip(front, distances):
                    ranks[feasible[j]] = rank
                    crowding[feasible[j]] = distance
        return ranks, crowding

    def _tournament(
        self,
        population: Sequence[Candidate],
        evaluations: Sequence[CandidateEvaluation],
        ranks: Sequence[int],
        crowding: Sequence[float],
        rng: random.Random,
    ) -> int:
        """A k-way tournament on (rank, crowding, scalar cost)."""
        size = min(TOURNAMENT_SIZE, len(population))
        contenders = rng.sample(range(len(population)), size)
        return min(
            contenders,
            key=lambda i: (
                ranks[i],
                -crowding[i],
                evaluations[i].cost,
                population[i].fingerprint,
            ),
        )

    def _select_survivors(
        self,
        population: List[Candidate],
        evaluations: List[CandidateEvaluation],
    ) -> Tuple[List[Candidate], List[CandidateEvaluation]]:
        """Keep the best ``population_size`` of a pooled parent+child set."""
        # Deduplicate by fingerprint first (children may recreate parents).
        unique: Dict[str, int] = {}
        for index, candidate in enumerate(population):
            unique.setdefault(candidate.fingerprint, index)
        indices = sorted(unique.values())
        pooled = [population[i] for i in indices]
        pooled_evals = [evaluations[i] for i in indices]
        ranks, crowding = self._rank(pooled_evals)
        order = sorted(
            range(len(pooled)),
            key=lambda i: (
                ranks[i],
                -crowding[i],
                pooled_evals[i].cost,
                pooled[i].fingerprint,
            ),
        )
        keep = order[: self._config.population_size]
        return [pooled[i] for i in keep], [pooled_evals[i] for i in keep]

    # -- the search hooks ------------------------------------------------------

    def _front(self) -> ParetoFront:
        if self._own_front is not None:
            return self._own_front
        return self._evaluator.front

    def _start(self, initial: Candidate, rng: random.Random) -> SearchState:
        population = self._initial_population(initial, rng)
        evaluations = self._evaluator.evaluate_many(population)
        if self._own_front is not None:
            self._own_front.offer_many(population, evaluations)
        self._population, self._evaluations = population, evaluations
        self._initial = (initial, evaluations[0])

        def better(index: int) -> Tuple[float, str]:
            return (evaluations[index].cost, population[index].fingerprint)

        best_index = min(range(len(population)), key=better)
        self._best = (population[best_index], evaluations[best_index])
        if not self._best[1].feasible:
            self._best = self._initial
        best_eval = self._best[1]
        return SearchState(
            evaluations=len(population),
            best_cost=best_eval.cost if best_eval.feasible else math.inf,
        )

    def _restore(self, engine_state: Dict[str, Any]) -> None:
        self._population = [
            candidate_from_json(entry) for entry in engine_state["population"]
        ]
        self._evaluations = [
            evaluation_from_json(entry) for entry in engine_state["evaluations"]
        ]

    def _engine_state(self) -> Dict[str, Any]:
        return {
            "population": [
                candidate_to_json(candidate) for candidate in self._population
            ],
            "evaluations": [
                evaluation_to_json(evaluation) for evaluation in self._evaluations
            ],
        }

    def _cycle(self, rng: random.Random, state: SearchState) -> TrajectoryPoint:
        """One generation: breed, score, track the best, select survivors."""
        config = self._config
        population, evaluations = self._population, self._evaluations
        ranks, crowding = self._rank(evaluations)
        children: List[Candidate] = []
        for _ in range(config.population_size):
            first = self._tournament(
                population, evaluations, ranks, crowding, rng
            )
            second = self._tournament(
                population, evaluations, ranks, crowding, rng
            )
            if rng.random() < CROSSOVER_RATE:
                child = self._crossover(
                    population[first], population[second], rng
                )
            else:
                winner = min(
                    (first, second),
                    key=lambda i: (ranks[i], -crowding[i], evaluations[i].cost),
                )
                child = population[winner]
            children.append(self._mutate(child, rng))

        child_evaluations = self._evaluator.evaluate_many(children)
        if self._own_front is not None:
            self._own_front.offer_many(children, child_evaluations)
        state.evaluations += len(children)

        # Track the best against every *evaluated* child, before survivor
        # selection: crowding truncation may drop the scalar-best child
        # from the next population, but it was still found by this run.
        best, best_eval = self._best
        improved = False
        for candidate, evaluation in zip(children, child_evaluations):
            if evaluation.feasible and (
                evaluation.cost < best_eval.cost - 1e-9
                or not best_eval.feasible
            ):
                best, best_eval = candidate, evaluation
                improved = True
        self._best = (best, best_eval)

        survivor_fingerprints = {c.fingerprint for c in population}
        self._population, self._evaluations = self._select_survivors(
            population + children, evaluations + child_evaluations
        )
        fresh_survivors = sum(
            1
            for candidate in self._population
            if candidate.fingerprint not in survivor_fingerprints
        )
        generation_best = min(
            (ev.cost for ev in self._evaluations if ev.feasible),
            default=math.inf,
        )
        return self._advance(
            state,
            improved,
            f"generation ({len(self._front())} front points)",
            generation_best,
            fresh_survivors,
        )
