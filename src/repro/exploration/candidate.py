"""Design points of the mapping/priority/platform search space.

A :class:`Candidate` is one point the explorer can evaluate: an assignment of
every ordinary process to a processor, the priority configuration the
per-path list scheduler should use (one of the registered priority functions,
optionally perturbed per process), an optional explicit *communication
assignment* pinning individual messages to buses (message id -> bus; unpinned
messages keep the problem's derivation policy) and — when architecture sizing
is enabled — the *platform*: which programmable processors and buses are
instantiated.  Candidates are immutable value objects — neighbourhood moves
derive new candidates instead of mutating — and carry a stable content hash
(:attr:`Candidate.fingerprint`) that keys the evaluation cache: two candidates
describing the same design point always collide, so a revisited
mapping/platform never re-runs the schedule merger.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..architecture.mapping import Mapping as PEMapping

DEFAULT_PRIORITY_FUNCTION = "critical_path"


@dataclass(frozen=True)
class Candidate:
    """One explorable design point: process-to-PE assignment + priorities.

    Attributes
    ----------
    assignment:
        Sorted ``(process name, processing element name)`` pairs for every
        ordinary process.  Stored as a tuple so candidates are hashable and
        cheap to ship across the evaluation pool.
    priority_function:
        Name of the registered priority function the list scheduler uses
        (see :data:`repro.scheduling.PRIORITY_FUNCTIONS`).
    priority_bias:
        Sorted ``(process name, additive bias)`` pairs perturbing the computed
        priorities; processes not listed keep their computed priority.
    platform:
        Sorted ``(element name, kind)`` pairs naming the *sizable* processing
        elements this design point instantiates — programmable processors and
        buses; hardware processors are never sizable and stay implicit.  The
        empty tuple (the default) means architecture sizing is disabled and
        the problem's base architecture is used unchanged.
    communication_assignment:
        Sorted ``(message id, bus name)`` pairs pinning individual messages
        (see :func:`repro.graph.message_id`) to buses.  Messages without an
        entry keep the problem's derivation policy; entries for messages whose
        endpoints are currently co-located stay dormant, so the pin survives
        remapping of the endpoint processes.  The empty tuple (the default)
        derives every bus, reproducing the pre-mapping behaviour exactly.
    """

    assignment: Tuple[Tuple[str, str], ...]
    priority_function: str = DEFAULT_PRIORITY_FUNCTION
    priority_bias: Tuple[Tuple[str, float], ...] = field(default=())
    platform: Tuple[Tuple[str, str], ...] = field(default=())
    communication_assignment: Tuple[Tuple[str, str], ...] = field(default=())

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_mapping(
        cls,
        mapping: PEMapping,
        processes: Optional[Iterable[str]] = None,
        priority_function: str = DEFAULT_PRIORITY_FUNCTION,
        platform: Tuple[Tuple[str, str], ...] = (),
    ) -> "Candidate":
        """Build a candidate from an existing mapping.

        ``processes`` restricts the candidate to the given process names
        (typically the ordinary processes, excluding communications whose bus
        assignment is derived during expansion); by default every mapped
        process is included.  ``platform`` seeds the sizable-element set when
        architecture sizing is enabled.
        """
        names = tuple(processes) if processes is not None else tuple(mapping)
        pairs = tuple(sorted((name, mapping[name].name) for name in names))
        return cls(
            assignment=pairs,
            priority_function=priority_function,
            platform=tuple(sorted(platform)),
        )

    # -- views ---------------------------------------------------------------

    @cached_property
    def assignment_dict(self) -> Dict[str, str]:
        """The assignment as a process name -> PE name dict."""
        return dict(self.assignment)

    @cached_property
    def bias_dict(self) -> Dict[str, float]:
        """The priority perturbation as a process name -> bias dict."""
        return dict(self.priority_bias)

    @cached_property
    def communication_dict(self) -> Dict[str, str]:
        """The explicit communication mapping as a message id -> bus name dict."""
        return dict(self.communication_assignment)

    @cached_property
    def platform_processors(self) -> Tuple[str, ...]:
        """Names of the programmable processors this platform instantiates."""
        return tuple(name for name, kind in self.platform if kind != "bus")

    @cached_property
    def platform_buses(self) -> Tuple[str, ...]:
        """Names of the buses this platform instantiates."""
        return tuple(name for name, kind in self.platform if kind == "bus")

    @cached_property
    def fingerprint(self) -> str:
        """Stable content hash of this design point (evaluation-cache key)."""
        digest = hashlib.sha256()
        digest.update(self.priority_function.encode())
        for name, pe_name in self.assignment:
            digest.update(f"|{name}={pe_name}".encode())
        for name, bias in self.priority_bias:
            digest.update(f"|{name}+{bias!r}".encode())
        for name, kind in self.platform:
            digest.update(f"|@{name}:{kind}".encode())
        for message, bus_name in self.communication_assignment:
            digest.update(f"|~{message}:{bus_name}".encode())
        return digest.hexdigest()[:20]

    def pe_of(self, process_name: str) -> str:
        return self.assignment_dict[process_name]

    # -- sub-fingerprint slices (incremental evaluation) ---------------------

    def assignment_slice(
        self, names: Iterable[str]
    ) -> Tuple[Tuple[str, str], ...]:
        """The assignment restricted to ``names``, as sorted pairs.

        One component of a *sub-fingerprint*: the per-path schedule cache of
        the incremental evaluator keys each alternative path on only the
        state that path can observe, and the placement of the path's own
        processes is the largest part of it.  Names without an assignment
        entry (dummies, communication processes) are simply absent.
        """
        members = names if isinstance(names, (set, frozenset)) else set(names)
        return tuple(pair for pair in self.assignment if pair[0] in members)

    def bias_slice(self, names: Iterable[str]) -> Tuple[Tuple[str, float], ...]:
        """The priority bias restricted to ``names``, as sorted pairs.

        The companion of :meth:`assignment_slice` for the priority
        perturbation: a bias on a process outside the path cannot change the
        path's schedule, so it must not fragment the path's cache key.
        """
        members = names if isinstance(names, (set, frozenset)) else set(names)
        return tuple(pair for pair in self.priority_bias if pair[0] in members)

    # -- functional updates (neighbourhood moves build on these) -------------

    def reassigned(self, process_name: str, pe_name: str) -> "Candidate":
        """Return a copy with one process moved to another processing element."""
        updated = dict(self.assignment)
        if process_name not in updated:
            raise KeyError(f"process {process_name!r} is not part of the candidate")
        updated[process_name] = pe_name
        return replace(self, assignment=tuple(sorted(updated.items())))

    def swapped(self, first: str, second: str) -> "Candidate":
        """Return a copy with the processing elements of two processes exchanged."""
        updated = dict(self.assignment)
        updated[first], updated[second] = updated[second], updated[first]
        return replace(self, assignment=tuple(sorted(updated.items())))

    def with_priority_function(self, name: str) -> "Candidate":
        """Return a copy dispatched with a different priority function."""
        return replace(self, priority_function=name)

    def with_bias(self, process_name: str, delta: float) -> "Candidate":
        """Return a copy with ``delta`` added to one process' priority bias."""
        bias = dict(self.priority_bias)
        updated = bias.get(process_name, 0.0) + delta
        if updated == 0.0:
            bias.pop(process_name, None)
        else:
            bias[process_name] = updated
        return replace(self, priority_bias=tuple(sorted(bias.items())))

    def with_communication(self, message: str, bus_name: str) -> "Candidate":
        """Return a copy with one message pinned to the given bus."""
        updated = dict(self.communication_assignment)
        updated[message] = bus_name
        return replace(
            self, communication_assignment=tuple(sorted(updated.items()))
        )

    def with_element(self, name: str, kind: str) -> "Candidate":
        """Return a copy with one sizable element (processor or bus) added."""
        if any(existing == name for existing, _ in self.platform):
            raise ValueError(f"element {name!r} is already part of the platform")
        return replace(self, platform=tuple(sorted(self.platform + ((name, kind),))))

    def without_element(self, name: str) -> "Candidate":
        """Return a copy with one sizable element removed from the platform."""
        if not any(existing == name for existing, _ in self.platform):
            raise ValueError(f"element {name!r} is not part of the platform")
        return replace(
            self,
            platform=tuple(pair for pair in self.platform if pair[0] != name),
        )

    def to_mapping(self, architecture) -> PEMapping:
        """Materialise the assignment as a :class:`repro.Mapping`."""
        mapping = PEMapping(architecture)
        for name, pe_name in self.assignment:
            mapping.assign(name, pe_name)
        return mapping

    def __str__(self) -> str:
        return f"candidate[{self.fingerprint}]"
