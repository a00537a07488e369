"""Process nodes of a conditional process graph.

Four kinds of nodes appear in the model of the paper:

* the *source* and *sink* dummy processes that make the graph polar;
* *ordinary* processes specified by the designer;
* *communication* processes inserted on every edge that connects processes
  mapped to different processors; they are mapped to buses and their
  execution time is the communication time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Mapping, Optional

from ..architecture.processing_element import ProcessingElement


class ProcessKind(Enum):
    """The kind of a node in the conditional process graph."""

    SOURCE = "source"
    SINK = "sink"
    ORDINARY = "ordinary"
    COMMUNICATION = "communication"


@dataclass(frozen=True)
class Process:
    """A node of the conditional process graph.

    Parameters
    ----------
    name:
        Unique name within the graph (e.g. ``"P3"``).
    execution_time:
        Nominal execution time of the process.  For communication processes
        this is the communication time.  Source and sink processes have zero
        execution time.
    kind:
        Source, sink, ordinary or communication.
    execution_times:
        Optional per-processing-element override, keyed by PE name.  When a
        process is mapped to a PE present in this mapping the override is used
        verbatim (not scaled by the PE speed); otherwise the nominal
        ``execution_time`` is divided by the PE speed.  The paper's ATM case
        study, where the same process has different worst-case execution times
        on a 486 and on a Pentium, uses this mechanism.
    is_conjunction:
        Force the node to be treated as a conjunction process (activated when
        the inputs of *one* alternative path have arrived).  When left False
        the graph auto-detects conjunction nodes from mutually exclusive
        predecessor guards.
    """

    name: str
    execution_time: float = 0.0
    kind: ProcessKind = ProcessKind.ORDINARY
    execution_times: Optional[Mapping[str, float]] = field(default=None)
    is_conjunction: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("process name must be non-empty")
        if self.execution_time < 0:
            raise ValueError(f"negative execution time for process {self.name!r}")
        if self.kind in (ProcessKind.SOURCE, ProcessKind.SINK) and self.execution_time:
            raise ValueError("source and sink processes must have zero execution time")
        if self.execution_times is not None:
            frozen: Dict[str, float] = dict(self.execution_times)
            for pe_name, time in frozen.items():
                if time < 0:
                    raise ValueError(
                        f"negative execution time for {self.name!r} on {pe_name!r}"
                    )
            object.__setattr__(self, "execution_times", frozen)

    def __str__(self) -> str:
        return self.name

    @property
    def is_source(self) -> bool:
        return self.kind is ProcessKind.SOURCE

    @property
    def is_sink(self) -> bool:
        return self.kind is ProcessKind.SINK

    @property
    def is_dummy(self) -> bool:
        """True for the polar source/sink dummy processes."""
        return self.kind in (ProcessKind.SOURCE, ProcessKind.SINK)

    @property
    def is_ordinary(self) -> bool:
        return self.kind is ProcessKind.ORDINARY

    @property
    def is_communication(self) -> bool:
        return self.kind is ProcessKind.COMMUNICATION

    def duration_on(self, pe: Optional[ProcessingElement]) -> float:
        """Execution time of this process when run on the given element.

        Dummy processes always take zero time.  If a per-PE override exists it
        is used verbatim; otherwise the nominal time is scaled by the PE speed.
        When ``pe`` is None the nominal time is returned.
        """
        if self.is_dummy:
            return 0.0
        if pe is None:
            return self.execution_time
        if self.execution_times and pe.name in self.execution_times:
            return float(self.execution_times[pe.name])
        return pe.scaled_time(self.execution_time)


def source_process(name: str = "source") -> Process:
    """Create the dummy source process."""
    return Process(name, 0.0, ProcessKind.SOURCE)


def sink_process(name: str = "sink") -> Process:
    """Create the dummy sink process."""
    return Process(name, 0.0, ProcessKind.SINK)


def ordinary_process(
    name: str,
    execution_time: float,
    execution_times: Optional[Mapping[str, float]] = None,
    is_conjunction: bool = False,
) -> Process:
    """Create an ordinary (designer-specified) process."""
    return Process(
        name,
        execution_time,
        ProcessKind.ORDINARY,
        execution_times,
        is_conjunction,
    )


def communication_process(name: str, communication_time: float) -> Process:
    """Create a communication process (inserted on inter-processor edges)."""
    return Process(name, communication_time, ProcessKind.COMMUNICATION)


def communication_name(src: str, dst: str) -> str:
    """The name of the communication process inserted on edge ``src -> dst``."""
    return f"{src}_to_{dst}"
