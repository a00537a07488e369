"""Fluent builder for conditional process graphs.

The builder takes care of the polar structure (source and sink dummy
processes) so that users only describe the designer-visible processes and
their data/control dependencies:

>>> from repro.conditions import Condition
>>> from repro.graph import CPGBuilder
>>> C = Condition("C")
>>> builder = CPGBuilder("demo")
>>> _ = builder.process("P1", 2.0)
>>> _ = builder.process("P2", 3.0)
>>> _ = builder.process("P3", 1.0)
>>> _ = builder.edge("P1", "P2", condition=C.true())
>>> _ = builder.edge("P1", "P3", condition=C.false())
>>> graph = builder.build()
>>> len(graph.conditions)
1
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..conditions import Literal
from .cpg import ConditionalProcessGraph, GraphStructureError
from .edges import Edge
from .process import (
    Process,
    ordinary_process,
    sink_process,
    source_process,
)


class CPGBuilder:
    """Incrementally build a conditional process graph.

    The builder automatically adds the polar source and sink processes and, at
    :meth:`build` time, connects every process without predecessors to the
    source and every process without successors to the sink, then validates
    the result.
    """

    def __init__(
        self,
        name: str = "cpg",
        source_name: str = "source",
        sink_name: str = "sink",
    ) -> None:
        self._graph = ConditionalProcessGraph(name)
        self._source = source_process(source_name)
        self._sink = sink_process(sink_name)
        self._graph.add_process(self._source)
        self._graph.add_process(self._sink)
        self._built = False

    @property
    def source_name(self) -> str:
        return self._source.name

    @property
    def sink_name(self) -> str:
        return self._sink.name

    def process(
        self,
        name: str,
        execution_time: float,
        execution_times: Optional[Mapping[str, float]] = None,
        is_conjunction: bool = False,
    ) -> "CPGBuilder":
        """Add an ordinary process."""
        self._graph.add_process(
            ordinary_process(name, execution_time, execution_times, is_conjunction)
        )
        return self

    def add(self, process: Process) -> "CPGBuilder":
        """Add an already-constructed process node."""
        self._graph.add_process(process)
        return self

    def edge(
        self,
        src: str,
        dst: str,
        condition: Optional[Literal] = None,
        communication_time: float = 0.0,
    ) -> "CPGBuilder":
        """Add a (simple or conditional) edge between two processes."""
        self._graph.add_edge(Edge(src, dst, condition, communication_time))
        return self

    def chain(self, *names: str, communication_time: float = 0.0) -> "CPGBuilder":
        """Add simple edges forming a chain ``names[0] -> names[1] -> ...``."""
        for src, dst in zip(names, names[1:]):
            self.edge(src, dst, communication_time=communication_time)
        return self

    def build(self, validate: bool = True) -> ConditionalProcessGraph:
        """Finalise the graph: polarise, optionally validate, and return it."""
        if self._built:
            raise RuntimeError("build() may only be called once per builder")
        source = self._source.name
        sink = self._sink.name
        for process in self._graph.processes:
            if process.name in (source, sink):
                continue
            if not self._graph.predecessors(process.name):
                self._graph.connect(source, process.name)
            if not self._graph.successors(process.name):
                self._graph.connect(process.name, sink)
        if not self._graph.successors(source) and len(self._graph) > 2:
            # No process was left without a predecessor, so walking
            # predecessors back from any process revisits one: a cycle.
            raise GraphStructureError("the process graph must be acyclic")
        if validate:
            self._graph.validate()
        self._built = True
        return self._graph


def build_chain_graph(
    name: str, execution_times: Dict[str, float]
) -> ConditionalProcessGraph:
    """Build a purely sequential graph from an ordered name -> time mapping."""
    builder = CPGBuilder(name)
    names = list(execution_times)
    for process_name in names:
        builder.process(process_name, execution_times[process_name])
    builder.chain(*names)
    return builder.build()
