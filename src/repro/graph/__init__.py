"""The conditional process graph (CPG) model.

This package implements the abstract system representation of the paper: a
directed, acyclic, polar graph whose nodes are processes and whose edges are
simple (dataflow) or conditional (dataflow guarded by a condition value).  It
also provides communication-process expansion for a given mapping and the
enumeration of the alternative paths the scheduler works on.
"""

from .builder import CPGBuilder, build_chain_graph
from .communication import (
    BUS_POLICIES,
    CommunicationInfo,
    ExpandedGraph,
    ExpansionStructure,
    assign_buses,
    crossing_edges,
    expand_communications,
    expansion_structure,
    is_expanded,
    message_id,
)
from .cpg import ConditionalProcessGraph, GraphStructureError
from .edges import Edge
from .paths import (
    AlternativePath,
    PathEnumerator,
    count_paths,
    enumerate_paths,
    expanded_paths,
)
from .process import (
    Process,
    ProcessKind,
    communication_process,
    ordinary_process,
    sink_process,
    source_process,
)

__all__ = [
    "AlternativePath",
    "BUS_POLICIES",
    "CPGBuilder",
    "CommunicationInfo",
    "ConditionalProcessGraph",
    "Edge",
    "ExpandedGraph",
    "ExpansionStructure",
    "GraphStructureError",
    "PathEnumerator",
    "Process",
    "ProcessKind",
    "assign_buses",
    "build_chain_graph",
    "communication_process",
    "count_paths",
    "crossing_edges",
    "enumerate_paths",
    "expand_communications",
    "expanded_paths",
    "expansion_structure",
    "is_expanded",
    "message_id",
    "ordinary_process",
    "sink_process",
    "source_process",
]
