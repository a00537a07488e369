"""The three operating modes of the ATM OAM block as conditional process graphs.

The paper identifies three independent modes in the functionality of the OAM
block (F4 level): depending on the content of the input buffers the block
switches between them, and each mode is controlled by its own statically
generated schedule table.  Table 2 lists only the *sizes* of the three process
graphs (32 processes / 6 paths, 23 / 3 and 42 / 8); the VHDL models themselves
are not public, so the graphs below are synthetic reconstructions with exactly
those sizes and with the structural properties the paper's discussion relies
on:

* **mode 1** (cell monitoring / performance management) has two parallel
  processing chains with independent memory accesses — it benefits from a
  second processor and, once the processors are fast, from a second memory
  module;
* **mode 2** (fault management bookkeeping) is a purely sequential chain —
  no architecture change except a faster processor helps;
* **mode 3** (loopback / continuity checking) has a small amount of
  parallelism whose benefit is eaten by inter-processor communication when
  the processors are fast.

Execution times are nominal 486DX2-80 nanoseconds; memory-access processes run
on the memory modules and are therefore insensitive to the CPU type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..conditions import Condition, Literal
from ..graph import CPGBuilder, ConditionalProcessGraph

#: Default time of one transfer on the OAM bus (nanoseconds).
OAM_COMMUNICATION_TIME: float = 30.0


@dataclass
class OAMMode:
    """One operating mode of the OAM block, ready to be mapped and scheduled."""

    index: int
    graph: ConditionalProcessGraph
    #: Parallel-group tag ("A" or "B") of every CPU process.
    cpu_groups: Dict[str, str]
    #: Preferred memory module (1 or 2) of every memory-access process.
    memory_groups: Dict[str, int]
    #: Published characteristics (Table 2): number of processes and of paths.
    expected_processes: int = 0
    expected_paths: int = 0

    @property
    def name(self) -> str:
        return f"mode{self.index}"

    @property
    def memory_processes(self) -> Tuple[str, ...]:
        return tuple(self.memory_groups)


class _ModeBuilder:
    """Small helper that tracks CPU/memory tags while building a mode graph."""

    def __init__(self, name: str) -> None:
        self.builder = CPGBuilder(name)
        self.cpu_groups: Dict[str, str] = {}
        self.memory_groups: Dict[str, int] = {}

    def cpu(self, name: str, time: float, group: str = "A") -> str:
        self.builder.process(name, time)
        self.cpu_groups[name] = group
        return name

    def mem(self, name: str, time: float, module: int = 1) -> str:
        self.builder.process(name, time)
        self.memory_groups[name] = module
        return name

    def edge(
        self,
        src: str,
        dst: str,
        condition: Optional[Literal] = None,
        communication_time: float = OAM_COMMUNICATION_TIME,
    ) -> None:
        self.builder.edge(src, dst, condition, communication_time)

    def chain(self, *names: str) -> None:
        for src, dst in zip(names, names[1:]):
            self.edge(src, dst)

    def count(self) -> int:
        return len(self.cpu_groups) + len(self.memory_groups)

    def finish(self) -> ConditionalProcessGraph:
        return self.builder.build()


def build_mode1() -> OAMMode:
    """Mode 1: 32 processes, 6 alternative paths, parallel chains + memory traffic."""
    b = _ModeBuilder("oam-mode1")
    c1, c2, c3 = Condition("c1"), Condition("c2"), Condition("c3")

    b.cpu("p1", 60)
    b.cpu("p2", 70)
    b.cpu("d1", 50)
    b.chain("p1", "p2", "d1")

    # c1-true: two parallel chains with one memory access each.  The CPU work
    # in front of each access is sized so that the two accesses only collide
    # on a single memory module when both processors are Pentiums.
    b.cpu("a1", 300, "A")
    b.cpu("a2", 500, "A")
    b.mem("m1", 300, 1)
    b.cpu("a3", 60, "A")
    b.edge("d1", "a1", c1.true())
    b.chain("a1", "a2", "m1", "a3")
    b.cpu("b1", 480, "B")
    b.mem("m2", 300, 2)
    b.cpu("b2", 60, "B")
    b.edge("d1", "b1", c1.true())
    b.chain("b1", "m2", "b2")

    # c1-false: a single shorter chain.
    b.cpu("e1", 90)
    b.mem("m3", 150, 1)
    b.cpu("e2", 100)
    b.edge("d1", "e1", c1.false())
    b.chain("e1", "m3", "e2")

    b.cpu("j1", 40)
    b.edge("a3", "j1")
    b.edge("b2", "j1")
    b.edge("e2", "j1")

    b.cpu("g1", 90)
    b.cpu("d2", 50)
    b.chain("j1", "g1", "d2")

    # c2-true: a nested conditional (condition c3).
    b.cpu("d3", 45)
    b.edge("d2", "d3", c2.true())
    b.cpu("h1", 120, "A")
    b.cpu("h2", 90, "A")
    b.edge("d3", "h1", c3.true())
    b.chain("h1", "h2")
    b.cpu("i1", 100, "A")
    b.cpu("i2", 110, "A")
    b.edge("d3", "i1", c3.false())
    b.chain("i1", "i2")
    b.cpu("j3", 40)
    b.edge("h2", "j3")
    b.edge("i2", "j3")

    # c2-false: two short parallel chains, one of them memory bound.
    b.cpu("k1", 130, "A")
    b.cpu("k2", 90, "A")
    b.edge("d2", "k1", c2.false())
    b.chain("k1", "k2")
    b.mem("m4", 180, 1)
    b.cpu("k3", 70, "B")
    b.edge("d2", "m4", c2.false())
    b.chain("m4", "k3")

    b.cpu("j2", 40)
    b.edge("j3", "j2")
    b.edge("k2", "j2")
    b.edge("k3", "j2")

    b.cpu("s1", 80)
    b.mem("s2", 120, 2)
    b.cpu("s3", 90)
    b.cpu("s4", 70)
    b.cpu("s5", 60)
    b.chain("j2", "s1", "s2", "s3", "s4", "s5")

    mode = OAMMode(1, b.finish(), b.cpu_groups, b.memory_groups, 32, 6)
    _check_size(mode, b)
    return mode


def build_mode2() -> OAMMode:
    """Mode 2: 23 processes, 3 alternative paths, a purely sequential chain."""
    b = _ModeBuilder("oam-mode2")
    c1, c2 = Condition("c1"), Condition("c2")

    b.cpu("p1", 70)
    b.mem("p2", 110, 1)
    b.cpu("p3", 90)
    b.cpu("p4", 60)
    b.mem("p5", 120, 2)
    b.cpu("p6", 80)
    b.cpu("d1", 50)
    b.chain("p1", "p2", "p3", "p4", "p5", "p6", "d1")

    b.cpu("t1", 90)
    b.mem("t2", 130, 1)
    b.cpu("t3", 70)
    b.cpu("d2", 50)
    b.edge("d1", "t1", c1.true())
    b.chain("t1", "t2", "t3", "d2")
    b.cpu("u1", 120)
    b.cpu("u2", 80)
    b.edge("d2", "u1", c2.true())
    b.chain("u1", "u2")
    b.cpu("v1", 70)
    b.cpu("v2", 60)
    b.edge("d2", "v1", c2.false())
    b.chain("v1", "v2")
    b.cpu("j2", 40)
    b.edge("u2", "j2")
    b.edge("v2", "j2")
    b.cpu("t4", 90)
    b.edge("j2", "t4")

    b.cpu("f1", 110)
    b.mem("f2", 140, 1)
    b.cpu("f3", 90)
    b.cpu("f4", 70)
    b.edge("d1", "f1", c1.false())
    b.chain("f1", "f2", "f3", "f4")

    b.cpu("j1", 40)
    b.edge("t4", "j1")
    b.edge("f4", "j1")
    b.cpu("s1", 80)
    b.edge("j1", "s1")

    mode = OAMMode(2, b.finish(), b.cpu_groups, b.memory_groups, 23, 3)
    _check_size(mode, b)
    return mode


def build_mode3() -> OAMMode:
    """Mode 3: 42 processes, 8 alternative paths, marginal parallelism."""
    b = _ModeBuilder("oam-mode3")
    conditions = [Condition("c1"), Condition("c2"), Condition("c3")]

    b.cpu("q1", 90)
    b.cpu("q2", 110)
    b.mem("q3", 130, 1)
    b.cpu("q4", 80)
    b.chain("q1", "q2", "q3", "q4")

    previous = "q4"
    inter_chains: List[List[str]] = [["w1", "w2"], ["w3", "w4"], []]
    for block, condition in enumerate(conditions, start=1):
        d = b.cpu(f"d{block}", 50)
        b.edge(previous, d)
        true_names = [f"t{block}_{i}" for i in range(1, 5)]
        for index, name in enumerate(true_names):
            b.cpu(name, 120 if index % 2 == 0 else 90)
        b.edge(d, true_names[0], condition.true())
        b.chain(*true_names)
        false_names = [f"f{block}_{i}" for i in range(1, 4)]
        for index, name in enumerate(false_names):
            b.cpu(name, 100 if index % 2 == 0 else 70)
        b.edge(d, false_names[0], condition.false())
        b.chain(*false_names)
        j = b.cpu(f"j{block}", 40)
        b.edge(true_names[-1], j)
        b.edge(false_names[-1], j)
        previous = j
        for name in inter_chains[block - 1]:
            b.cpu(name, 90)
            b.edge(previous, name)
            previous = name

    # Suffix: a main CPU chain in parallel with a memory-bound side chain.
    # On one processor the memory access hides behind the main chain at any
    # CPU speed; off-loading the side chain to a second processor removes CPU
    # work worth 400 ns on a 486 but only 250 ns on a Pentium, which no longer
    # covers the extra bus transfer — so the second processor only pays off
    # for the 486 (the paper's mode-3 behaviour).
    b.cpu("z1", 180)
    b.cpu("z2", 180)
    b.cpu("z3", 180)
    b.cpu("z4", 160)
    b.edge(previous, "z1")
    b.chain("z1", "z2", "z3", "z4")
    b.cpu("y1", 200, "B")
    b.mem("ym", 400, 1)
    b.cpu("y2", 200, "B")
    b.edge(previous, "y1", communication_time=150.0)
    b.edge("y1", "ym")
    b.edge("ym", "y2")

    mode = OAMMode(3, b.finish(), b.cpu_groups, b.memory_groups, 42, 8)
    _check_size(mode, b)
    return mode


def _check_size(mode: OAMMode, builder: _ModeBuilder) -> None:
    actual = builder.count()
    if actual != mode.expected_processes:
        raise AssertionError(
            f"{mode.name} has {actual} processes, expected {mode.expected_processes}"
        )


def build_all_modes() -> List[OAMMode]:
    """The three OAM operating modes of Table 2."""
    return [build_mode1(), build_mode2(), build_mode3()]

