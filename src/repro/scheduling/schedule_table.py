"""The schedule table produced by the merging algorithm.

The schedule table has one row per (ordinary or communication) process and one
row per condition broadcast.  Each column is headed by a conjunction of
condition values; the cell at row *P*, column *E* holds the activation time of
*P* when *E* is true.  Section 3 of the paper states four requirements the
table must satisfy to yield a deterministic distributed execution; this module
represents the table and checks requirements 1–3 statically.  Requirement 4 —
activation may only depend on conditions already known on the executing
processing element — is the merger's: each column holds only the conditions
known on the element at the entry's start, every adjusted schedule is locked
to the entries its path's label meets, and an entry the walk keeps as settled
must match the current schedule (see :mod:`repro.scheduling.merging`).  The
run-time simulator re-verifies it dynamically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..architecture.mapping import Mapping as PEMapping
from ..architecture.processing_element import ProcessingElement
from ..conditions import BoolExpr, Condition, Conjunction
from ..graph.cpg import ConditionalProcessGraph
from ..graph.paths import AlternativePath

#: Time-comparison tolerance; must match the scheduler's and merger's epsilon.
_EPSILON = 1e-9


class ScheduleTableError(ValueError):
    """Raised when a schedule table violates one of the paper's requirements."""


@dataclass(frozen=True)
class TableEntry:
    """One activation time, valid when the column expression is true."""

    column: Conjunction
    start: float
    pe: Optional[ProcessingElement] = None

    def __str__(self) -> str:
        return f"{self.start:g} [{self.column}]"


class _Row:
    """One table row as parallel columns, one position per entry.

    The column's ``pos``/``neg`` bitmasks, the start time as a plain float,
    and the entry object itself, in insertion order.  The merger's hot scans
    walk the integer columns directly instead of loading ``entry.column`` and
    calling mask methods per entry.
    """

    __slots__ = ("pos", "neg", "starts", "entries")

    def __init__(self) -> None:
        self.pos: List[int] = []
        self.neg: List[int] = []
        self.starts: List[float] = []
        self.entries: List[TableEntry] = []

    def append(self, entry: TableEntry) -> None:
        column = entry.column
        self.pos.append(column.pos_mask)
        self.neg.append(column.neg_mask)
        self.starts.append(entry.start)
        self.entries.append(entry)


class ScheduleTable:
    """Rows of activation times indexed by column expressions.

    Each row is kept once, as parallel integer/float columns
    (:class:`_Row`) the row scans (applicability, conflicts, row starts) walk
    directly.  Besides the rows, the table maintains a mask index: every
    distinct column (a bitmask pair over the condition universe) maps to the
    entries filed under it, each tagged with a global insertion sequence
    number.  The merger's hot queries — "which previously fixed activation
    times apply under this partial knowledge?" — then probe the few distinct
    columns with two integer operations each instead of scanning every row.
    """

    def __init__(self, name: str = "schedule-table") -> None:
        self.name = name
        self._process_rows: Dict[str, _Row] = {}
        self._condition_rows: Dict[Condition, _Row] = {}
        # column masks -> [(sequence, is_condition_row, row_key, entry), ...]
        # (an entry's sequence number is its position in the insertion log)
        self._column_index: Dict[Tuple[int, int], List[tuple]] = {}
        # The global insertion log: lock queries tie-break on insertion
        # order, so the log is part of the table's observable behaviour and
        # is what ``__eq__`` compares.
        self._entry_log: List[tuple] = []

    # -- construction ------------------------------------------------------------

    def _index_entry(self, is_condition: bool, key, entry: TableEntry) -> None:
        masks = (entry.column.pos_mask, entry.column.neg_mask)
        self._column_index.setdefault(masks, []).append(
            (len(self._entry_log), is_condition, key, entry)
        )
        self._entry_log.append((is_condition, key, entry))

    def add_process_entry(
        self,
        process_name: str,
        column: Conjunction,
        start: float,
        pe: Optional[ProcessingElement] = None,
    ) -> TableEntry:
        """Record an activation time for a process under a column expression."""
        entry = TableEntry(column, start, pe)
        row = self._process_rows.get(process_name)
        if row is None:
            row = self._process_rows[process_name] = _Row()
        row.append(entry)
        self._index_entry(False, process_name, entry)
        return entry

    def add_condition_entry(
        self,
        condition: Condition,
        column: Conjunction,
        start: float,
        pe: Optional[ProcessingElement] = None,
    ) -> TableEntry:
        """Record the start of a condition broadcast under a column expression."""
        entry = TableEntry(column, start, pe)
        row = self._condition_rows.get(condition)
        if row is None:
            row = self._condition_rows[condition] = _Row()
        row.append(entry)
        self._index_entry(True, condition, entry)
        return entry

    # -- access ---------------------------------------------------------------------

    @property
    def process_names(self) -> Tuple[str, ...]:
        return tuple(self._process_rows)

    @property
    def conditions(self) -> Tuple[Condition, ...]:
        return tuple(self._condition_rows)

    def process_entries(self, process_name: str) -> Tuple[TableEntry, ...]:
        row = self._process_rows.get(process_name)
        return tuple(row.entries) if row is not None else ()

    def condition_entries(self, condition: Condition) -> Tuple[TableEntry, ...]:
        row = self._condition_rows.get(condition)
        return tuple(row.entries) if row is not None else ()

    def columns(self) -> Tuple[Conjunction, ...]:
        """All distinct column expressions, sorted by generality then text."""
        seen = {entry.column for _, _, entry in self._entry_log}
        return tuple(sorted(seen, key=lambda c: (len(c), str(c))))

    def __iter__(self) -> Iterator[Tuple[str, Tuple[TableEntry, ...]]]:
        for name, row in self._process_rows.items():
            yield name, tuple(row.entries)

    def __len__(self) -> int:
        return len(self._process_rows)

    # -- mask-indexed queries (merger hot path) -----------------------------------

    @staticmethod
    def _first_applicable(
        row: Optional[_Row], pos_mask: int, neg_mask: int
    ) -> Optional[TableEntry]:
        """First entry of a row whose column the masks satisfy."""
        if row is None:
            return None
        row_pos = row.pos
        row_neg = row.neg
        for index in range(len(row_pos)):
            if not ((row_pos[index] & ~pos_mask) or (row_neg[index] & ~neg_mask)):
                return row.entries[index]
        return None

    @staticmethod
    def _row_conflicts(
        row: Optional[_Row], column: Conjunction, start: float
    ) -> List[TableEntry]:
        """Entries at a different start whose column is not exclusive with ``column``."""
        if row is None:
            return []
        conflicts: List[TableEntry] = []
        pos_mask = column.pos_mask
        neg_mask = column.neg_mask
        row_pos = row.pos
        row_neg = row.neg
        row_starts = row.starts
        for index in range(len(row_pos)):
            delta = row_starts[index] - start
            if -_EPSILON <= delta <= _EPSILON:
                continue
            if not ((row_pos[index] & neg_mask) | (row_neg[index] & pos_mask)):
                conflicts.append(row.entries[index])
        return conflicts

    def applicable_process_entry(
        self, process_name: str, pos_mask: int, neg_mask: int
    ) -> Optional[TableEntry]:
        """First entry of a process row whose column is satisfied by the masks."""
        return self._first_applicable(
            self._process_rows.get(process_name), pos_mask, neg_mask
        )

    def applicable_condition_entry(
        self, condition: Condition, pos_mask: int, neg_mask: int
    ) -> Optional[TableEntry]:
        """First entry of a condition row whose column is satisfied by the masks."""
        return self._first_applicable(
            self._condition_rows.get(condition), pos_mask, neg_mask
        )

    def conflicting_process_entries(
        self, process_name: str, column: Conjunction, start: float
    ) -> List[TableEntry]:
        """Entries of a process row violating requirement 2 against a new entry."""
        return self._row_conflicts(
            self._process_rows.get(process_name), column, start
        )

    def conflicting_condition_entries(
        self, condition: Condition, column: Conjunction, start: float
    ) -> List[TableEntry]:
        """Entries of a condition row violating requirement 2 against a new entry."""
        return self._row_conflicts(
            self._condition_rows.get(condition), column, start
        )

    def applicable_locks(
        self, pos_mask: int, neg_mask: int
    ) -> Tuple[Dict[str, TableEntry], Dict[Condition, TableEntry]]:
        """The first applicable entry of every row under the given masks.

        Walks the distinct columns of the mask index (a dict probe plus two
        integer operations per column) rather than every row of the table;
        per row the entry that was inserted first — the one a sequential row
        scan would return — wins.
        """
        process_best: Dict[str, tuple] = {}
        condition_best: Dict[Condition, tuple] = {}
        for (col_pos, col_neg), bucket in self._column_index.items():
            if (col_pos & ~pos_mask) or (col_neg & ~neg_mask):
                continue
            for sequence, is_condition, key, entry in bucket:
                best = condition_best if is_condition else process_best
                current = best.get(key)
                if current is None or sequence < current[0]:
                    best[key] = (sequence, entry)
        return (
            {name: entry for name, (_, entry) in process_best.items()},
            {condition: entry for condition, (_, entry) in condition_best.items()},
        )

    # -- interpretation ---------------------------------------------------------------

    @staticmethod
    def _row_start(
        row: Optional[_Row], pos_mask: int, neg_mask: int, label: str
    ) -> Optional[float]:
        """The single start time a row yields under the given masks, or None.

        Raises when several applicable columns give different times (a
        requirement-2 violation).
        """
        if row is None:
            return None
        row_pos = row.pos
        row_neg = row.neg
        row_starts = row.starts
        first: Optional[float] = None
        for index in range(len(row_pos)):
            if (row_pos[index] & ~pos_mask) or (row_neg[index] & ~neg_mask):
                continue
            start = row_starts[index]
            if first is None:
                first = start
            elif start != first:
                times = sorted(
                    {
                        row_starts[i]
                        for i in range(len(row_pos))
                        if not (
                            (row_pos[i] & ~pos_mask) or (row_neg[i] & ~neg_mask)
                        )
                    }
                )
                raise ScheduleTableError(f"ambiguous {label}: {times}")
        return first

    def activation_time(
        self, process_name: str, label: Conjunction
    ) -> Optional[float]:
        """Activation time of a process under the condition values of ``label``.

        ``label`` fixes every condition of an alternative path (a path
        label).  Returns None when no column applies (the process is not
        activated on that path).  Raises when several applicable columns
        give different times (a requirement-2 violation).
        """
        return self._row_start(
            self._process_rows.get(process_name),
            label.pos_mask,
            label.neg_mask,
            f"activation time for {process_name!r}",
        )

    def broadcast_time(
        self, condition: Condition, label: Conjunction
    ) -> Optional[float]:
        """Broadcast start time of a condition under the values of ``label``."""
        return self._row_start(
            self._condition_rows.get(condition),
            label.pos_mask,
            label.neg_mask,
            f"broadcast time for condition {condition}",
        )

    def delay_of_path(
        self,
        graph: ConditionalProcessGraph,
        mapping: PEMapping,
        path: AlternativePath,
    ) -> float:
        """Completion time of one alternative path executed from this table."""
        delay = 0.0
        pos, neg = path.label.pos_mask, path.label.neg_mask
        rows = self._process_rows
        row_start = self._row_start
        for name in path.active_processes:
            process = graph[name]
            if process.is_dummy:
                continue
            duration = process.duration_on(mapping.get(name))
            start = row_start(
                rows.get(name),
                pos,
                neg,
                f"activation time for {name!r}",
            )
            if start is None:
                raise ScheduleTableError(
                    f"process {name!r} is active on path {path.label} but the "
                    "table contains no applicable activation time"
                )
            total = start + duration
            if total > delay:
                delay = total
        return delay

    def worst_case_delay(
        self,
        graph: ConditionalProcessGraph,
        mapping: PEMapping,
        paths: Iterable[AlternativePath],
    ) -> float:
        """The worst-case delay ``delta_max`` over all alternative paths."""
        return max(self.delay_of_path(graph, mapping, path) for path in paths)

    # -- the paper's requirements -----------------------------------------------------

    def check_requirement_1(self, graph: ConditionalProcessGraph) -> None:
        """Every column of a process row must imply the process guard."""
        guards = graph.guards()
        for name, row in self._process_rows.items():
            guard = guards.get(name)
            if guard is None:
                continue
            for entry in row.entries:
                if not BoolExpr.from_conjunction(entry.column).implies(guard):
                    raise ScheduleTableError(
                        f"requirement 1 violated for {name!r}: column "
                        f"{entry.column} does not imply guard {guard}"
                    )

    def check_requirement_2(self) -> None:
        """Different activation times of one process must be mutually exclusive."""
        for name, row in self._process_rows.items():
            self._check_exclusive(str(name), row.entries)
        for condition, row in self._condition_rows.items():
            self._check_exclusive(f"condition {condition}", row.entries)

    @staticmethod
    def _check_exclusive(label: str, entries: List[TableEntry]) -> None:
        for i, first in enumerate(entries):
            for second in entries[i + 1 :]:
                if abs(first.start - second.start) < _EPSILON:
                    continue
                if not first.column.is_mutually_exclusive_with(second.column):
                    raise ScheduleTableError(
                        f"requirement 2 violated for {label}: columns "
                        f"{first.column} (t={first.start:g}) and {second.column} "
                        f"(t={second.start:g}) are not mutually exclusive"
                    )

    def check_requirement_3(
        self, graph: ConditionalProcessGraph, paths: Iterable[AlternativePath]
    ) -> None:
        """Whenever a guard becomes true the process must have an activation time."""
        for path in paths:
            for name in path.active_processes:
                if graph[name].is_dummy:
                    continue
                if self.activation_time(name, path.label) is None:
                    raise ScheduleTableError(
                        f"requirement 3 violated: {name!r} is active on path "
                        f"{path.label} but has no applicable activation time"
                    )

    def check_requirements(
        self, graph: ConditionalProcessGraph, paths: Iterable[AlternativePath]
    ) -> None:
        """Run the static checks for requirements 1–3."""
        paths = list(paths)
        self.check_requirement_1(graph)
        self.check_requirement_2()
        self.check_requirement_3(graph, paths)

    def __eq__(self, other: object) -> bool:
        """Value equality: same name and same entries in the same global order.

        The insertion log determines every derived structure (rows, mask
        index, lock tie-breaks), so comparing it compares the table's
        complete observable behaviour.
        """
        if not isinstance(other, ScheduleTable):
            return NotImplemented
        return self.name == other.name and self._entry_log == other._entry_log

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return (
            f"ScheduleTable(name={self.name!r}, rows={len(self._process_rows)}, "
            f"columns={len(self.columns())})"
        )

