"""Capture golden schedule tables and explore digests for the equivalence tests.

Runs ``merge_schedules`` on the Fig. 1 example, one ATM OAM mode and ten
seeded random CPGs, and serialises every table entry (row, column, start,
processing element) to ``tests/data/golden_tables.json``.  It also runs a
few fast ``repro-cpg explore --json`` configurations (each engine, the
two-bus communication-mapped Fig. 1, architecture sizing) and records the
sha256 of each output in ``tests/data/golden_explore.json``.  The recorded
output pins down the exact tables and search results the implementation
produced; the golden tests replay the same workloads and assert
byte-identical results, so any scheduler, condition-algebra or explorer
optimisation that changes results is caught immediately.

Usage::

    PYTHONPATH=src python scripts/capture_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from repro.atm import build_mode1, build_oam_architecture, candidate_mappings
from repro.atm.processors import table2_architecture_configs
from repro.cli import main as cli_main
from repro.data import load_fig1_example
from repro.generator import generate_system
from repro.graph import expand_communications
from repro.scheduling import ScheduleMerger

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
OUTPUT = DATA / "golden_tables.json"
EXPLORE_OUTPUT = DATA / "golden_explore.json"

#: The ten seeded random systems recorded in the golden file.
RANDOM_CASES = [
    {"nodes": 40 + 10 * i, "alternative_paths": 4 + (i % 4) * 2, "seed": i}
    for i in range(10)
]


def serialize_table(result) -> dict:
    """Deterministic JSON form of a merge result's schedule table."""
    table = result.table
    process_rows = {}
    for name in sorted(table.process_names):
        entries = sorted(
            table.process_entries(name), key=lambda e: (e.start, str(e.column))
        )
        process_rows[name] = [
            {
                "column": str(entry.column),
                "start": round(entry.start, 6),
                "pe": entry.pe.name if entry.pe is not None else None,
            }
            for entry in entries
        ]
    condition_rows = {}
    for condition in sorted(table.conditions, key=str):
        entries = sorted(
            table.condition_entries(condition), key=lambda e: (e.start, str(e.column))
        )
        condition_rows[str(condition)] = [
            {
                "column": str(entry.column),
                "start": round(entry.start, 6),
                "pe": entry.pe.name if entry.pe is not None else None,
            }
            for entry in entries
        ]
    return {
        "process_rows": process_rows,
        "condition_rows": condition_rows,
        "delta_m": round(result.delta_m, 6),
        "delta_max": round(result.delta_max, 6),
    }

#: ``repro-cpg explore`` arguments (``--json`` is added) whose output
#: digests are recorded: every engine on one random system, the two-bus
#: Fig. 1 with communication mapping, and one architecture-sizing run.
_RANDOM_40 = ["--nodes", "40", "--paths", "8", "--seed", "3"]
EXPLORE_CASES = {
    "tabu_n40_p8": _RANDOM_40 + ["--engine", "tabu", "--cycles", "4", "--neighbors", "6"],
    "anneal_n40_p8": _RANDOM_40 + ["--engine", "anneal", "--cycles", "6", "--neighbors", "4"],
    "genetic_n40_p8": _RANDOM_40
    + ["--engine", "genetic", "--cycles", "3", "--population", "6"],
    "fig1_two_bus_mapped": [
        "--fig1", "--fig1-buses", "2", "--map-communications", "--seed", "5",
        "--engine", "tabu", "--cycles", "6", "--neighbors", "6",
    ],
    "sized_n40_p8": [
        "--nodes", "40", "--paths", "8", "--seed", "4", "--size-architecture",
        "--engine", "tabu", "--cycles", "5", "--neighbors", "6",
    ],
}


def explore_digest(arguments) -> str:
    """The sha256 of ``repro-cpg explore --json`` for the given arguments."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        status = cli_main(["explore", *arguments, "--json"])
    if status:
        raise RuntimeError(f"explore {arguments} exited with status {status}")
    return hashlib.sha256(output.getvalue().encode()).hexdigest()


def merge_fig1():
    example = load_fig1_example()
    return ScheduleMerger(
        example.graph, example.expanded_mapping, example.architecture
    ).merge()


def merge_atm():
    mode = build_mode1()
    config = table2_architecture_configs()[0]
    architecture = build_oam_architecture(config)
    _, _, mapping = candidate_mappings(mode, architecture)[0]
    expanded = expand_communications(mode.graph, mapping, architecture)
    return ScheduleMerger(expanded.graph, expanded.mapping, architecture).merge()


def merge_random(case: dict):
    system = generate_system(**case)
    return ScheduleMerger(
        system.graph, system.expanded_mapping, system.architecture
    ).merge()


def capture() -> dict:
    golden = {"fig1": serialize_table(merge_fig1()), "atm_mode1": serialize_table(merge_atm())}
    for case in RANDOM_CASES:
        key = f"random_n{case['nodes']}_p{case['alternative_paths']}_s{case['seed']}"
        golden[key] = serialize_table(merge_random(case))
    return golden


def main() -> None:
    golden = capture()
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    total = sum(
        len(entries)
        for case in golden.values()
        for rows in (case["process_rows"], case["condition_rows"])
        for entries in rows.values()
    )
    print(f"wrote {OUTPUT} ({len(golden)} workloads, {total} table entries)")
    digests = {name: explore_digest(arguments) for name, arguments in EXPLORE_CASES.items()}
    EXPLORE_OUTPUT.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPLORE_OUTPUT} ({len(digests)} explore digests)")


if __name__ == "__main__":
    main()
