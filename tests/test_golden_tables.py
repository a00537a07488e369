"""Golden schedule-table equivalence against the seed implementation.

``tests/data/golden_tables.json`` pins the exact schedule tables (every row,
column expression, activation time and processing element) that the seed
implementation produced for the Fig. 1 example, one ATM OAM mode and ten
seeded random CPGs.  These tests replay the same workloads and require the
optimized scheduler to produce byte-identical tables — the contract that the
bitmask condition algebra and the incremental scheduler core are pure
performance changes.

Regenerate the golden file only when a schedule-quality change is intended:
``PYTHONPATH=src python scripts/capture_golden.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_tables.json"

sys.path.insert(0, str(SCRIPTS))

from capture_golden import (  # noqa: E402
    EXPLORE_CASES,
    EXPLORE_OUTPUT,
    RANDOM_CASES,
    explore_digest,
    merge_atm,
    merge_fig1,
    merge_random,
    serialize_table,
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def assert_table_equal(actual: dict, expected: dict, workload: str) -> None:
    assert actual["process_rows"].keys() == expected["process_rows"].keys(), (
        f"{workload}: different set of process rows"
    )
    for name, entries in expected["process_rows"].items():
        assert actual["process_rows"][name] == entries, (
            f"{workload}: process row {name} differs"
        )
    assert actual["condition_rows"] == expected["condition_rows"], (
        f"{workload}: condition rows differ"
    )
    assert actual["delta_m"] == expected["delta_m"], f"{workload}: delta_m differs"
    assert actual["delta_max"] == expected["delta_max"], (
        f"{workload}: delta_max differs"
    )


def test_fig1_table_matches_golden(golden):
    assert_table_equal(serialize_table(merge_fig1()), golden["fig1"], "fig1")


def test_atm_mode1_table_matches_golden(golden):
    assert_table_equal(serialize_table(merge_atm()), golden["atm_mode1"], "atm_mode1")


@pytest.mark.parametrize("case", RANDOM_CASES, ids=lambda c: f"n{c['nodes']}_s{c['seed']}")
def test_random_cpg_tables_match_golden(golden, case):
    key = f"random_n{case['nodes']}_p{case['alternative_paths']}_s{case['seed']}"
    assert_table_equal(serialize_table(merge_random(case)), golden[key], key)


def test_golden_explore_covers_every_case():
    assert set(json.loads(EXPLORE_OUTPUT.read_text())) == set(EXPLORE_CASES)


@pytest.mark.parametrize("name", sorted(EXPLORE_CASES))
def test_explore_output_matches_golden_digest(name):
    """``repro-cpg explore --json`` is byte-identical to the recorded run."""
    expected = json.loads(EXPLORE_OUTPUT.read_text())[name]
    assert explore_digest(EXPLORE_CASES[name]) == expected
