"""Tier-1 tests of the benchmark harness in ``scripts/run_benchmarks.py``.

The smoke test replays only the merge-grid records against the committed
``BENCH_core.json``, with the host scale of their timing gates relaxed
(3x the frozen merge time in all instead of the CLI's +25%), so tier-1
stays deterministic on busy machines while still catching an accidental
return to the pre-optimisation complexity (the seed implementation was
5-15x slower).  The full gate is ``scripts/run_benchmarks.py --check``.

The other tests check the harness itself against doctored copies of the
baseline, on the cheap ``small`` and ``medium`` presets only.  Deselect the
wall-clock ones with ``-m "not perf"`` on a constrained machine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from run_benchmarks import DEFAULT_BASELINE, RECORDS, check  # noqa: E402

#: Relaxed host-scale factor for the in-suite smoke check: 1.25 x 2.4 = 3x.
SMOKE_RELAX = 2.4

MERGE_GRID = [name for name in RECORDS if name.startswith("merge_")]

pytestmark = pytest.mark.skipif(
    not DEFAULT_BASELINE.exists(), reason="BENCH_core.json baseline not present"
)


def _doctored(tmp_path, edits) -> Path:
    """A copy of the committed baseline with ``{(record, field): edit}`` applied."""
    baseline = json.loads(DEFAULT_BASELINE.read_text())
    for (record, name), edit in edits.items():
        baseline[record][name] = edit(baseline[record][name])
    path = tmp_path / "BENCH_core.json"
    path.write_text(json.dumps(baseline))
    return path


def _failed_fields(failures) -> list:
    """``record.field`` of each failure message, in report order."""
    return [failure.split(" ", 1)[0] for failure in failures]


@pytest.mark.perf
def test_merge_time_within_smoke_tolerance():
    failures = check(DEFAULT_BASELINE, MERGE_GRID, relax=SMOKE_RELAX)
    assert not failures, failures


def test_altered_anchor_names_record_and_field(tmp_path):
    path = _doctored(tmp_path, {("merge_small", "expanded_processes"): lambda n: n + 1})
    failures = check(path, ["merge_small"], relax=SMOKE_RELAX)
    assert _failed_fields(failures) == ["merge_small.expanded_processes"]
    assert "(anchor, exact)" in failures[0]


def test_every_failing_record_is_reported(tmp_path):
    path = _doctored(
        tmp_path,
        {
            ("merge_small", "delta_max"): lambda value: value + 1.0,
            ("merge_medium", "expanded_processes"): lambda n: n - 1,
        },
    )
    failures = check(path, ["merge_small", "merge_medium"], relax=SMOKE_RELAX)
    assert _failed_fields(failures) == [
        "merge_small.delta_max",
        "merge_medium.expanded_processes",
    ]


@pytest.mark.perf
def test_tenfold_faster_committed_timing_fails(tmp_path):
    path = _doctored(tmp_path, {("merge_small", "merge_seconds"): lambda s: s / 10})
    failures = check(path, ["merge_small"])
    assert _failed_fields(failures) == ["merge_small.merge_seconds"]
    assert "(timing," in failures[0]
