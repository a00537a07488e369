"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation section.  Besides timing the relevant computation with
pytest-benchmark, each module renders the reproduced rows/series as text and
stores them under ``benchmarks/results/`` so they can be inspected after a run
and quoted in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def write_result(name: str, text: str) -> None:
    """Persist a reproduced table/figure and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n[{name}] written to {path}\n{text}\n")


def bench_scale() -> int:
    """Number of graphs per setting for the randomised benchmarks.

    Defaults to a small value so the harness finishes quickly; set
    ``REPRO_BENCH_GRAPHS`` (e.g. to 72) to approach the paper's 360 graphs per
    size, at a proportional cost in run time.
    """
    return max(1, int(os.environ.get("REPRO_BENCH_GRAPHS", "2")))


@pytest.fixture(scope="session")
def fig1_example():
    from repro.data import load_fig1_example

    return load_fig1_example()


@pytest.fixture(scope="session")
def fig1_result(fig1_example):
    from repro.scheduling import ScheduleMerger

    return ScheduleMerger(
        fig1_example.graph, fig1_example.expanded_mapping, fig1_example.architecture
    ).merge()
