"""End-to-end integration tests covering the full pipeline and the examples."""

import runpy
import sys
from pathlib import Path

import pytest

from repro import (
    CPGBuilder,
    Condition,
    Conjunction,
    Mapping,
    ScheduleMerger,
    simple_architecture,
)
from repro.analysis import format_schedule_table, render_gantt
from repro.graph import expand_communications
from repro.simulation import RuntimeSimulator, validate_merge_result

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestFullPipeline:
    def test_build_map_schedule_simulate(self):
        """The full user journey: model -> map -> merge -> execute."""
        C = Condition("go_fast")
        architecture = simple_architecture(2, 1, 1, condition_broadcast_time=0.5)
        builder = CPGBuilder("pipeline")
        builder.process("sense", 2.0)
        builder.process("decide", 1.0)
        builder.process("fast", 3.0)
        builder.process("slow", 6.0)
        builder.process("act", 2.0)
        builder.chain("sense", "decide")
        builder.edge("decide", "fast", condition=C.true(), communication_time=1.0)
        builder.edge("decide", "slow", condition=C.false())
        builder.edge("fast", "act", communication_time=1.0)
        builder.edge("slow", "act", communication_time=1.0)
        graph = builder.build()

        mapping = Mapping(architecture)
        mapping.assign_many(architecture["pe1"], ["sense", "decide", "slow"])
        mapping.assign("fast", architecture["pe2"])
        mapping.assign("act", architecture["pe3"])
        expanded = expand_communications(graph, mapping, architecture)

        result = ScheduleMerger(expanded.graph, expanded.mapping, architecture).merge()
        report = validate_merge_result(
            expanded.graph, expanded.mapping, result, architecture
        )
        assert report.paths_checked == 2

        simulator = RuntimeSimulator(expanded.graph, expanded.mapping, architecture)
        fast_trace = simulator.execute(result.table, Conjunction.of(C.true()))
        slow_trace = simulator.execute(result.table, Conjunction.of(C.false()))
        assert fast_trace.delay <= slow_trace.delay
        assert result.delta_max == pytest.approx(
            max(fast_trace.delay, slow_trace.delay)
        )

        # Reporting utilities work on the produced artefacts.
        assert "sense" in format_schedule_table(result.table)
        worst = max(result.path_schedules.values(), key=lambda s: s.delay)
        assert "pe1" in render_gantt(worst, architecture)

    def test_fig1_pipeline_is_reproducible(self, fig1):
        first = ScheduleMerger(fig1.graph, fig1.expanded_mapping).merge()
        second = ScheduleMerger(fig1.graph, fig1.expanded_mapping).merge()
        assert first.delta_max == pytest.approx(second.delta_max)
        assert first.table.columns() == second.table.columns()


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "paper_example.py", "atm_oam.py", "random_evaluation.py"],
)
def test_examples_run_to_completion(script, monkeypatch, capsys):
    """Every shipped example must run unmodified (in its fast/demo mode)."""
    path = EXAMPLES_DIR / script
    assert path.exists(), f"example {script} is missing"
    monkeypatch.setenv("REPRO_EXAMPLE_FAST", "1")
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    output = capsys.readouterr().out
    assert output.strip(), f"example {script} produced no output"
