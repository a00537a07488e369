"""Tests of the observability layer: tracing, span totals, trace reports.

The contract under test, in four parts.  (1) The disabled path is free:
instrumented layers default to ``tracer=None`` and skip instrumentation,
so results are bit-identical with observability on or off.  (2) Traces
are schema-strict and deterministic: the same seed produces the same
span/event sequence modulo timestamps.  (3) The tracer is the one
instrument: a result's ``stage_seconds`` and ``wall_seconds`` are its span
totals, equal to what its trace file carries.  (4) ``repro-cpg
trace-report`` aggregates it all into per-stage wall-time tables.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.exploration import (
    ExplorationConfig,
    ExplorationProblem,
    Explorer,
)
from repro.generator import generate_system
from repro.observability import (
    RECORD_KEYS,
    JsonlSink,
    RingBufferSink,
    TraceError,
    Tracer,
    aggregate_trace,
    format_trace_report,
    read_trace,
    validate_record,
)


@pytest.fixture(scope="module")
def problem():
    """A small seeded problem (16 nodes, 2 alternative paths)."""
    return ExplorationProblem.from_system(generate_system(16, 2, seed=3))


def _explore(problem, tracer=None, engine="tabu", seed=3):
    config = ExplorationConfig(seed=seed, max_cycles=3, neighbors_per_cycle=4)
    explorer = Explorer(problem, config=config, tracer=tracer)
    return explorer.explore(engine)


def _sum_dt(spans):
    """Left-to-right sum of the spans' ``dt``, as the tracer totals them.

    Python 3.12's ``sum`` of floats compensates rounding, so it is not used.
    """
    total = 0.0
    for span in spans:
        total += span["dt"]
    return total


# -- schema ------------------------------------------------------------------------


def _record(**overrides):
    base = {
        "type": "span",
        "run": "r",
        "seq": 0,
        "id": 1,
        "parent": None,
        "name": "engine",
        "t0": 0.0,
        "dt": 0.5,
        "attrs": {"engine": "tabu"},
    }
    base.update(overrides)
    return base


def test_valid_record_passes():
    record = _record()
    assert validate_record(record) is record


@pytest.mark.parametrize(
    "mutation",
    [
        {"type": "other"},
        {"run": ""},
        {"run": 7},
        {"seq": True},
        {"id": "x"},
        {"parent": "x"},
        {"name": ""},
        {"t0": -1.0},
        {"dt": "fast"},
        {"dt": -0.1},
        {"attrs": [1]},
        {"attrs": {"bad": [1, 2]}},
    ],
)
def test_invalid_field_rejected(mutation):
    with pytest.raises(TraceError):
        validate_record(_record(**mutation))


def test_missing_and_unknown_keys_rejected():
    record = _record()
    del record["name"]
    with pytest.raises(TraceError, match="missing"):
        validate_record(record)
    with pytest.raises(TraceError, match="unknown"):
        validate_record(_record(extra=1))


def test_non_dict_record_rejected():
    with pytest.raises(TraceError):
        validate_record(["span"])


# -- tracer ------------------------------------------------------------------------


def test_spans_nest_and_events_attach():
    sink = RingBufferSink()
    tracer = Tracer(sink, run_id="t")
    with tracer.span("engine", engine="tabu") as engine:
        with tracer.span("cycle") as cycle:
            tracer.event("resilience.retry", attempt=1)
    tracer.close()
    records = sink.records
    for record in records:
        validate_record(record)
    by_name = {record["name"]: record for record in records}
    assert by_name["cycle"]["parent"] == engine.span_id
    assert by_name["resilience.retry"]["parent"] == cycle.span_id
    assert by_name["resilience.retry"]["dt"] == 0.0
    assert by_name["engine"]["parent"] is None
    # Spans emit at close: children precede parents; seq restores order.
    assert [r["name"] for r in records] == [
        "resilience.retry", "cycle", "engine",
    ]
    assert [r["seq"] for r in records] == [0, 1, 2]


def test_close_pops_open_descendants():
    sink = RingBufferSink()
    tracer = Tracer(sink)
    outer = tracer.span("outer")
    tracer.span("inner")  # left open, as after a loop ``break``
    outer.close()
    names = [record["name"] for record in sink.records]
    assert names == ["inner", "outer"]
    assert sink.records[0]["parent"] == outer.span_id


def test_close_attrs_and_duration():
    sink = RingBufferSink()
    tracer = Tracer(sink)
    span = tracer.span("stage.merge")
    duration = span.close(hit=True)
    assert duration >= 0.0
    assert span.close() == 0.0  # idempotent
    record = sink.records[0]
    assert record["attrs"] == {"hit": True}
    assert record["dt"] >= 0.0 and record["t0"] >= 0.0


def test_tracer_totals_spans_by_name_with_or_without_a_sink():
    sink = RingBufferSink()
    traced, bare = Tracer(sink), Tracer()
    for tracer in (traced, bare):
        with tracer.span("engine"):
            tracer.span("stage.merge").close()
            tracer.event("pool.degraded")
            tracer.span("stage.merge").close()
        tracer.close()
    spans = [record for record in sink.records if record["type"] == "span"]
    merges = [span for span in spans if span["name"] == "stage.merge"]
    assert traced.totals() == {
        "stage.merge": (2, _sum_dt(merges)),
        "engine": (1, spans[-1]["dt"]),
    }
    # Events are not totalled; a tracer without a sink keeps its totals.
    assert set(bare.totals()) == {"stage.merge", "engine"}
    assert bare.totals()["stage.merge"][0] == 2


def test_ring_buffer_evicts_oldest():
    sink = RingBufferSink(capacity=2)
    tracer = Tracer(sink)
    for index in range(4):
        tracer.span(f"s{index}").close()
    assert [record["name"] for record in sink.records] == ["s2", "s3"]
    with pytest.raises(ValueError):
        RingBufferSink(capacity=0)


def test_ring_buffer_keeps_the_last_records_oldest_first():
    sink = RingBufferSink(capacity=3)
    for index in range(5):
        sink.emit({"name": f"r{index}"})
    records = sink.records
    assert isinstance(records, list)
    assert [record["name"] for record in records] == ["r2", "r3", "r4"]


def test_jsonl_sink_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(JsonlSink(path), run_id="roundtrip")
    with tracer.span("engine", engine="anneal"):
        tracer.event("resilience.timeout")
    tracer.close()
    records = read_trace(path)
    assert [record["name"] for record in records] == [
        "resilience.timeout", "engine",
    ]
    assert all(record["run"] == "roundtrip" for record in records)
    assert [r for r in records if r["type"] == "span"] == [records[1]]


def test_read_trace_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(TraceError, match=":1:"):
        read_trace(path)
    path.write_text(json.dumps({"type": "span"}) + "\n")
    with pytest.raises(TraceError, match="missing"):
        read_trace(path)


# -- disabled-path guarantees ------------------------------------------------------


def test_default_result_carries_no_timing(problem):
    result = _explore(problem)
    assert result.stage_seconds is None
    assert result.wall_seconds is None


def test_instrumented_run_is_bit_identical_to_plain(problem):
    plain = _explore(problem)
    traced = _explore(problem, tracer=Tracer(RingBufferSink()))
    assert traced.best == plain.best
    assert traced.trajectory == plain.trajectory
    assert traced.evaluations == plain.evaluations


# -- determinism -------------------------------------------------------------------


def _normalised(records):
    """Trace records with the timing fields zeroed (determinism yardstick)."""
    return [{**record, "t0": 0.0, "dt": 0.0} for record in records]


def test_trace_is_deterministic_modulo_timestamps(problem):
    sequences = []
    for _ in range(2):
        sink = RingBufferSink(capacity=100_000)
        _explore(problem, tracer=Tracer(sink))
        sequences.append(_normalised(sink.records))
    assert sequences[0] == sequences[1]


# -- instrumented pipeline ---------------------------------------------------------


def test_metrics_cover_every_stage(problem):
    tracer = Tracer()
    result = _explore(problem, tracer=tracer)
    assert result.wall_seconds is not None and result.wall_seconds > 0
    assert set(result.stage_seconds) >= {
        "expansion", "path_schedule", "merge",
    }
    totals = tracer.totals()
    assert result.stage_seconds == {
        name[len("stage."):]: seconds
        for name, (_, seconds) in totals.items()
        if name.startswith("stage.")
    }
    assert totals["engine"] == (1, result.wall_seconds)
    assert result.cache.misses > 0
    assert totals["evaluate"][0] == result.evaluations
    assert totals["cycle"][0] == result.cycles


def test_trace_covers_stages_and_engines(problem):
    sink = RingBufferSink(capacity=100_000)
    _explore(problem, tracer=Tracer(sink), engine="anneal")
    report = aggregate_trace(sink.records)
    assert {"expansion", "path_schedule", "merge"} <= set(report.stages)
    assert report.per_engine[("anneal", "merge")].count > 0
    assert report.engines["anneal"] > 0
    # evaluate spans exist but are not stages.
    assert "evaluate" not in report.stages


def test_genetic_engine_traces_generations(problem):
    sink = RingBufferSink(capacity=100_000)
    tracer = Tracer(sink)
    result = _explore(problem, tracer=tracer, engine="genetic")
    assert result.stage_seconds is not None
    names = {record["name"] for record in sink.records}
    assert {"engine", "cycle", "evaluate"} <= names
    assert tracer.totals()["cycle"][0] == result.cycles


# -- trace report ------------------------------------------------------------------


def test_report_substage_not_double_counted():
    sink = RingBufferSink()
    tracer = Tracer(sink)
    with tracer.span("engine", engine="tabu"):
        with tracer.span("stage.merge"):
            tracer.span("stage.merge_readjust").close()
    tracer.close()
    report = aggregate_trace(sink.records)
    merge = report.stages["merge"]
    # merge_readjust time is inside merge's span: excluded from the total.
    assert report.profiled_seconds == pytest.approx(merge.total_seconds)
    rows = {row[0]: row for row in report.stage_rows()}
    assert rows["merge_readjust"][4] == "(in merge)"
    assert rows["merge"][4].endswith("%")
    assert report.per_engine[("tabu", "merge_readjust")].count == 1


def test_report_attributes_orphan_stages_to_dash():
    sink = RingBufferSink()
    tracer = Tracer(sink)
    tracer.span("stage.expansion").close()
    tracer.close()
    report = aggregate_trace(sink.records)
    assert ("-", "expansion") in report.per_engine
    assert report.engine_rows()[0][0] == "-"


def test_report_unattributed_row_is_engine_total_minus_top_level_stages():
    records = [
        _record(id=1, dt=1.0),
        _record(id=2, parent=1, name="stage.expansion", dt=0.2, attrs={}),
        _record(id=3, parent=1, name="stage.merge", dt=0.5, attrs={}),
        _record(id=4, parent=3, name="stage.merge_readjust", dt=0.1, attrs={}),
    ]
    report = aggregate_trace(records)
    assert report.unattributed_seconds() == {"tabu": pytest.approx(0.3)}
    rows = report.engine_rows()
    assert rows[-1] == ["tabu", "unattributed", "-", "0.3000", "-"]
    assert [row[1] for row in rows[:-1]] == ["merge", "expansion", "merge_readjust"]
    assert "unattributed" in format_trace_report(report)


def test_format_trace_report_renders_tables():
    sink = RingBufferSink()
    tracer = Tracer(sink)
    with tracer.span("engine", engine="tabu"):
        tracer.span("stage.expansion").close()
        tracer.event("resilience.retry")
    tracer.close()
    text = format_trace_report(aggregate_trace(sink.records), source="x.jsonl")
    assert "trace (x.jsonl)" in text
    assert "per-stage wall time" in text
    assert "expansion" in text
    assert "resilience.retry" in text


def test_record_keys_documented():
    assert set(_record()) == set(RECORD_KEYS)


# -- CLI ---------------------------------------------------------------------------


def _cli_explore(extra, capsys):
    argv = [
        "explore", "--fig1", "--cycles", "2", "--neighbors", "4", "--seed", "1",
    ] + extra
    code = main(argv)
    return code, capsys.readouterr().out


def test_cli_trace_and_report(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    code, output = _cli_explore(
        ["--trace", str(trace_path), "--metrics"], capsys
    )
    assert code == 0
    timing = next(line for line in output.splitlines() if "timing: wall" in line)
    wall = float(timing.split("timing: wall ")[1].split("s;")[0])
    unattributed = float(timing.split("; unattributed ")[1].rstrip("s"))
    assert 0.0 <= unattributed <= wall
    records = read_trace(trace_path)  # schema-valid by construction
    assert records
    assert main(["trace-report", str(trace_path)]) == 0
    report_output = capsys.readouterr().out
    assert "per-stage wall time" in report_output
    for stage in ("expansion", "path_schedule", "merge"):
        assert stage in report_output
    assert any(
        line.split()[:2] == ["tabu", "unattributed"]
        for line in report_output.splitlines()
    )


def test_cli_json_with_metrics(tmp_path, capsys):
    code, output = _cli_explore(["--metrics", "--json"], capsys)
    assert code == 0
    document = json.loads(output)
    result = document["results"][0]
    assert result["wall_seconds"] > 0
    assert set(result["stage_seconds"]) >= {
        "expansion", "path_schedule", "merge",
    }
    assert result["stages"] is not None  # hit/miss block still present


def test_cli_timings_are_the_trace_span_totals(tmp_path, capsys):
    """The timing fields read exactly what the run's trace file carries."""
    trace_path = tmp_path / "run.jsonl"
    code = main([
        "explore", "--fig1", "--seed", "1", "--cycles", "4", "--neighbors", "4",
        "--trace", str(trace_path), "--metrics", "--json",
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["results"][0]
    spans = [
        record for record in read_trace(trace_path) if record["type"] == "span"
    ]
    stages = {
        span["name"][len("stage."):] for span in spans
        if span["name"].startswith("stage.")
    }
    assert set(result["stage_seconds"]) == stages
    for stage in stages:
        assert result["stage_seconds"][stage] == _sum_dt(
            span for span in spans if span["name"] == f"stage.{stage}"
        ), stage
    (engine,) = [span for span in spans if span["name"] == "engine"]
    assert result["wall_seconds"] == engine["dt"]


def test_cli_trace_alone_fills_the_timing_fields(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    code, output = _cli_explore(["--trace", str(trace_path), "--json"], capsys)
    assert code == 0
    result = json.loads(output)["results"][0]
    assert result["wall_seconds"] > 0
    assert result["stage_seconds"]["merge"] > 0
    assert result["batch"]["batches"] > 0


def test_cli_json_without_metrics_is_unstamped(capsys):
    code, output = _cli_explore(["--json"], capsys)
    assert code == 0
    result = json.loads(output)["results"][0]
    assert result["wall_seconds"] is None
    assert result["stage_seconds"] is None


def test_cli_trace_report_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "span"}\n')
    assert main(["trace-report", str(bad)]) == 2
    assert "error: invalid trace" in capsys.readouterr().err


def test_cli_trace_report_missing_file(capsys):
    assert main(["trace-report", "/nonexistent/trace.jsonl"]) == 2
    assert "no such file" in capsys.readouterr().err
