"""Tests for the repro-cpg command-line interface."""

import json

import pytest

from repro.cli import main
from repro.io import save_system


@pytest.fixture()
def system_file(tmp_path, small_system):
    path = tmp_path / "system.json"
    save_system(
        path,
        small_system["graph"],
        small_system["architecture"],
        small_system["mapping"],
        name="cli-demo",
    )
    return path


def test_info_command(system_file, capsys):
    assert main(["info", str(system_file)]) == 0
    output = capsys.readouterr().out
    assert "cli-demo" in output
    assert "alternative paths: 2" in output
    assert "pe1" in output


def test_schedule_command(system_file, capsys):
    assert main(["schedule", str(system_file)]) == 0
    output = capsys.readouterr().out
    assert "delta_M" in output and "delta_max" in output


def test_schedule_command_with_table_and_validation(system_file, capsys):
    assert main(["schedule", str(system_file), "--table", "--validate"]) == 0
    output = capsys.readouterr().out
    assert "process" in output
    assert "validated 2 paths" in output


def test_fig1_command(capsys):
    assert main(["fig1"]) == 0
    output = capsys.readouterr().out
    assert "delta_max" in output
    assert "validated 6 alternative paths" in output


def test_sweep_command(capsys):
    assert main(["sweep", "--nodes", "16", "--paths", "2", "3", "--graphs", "1"]) == 0
    output = capsys.readouterr().out
    assert "16 nodes" in output


def test_schedule_command_json(system_file, capsys):
    assert main(["schedule", str(system_file), "--validate", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["system"] == "cli-demo"
    assert document["alternative_paths"] == 2
    assert document["delta_max"] >= document["delta_m"] > 0
    assert len(document["path_delays"]) == 2
    assert document["validation"]["paths_checked"] == 2


def test_sweep_command_json(capsys):
    assert main(["sweep", "--nodes", "16", "--paths", "2", "--graphs", "1",
                 "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert "16 nodes" in document["series"]


def test_explore_command(capsys):
    assert main(["explore", "--nodes", "14", "--paths", "2", "--seed", "1",
                 "--cycles", "3", "--neighbors", "3", "--trajectory"]) == 0
    output = capsys.readouterr().out
    assert "delta_max" in output
    assert "cache hits" in output
    assert "cycle" in output  # trajectory table header


def test_explore_command_json_both_engines(capsys):
    arguments = ["explore", "--nodes", "14", "--paths", "2", "--seed", "1",
                 "--cycles", "3", "--neighbors", "3", "--engine", "both",
                 "--json"]
    assert main(arguments) == 0
    document = json.loads(capsys.readouterr().out)
    assert {result["engine"] for result in document["results"]} == {
        "tabu", "anneal"
    }
    assert document["best_engine"] in ("tabu", "anneal")
    for result in document["results"]:
        assert result["best"]["cost"] <= result["initial"]["cost"] + 1e-9
        assert result["trajectory"]
    # Determinism across invocations: identical JSON for identical arguments.
    assert main(arguments) == 0
    again = json.loads(capsys.readouterr().out)
    assert again == document


def test_explore_genetic_pareto_fig1_json(capsys):
    """The acceptance scenario: a deterministic-per-seed non-dominated front
    with >= 2 distinct trade-off points on the Fig. 1 example, sizing on."""
    arguments = ["explore", "--fig1", "--size-architecture",
                 "--engine", "genetic", "--pareto", "--json",
                 "--cycles", "6", "--population", "12", "--seed", "0"]
    assert main(arguments) == 0
    document = json.loads(capsys.readouterr().out)
    (result,) = document["results"]
    assert result["engine"] == "genetic"
    front = result["front"]
    assert front["size"] >= 2
    vectors = [
        tuple(point["objectives"][key] for key in sorted(point["objectives"]))
        for point in front["points"]
    ]
    assert len(set(vectors)) == len(vectors)  # distinct trade-off points
    for point in front["points"]:
        assert point["platform"]["processors"]  # sizing was enabled
    # Determinism: identical JSON (front included) for identical arguments.
    assert main(arguments) == 0
    again = json.loads(capsys.readouterr().out)
    assert again == document


def test_explore_genetic_pareto_text_output(capsys):
    assert main(["explore", "--nodes", "14", "--paths", "2", "--seed", "1",
                 "--engine", "genetic", "--pareto", "--cycles", "2",
                 "--population", "6"]) == 0
    output = capsys.readouterr().out
    assert "Pareto front (genetic)" in output
    assert "delta_max" in output and "arch cost" in output


def test_explore_engine_all_runs_three_engines(capsys):
    assert main(["explore", "--nodes", "14", "--paths", "2", "--seed", "1",
                 "--engine", "all", "--cycles", "2", "--neighbors", "2",
                 "--population", "4", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert {result["engine"] for result in document["results"]} == {
        "tabu", "anneal", "genetic"
    }


def test_a_sizing_minimum_above_the_default_maximum_raises_it(capsys):
    """Fig. 1 has one bus, so the default maximum (seed + 1) is 2: a minimum
    of 4 makes the maximum 4, exactly as if it had been given."""
    arguments = ["explore", "--fig1", "--size-architecture", "--min-buses", "4",
                 "--cycles", "3", "--neighbors", "3"]
    assert main(arguments) == 0
    raised = capsys.readouterr()
    assert main(arguments + ["--max-buses", "4"]) == 0
    given = capsys.readouterr()
    assert raised.err == given.err == ""
    assert raised.out == given.out


def test_explore_fig1_and_system_file_mutually_exclusive(system_file, capsys):
    # submit shares the check and fails before it contacts any service.
    for command in ("explore", "submit"):
        assert main([command, str(system_file), "--fig1"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


# Each malformed explore input -> a fragment its one error line must carry.
# The request flags go through the schema POST /jobs uses ...
MALFORMED_REQUEST_FLAGS = [
    (["--cycles", "0"], "'cycles'"),
    (["--neighbors", "0"], "'neighbors'"),
    (["--population", "1"], "'population'"),
    (["--stall", "-1"], "'stall'"),
    (["--nodes", "2"], "'nodes'"),
    (["--fig1", "--fig1-buses", "0"], "'fig1_buses'"),
    (["--size-architecture", "--min-processors", "0"], "'min_processors'"),
    (["--size-architecture", "--min-processors", "5", "--max-processors", "2"],
     "'min_processors' (5) must be <= field 'max_processors' (2)"),
    (["--size-architecture", "--min-buses", "3", "--max-buses", "1"],
     "'min_buses' (3) must be <= field 'max_buses' (1)"),
]
# ... and the CLI-only flags through the class that owns the setting.
MALFORMED_RUN_FLAGS = [
    (["--workers", "0"], "--workers"),
    (["--workers", "-3"], "--workers"),
    (["--checkpoint", "CHECKPOINT", "--checkpoint-every", "0"],
     "--checkpoint-every"),
]


def _one_error_line(capsys, fragment):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert fragment in lines[0]
    return lines[0]


def _ids(cases):
    return [" ".join(flags) for flags, _ in cases]


@pytest.mark.parametrize(
    "flags,fragment",
    MALFORMED_REQUEST_FLAGS + MALFORMED_RUN_FLAGS,
    ids=_ids(MALFORMED_REQUEST_FLAGS + MALFORMED_RUN_FLAGS),
)
def test_malformed_explore_input_gets_one_error_line(
    flags, fragment, tmp_path, capsys
):
    checkpoint = tmp_path / "search.ckpt.json"
    flags = [str(checkpoint) if flag == "CHECKPOINT" else flag for flag in flags]
    base = ["explore", "--nodes", "16", "--paths", "2", "--cycles", "1"]
    assert main(base + flags) == 2
    _one_error_line(capsys, fragment)
    assert not checkpoint.exists()


@pytest.mark.parametrize(
    "flags,fragment", MALFORMED_REQUEST_FLAGS, ids=_ids(MALFORMED_REQUEST_FLAGS)
)
def test_submit_validates_the_request_before_contacting_a_service(
    flags, fragment, capsys
):
    # Nothing listens on port 9: a request that got past validation would
    # end in "cannot reach service" instead.
    assert main(["submit", "--url", "http://127.0.0.1:9"] + flags) == 2
    _one_error_line(capsys, fragment)


def test_submit_reads_a_malformed_file_with_the_shared_reader(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("this is not json")
    for argv in (
        ["explore", str(path)],
        ["submit", str(path), "--url", "http://127.0.0.1:9"],
    ):
        assert main(argv) == 2
        line = _one_error_line(capsys, "not valid JSON")
        assert "invalid system description" in line


def test_request_flags_have_no_defaults_of_their_own():
    from repro.cli import _RANDOM_KEYS, _REQUEST_KEYS, _SIZING_KEYS, _build_parser

    request_dests = {
        "system", "size_architecture",
        *_REQUEST_KEYS, *_RANDOM_KEYS, *_SIZING_KEYS,
    }
    for command in ("explore", "submit"):
        given = vars(_build_parser().parse_args([command]))
        assert not request_dests & set(given), command


def test_explore_command_on_system_file(system_file, capsys):
    assert main(["explore", str(system_file), "--cycles", "2",
                 "--neighbors", "2"]) == 0
    output = capsys.readouterr().out
    assert "system.json" in output


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_file_reported(capsys):
    assert main(["info", "/nonexistent/system.json"]) == 2
    captured = capsys.readouterr()
    assert "no such file" in captured.err
    assert "/nonexistent/system.json" in captured.err


def test_malformed_system_json_exits_with_message(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"architecture": {"processors": []}, "processes": "oops"}')
    assert main(["info", str(path)]) == 2
    captured = capsys.readouterr()
    assert "invalid system description" in captured.err
    assert captured.out == ""


def test_malformed_system_exits_with_one_error_line(
    tmp_path, capsys, malformed_system_documents
):
    path = tmp_path / "broken.json"
    for case, (document, offender, _) in malformed_system_documents.items():
        path.write_text(json.dumps(document))
        assert main(["schedule", str(path)]) == 2, case
        captured = capsys.readouterr()
        assert captured.out == "", case
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (case, lines)
        assert offender in lines[0], case


def test_unparseable_json_exits_with_message(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("this is not json")
    assert main(["schedule", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_explore_checkpoint_resume_cli_round_trip(tmp_path, capsys):
    checkpoint = tmp_path / "search.ckpt.json"
    base = [
        "explore", "--nodes", "16", "--paths", "2", "--seed", "3",
        "--engine", "anneal", "--json",
    ]
    assert main(base + ["--cycles", "6"]) == 0
    full = json.loads(capsys.readouterr().out)["results"][0]
    assert main(base + ["--cycles", "3", "--checkpoint", str(checkpoint)]) == 0
    capsys.readouterr()
    assert main(
        base + ["--cycles", "6", "--checkpoint", str(checkpoint), "--resume"]
    ) == 0
    resumed = json.loads(capsys.readouterr().out)["results"][0]
    assert resumed["resumed_from"] == 3
    assert resumed["best"] == full["best"]
    assert resumed["trajectory"] == full["trajectory"]


def test_explore_resume_requires_checkpoint(capsys):
    assert main(["explore", "--nodes", "16", "--resume"]) == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_explore_checkpoint_rejects_multiple_engines(capsys, tmp_path):
    assert main([
        "explore", "--nodes", "16", "--engine", "both",
        "--checkpoint", str(tmp_path / "c.json"),
    ]) == 2
    assert "one engine" in capsys.readouterr().err
