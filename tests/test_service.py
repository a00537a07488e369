"""Service-level tests: the async job server over shared LRU stage caches.

Everything here exercises a **real** localhost socket — the asyncio server
of :mod:`repro.service.server` on an ephemeral port, spoken to with the
stdlib client — because the service's promises (byte-identity with the
one-shot CLI, cross-request stage-cache reuse, offender-naming errors) are
wire-level promises.  Servers register with the conftest timeout-cleanup
registry so a hung test tears its server down instead of leaking it.
"""

import gc
import json
import socket
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.exploration import Explorer
from repro.exploration import pool as pool_module
from repro.generator import generate_system
from repro.io import system_to_dict, validate_explore_request
from repro.service import server as server_module
from repro.service import (
    ExplorationService,
    ServiceClient,
    ServiceError,
    config_from_request,
    engines_for,
    explore_document,
    problem_and_origin,
    start_in_thread,
)


@pytest.fixture()
def service(timeout_cleanup):
    """A running service on an ephemeral port (torn down even on timeout)."""
    running = start_in_thread(job_workers=2)
    timeout_cleanup(running.close)
    try:
        yield running
    finally:
        running.close()


@pytest.fixture()
def client(service):
    return ServiceClient(service.url, timeout=60.0)


FIG1_REQUEST = {"fig1": True, "cycles": 4, "neighbors": 4, "seed": 1}


def _system_payload(small_system, name):
    return system_to_dict(
        small_system["graph"],
        small_system["architecture"],
        small_system["mapping"],
        name,
    )


def test_submit_poll_fetch_roundtrip(client):
    assert client.health() == {"status": "ok"}
    submitted = client.submit(dict(FIG1_REQUEST))
    assert submitted["state"] in ("queued", "running")
    assert submitted["job"].startswith("job-")

    status = client.wait(submitted["job"], timeout=120)
    assert status["state"] == "done"
    assert status["problem"] == "the paper's Fig. 1 example"
    assert status["cache_scope"]
    assert status["shared_cache"]["entries_at_start"] == 0

    document = client.result(submitted["job"])
    assert document["problem"] == "the paper's Fig. 1 example"
    assert document["seed"] == 1
    assert document["best_engine"] == "tabu"
    result = document["results"][0]
    assert result["best"]["feasible"] is True
    # The served job runs in the CLI's serial shape: a one-worker pool,
    # whose stage cache counts.
    assert "resilience" not in result
    assert result["stages"]["schedule_misses"] > 0

    trajectory = client.trajectory(submitted["job"])
    assert trajectory["trajectories"]["tabu"] == result["trajectory"]

    listed = client.jobs()["jobs"]
    assert [entry["job"] for entry in listed] == [submitted["job"]]


def test_served_result_is_byte_identical_to_one_shot_cli(client, capsys):
    assert main([
        "explore", "--fig1", "--cycles", "4", "--neighbors", "4",
        "--seed", "1", "--json",
    ]) == 0
    one_shot = capsys.readouterr().out

    submitted = client.submit(dict(FIG1_REQUEST))
    client.wait(submitted["job"], timeout=120)
    document = client.result(submitted["job"])
    served = json.dumps(document, indent=2, sort_keys=True) + "\n"
    assert served == one_shot


def test_submit_command_prints_the_one_shot_document(service, capsys):
    flags = ["--fig1", "--cycles", "4", "--neighbors", "4", "--seed", "1", "--json"]
    assert main(["explore", *flags]) == 0
    one_shot = capsys.readouterr().out
    assert main(["submit", "--url", service.url, *flags]) == 0
    assert capsys.readouterr().out == one_shot


def test_concurrent_clients_same_request_get_identical_results(service):
    documents = [None] * 4
    errors = []

    def _one_client(index):
        try:
            client = ServiceClient(service.url, timeout=60.0)
            submitted = client.submit(dict(FIG1_REQUEST))
            client.wait(submitted["job"], timeout=120)
            documents[index] = client.result(submitted["job"])
        except Exception as error:  # surfaced below; threads must not die silently
            errors.append(error)

    threads = [
        threading.Thread(target=_one_client, args=(index,))
        for index in range(len(documents))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    # Concurrent jobs share stage caches and may coalesce into common
    # evaluation rounds, yet every client sees the same document — stage
    # sharing may only change counters, never results.
    first = documents[0]
    assert first is not None
    stripped = [
        {key: value for key, value in doc.items()} for doc in documents
    ]
    for doc in stripped[1:]:
        assert doc["best_engine"] == first["best_engine"]
        for ours, theirs in zip(doc["results"], first["results"]):
            assert ours["best"] == theirs["best"]
            assert ours["trajectory"] == theirs["trajectory"]
            assert ours["evaluations"] == theirs["evaluations"]


def test_near_duplicate_tenants_share_the_stage_cache(client, small_system):
    # Two tenants, same graph/architecture but different system names and
    # seeds: they land in one cache scope, and the second answers partly
    # from the first's stage entries.
    first = client.submit({
        "system": _system_payload(small_system, "tenant-a"),
        "cycles": 4, "neighbors": 4, "seed": 1,
    })
    status_a = client.wait(first["job"], timeout=120)
    assert status_a["shared_cache"]["entries_at_start"] == 0

    second = client.submit({
        "system": _system_payload(small_system, "tenant-b"),
        "cycles": 4, "neighbors": 4, "seed": 2,
    })
    status_b = client.wait(second["job"], timeout=120)
    assert status_b["cache_scope"] == status_a["cache_scope"]
    assert status_b["shared_cache"]["entries_at_start"] > 0
    assert status_b["shared_cache"]["stage_hits"] > 0

    cache = client.cache_stats()
    scope = cache["scopes"][status_a["cache_scope"]]
    assert scope["tenants"] == 2
    assert scope["entries"] > 0
    assert scope["occupancy_bytes"] > 0
    assert scope["max_entries"] > 0 and scope["max_bytes"] > 0
    assert cache["totals"]["hits"] >= status_b["shared_cache"]["stage_hits"]


def test_identical_tenant_replays_entirely_from_cache(client):
    first = client.submit(dict(FIG1_REQUEST))
    client.wait(first["job"], timeout=120)
    second = client.submit(dict(FIG1_REQUEST))
    status = client.wait(second["job"], timeout=120)
    # Same request, warm scope: every stage query hits.
    assert status["shared_cache"]["stage_misses"] == 0
    assert status["shared_cache"]["stage_hits"] > 0
    # A warm cache may only change the stage hit counters, nothing else.
    cold, warm = client.result(first["job"]), client.result(second["job"])
    for document in (cold, warm):
        for result in document["results"]:
            result.pop("stages")
    assert cold == warm


@pytest.mark.parametrize(
    "field,request_document,flags",
    [
        ("nodes", {"random": {"nodes": 2}}, ["--nodes", "2"]),
        ("cycles", {"fig1": True, "cycles": 0}, ["--fig1", "--cycles", "0"]),
    ],
    ids=["nodes", "cycles"],
)
def test_one_schema_answers_both_front_ends(
    client, capsys, field, request_document, flags
):
    # A job that must fail is refused at submission, and the one-shot CLI
    # prints the service's message as its one error line.
    status, document = client.request("POST", "/jobs", request_document)
    assert status == 400
    assert f"field {field!r}" in document["error"]
    assert main(["explore", *flags]) == 2
    assert capsys.readouterr().err == f"error: {document['error']}\n"


def test_a_sizing_minimum_above_the_default_maximum_runs(client):
    # Fig. 1 has one bus, so the default maximum (seed + 1) is 2; a minimum
    # of 4 raises it to 4, as if it had been given.
    results = []
    for sizing in ({"min_buses": 4}, {"min_buses": 4, "max_buses": 4}):
        request = dict(FIG1_REQUEST, sizing=sizing)
        status, submitted = client.request("POST", "/jobs", request)
        assert status == 202, submitted
        assert client.wait(submitted["job"], timeout=120)["state"] == "done"
        (result,) = client.result(submitted["job"])["results"]
        assert result["best"]["feasible"] is True
        results.append((result["best"], result["trajectory"]))
    assert results[0] == results[1]


def test_malformed_payloads_name_the_offender(
    client, small_system, malformed_system_documents
):
    status, document = client.request("POST", "/jobs", {"fig1": True, "cycles": "x"})
    assert status == 400
    assert "'cycles'" in document["error"]

    status, document = client.request("POST", "/jobs", {"cycles": 4})
    assert status == 400
    assert "exactly one problem source" in document["error"]

    status, document = client.request(
        "POST", "/jobs", {"fig1": True, "random": {"nodes": 8}}
    )
    assert status == 400
    assert "'fig1' and 'random' are mutually exclusive" in document["error"]

    status, document = client.request(
        "POST", "/jobs", {"fig1": True, "budget": 9}
    )
    assert status == 400
    assert "'budget'" in document["error"]

    # A sizing minimum above its maximum is refused at submission, not
    # accepted as a job that fails later.
    for element, low, high in (("processors", 5, 2), ("buses", 3, 1)):
        sizing = {f"min_{element}": low, f"max_{element}": high}
        status, document = client.request(
            "POST", "/jobs", {"fig1": True, "sizing": sizing}
        )
        assert status == 400, document
        assert (
            f"'min_{element}' ({low}) must be <= field 'max_{element}' ({high})"
        ) in document["error"]

    broken = _system_payload(small_system, "broken")
    offender = broken["processes"][0]["name"]
    broken["processes"][0].pop("execution_time")
    status, document = client.request("POST", "/jobs", {"system": broken})
    assert status == 400
    assert offender in document["error"]
    assert "execution_time" in document["error"]

    # Malformed systems are refused on submission and by the one-shot query,
    # never accepted as a job that fails later or answered with a 500.
    for case, (system, offender, _) in malformed_system_documents.items():
        for path in ("/jobs", "/schedule"):
            status, document = client.request("POST", path, {"system": system})
            assert status == 400, (case, path, document)
            assert offender in document["error"], (case, path)

    status, document = client.request("POST", "/jobs", None)
    assert status == 400
    assert "empty" in document["error"]

    status, document = client.request("GET", "/jobs/job-999")
    assert status == 404
    assert "job-999" in document["error"]

    status, document = client.request("DELETE", "/healthz")
    assert status == 405


def test_schedule_and_sweep_queries(client, small_system, capsys, tmp_path):
    payload = _system_payload(small_system, "query-demo")
    served = client.schedule({"system": payload, "validate": True})

    from repro.io import save_system
    path = tmp_path / "system.json"
    save_system(
        path,
        small_system["graph"],
        small_system["architecture"],
        small_system["mapping"],
        name="query-demo",
    )
    assert main(["schedule", str(path), "--validate", "--json"]) == 0
    one_shot = json.loads(capsys.readouterr().out)
    assert served == one_shot

    swept = client.sweep({"nodes": [10], "paths": [2], "graphs": 1})
    assert main([
        "sweep", "--nodes", "10", "--paths", "2", "--graphs", "1", "--json",
    ]) == 0
    assert swept == json.loads(capsys.readouterr().out)


def test_pareto_job_exposes_fronts(client):
    submitted = client.submit(dict(FIG1_REQUEST, pareto=True))
    client.wait(submitted["job"], timeout=120)
    fronts = client.front(submitted["job"])
    assert fronts["fronts"]["tabu"]["size"] >= 1

    plain = client.submit(dict(FIG1_REQUEST))
    client.wait(plain["job"], timeout=120)
    with pytest.raises(ServiceError, match="Pareto front"):
        client.front(plain["job"])


def test_stats_track_requests_and_batching(client):
    submitted = client.submit(dict(FIG1_REQUEST))
    client.wait(submitted["job"], timeout=120)
    stats = client.stats()
    assert stats["requests"]["total"] > 0
    assert stats["requests"]["by_route"]["/jobs"] >= 1
    assert stats["requests_per_second"] > 0
    assert stats["jobs"]["by_state"] == {"done": 1}
    assert stats["jobs"]["queue_depth"] == 0
    batching = stats["batching"]
    assert set(batching) == {"batches", "coalesced"}
    assert batching["batches"] > 0
    # One job ran alone, so no batch ever waited for another job's batch.
    assert batching["coalesced"] == 0


def test_stats_report_the_collector_on_each_request(client):
    before = client.stats()["collector"]
    gc.collect()
    after = client.stats()["collector"]
    assert after["thresholds"] == list(gc.get_threshold())
    assert [set(generation) for generation in after["generations"]] == [
        {"collections", "collected", "uncollectable"}
    ] * 3
    oldest = [stats["generations"][2]["collections"] for stats in (before, after)]
    assert oldest[1] > oldest[0]


def _one_shot_document(request):
    """The in-process ``explore --json`` document of one request."""
    validated = validate_explore_request(request)
    problem, origin = problem_and_origin(validated)
    explorer = Explorer(problem, config=config_from_request(validated))
    results = [explorer.explore(engine) for engine in engines_for(validated["engine"])]
    document = explore_document(
        origin, validated["seed"], results,
        include_front=validated["pareto"], problem=problem,
    )
    return json.loads(json.dumps(document))


def _without_stages(document):
    """A document minus its shared-cache-dependent ``stages`` counters."""
    return dict(document, results=[
        {key: value for key, value in result.items() if key != "stages"}
        for result in document["results"]
    ])


def test_concurrent_jobs_evaluate_one_batch_at_a_time(monkeypatch, timeout_cleanup):
    # Evaluation is CPU-bound pure Python, so job threads evaluating at once
    # would only trade the GIL back and forth.  On a 40-node, 8-path system
    # one batch spans many (shortened) GIL switch intervals, so overlap would
    # show; three job workers on three concurrent clients outnumber the cores.
    system = generate_system(40, 8, seed=1)
    payload = system_to_dict(
        system.process_graph, system.architecture, system.mapping, "lock-probe"
    )
    requests = [
        {"system": payload, "seed": seed, "engine": "tabu",
         "cycles": 2, "neighbors": 4}
        for seed in (1, 2, 3)
    ]
    references = [_one_shot_document(request) for request in requests]

    guard = threading.Lock()
    calls, active, peak = 0, 0, 0
    evaluate_neighbourhood = pool_module.evaluate_neighbourhood

    def probe(*args, **kwargs):
        nonlocal calls, active, peak
        with guard:
            calls += 1
            active += 1
            peak = max(peak, active)
        try:
            return evaluate_neighbourhood(*args, **kwargs)
        finally:
            with guard:
                active -= 1

    monkeypatch.setattr(pool_module, "evaluate_neighbourhood", probe)
    running = start_in_thread(job_workers=3)
    timeout_cleanup(running.close)
    documents = [None] * len(requests)
    errors = []

    def _one_client(index):
        try:
            client = ServiceClient(running.url, timeout=60.0)
            submitted = client.submit(requests[index])
            client.wait(submitted["job"], timeout=120)
            documents[index] = client.result(submitted["job"])
        except Exception as error:  # surfaced below; threads must not die silently
            errors.append(error)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [
            threading.Thread(target=_one_client, args=(index,))
            for index in range(len(requests))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        batching = ServiceClient(running.url, timeout=60.0).stats()["batching"]
    finally:
        sys.setswitchinterval(switch_interval)
        running.close()
    assert not errors
    assert calls > 0 and peak == 1
    for document, reference in zip(documents, references):
        assert _without_stages(document) == _without_stages(reference)
    # A job's fresh batch is one in-process call of its serial pool, and the
    # lock counts it exactly once.
    assert batching["batches"] == calls
    assert batching["coalesced"] <= batching["batches"]


def test_shutdown_endpoint_stops_the_server(timeout_cleanup):
    running = start_in_thread(job_workers=1)
    timeout_cleanup(running.close)
    client = ServiceClient(running.url, timeout=30.0)
    assert client.shutdown() == {"status": "shutting down"}
    running._thread.join(timeout=30)
    assert not running._thread.is_alive()
    with pytest.raises(OSError):
        client.health()


def _raw_exchange(port, payload):
    """Send raw bytes on a fresh connection; return (status, document)."""
    response = b""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(payload)
        try:
            while chunk := sock.recv(65536):
                response += chunk
        except ConnectionResetError:
            pass  # unread request bytes make the server's close a reset
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


@pytest.mark.parametrize(
    "payload,problem",
    [
        pytest.param(
            b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n",
            "request line longer than 65536 bytes",
            id="long-request-line",
        ),
        pytest.param(
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"x" * 70_000 + b"\r\n\r\n",
            "request header line longer than 65536 bytes",
            id="long-header-line",
        ),
        pytest.param(
            b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            "malformed Content-Length '-5'",
            id="negative-content-length",
        ),
    ],
)
def test_malformed_http_requests_answer_400(service, payload, problem):
    status, document = _raw_exchange(service.port, payload)
    assert status == 400, document
    assert document == {"error": problem}
    assert ServiceClient(service.url).health() == {"status": "ok"}


@pytest.mark.parametrize(
    "partial",
    [
        pytest.param(b"GET /healthz HTTP/1.1\r\nHost: x\r\n", id="headers"),
        pytest.param(
            b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\n{", id="body"
        ),
    ],
)
def test_a_stalled_request_is_closed_at_the_read_limit(
    service, monkeypatch, partial
):
    monkeypatch.setattr(server_module, "REQUEST_READ_SECONDS", 0.5)
    with socket.create_connection(("127.0.0.1", service.port), timeout=10) as sock:
        sock.sendall(partial)
        started = time.monotonic()
        assert sock.recv(1024) == b""  # closed, unanswered
        assert time.monotonic() - started < 5
    assert ServiceClient(service.url).health() == {"status": "ok"}


def test_close_returns_while_a_stalled_client_is_connected(timeout_cleanup):
    running = start_in_thread(job_workers=1)
    timeout_cleanup(running.close)
    with socket.create_connection(("127.0.0.1", running.port), timeout=10) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n")
        # Connections are accepted in order: once a later one is answered,
        # the stalled one is being read.
        assert ServiceClient(running.url).health() == {"status": "ok"}
        started = time.monotonic()
        running.close(timeout=10)
        assert not running._thread.is_alive()
        assert time.monotonic() - started < 5
        assert sock.recv(1024) == b""


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize(
    "flag", ["--job-workers", "--cache-max-entries", "--cache-max-bytes"]
)
def test_settings_below_one_are_rejected_before_binding(
    flag, value, monkeypatch, capsys
):
    setting = flag[2:].replace("-", "_")
    with pytest.raises(ValueError, match=flag):
        start_in_thread(**{setting: value})

    def bound(self):
        raise AssertionError(f"serve bound a socket with {flag}={value}")

    monkeypatch.setattr(ExplorationService, "start", bound)
    assert main(["serve", "--port", "0", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert flag in lines[0]
