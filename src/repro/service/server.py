"""The ``repro-cpg serve`` HTTP/JSON server: asyncio, stdlib-only.

A deliberately small HTTP/1.1 front-end over :mod:`repro.service.jobs` —
``asyncio.start_server`` plus a hand-rolled request parser, no
``http.server``, no third-party framework.  Every response is a JSON
document; every error is ``{"error": ...}`` with the
:class:`~repro.io.SerializationError` message naming the offending request
entry.  One connection carries one request (``Connection: close``), which
keeps the parser honest and the clients trivial.  The request must arrive
whole within :data:`REQUEST_READ_SECONDS`; a line over 64 KiB or a malformed
``Content-Length`` answers 400.

Endpoints
---------
==========================  ====================================================
``GET  /healthz``           liveness probe
``GET  /stats``             requests/sec, per-route counters, job states,
                            evaluation-lock batches, collector counters
``GET  /cache``             the shared stage caches: per-scope occupancy,
                            budgets, hit/miss and eviction counters
``POST /jobs``              submit an exploration job (body: the
                            ``validate_explore_request`` schema); answers 202
                            with the job id
``GET  /jobs``              list every job's status document
``GET  /jobs/<id>``         one job's status (state, scope, shared-cache slice)
``GET  /jobs/<id>/result``  the full exploration document (byte-identical to
                            the one-shot CLI for the same request on a cold
                            scope)
``GET  /jobs/<id>/trajectory``  per-engine search trajectories
``GET  /jobs/<id>/front``   per-engine Pareto fronts (pareto jobs only)
``POST /schedule``          synchronous schedule query (the ``schedule --json``
                            document)
``POST /sweep``             synchronous sweep query (the ``sweep --json``
                            document)
``POST /shutdown``          drain jobs and stop the server
==========================  ====================================================
"""

from __future__ import annotations

import asyncio
import gc
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Set, Tuple

from ..architecture.architecture import ArchitectureError
from ..architecture.mapping import MappingError
from ..graph.cpg import GraphStructureError
from ..io.serialization import (
    SerializationError,
    system_from_dict,
    validate_explore_request,
    validate_schedule_request,
    validate_sweep_request,
)
from .documents import schedule_document, sweep_document
from .jobs import (
    DEFAULT_CACHE_MAX_BYTES,
    DEFAULT_CACHE_MAX_ENTRIES,
    JobManager,
    ScopedStageCaches,
)
from .requests import schedule_system, sweep_series

#: Upper bound on request bodies; a system description this large is a
#: client bug, not a workload.
MAX_BODY_BYTES = 32 * 1024 * 1024
_MAX_HEADER_LINES = 64
#: Upper bound on the request line and on each header line.
_MAX_LINE_BYTES = 64 * 1024
#: Seconds a client has to send one whole request (request line, headers
#: and body).  A connection still sending it then is closed unanswered, so
#: a stalled client can hold neither a handler nor the server's shutdown.
REQUEST_READ_SECONDS = 30.0

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class ExplorationService:
    """The long-running exploration service (state + asyncio front-end)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        job_workers: int = 2,
        cache_max_entries: int = DEFAULT_CACHE_MAX_ENTRIES,
        cache_max_bytes: int = DEFAULT_CACHE_MAX_BYTES,
        tracer=None,
    ) -> None:
        for flag, value in (
            ("--job-workers", job_workers),
            ("--cache-max-entries", cache_max_entries),
            ("--cache-max-bytes", cache_max_bytes),
        ):
            if value < 1:
                raise ValueError(f"{flag} must be >= 1, got {value}")
        self._host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self._tracer = tracer
        self._jobs = JobManager(
            caches=ScopedStageCaches(cache_max_entries, cache_max_bytes),
            workers=job_workers,
            tracer=tracer,
        )
        # Synchronous queries (schedule/sweep, request validation) run off
        # the event loop on this small pool so a heavy merge never stalls
        # the accept loop.
        self._query_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-query"
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._started_monotonic = time.monotonic()
        self._requests_total = 0
        self._requests_by_route: Dict[str, int] = {}
        self._counter_lock = threading.Lock()
        # Connection handlers still reading their request; shutdown cancels
        # them (the event loop's thread is the only one touching the set).
        self._reading: Set[asyncio.Task] = set()

    @property
    def jobs(self) -> JobManager:
        return self._jobs

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (``port`` is known afterwards)."""
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._requested_port,
            limit=_MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Serve until ``POST /shutdown`` (or :meth:`request_shutdown`)."""
        assert self._server is not None and self._shutdown is not None
        async with self._server:
            await self._server.start_serving()
            await self._shutdown.wait()
            # Accept nothing more, and drop the clients still sending their
            # request: Python 3.12's wait_closed() waits for every open
            # connection, so a stalled one would hold the shutdown.
            self._server.close()
            reading = list(self._reading)
            for task in reading:
                task.cancel()
            await asyncio.gather(*reading, return_exceptions=True)
        self._jobs.close()
        self._query_executor.shutdown(wait=True)

    def request_shutdown(self) -> None:
        """Trip the shutdown event (safe from any thread via the loop)."""
        if self._shutdown is not None:
            self._shutdown.set()

    # -- HTTP plumbing -------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        status, document = 500, {"error": "internal error"}
        task = asyncio.current_task()
        self._reading.add(task)
        try:
            try:
                parsed = await asyncio.wait_for(
                    self._read_request(reader), REQUEST_READ_SECONDS
                )
            finally:
                self._reading.discard(task)
            if isinstance(parsed, tuple):
                method, path, body = parsed
                status, document = await self._route(method, path, body)
            else:
                status, document = 400, {"error": parsed}
        except SerializationError as error:
            status, document = 400, {"error": str(error)}
        except (GraphStructureError, ArchitectureError, MappingError) as error:
            status, document = 400, {"error": f"invalid system: {error}"}
        except asyncio.CancelledError:  # shutdown dropped a stalled client
            writer.close()
            raise
        # The client went away, or sent its request too slowly.
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            writer.close()
            return
        except Exception as error:  # never leak a traceback to the socket
            status, document = 500, {"error": f"internal error: {error}"}
        payload = (
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        ).encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
        try:
            writer.write(head + payload)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
        if status == 200 and document.get("status") == "shutting down":
            self.request_shutdown()

    async def _read_request(self, reader):
        """Parse one request; returns (method, path, body) or an error string.

        ``readline`` raises ``ValueError`` on a line longer than the
        stream's limit (:data:`_MAX_LINE_BYTES`).
        """
        try:
            request_line = await reader.readline()
        except ValueError:
            return f"request line longer than {_MAX_LINE_BYTES} bytes"
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return f"malformed request line {request_line!r}"
        method, path, _version = parts
        content_length = 0
        for _ in range(_MAX_HEADER_LINES):
            try:
                line = await reader.readline()
            except ValueError:
                return f"request header line longer than {_MAX_LINE_BYTES} bytes"
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = -1
                if content_length < 0:
                    return f"malformed Content-Length {value.strip()!r}"
        else:
            return "too many request headers"
        if content_length > MAX_BODY_BYTES:
            return f"request body exceeds {MAX_BODY_BYTES} bytes"
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        return method, path, body

    def _count_request(self, route: str) -> None:
        with self._counter_lock:
            self._requests_total += 1
            self._requests_by_route[route] = (
                self._requests_by_route.get(route, 0) + 1
            )

    # -- routing -------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        span = (
            self._tracer.span("service.request", method=method, path=path)
            if self._tracer is not None
            else None
        )
        try:
            status, document = await self._dispatch(method, path, body)
        finally:
            if span is not None:
                span.close()
        return status, document

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._count_request("/healthz")
            if method != "GET":
                return 405, {"error": "use GET /healthz"}
            return 200, {"status": "ok"}
        if path == "/stats":
            self._count_request("/stats")
            if method != "GET":
                return 405, {"error": "use GET /stats"}
            return 200, self._stats_document()
        if path == "/cache":
            self._count_request("/cache")
            if method != "GET":
                return 405, {"error": "use GET /cache"}
            return 200, self._jobs.caches.stats_document()
        if path == "/shutdown":
            self._count_request("/shutdown")
            if method != "POST":
                return 405, {"error": "use POST /shutdown"}
            return 200, {"status": "shutting down"}
        if path == "/schedule":
            self._count_request("/schedule")
            if method != "POST":
                return 405, {"error": "use POST /schedule"}
            document = _parse_json_body(body)
            return await self._in_executor(self._schedule_query, document)
        if path == "/sweep":
            self._count_request("/sweep")
            if method != "POST":
                return 405, {"error": "use POST /sweep"}
            document = _parse_json_body(body)
            return await self._in_executor(self._sweep_query, document)
        if path == "/jobs":
            self._count_request("/jobs")
            if method == "POST":
                document = _parse_json_body(body)
                return await self._in_executor(self._submit_job, document)
            if method == "GET":
                return 200, {"jobs": self._jobs.list_documents()}
            return 405, {"error": "use POST /jobs or GET /jobs"}
        if path.startswith("/jobs/"):
            self._count_request("/jobs/<id>")
            if method != "GET":
                return 405, {"error": "job queries use GET"}
            return self._job_query(path)
        self._count_request("<unknown>")
        return 404, {"error": f"unknown path {path!r}"}

    async def _in_executor(self, fn, *args) -> Tuple[int, Dict[str, Any]]:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._query_executor, fn, *args)

    # -- endpoint bodies -----------------------------------------------------

    def _submit_job(self, document: Any) -> Tuple[int, Dict[str, Any]]:
        request = validate_explore_request(document)
        job = self._jobs.submit(request)
        return 202, job.status_document()

    def _job_query(self, path: str) -> Tuple[int, Dict[str, Any]]:
        segments = path.split("/")[2:]
        job = self._jobs.get(segments[0])
        if job is None:
            return 404, {"error": f"unknown job {segments[0]!r}"}
        if len(segments) == 1:
            return 200, job.status_document()
        view = segments[1]
        if view not in ("result", "trajectory", "front"):
            return 404, {"error": f"unknown job view {view!r}"}
        if job.state == "failed":
            return 409, {"error": job.error, "state": "failed", "job": job.id}
        if job.document is None:
            return 409, {
                "error": f"job {job.id} is {job.state}; poll GET /jobs/{job.id}",
                "state": job.state,
                "job": job.id,
            }
        if view == "result":
            return 200, job.document
        if view == "trajectory":
            return 200, {
                "job": job.id,
                "trajectories": {
                    result["engine"]: result["trajectory"]
                    for result in job.document["results"]
                },
            }
        fronts = {
            result["engine"]: result["front"]
            for result in job.document["results"]
            if "front" in result
        }
        if not fronts:
            return 409, {
                "error": f"job {job.id} did not track a Pareto front "
                "(submit with \"pareto\": true)",
                "job": job.id,
            }
        return 200, {"job": job.id, "fronts": fronts}

    def _schedule_query(self, document: Any) -> Tuple[int, Dict[str, Any]]:
        request = validate_schedule_request(document)
        system = system_from_dict(request["system"])
        result, report = schedule_system(system, request["validate"])
        return 200, schedule_document(system.name, result, report)

    def _sweep_query(self, document: Any) -> Tuple[int, Dict[str, Any]]:
        request = validate_sweep_request(document)
        series = sweep_series(request["nodes"], request["paths"], request["graphs"])
        return 200, sweep_document(series, request["graphs"])

    def _stats_document(self) -> Dict[str, Any]:
        uptime = time.monotonic() - self._started_monotonic
        with self._counter_lock:
            total = self._requests_total
            by_route = dict(sorted(self._requests_by_route.items()))
        states: Dict[str, int] = {}
        for document in self._jobs.list_documents():
            states[document["state"]] = states.get(document["state"], 0) + 1
        lock = self._jobs.evaluation_lock
        return {
            "uptime_seconds": uptime,
            "requests": {"total": total, "by_route": by_route},
            "requests_per_second": total / uptime if uptime > 0 else 0.0,
            "jobs": {
                "queue_depth": self._jobs.queue_depth(),
                "by_state": dict(sorted(states.items())),
            },
            "batching": {"batches": lock.batches, "coalesced": lock.coalesced},
            "collector": {
                "thresholds": list(gc.get_threshold()),
                "generations": [
                    {
                        key: generation[key]
                        for key in ("collections", "collected", "uncollectable")
                    }
                    for generation in gc.get_stats()
                ],
            },
        }


def _parse_json_body(body: bytes) -> Any:
    if not body:
        raise SerializationError("request body is empty; send a JSON document")
    try:
        return json.loads(body)
    except json.JSONDecodeError as error:
        raise SerializationError(f"request body is not valid JSON: {error}")


class RunningService:
    """A service running on a background thread (tests, benchmarks, CI).

    Usage::

        with start_in_thread() as service:
            ...  # http://127.0.0.1:{service.port}

    ``close()`` requests shutdown, joins the serving thread and propagates
    nothing — it is safe to call twice (the test-timeout cleanup path).
    """

    def __init__(self, service: ExplorationService) -> None:
        self.service = service
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()

    @property
    def port(self) -> int:
        assert self.service.port is not None
        return self.service.port

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def start(self, timeout: float = 10.0) -> "RunningService":
        self._thread = threading.Thread(
            target=self._serve, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service failed to start within timeout")
        return self

    def _serve(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._amain())
        finally:
            loop.close()

    async def _amain(self) -> None:
        await self.service.start()
        self._ready.set()
        await self.service.serve_until_shutdown()

    def close(self, timeout: float = 30.0) -> None:
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            loop.call_soon_threadsafe(self.service.request_shutdown)
            thread.join(timeout)

    def __enter__(self) -> "RunningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_in_thread(**kwargs) -> RunningService:
    """Start an :class:`ExplorationService` on a background thread.

    Keyword arguments go to :class:`ExplorationService`; the default binds an
    ephemeral localhost port (read it from ``.port``).
    """
    return RunningService(ExplorationService(**kwargs)).start()


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8765,
    job_workers: int = 2,
    cache_max_entries: int = DEFAULT_CACHE_MAX_ENTRIES,
    cache_max_bytes: int = DEFAULT_CACHE_MAX_BYTES,
    tracer=None,
) -> int:
    """Blocking entry point behind ``repro-cpg serve``.

    A setting below 1 is reported as one ``error:`` line on stderr, with
    exit status 2, before anything binds.
    """
    try:
        service = ExplorationService(
            host=host,
            port=port,
            job_workers=job_workers,
            cache_max_entries=cache_max_entries,
            cache_max_bytes=cache_max_bytes,
            tracer=tracer,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    async def _amain() -> None:
        await service.start()
        print(
            f"repro-cpg serve: listening on http://{host}:{service.port} "
            f"({job_workers} job worker(s))",
            flush=True,
        )
        await service.serve_until_shutdown()

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        pass
    return 0
