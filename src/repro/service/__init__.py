"""Exploration-as-a-service: an async job server over shared stage caches.

``repro-cpg serve`` turns the one-shot exploration CLI into a long-running
HTTP/JSON service: clients POST explore requests (the pool JSON system
serialisation, the Fig. 1 example or a seeded random system), jobs run on a
small worker pool that evaluates one job's batch at a time, and every job in
the same *stage scope* (same graph + architecture + bus policy, any name or
seed mapping) answers from one shared, LRU-bounded
:class:`~repro.exploration.StageCache` — so near-duplicate tenants reuse
each other's expansion and per-path schedule work across requests.

Guarantees:

* **Byte identity** — a served job's result document equals the one-shot
  ``repro-cpg explore --json`` output for the same request, byte for byte
  (same document builders, same serial evaluation shape).
* **Bounded memory** — shared caches carry entry- and byte-budgets with
  cost-aware LRU eviction; ``GET /cache`` reports occupancy and eviction
  counters per scope.
* **Stdlib only** — ``asyncio`` + a hand-rolled HTTP/1.1 parser on the
  server, :mod:`http.client` on the client.

See ``docs/service.md`` for the endpoint reference and examples.
"""

from .client import ServiceClient, ServiceError
from .documents import (
    explore_document,
    explore_result_dict,
    finite,
    front_dict,
    schedule_document,
    sweep_document,
)
from .jobs import (
    DEFAULT_CACHE_MAX_BYTES,
    DEFAULT_CACHE_MAX_ENTRIES,
    Job,
    JobManager,
    ScopedStageCaches,
)
from .requests import (
    ENGINE_CHOICES,
    config_from_request,
    engines_for,
    problem_and_origin,
)
from .server import (
    ExplorationService,
    RunningService,
    serve_forever,
    start_in_thread,
)

__all__ = [
    "DEFAULT_CACHE_MAX_BYTES",
    "DEFAULT_CACHE_MAX_ENTRIES",
    "ENGINE_CHOICES",
    "ExplorationService",
    "Job",
    "JobManager",
    "RunningService",
    "ScopedStageCaches",
    "ServiceClient",
    "ServiceError",
    "config_from_request",
    "engines_for",
    "explore_document",
    "explore_result_dict",
    "finite",
    "front_dict",
    "problem_and_origin",
    "schedule_document",
    "serve_forever",
    "start_in_thread",
    "sweep_document",
]
