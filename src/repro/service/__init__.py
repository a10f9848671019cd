"""The persistent proximity-query service layer.

Everything below builds on the same invariant the rest of the library
enforces: resolved distances are exact and never change, so sharing one
:class:`~repro.core.partial_graph.PartialDistanceGraph` across concurrent
queries can only *save* oracle calls — it can never alter an answer.

Every engine carries a :class:`~repro.obs.registry.MetricsRegistry`
(``engine.registry``); the server exposes it as ``{"op": "metrics"}`` and
as a scrapeable HTTP ``GET /metrics``.
"""

from repro.service.aserver import AsyncProximityServer
from repro.service.engine import (
    DEFAULT_JOB_WORKERS,
    EngineStats,
    ProximityEngine,
    space_fingerprint,
)
from repro.service.jobs import (
    JOB_KINDS,
    Job,
    JobResult,
    JobSpec,
    JobStatus,
    TERMINAL_STATUSES,
)
from repro.service.queue import JobQueue
from repro.service.server import handle_engine_request, parse_target, send_request

__all__ = [
    "AsyncProximityServer",
    "DEFAULT_JOB_WORKERS",
    "EngineStats",
    "JOB_KINDS",
    "Job",
    "JobQueue",
    "JobResult",
    "JobSpec",
    "JobStatus",
    "ProximityEngine",
    "TERMINAL_STATUSES",
    "handle_engine_request",
    "parse_target",
    "send_request",
    "space_fingerprint",
]
