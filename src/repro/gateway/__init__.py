"""The service front door: an async HTTP/1.1 JSON gateway over the stack.

Everything below this package already worked in-process: the serving
pipeline (``repro.core``), the micro-batch scheduler and clock protocol
(``repro.online``), the sharded index (``repro.search`` /
``repro.cluster``).  This package puts a real network edge on it — pure
stdlib ``asyncio``, no new dependencies:

* :mod:`repro.gateway.schemas` — typed dataclass wire models with
  field-level validation and stable error codes (malformed input is
  always a 4xx envelope, never a 500);
* :mod:`repro.gateway.http` — minimal HTTP/1.1 framing over asyncio
  streams;
* :mod:`repro.gateway.ratelimit` — per-tenant token buckets (429 +
  ``Retry-After`` on shed);
* :mod:`repro.gateway.bridge` — futures over the scheduler's
  ``on_batch``/``on_shed`` callbacks, pumped by the latched
  :class:`~repro.online.clock.WallClock`;
* :mod:`repro.gateway.app` — the :class:`Gateway` itself: routes,
  admission, graceful drain, ``/v1/stats`` telemetry;
* :mod:`repro.gateway.soak` — the ``gateway_soak`` scenario arm's
  harness, proving the gateway's counters byte-match an in-process
  virtual-clock replay.  It is a test harness, not part of the server,
  so this package does not import it: take ``run_soak``,
  ``build_workload``, ``MiniClient`` and ``SoakItem`` from
  ``repro.gateway.soak``.

See ``docs/GATEWAY.md`` for the API reference and design notes.
"""

from repro.gateway.app import Gateway, GatewayConfig, GatewayStats
from repro.gateway.bridge import RequestShed, SchedulerBridge
from repro.gateway.ratelimit import RateLimitConfig, RateLimiter, TokenBucket
from repro.gateway.schemas import (
    BatchItem,
    BatchRequest,
    BatchResponse,
    DrainResponse,
    ErrorEnvelope,
    HealthResponse,
    RewriteRequest,
    RewriteResponse,
    SchemaError,
    SearchRequest,
    SearchResponse,
    StatsResponse,
)

__all__ = [
    "Gateway",
    "GatewayConfig",
    "GatewayStats",
    "SchedulerBridge",
    "RequestShed",
    "RateLimiter",
    "RateLimitConfig",
    "TokenBucket",
    "SchemaError",
    "ErrorEnvelope",
    "RewriteRequest",
    "SearchRequest",
    "BatchRequest",
    "BatchItem",
    "RewriteResponse",
    "SearchResponse",
    "BatchResponse",
    "HealthResponse",
    "StatsResponse",
    "DrainResponse",
]
