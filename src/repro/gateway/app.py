"""The gateway itself: asyncio HTTP front door over the serving stack.

:class:`Gateway` binds the whole PR together: an ``asyncio.start_server``
loop speaking the minimal HTTP of :mod:`repro.gateway.http`, the typed
schemas of :mod:`repro.gateway.schemas`, per-tenant
:class:`~repro.gateway.bridge.SchedulerBridge` instances over one shared
latched :class:`~repro.online.clock.WallClock`, and per-tenant
:class:`~repro.gateway.ratelimit.TokenBucket` admission.

Routes (all JSON)::

    POST /v1/rewrite   one query through the rewrite tiers
    POST /v1/search    one query end to end (rewrite + retrieval)
    POST /v1/batch     several tagged items in one submission
    GET  /v1/health    liveness + queue/tenant snapshot
    GET  /v1/stats     per-tenant serving counters, scheduler + HTTP telemetry
    POST /v1/drain     graceful drain; returns the conservation receipt

Error contract: *every* non-2xx response is a typed
:class:`~repro.gateway.schemas.ErrorEnvelope` with a stable ``code``;
malformed input of any shape maps to a 4xx, never a 500 (the schema-fuzz
suite pins this).  Rate-limited and shed requests answer 429 with a
``Retry-After`` header.  After ``/v1/drain``, in-flight requests
complete, admitted work is flushed through the schedulers (zero loss:
``admitted == completed + shed``), and new serving requests get 503
``draining`` — health/stats keep answering.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.core.serving import sum_counters
from repro.gateway import schemas
from repro.gateway.bridge import RequestShed, SchedulerBridge
from repro.gateway.http import (
    DEFAULT_MAX_BODY_BYTES,
    read_request,
    write_response,
)
from repro.gateway.ratelimit import RateLimitConfig, RateLimiter
from repro.gateway.schemas import (
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
from repro.online.clock import WallClock
from repro.online.scheduler import SchedulerConfig

#: route table: path -> methods it answers
ROUTES = {
    "/v1/rewrite": ("POST",),
    "/v1/search": ("POST",),
    "/v1/batch": ("POST",),
    "/v1/health": ("GET",),
    "/v1/stats": ("GET",),
    "/v1/drain": ("POST",),
}


@dataclass(frozen=True)
class GatewayConfig:
    """Everything the front door needs beyond the pipelines themselves."""

    #: bind address; tests use the default loopback
    host: str = "127.0.0.1"
    #: 0 picks an ephemeral port (read it back from :attr:`Gateway.port`)
    port: int = 0
    #: request-body ceiling (413 ``body_too_large`` beyond it)
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    #: period of the background tick that fires deadline-triggered batches
    pump_interval_seconds: float = 0.005
    #: batching/admission policy of every tenant's scheduler
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: per-tenant token-bucket shaping
    rate_limit: RateLimitConfig = field(default_factory=RateLimitConfig)


@dataclass
class GatewayStats:
    """The HTTP layer's own counters (the ``gateway`` block of /v1/stats)."""

    #: connections accepted
    connections: int = 0
    #: requests parsed off the wire (including ones answered with a 4xx)
    http_requests: int = 0
    #: responses written, keyed by status code
    responses_by_status: dict = field(default_factory=dict)
    #: error envelopes sent, keyed by stable error code
    errors_by_code: dict = field(default_factory=dict)
    #: drains performed
    drains: int = 0

    def record(self, status: int, error_code: str | None = None) -> None:
        """Tally one written response (and its error code, if any)."""
        self.responses_by_status[status] = (
            self.responses_by_status.get(status, 0) + 1
        )
        if error_code is not None:
            self.errors_by_code[error_code] = (
                self.errors_by_code.get(error_code, 0) + 1
            )

    def counters(self) -> dict:
        """Deterministically-ordered projection for the stats endpoint."""
        return {
            "connections": self.connections,
            "http_requests": self.http_requests,
            "responses_by_status": {
                str(code): self.responses_by_status[code]
                for code in sorted(self.responses_by_status)
            },
            "errors_by_code": {
                code: self.errors_by_code[code]
                for code in sorted(self.errors_by_code)
            },
            "drains": self.drains,
        }


class Gateway:
    """Async HTTP server over per-tenant serving pipelines.

    Build with a ``{tenant: ServingPipeline}`` map (each pipeline's cache
    and engine must already share the gateway's clock if TTLs matter),
    then ``await start()``; the bound port is :attr:`port`.  Use as an
    async context manager to guarantee shutdown::

        async with Gateway({"default": pipeline}) as gw:
            ...  # talk to ("127.0.0.1", gw.port)
    """

    def __init__(
        self,
        pipelines: dict,
        config: GatewayConfig | None = None,
        *,
        clock: WallClock | None = None,
    ):
        """``pipelines`` must be non-empty; tenants are fixed at startup."""
        if not pipelines:
            raise ValueError("a gateway needs at least one tenant pipeline")
        self.config = config or GatewayConfig()
        self.clock = clock if clock is not None else WallClock()
        self.pipelines = dict(pipelines)
        self.bridges = {
            tenant: SchedulerBridge(pipeline, self.clock, self.config.scheduler)
            for tenant, pipeline in self.pipelines.items()
        }
        self.limiter = RateLimiter(self.config.rate_limit, self.clock)
        self.stats = GatewayStats()
        self.draining = False
        self._server: asyncio.AbstractServer | None = None
        self._in_flight = 0
        self._started_at = 0.0

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "Gateway":
        """Bind the socket and start the scheduler pumps."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started_at = self.clock.sync()
        for bridge in self.bridges.values():
            bridge.start_pump(self.config.pump_interval_seconds)
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (resolves port=0 to the ephemeral choice)."""
        if self._server is None:
            raise RuntimeError("gateway is not started")
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting, cancel pumps, and close every pipeline."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for bridge in self.bridges.values():
            await bridge.stop_pump()
        for pipeline in self.pipelines.values():
            pipeline.close()

    async def __aenter__(self) -> "Gateway":
        """``async with Gateway(...)`` starts the server."""
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """Always shut the server and pipelines down on scope exit."""
        await self.close()

    # -- connection loop -----------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """Serve one client connection: keep-alive loop of request/response."""
        self.stats.connections += 1
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.config.max_body_bytes
                    )
                except SchemaError as error:
                    # Framing is broken: answer and drop the connection.
                    await self._respond_error(writer, error, keep_alive=False)
                    break
                if request is None:
                    break
                self.stats.http_requests += 1
                self._in_flight += 1
                try:
                    keep_alive = await self._dispatch(request, writer)
                finally:
                    self._in_flight -= 1
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request, writer) -> bool:
        """Route one parsed request; returns whether to keep the connection."""
        keep_alive = request.keep_alive
        try:
            status, payload, extra = await self._route(request)
        except SchemaError as error:
            await self._respond_error(
                writer,
                error,
                keep_alive=keep_alive,
                retry_after=getattr(error, "retry_after", None),
            )
            return keep_alive
        except RequestShed:
            error = SchemaError(
                schemas.QUEUE_FULL, "admission control shed this request"
            )
            await self._respond_error(
                writer,
                error,
                keep_alive=keep_alive,
                retry_after=self._shed_retry_after(),
            )
            return keep_alive
        except Exception as exc:  # the 500 path the fuzz suite pins to zero
            envelope = ErrorEnvelope(
                code=schemas.INTERNAL, message=f"unexpected failure: {exc}"
            )
            self.stats.record(500, schemas.INTERNAL)
            await write_response(
                writer, 500, envelope.to_wire(), keep_alive=keep_alive
            )
            return keep_alive
        self.stats.record(status)
        await write_response(
            writer, status, payload, extra_headers=extra, keep_alive=keep_alive
        )
        return keep_alive

    async def _respond_error(
        self, writer, error: SchemaError, *, keep_alive: bool,
        retry_after: float | None = None,
    ) -> None:
        """Write the typed envelope for a :class:`SchemaError`."""
        envelope = ErrorEnvelope(
            code=error.code,
            message=error.message,
            field=error.field,
            retry_after_seconds=retry_after,
        )
        status = envelope.status
        extra = (
            {"Retry-After": f"{retry_after:.3f}"}
            if retry_after is not None
            else None
        )
        self.stats.record(status, error.code)
        await write_response(
            writer, status, envelope.to_wire(),
            extra_headers=extra, keep_alive=keep_alive,
        )

    # -- routing -------------------------------------------------------------
    async def _route(self, request) -> tuple:
        """Resolve one request to ``(status, payload, extra_headers)``."""
        methods = ROUTES.get(request.path)
        if methods is None:
            raise SchemaError(
                schemas.NOT_FOUND, f"no route at {request.path!r}"
            )
        if request.method not in methods:
            raise SchemaError(
                schemas.METHOD_NOT_ALLOWED,
                f"{request.path} accepts {', '.join(methods)}, "
                f"not {request.method}",
            )
        if request.path == "/v1/health":
            return 200, self._health().to_wire(), None
        if request.path == "/v1/stats":
            return 200, self._stats().to_wire(), None
        if request.path == "/v1/drain":
            return 200, (await self._drain()).to_wire(), None
        if request.path == "/v1/rewrite":
            model = RewriteRequest.parse(request.json())
            return await self._serve_one(model.tenant, "rewrite", model)
        if request.path == "/v1/search":
            model = SearchRequest.parse(request.json())
            return await self._serve_one(model.tenant, "search", model)
        model = BatchRequest.parse(request.json())
        return await self._serve_batch(model)

    # -- admission -----------------------------------------------------------
    def _admit(self, tenant: str, tokens: int = 1) -> None:
        """Drain check, tenant check, and token-bucket check, in order."""
        if self.draining:
            raise SchemaError(
                schemas.DRAINING, "gateway is draining; no new work admitted"
            )
        if tenant not in self.bridges:
            raise SchemaError(
                schemas.INVALID_VALUE,
                f"tenant {tenant!r} is not served by this gateway",
                "tenant",
            )
        # The call's one sync: buckets refill from the shared latch, and
        # every item the call submits is stamped with this instant.
        self.clock.sync()
        retry_after = self.limiter.check(tenant, tokens)
        if retry_after > 0.0:
            error = SchemaError(
                schemas.RATE_LIMITED,
                f"tenant {tenant!r} is over its admission rate",
                "tenant",
            )
            error.retry_after = retry_after
            raise error

    def _shed_retry_after(self) -> float:
        """Retry-After for queue-full sheds: one batch deadline's worth."""
        return max(0.001, self.config.scheduler.max_wait_seconds)

    def _check_lane(self, lane: int) -> None:
        """Reject a lane the schedulers do not run *before* anything is
        submitted: the wire format allows 0..``MAX_LANE``, a deployment
        has ``num_lanes`` of them."""
        num_lanes = self.config.scheduler.num_lanes
        if lane >= num_lanes:
            raise SchemaError(
                schemas.INVALID_VALUE,
                f"lane {lane} is not served by this gateway; "
                f"lanes are 0..{num_lanes - 1}",
                "lane",
            )

    def _check_mode(self, tenant: str, mode: str | None) -> None:
        """Reject unsupported retrieval modes *before* scheduler admission."""
        engine = self.pipelines[tenant].search_engine
        if engine is None:
            raise SchemaError(
                schemas.INVALID_VALUE,
                f"tenant {tenant!r} has no search engine configured",
                "mode",
            )
        supported = getattr(engine, "retrieval_modes", ("lexical",))
        if mode is not None and mode not in supported:
            raise SchemaError(
                schemas.INVALID_VALUE,
                f"retrieval mode {mode!r} is not supported by tenant "
                f"{tenant!r}; available: {', '.join(supported)}",
                "mode",
            )

    # -- serving routes ------------------------------------------------------
    async def _serve_one(self, tenant: str, kind: str, model) -> tuple:
        """Admit + submit + await one rewrite/search request."""
        self._admit(tenant)
        self._check_lane(model.lane)
        mode = getattr(model, "mode", None)
        if kind == "search":
            self._check_mode(tenant, mode)
        bridge = self.bridges[tenant]
        future = bridge.submit(kind, model.query, lane=model.lane, mode=mode)
        bridge.advance()  # closes this call's instant: a cache hit is served now
        completion = await future
        return 200, self._completion_wire(kind, tenant, completion), None

    async def _serve_batch(self, model: BatchRequest) -> tuple:
        """Admit + submit every batch item; per-item outcomes, in order."""
        self._admit(model.tenant, tokens=len(model.items))
        for item in model.items:
            self._check_lane(item.lane)
            if item.kind == "search":
                self._check_mode(model.tenant, item.mode)
            elif item.mode is not None:
                raise SchemaError(
                    schemas.INVALID_VALUE,
                    "mode is only meaningful for search items",
                    "mode",
                )
        bridge = self.bridges[model.tenant]
        futures = [
            bridge.submit(item.kind, item.query, lane=item.lane, mode=item.mode)
            for item in model.items
        ]
        bridge.advance()
        settled = await asyncio.gather(*futures, return_exceptions=True)
        outcomes = []
        for item, result in zip(model.items, settled):
            if isinstance(result, RequestShed):
                envelope = ErrorEnvelope(
                    code=schemas.QUEUE_FULL,
                    message="admission control shed this item",
                    retry_after_seconds=self._shed_retry_after(),
                )
                self.stats.errors_by_code[schemas.QUEUE_FULL] = (
                    self.stats.errors_by_code.get(schemas.QUEUE_FULL, 0) + 1
                )
                outcomes.append(envelope.to_wire())
            elif isinstance(result, BaseException):
                raise result
            else:
                outcomes.append(
                    self._completion_wire(item.kind, model.tenant, result)
                )
        return 200, BatchResponse.from_outcomes(model.items, outcomes).to_wire(), None

    def _completion_wire(self, kind: str, tenant: str, completion) -> dict:
        """Render a :class:`CompletedRequest` to its response wire dict."""
        outcome = completion.outcome
        if kind == "rewrite":
            return RewriteResponse(
                query=outcome.query,
                rewrites=list(outcome.rewrites),
                source=outcome.source,
                latency_ms=round(outcome.latency_ms, 3),
            ).to_wire()
        engine = self.pipelines[tenant].search_engine
        mode = completion.request.mode or getattr(
            engine, "default_mode", "lexical"
        )
        return SearchResponse(
            query=outcome.query,
            rewrites=list(outcome.rewrites),
            source=outcome.served.source,
            mode=mode,
            doc_ids=list(outcome.doc_ids),
            postings_accessed=outcome.postings_accessed,
            latency_ms=round(outcome.latency_ms, 3),
        ).to_wire()

    # -- introspection routes ------------------------------------------------
    def _queue_depth(self) -> int:
        return sum(b.scheduler.queue_depth for b in self.bridges.values())

    def _health(self) -> HealthResponse:
        """Snapshot for ``GET /v1/health``."""
        return HealthResponse(
            status="draining" if self.draining else "ok",
            draining=self.draining,
            uptime_seconds=round(self.clock.sync() - self._started_at, 3),
            queue_depth=self._queue_depth(),
            in_flight=self._in_flight,
            tenants=sorted(self.bridges),
        )

    def _stats(self) -> StatsResponse:
        """Snapshot for ``GET /v1/stats``."""
        serving = {
            tenant: self.pipelines[tenant].counters()
            for tenant in sorted(self.pipelines)
        }
        totals = sum_counters(serving.values())
        scheduler = {}
        for tenant in sorted(self.bridges):
            report = self.bridges[tenant].scheduler.report
            scheduler[tenant] = {
                "admitted": report.admitted,
                "shed": report.shed,
                "completed": report.completed,
                "batches": report.batches,
                "size_triggered": report.size_triggered,
                "deadline_triggered": report.deadline_triggered,
                "peak_queue_depth": report.peak_queue_depth,
                "queue_depth": self.bridges[tenant].scheduler.queue_depth,
            }
        gateway = dict(self.stats.counters())
        gateway["rate_limited_by_tenant"] = {
            tenant: self.limiter.limited[tenant]
            for tenant in sorted(self.limiter.limited)
        }
        return StatsResponse(
            serving=serving, totals=totals, scheduler=scheduler, gateway=gateway
        )

    # -- drain ---------------------------------------------------------------
    def _conservation(self) -> tuple:
        """(admitted, completed, shed) summed over every tenant's scheduler."""
        admitted = completed = shed = 0
        for bridge in self.bridges.values():
            report = bridge.scheduler.report
            admitted += report.admitted
            completed += report.completed
            shed += report.shed
        return admitted, completed, shed

    async def _drain(self) -> DrainResponse:
        """Graceful drain: flush pending work, wait out in-flight requests.

        Idempotent — a second drain returns the (unchanged) receipt
        immediately.  New serving requests observe :attr:`draining`
        before any scheduler submission, so nothing is admitted after
        the flush starts: ``admitted == completed + shed`` holds exactly.
        """
        started = self.clock.sync()
        if not self.draining:
            self.draining = True
            for bridge in self.bridges.values():
                bridge.flush()
                await bridge.stop_pump()
            # The drain request itself is in flight; wait for the rest.
            while self._in_flight > 1:
                await asyncio.sleep(0.002)
            self.stats.drains += 1
        admitted, completed, shed = self._conservation()
        return DrainResponse(
            draining=True,
            admitted=admitted,
            completed=completed,
            shed=shed,
            drain_seconds=round(self.clock.sync() - started, 3),
        )
