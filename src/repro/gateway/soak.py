"""Socket-path soak: the ``gateway_soak`` scenario arm's harness.

The conformance claim this module exists to check: serving the *same*
deterministic :class:`~repro.online.replay.TrafficReplay`-derived trace

* through the real network path — concurrent HTTP clients against a
  :class:`~repro.gateway.app.Gateway` on an ephemeral port, wall-clock
  scheduling, real socket framing — and
* through the in-process twin — the same pipelines driven directly by a
  :class:`~repro.online.scheduler.MicroBatchScheduler` on a
  :class:`~repro.online.clock.VirtualClock`

produces **byte-identical** deterministic
:meth:`~repro.core.serving.ServingPipeline.counters` per tenant.

That only holds when every counter is order-independent, because the
socket arm's request interleaving is up to the OS scheduler.  The soak
therefore pins the configuration that makes it exact: batch size 1 with
zero wait (each request is its own dispatch), no model-result caching
(no cache writes racing reads), no churn, and a TTL far beyond the run
(no expiry racing the clock).  Micro-batching with B > 1 is exercised
separately by the lifecycle tests through conservation invariants rather
than byte equality.

The run is shaped by the arm's :class:`~repro.online.scenarios.
ScenarioConfig` alone: tenants ``tenant0..``, ``requests_per_tenant``
requests each, the scenario library's search cadence, and the config's
catalog and click-log sizes.  :func:`run_soak` is the arm's whole run.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass

from repro.baselines import RuleBasedRewriter
from repro.core import RewriteCache, ServingConfig, ServingPipeline
from repro.data.catalog import CatalogConfig, CatalogGenerator, alias_to_canonical
from repro.data.clicklog import ClickLogConfig, ClickLogSimulator
from repro.gateway.app import Gateway, GatewayConfig
from repro.gateway.ratelimit import RateLimitConfig
from repro.gateway.schemas import (
    DrainResponse,
    RewriteResponse,
    SchemaError,
    SearchResponse,
)
from repro.online.clock import VirtualClock, WallClock
from repro.online.replay import (
    DRAW_CHUNK,
    ReplayConfig,
    ReplayTenant,
    TrafficReplay,
    replay_traces,
    route,
)
from repro.online.scenarios import (
    InvariantResult,
    ScenarioConfig,
    ScenarioOutcome,
    _zero_bar,
)
from repro.online.scheduler import MicroBatchScheduler, SchedulerConfig
from repro.search import SearchConfig, ShardedSearchEngine

#: the order-independent scheduler policy both arms share (see module doc)
SOAK_SCHEDULER = SchedulerConfig(
    max_batch_size=1,
    max_wait_seconds=0.0,
    max_queue_depth=4096,
    num_lanes=2,
)


@dataclass(frozen=True)
class SoakItem:
    """One request of the soak trace, fully determined by the config."""

    tenant: str
    #: "rewrite" or "search"
    kind: str
    query: str
    #: lane 0 for head queries, lane 1 for the tail
    lane: int


def _tenants(config: ScenarioConfig) -> list[str]:
    """The soak's tenant names, ``tenant0`` .. ``tenant{n-1}``."""
    return [f"tenant{i}" for i in range(config.num_tenants)]


def _canonical(counters: dict) -> str:
    """Byte-stable JSON rendering used for the equality comparison."""
    return json.dumps(counters, sort_keys=True, separators=(",", ":"))


# -- workload ----------------------------------------------------------------
def build_workload(config: ScenarioConfig):
    """The deterministic trace plus per-tenant head sets.

    Returns ``(items, heads)``: ``items`` interleaves the tenants
    round-robin (the global submit order of the twin), and ``heads`` maps
    tenant -> its click-ranked head queries (query -> category), which
    both arms pre-populate.  Churn is disabled by construction — the
    churn cadence is pushed past the trace length — so every arrival is
    a request, kind and lane set by :func:`~repro.online.replay.route`.
    """
    heads = {}
    traces = []
    for index, tenant in enumerate(_tenants(config)):
        replay = _build_replay(config, index)
        head = heads[tenant] = replay.head_queries()
        trace = []
        for seq, (_, _, request) in enumerate(replay.arrival_trace()):
            kind, lane = route(seq, request.query, head, SOAK_SCHEDULER.num_lanes)
            trace.append(
                SoakItem(tenant=tenant, kind=kind, query=request.query, lane=lane)
            )
        traces.append(trace)
    items = [item for step in zip(*traces) for item in step]
    return items, heads


def _build_replay(config: ScenarioConfig, index: int) -> TrafficReplay:
    """One tenant's deterministic traffic source (no churn events)."""
    seed = config.seed + 11 * index
    generator = CatalogGenerator(
        CatalogConfig(products_per_category=config.products_per_category, seed=seed)
    )
    catalog = generator.generate()
    click_log = ClickLogSimulator(
        catalog,
        config=ClickLogConfig(
            num_sessions=config.num_sessions,
            intent_pool_size=60,
            seed=seed,
        ),
    ).simulate()
    per_tenant = config.requests_per_tenant
    replay_config = ReplayConfig(
        num_requests=per_tenant,
        batch_size=DRAW_CHUNK,
        churn_every=per_tenant + 1,  # never fires: pure traffic
        seed=seed,
    )
    return TrafficReplay(click_log, generator, replay_config)


def build_tenant_pipeline(
    config: ScenarioConfig, index: int, clock, head
) -> ServingPipeline:
    """Tenant ``index``'s serving stack, identical in both arms.

    ``clock`` is the zero-argument time source for the cache TTL (the
    arm's WallClock.now or VirtualClock.now) and ``head`` the tenant's
    head queries from :func:`build_workload`, pre-populated in order.
    The TTL is effectively infinite and model results are not written
    back, so the counters cannot depend on which clock drives them.
    """
    seed = config.seed + 11 * index
    generator = CatalogGenerator(
        CatalogConfig(products_per_category=config.products_per_category, seed=seed)
    )
    catalog = generator.generate()
    engine = ShardedSearchEngine(
        catalog, SearchConfig(max_candidates=10), num_shards=2, parallel=False
    )
    cache = RewriteCache(ttl_seconds=1e9, clock=clock)
    rewriter = RuleBasedRewriter(alias_to_canonical())
    cache.populate(rewriter, list(head), k=3)
    return ServingPipeline(
        cache,
        rewriter,
        ServingConfig(cache_model_results=False),
        search_engine=engine,
        tenant=_tenants(config)[index],
    )


# -- minimal asyncio HTTP client ---------------------------------------------
class MiniClient:
    """Just enough HTTP/1.1 client for the soak: keep-alive JSON calls."""

    def __init__(self, host: str, port: int):
        """Connect lazily on the first request."""
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None

    async def _ensure(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def request(self, method: str, path: str, payload=None):
        """One round trip; returns ``(status, headers, decoded_body)``."""
        await self._ensure()
        body = b""
        head = [f"{method} {path} HTTP/1.1", f"Host: {self.host}"]
        if payload is not None:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            head.append("Content-Type: application/json")
            head.append(f"Content-Length: {len(body)}")
        self._writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await self._writer.drain()
        return await self._read_response()

    async def raw(
        self,
        method: str,
        path: str,
        body: bytes,
        content_type: str = "application/json",
    ):
        """Send arbitrary (possibly invalid-JSON) bytes as the body.

        The fuzz suite's entry point: framing is correct, the payload is
        whatever the caller wants to throw at the schema layer.  Returns
        ``(status, headers, decoded_body)``; the body is decoded as JSON
        when possible, else returned as raw bytes.
        """
        await self._ensure()
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        self._writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await self._writer.drain()
        return await self._read_response()

    async def _read_response(self):
        status_line = (await self._reader.readline()).decode("latin-1").strip()
        status = int(status_line.split(" ")[1])
        headers = {}
        while True:
            line = (await self._reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        decoded = json.loads(raw.decode("utf-8")) if raw else None
        return status, headers, decoded

    async def post(self, path: str, payload):
        """POST JSON; returns ``(status, headers, decoded_body)``."""
        return await self.request("POST", path, payload)

    async def get(self, path: str):
        """GET; returns ``(status, headers, decoded_body)``."""
        return await self.request("GET", path)

    async def close(self) -> None:
        """Close the connection (safe when never connected)."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass
            self._writer = None
            self._reader = None


def item_payload(item: SoakItem) -> dict:
    """The JSON body a :class:`SoakItem` posts to its route."""
    return {"query": item.query, "tenant": item.tenant, "lane": item.lane}


def item_path(item: SoakItem) -> str:
    """The route a :class:`SoakItem` posts to."""
    return "/v1/search" if item.kind == "search" else "/v1/rewrite"


# -- the two arms ------------------------------------------------------------
async def run_gateway_arm(
    config: ScenarioConfig, items, heads, *, clients: int = 4
):
    """Drive the trace through a live gateway over real sockets.

    ``items`` and ``heads`` come from :func:`build_workload`.
    ``clients`` concurrent connections each post every ``clients``-th
    item; the gateway is drained at the end.  Returns
    ``(per_tenant_counters, responses_by_status, schema_failures,
    receipt, gateway_stats)``.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    clock = WallClock()
    pipelines = {
        tenant: build_tenant_pipeline(config, index, clock.now, heads[tenant])
        for index, tenant in enumerate(_tenants(config))
    }
    gateway_config = GatewayConfig(
        scheduler=SOAK_SCHEDULER,
        # Shaping off for the conformance soak: admission must depend on
        # the trace alone, not on client pacing.
        rate_limit=RateLimitConfig(rate_per_second=1e6, burst=1_000_000),
    )
    responses_by_status: dict = {}
    schema_failures = 0
    async with Gateway(pipelines, gateway_config, clock=clock) as gateway:
        lanes = [items[offset::clients] for offset in range(clients)]

        async def drive(slice_items):
            nonlocal schema_failures
            client = MiniClient(gateway.config.host, gateway.port)
            try:
                for item in slice_items:
                    status, _, body = await client.post(
                        item_path(item), item_payload(item)
                    )
                    key = str(status)
                    responses_by_status[key] = responses_by_status.get(key, 0) + 1
                    model = (
                        SearchResponse if item.kind == "search" else RewriteResponse
                    )
                    try:
                        model.parse(body)
                    except SchemaError:
                        schema_failures += 1
            finally:
                await client.close()

        await asyncio.gather(*(drive(lane) for lane in lanes))

        reader = MiniClient(gateway.config.host, gateway.port)
        try:
            _, _, receipt_body = await reader.post("/v1/drain", {})
            receipt = DrainResponse.parse(receipt_body).to_wire()
            _, _, stats = await reader.get("/v1/stats")
        finally:
            await reader.close()
    return (
        stats["serving"],
        responses_by_status,
        schema_failures,
        receipt,
        stats["gateway"],
    )


def run_twin_arm(config: ScenarioConfig, items, heads) -> dict:
    """Replay the same trace in process on a virtual clock.

    One shared :class:`VirtualClock`, one scheduler per tenant (exactly
    the gateway's shape), each tenant's items arriving at a virtual
    millisecond per position in the global round-robin order, walked by
    :func:`~repro.online.replay.replay_traces`.  Returns tenant ->
    counters.
    """
    clock = VirtualClock()
    tenants = {}
    for index, name in enumerate(_tenants(config)):
        pipeline = build_tenant_pipeline(config, index, clock.now, heads[name])
        trace = [
            ("request", position * 0.001, item)
            for position, item in enumerate(items)
            if item.tenant == name
        ]
        tenant = ReplayTenant(pipeline=pipeline, trace=trace, head=heads[name])
        tenant.scheduler = MicroBatchScheduler(pipeline, clock, SOAK_SCHEDULER)
        tenants[name] = tenant
    replay_traces(list(tenants.values()))
    for tenant in tenants.values():
        tenant.pipeline.close()
    return {name: tenants[name].pipeline.counters() for name in sorted(tenants)}


def run_soak(
    config: ScenarioConfig | None = None, *, clients: int = 4
) -> ScenarioOutcome:
    """Run both arms from ``config`` and judge the ``gateway_soak`` bars.

    ``clients`` is the socket arm's concurrent connection count; the
    outcome may not depend on it.  ``per_tenant`` holds the twin's
    counters, ``notes`` the HTTP status tally, the gateway block of
    ``/v1/stats`` and the drain receipt.
    """
    config = config or ScenarioConfig()
    items, heads = build_workload(config)
    gateway_counters, by_status, schema_failures, receipt, gateway_stats = (
        asyncio.run(run_gateway_arm(config, items, heads, clients=clients))
    )
    twin_counters = run_twin_arm(config, items, heads)
    identical = _canonical(gateway_counters) == _canonical(twin_counters)
    http_500s = sum(
        count for status, count in by_status.items() if int(status) >= 500
    )
    lost = receipt["admitted"] - receipt["completed"] - receipt["shed"]
    answered_200 = by_status.get("200", 0)
    per_tenant = {}
    for tenant, counters in twin_counters.items():
        per_tenant[tenant] = {
            "counters": counters,
            "requests": counters["admitted"],
            "submitted": counters["admitted"] + counters["shed"],
            "searches": counters["search_requests"],
            "churn_events": 0,  # the conformance trace is pure traffic
            "dead_doc_hits": 0,
            "cross_tenant_cache_hits": 0,
            "cross_tenant_doc_serves": 0,
            "counters_byte_identical": identical,
        }
    invariants = [
        InvariantResult(
            name="socket_counters_byte_identical",
            passed=identical,
            observed=float(identical),
            bar="== virtual-clock twin",
            detail=(
                "per-tenant ServingPipeline.counters() over the socket path "
                "must byte-match the same-seed in-process replay"
            ),
        ),
        _zero_bar(
            "zero_http_500s", http_500s, "no request may surface an internal error"
        ),
        _zero_bar(
            "all_responses_schema_valid",
            schema_failures,
            "every 200 body re-validates against its typed response model",
        ),
        InvariantResult(
            name="every_request_answered_200",
            passed=answered_200 == len(items),
            observed=float(answered_200),
            bar=f"== {len(items)}",
            detail=f"responses by status: {by_status}",
        ),
        _zero_bar(
            "zero_lost_requests",
            lost,
            f"drain receipt admitted={receipt['admitted']} "
            f"completed={receipt['completed']} shed={receipt['shed']}",
        ),
        _zero_bar(
            "soak_sheds_nothing",
            receipt["shed"],
            "the conformance trace runs far below the admission bound",
        ),
    ]
    return ScenarioOutcome(
        scenario="gateway_soak",
        config=config,
        invariants=invariants,
        per_tenant=per_tenant,
        notes={
            "responses_by_status": dict(by_status),
            "gateway_stats": dict(gateway_stats),
            "receipt": dict(receipt),
        },
    )
