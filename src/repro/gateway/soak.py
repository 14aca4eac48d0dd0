"""Socket-path soak harness: live gateway vs in-process twin replay.

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

Everything here is shared by ``tests/test_gateway_soak.py``,
``benchmarks/test_gateway_soak.py``, the ``gateway_soak`` experiment
runner, and the scenario arm of the same name — one workload definition,
four consumers.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

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
from repro.online.replay import ReplayConfig, TrafficReplay
from repro.online.scheduler import (
    MicroBatchScheduler,
    ScheduledRequest,
    SchedulerConfig,
)
from repro.search import SearchConfig, ShardedSearchEngine


@dataclass(frozen=True)
class SoakConfig:
    """Shape of one soak run (both arms derive everything from this)."""

    seed: int = 0
    #: total requests across all tenants
    num_requests: int = 240
    #: marketplaces served; each gets its own catalog/pipeline/scheduler
    tenants: tuple = ("marketplace_na", "marketplace_eu")
    #: every Nth request per tenant goes end-to-end through retrieval
    search_every: int = 4
    #: concurrent HTTP client connections in the socket arm
    clients: int = 4
    #: catalog/click-log scale per tenant
    products_per_category: int = 4
    sessions_per_tenant: int = 250
    #: drain the gateway at the end and keep the conservation receipt
    drain_at_end: bool = True

    def __post_init__(self):
        """A soak needs work, tenants, and at least one client."""
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if not self.tenants:
            raise ValueError("tenants must be non-empty")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.search_every < 1:
            raise ValueError("search_every must be >= 1")


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


@dataclass
class SoakOutcome:
    """Everything both arms produced, ready for invariant checks."""

    #: requests in the trace
    requests: int
    #: tenant -> deterministic counters seen over HTTP (/v1/stats)
    gateway_counters: dict
    #: tenant -> deterministic counters from the virtual-clock twin
    twin_counters: dict
    #: HTTP responses received, by status code
    responses_by_status: dict
    #: responses whose body failed response-schema validation
    schema_failures: int
    #: drain receipt (DrainResponse wire dict), when drain_at_end
    receipt: dict | None
    #: the gateway block of /v1/stats at end of run
    gateway_stats: dict = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        """Whether the two arms' counters are byte-identical."""
        return _canonical(self.gateway_counters) == _canonical(self.twin_counters)

    @property
    def http_500s(self) -> int:
        """Internal errors observed by the clients (pinned to zero)."""
        return sum(
            count
            for status, count in self.responses_by_status.items()
            if int(status) >= 500
        )

    @property
    def lost_requests(self) -> int:
        """Admitted requests that neither completed nor were shed."""
        if self.receipt is None:
            return 0
        return (
            self.receipt["admitted"]
            - self.receipt["completed"]
            - self.receipt["shed"]
        )

    def fingerprint(self) -> str:
        """Canonical digest of the deterministic outcome (twin side)."""
        return _canonical(self.twin_counters)


def _canonical(counters: dict) -> str:
    """Byte-stable JSON rendering used for the equality comparison."""
    return json.dumps(counters, sort_keys=True, separators=(",", ":"))


# -- workload ----------------------------------------------------------------
def build_workload(config: SoakConfig):
    """The deterministic trace plus per-tenant head sets.

    Returns ``(items, heads)``: ``items`` interleaves the tenants
    round-robin (the global submit order of the twin), and ``heads`` maps
    tenant -> head-query set (cache pre-population).  Churn is disabled
    by construction — the churn cadence is pushed past the trace length —
    so the trace is pure traffic.
    """
    per_tenant = max(1, config.num_requests // len(config.tenants))
    traces = {}
    heads = {}
    for index, tenant in enumerate(config.tenants):
        replay = _build_replay(config, index, per_tenant)
        heads[tenant] = set(replay.head_queries())
        requests = [
            payload
            for kind, _, payload in replay.arrival_trace()
            if kind == "request"
        ][:per_tenant]
        traces[tenant] = [
            SoakItem(
                tenant=tenant,
                kind="search" if seq % config.search_every == 0 else "rewrite",
                query=request.query,
                lane=0 if request.query in heads[tenant] else 1,
            )
            for seq, request in enumerate(requests)
        ]
    items = []
    for seq in range(per_tenant):
        for tenant in config.tenants:
            items.append(traces[tenant][seq])
    return items, heads


def _build_replay(config: SoakConfig, index: int, per_tenant: int) -> TrafficReplay:
    """One tenant's deterministic traffic source (no churn events)."""
    seed = config.seed + 11 * index
    generator = CatalogGenerator(
        CatalogConfig(products_per_category=config.products_per_category, seed=seed)
    )
    catalog = generator.generate()
    click_log = ClickLogSimulator(
        catalog,
        config=ClickLogConfig(
            num_sessions=config.sessions_per_tenant,
            intent_pool_size=60,
            seed=seed,
        ),
    ).simulate()
    replay_config = ReplayConfig(
        num_requests=per_tenant,
        batch_size=16,
        churn_every=per_tenant + 1,  # never fires: pure traffic
        seed=seed,
    )
    return TrafficReplay(click_log, generator, replay_config)


def build_tenant_pipeline(config: SoakConfig, index: int, clock) -> ServingPipeline:
    """One tenant's serving stack, identical in both arms.

    ``clock`` is the zero-argument time source for the cache TTL (the
    arm's WallClock.now or VirtualClock.now).  The TTL is effectively
    infinite and model results are not written back, so the counters
    cannot depend on which clock drives them.
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
    per_tenant = max(1, config.num_requests // len(config.tenants))
    replay = _build_replay(config, index, per_tenant)
    cache.populate(rewriter, list(replay.head_queries()), k=3)
    return ServingPipeline(
        cache,
        rewriter,
        ServingConfig(cache_model_results=False),
        search_engine=engine,
        tenant=config.tenants[index],
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
async def run_gateway_arm(config: SoakConfig, items):
    """Drive the trace through a live gateway over real sockets.

    Returns ``(per_tenant_counters, responses_by_status, schema_failures,
    receipt, gateway_stats)``.
    """
    clock = WallClock()
    pipelines = {
        tenant: build_tenant_pipeline(config, index, clock.now)
        for index, tenant in enumerate(config.tenants)
    }
    gateway_config = GatewayConfig(
        scheduler=SOAK_SCHEDULER,
        # Shaping off for the conformance soak: admission must depend on
        # the trace alone, not on client pacing.
        rate_limit=RateLimitConfig(rate_per_second=1e6, burst=1_000_000),
    )
    responses_by_status: dict = {}
    schema_failures = 0
    receipt = None
    async with Gateway(pipelines, gateway_config, clock=clock) as gateway:
        lanes = [items[offset :: config.clients] for offset in range(config.clients)]

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
            _, _, stats = await reader.get("/v1/stats")
            if config.drain_at_end:
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


def run_twin_arm(config: SoakConfig, items) -> dict:
    """Replay the same trace in process on a virtual clock.

    One shared :class:`VirtualClock`, one scheduler per tenant (exactly
    the gateway's shape), arrivals spaced a virtual millisecond apart in
    the global round-robin order.  Returns tenant -> counters.
    """
    clock = VirtualClock()
    pipelines = {
        tenant: build_tenant_pipeline(config, index, clock.now)
        for index, tenant in enumerate(config.tenants)
    }
    schedulers = {
        tenant: MicroBatchScheduler(pipelines[tenant], clock, SOAK_SCHEDULER)
        for tenant in config.tenants
    }
    for seq, item in enumerate(items):
        schedulers[item.tenant].submit(
            ScheduledRequest(
                query=item.query,
                arrival_seconds=seq * 0.001,
                lane=item.lane,
                kind=item.kind,
            )
        )
    for tenant in config.tenants:
        schedulers[tenant].drain()
        pipelines[tenant].close()
    return {
        tenant: pipelines[tenant].counters() for tenant in sorted(pipelines)
    }


def run_soak(config: SoakConfig | None = None) -> SoakOutcome:
    """Run both arms and assemble the :class:`SoakOutcome` (sync entry)."""
    config = config or SoakConfig()
    items, _ = build_workload(config)
    gateway_counters, by_status, schema_failures, receipt, gateway_stats = (
        asyncio.run(run_gateway_arm(config, items))
    )
    twin_counters = run_twin_arm(config, items)
    return SoakOutcome(
        requests=len(items),
        gateway_counters=gateway_counters,
        twin_counters=twin_counters,
        responses_by_status=by_status,
        schema_failures=schema_failures,
        receipt=receipt,
        gateway_stats=gateway_stats,
    )
