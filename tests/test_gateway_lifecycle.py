"""Gateway lifecycle invariants: drain, rate limits, shedding, isolation.

Everything here runs over the real socket path (ephemeral loopback
port), with tiny fake pipelines so the suite stays fast.  The pinned
invariants:

* **drain conservation** — after ``/v1/drain`` every admitted request is
  accounted (``completed + shed``), new serving requests get 503
  ``draining``, health/stats keep answering, and a second drain is an
  idempotent receipt read;
* **rate-limit isolation** — an over-rate tenant gets 429
  ``rate_limited`` with a ``Retry-After`` header; other tenants are
  untouched, and the telemetry attributes the 429s to the offender only;
* **admission shedding over HTTP** — arrival sheds and priority
  evictions each surface as a 429 ``queue_full`` on exactly the shed
  request's connection, while every admitted request still completes;
* **tenant isolation** — per-tenant caches never leak across tenants,
  audited end to end through the HTTP responses and ``/v1/stats``;
* **nothing retained per request** — after thousands of items and a
  drain, no completion, scheduled request or served rewrite is alive and
  no future is left registered.
"""

from __future__ import annotations

import asyncio
import gc

from repro.core import RewriteCache, ServingConfig, ServingPipeline
from repro.core.rewriter import RewriteResult
from repro.core.serving import ServedRewrite
from repro.gateway import Gateway, GatewayConfig, MiniClient, SchedulerBridge
from repro.gateway.ratelimit import RateLimitConfig
from repro.gateway.schemas import (
    DrainResponse,
    ErrorEnvelope,
    HealthResponse,
    SchemaError,
    StatsResponse,
)
from repro.online.clock import VirtualClock, WallClock
from repro.online.scheduler import CompletedRequest, ScheduledRequest, SchedulerConfig
from repro.search.engine import SearchOutcome

#: dispatch-immediately policy for the tests that are not about queues
IMMEDIATE = SchedulerConfig(
    max_batch_size=1, max_wait_seconds=0.0, max_queue_depth=4096, num_lanes=2
)

#: hold-everything policy: nothing dispatches until a drain flushes it
PARKED = SchedulerConfig(
    max_batch_size=64, max_wait_seconds=60.0, max_queue_depth=2, num_lanes=2
)

#: effectively-unlimited buckets for the tests that are not about limits
OPEN_BUCKETS = RateLimitConfig(rate_per_second=1e6, burst=1_000_000)


class MarkedRewriter:
    """Rewrites every query to ``<query> <marker>`` — leak-visible output."""

    def __init__(self, marker: str):
        self.marker = marker

    def rewrite(self, query, k=3):
        """One deterministic rewrite carrying this tenant's marker."""
        return [RewriteResult(tokens=(query, self.marker), log_prob=-1.0)][:k]


class TinyEngine:
    """Fixed two-hit engine (lexical-only by the getattr default)."""

    def search(self, query, rewrites=None):
        """Constant outcome; retrieval cost is irrelevant here."""
        return SearchOutcome(
            query=query,
            rewrites=list(rewrites or []),
            doc_ids=[1, 2],
            postings_accessed=3,
            tree_nodes=1,
            num_trees=1,
        )


def make_pipelines(clock, tenants=("acme", "globex")) -> dict:
    """One fast fake pipeline per tenant, each with its own cache."""
    return {
        tenant: ServingPipeline(
            RewriteCache(ttl_seconds=1e9, clock=clock.now),
            MarkedRewriter(tenant),
            ServingConfig(cache_model_results=True),
            search_engine=TinyEngine(),
            tenant=tenant,
        )
        for tenant in tenants
    }


def make_config(scheduler=IMMEDIATE, rate_limit=OPEN_BUCKETS) -> GatewayConfig:
    """Gateway config with the test's scheduler/limit policy."""
    return GatewayConfig(scheduler=scheduler, rate_limit=rate_limit)


async def wait_for_queue_depth(probe: MiniClient, depth: int) -> None:
    """Poll ``/v1/health`` until the global queue holds ``depth`` requests."""
    for _ in range(2000):
        _, _, health = await probe.get("/v1/health")
        if health["queue_depth"] >= depth:
            return
        await asyncio.sleep(0.002)
    raise AssertionError(f"queue never reached depth {depth}")


class TestDrain:
    def test_drain_conserves_and_is_idempotent(self):
        async def run():
            clock = WallClock()
            async with Gateway(
                make_pipelines(clock), make_config(), clock=clock
            ) as gateway:
                client = MiniClient(gateway.config.host, gateway.port)
                try:
                    for n in range(4):
                        status, _, _ = await client.post(
                            "/v1/rewrite", {"query": f"q{n}", "tenant": "acme"}
                        )
                        assert status == 200
                    status, _, receipt = await client.post("/v1/drain", {})
                    assert status == 200
                    # the wire form is schema-valid and conserves exactly
                    parsed = DrainResponse.parse(receipt)
                    assert parsed.draining is True
                    assert parsed.admitted == 4
                    assert parsed.completed + parsed.shed == parsed.admitted
                    assert parsed.shed == 0

                    # new serving work is refused with a typed 503
                    status, _, refused = await client.post(
                        "/v1/rewrite", {"query": "late", "tenant": "acme"}
                    )
                    assert status == 503
                    assert ErrorEnvelope.parse(refused).code == "draining"

                    # health/stats keep answering and agree on the state
                    status, _, health = await client.get("/v1/health")
                    assert status == 200
                    assert HealthResponse.parse(health).status == "draining"
                    status, _, stats = await client.get("/v1/stats")
                    assert status == 200
                    assert StatsResponse.parse(stats).gateway["drains"] == 1

                    # a second drain is a pure receipt read
                    status, _, second = await client.post("/v1/drain", {})
                    assert status == 200
                    assert second["admitted"] == receipt["admitted"]
                    _, _, stats = await client.get("/v1/stats")
                    assert stats["gateway"]["drains"] == 1
                finally:
                    await client.close()

        asyncio.run(run())

    def test_drain_flushes_parked_requests_with_zero_loss(self):
        """Requests parked behind a far deadline all complete on drain."""

        async def run():
            clock = WallClock()
            config = make_config(scheduler=PARKED)
            async with Gateway(
                make_pipelines(clock), config, clock=clock
            ) as gateway:
                hangers = [
                    MiniClient(gateway.config.host, gateway.port)
                    for _ in range(2)
                ]
                probe = MiniClient(gateway.config.host, gateway.port)
                try:
                    tasks = [
                        asyncio.create_task(
                            hanger.post(
                                "/v1/rewrite",
                                {"query": f"parked{n}", "tenant": "acme"},
                            )
                        )
                        for n, hanger in enumerate(hangers)
                    ]
                    await wait_for_queue_depth(probe, 2)
                    assert not any(task.done() for task in tasks)
                    _, _, receipt = await probe.post("/v1/drain", {})
                    statuses = [
                        (await task)[0] for task in tasks
                    ]
                    assert statuses == [200, 200]
                    assert receipt["admitted"] == 2
                    assert receipt["completed"] == 2
                    assert receipt["shed"] == 0
                finally:
                    for hanger in hangers:
                        await hanger.close()
                    await probe.close()

        asyncio.run(run())


class TestRateLimits:
    def test_only_the_offending_tenant_is_limited(self):
        async def run():
            clock = WallClock()
            config = make_config(
                rate_limit=RateLimitConfig(rate_per_second=0.5, burst=2)
            )
            async with Gateway(
                make_pipelines(clock), config, clock=clock
            ) as gateway:
                client = MiniClient(gateway.config.host, gateway.port)
                try:
                    # tenant acme spends its burst, then trips the bucket
                    for n in range(2):
                        status, _, _ = await client.post(
                            "/v1/rewrite", {"query": f"q{n}", "tenant": "acme"}
                        )
                        assert status == 200
                    status, headers, body = await client.post(
                        "/v1/rewrite", {"query": "q2", "tenant": "acme"}
                    )
                    assert status == 429
                    envelope = ErrorEnvelope.parse(body)
                    assert envelope.code == "rate_limited"
                    assert envelope.field == "tenant"
                    assert 0.0 < envelope.retry_after_seconds <= 2.0
                    assert float(headers["retry-after"]) > 0.0

                    # tenant globex rides through untouched
                    status, _, _ = await client.post(
                        "/v1/rewrite", {"query": "q0", "tenant": "globex"}
                    )
                    assert status == 200

                    # the telemetry attributes the 429 to the offender only
                    _, _, stats = await client.get("/v1/stats")
                    limited = stats["gateway"]["rate_limited_by_tenant"]
                    assert limited == {"acme": 1}
                    assert stats["gateway"]["errors_by_code"] == {
                        "rate_limited": 1
                    }
                finally:
                    await client.close()

        asyncio.run(run())


class SteppedClock(VirtualClock):
    """The gateway's clock protocol with time moved by the test alone."""

    __slots__ = ()

    def sync(self) -> float:
        """Nothing to fold in: real time never flows into this clock."""
        return self.now()


class TestBatchAdmission:
    """A ``/v1/batch`` call spends its tokens all or nothing.

    Spending them one ``check`` at a time burned whatever the bucket held
    and answered with the wait for *one* token: a client that honoured
    ``Retry-After`` burned each refill again and never got in."""

    @staticmethod
    def _admit(gateway, tokens):
        """Retry-After of one admission attempt (0.0 when admitted)."""
        try:
            gateway._admit("acme", tokens=tokens)
        except SchemaError as error:
            assert error.code == "rate_limited" and error.field == "tenant"
            return error.retry_after
        return 0.0

    def test_an_obedient_client_is_admitted_on_its_first_retry(self):
        clock = SteppedClock()
        config = make_config(rate_limit=RateLimitConfig(rate_per_second=1.0, burst=4))
        gateway = Gateway(make_pipelines(clock), config, clock=clock)
        assert self._admit(gateway, 4) == 0.0  # the whole burst allowance
        clock.advance(2.0)  # two tokens back: too few for a batch of four
        retry_after = self._admit(gateway, 4)
        assert retry_after == 2.0  # the wait for the whole call, not one token
        assert gateway.limiter._buckets["acme"].tokens == 2.0  # nothing burned
        assert gateway.limiter.limited == {"acme": 1}  # one tick per 429
        clock.advance(retry_after)
        assert self._admit(gateway, 4) == 0.0
        assert gateway.limiter.limited == {"acme": 1}
        # single requests still cost one token each
        clock.advance(1.0)
        assert self._admit(gateway, 1) == 0.0
        assert self._admit(gateway, 1) == 1.0

    def test_a_batch_larger_than_the_burst_never_fits(self):
        clock = SteppedClock()
        config = make_config(rate_limit=RateLimitConfig(rate_per_second=1.0, burst=4))
        gateway = Gateway(make_pipelines(clock), config, clock=clock)
        for _ in range(3):
            retry_after = self._admit(gateway, 5)
            assert retry_after > 0.0
            clock.advance(retry_after)
        assert gateway.limiter._buckets["acme"].tokens == 4.0
        assert self._admit(gateway, 4) == 0.0  # and it cost nobody anything

    def test_a_refused_batch_is_one_429_in_both_counters(self):
        async def run():
            clock = WallClock()
            config = make_config(
                rate_limit=RateLimitConfig(rate_per_second=0.5, burst=2)
            )
            async with Gateway(make_pipelines(clock), config, clock=clock) as gateway:
                client = MiniClient(gateway.config.host, gateway.port)
                try:
                    items = [{"kind": "rewrite", "query": f"q{n}"} for n in range(3)]
                    status, headers, body = await client.post(
                        "/v1/batch", {"items": items, "tenant": "acme"}
                    )
                    assert status == 429
                    envelope = ErrorEnvelope.parse(body)
                    assert envelope.code == "rate_limited"
                    # one token short at 0.5 tokens/s (less what trickled in)
                    assert 1.9 < envelope.retry_after_seconds <= 2.0
                    assert float(headers["retry-after"]) > 1.9
                    # nothing was spent: the two-item batch still fits
                    status, _, body = await client.post(
                        "/v1/batch", {"items": items[:2], "tenant": "acme"}
                    )
                    assert status == 200 and len(body["results"]) == 2
                    _, _, stats = await client.get("/v1/stats")
                    assert stats["gateway"]["rate_limited_by_tenant"] == {"acme": 1}
                    assert stats["gateway"]["errors_by_code"] == {"rate_limited": 1}
                    assert stats["scheduler"]["acme"]["admitted"] == 2
                finally:
                    await client.close()

        asyncio.run(run())


class TestLaneRange:
    """The wire format allows lanes 0..7; a deployment runs ``num_lanes``.
    A lane the scheduler does not have is the caller's fault: a 400 before
    anything is submitted, not a 500 after part of the batch went in."""

    def test_bad_lane_mid_batch_is_a_400_and_admits_nothing(self):
        async def run():
            clock = WallClock()
            async with Gateway(
                make_pipelines(clock), make_config(), clock=clock
            ) as gateway:
                client = MiniClient(gateway.config.host, gateway.port)
                try:
                    items = [
                        {"kind": "rewrite", "query": "first"},
                        {"kind": "search", "query": "second", "lane": 5},
                        {"kind": "rewrite", "query": "third"},
                    ]
                    status, _, body = await client.post(
                        "/v1/batch", {"items": items, "tenant": "acme"}
                    )
                    assert status == 400
                    envelope = ErrorEnvelope.parse(body)
                    assert envelope.code == "invalid_value"
                    assert envelope.field == "lane"
                    assert "lane 5" in envelope.message

                    for path in ("/v1/rewrite", "/v1/search"):
                        status, _, body = await client.post(
                            path, {"query": "red shoes", "tenant": "acme", "lane": 2}
                        )
                        assert status == 400
                        assert ErrorEnvelope.parse(body).field == "lane"

                    bridge = gateway.bridges["acme"]
                    assert bridge.scheduler.report.admitted == 0
                    assert bridge.scheduler.queue_depth == 0
                    assert bridge.waiting == 0
                    # the highest lane the scheduler does run is served
                    status, _, _ = await client.post(
                        "/v1/rewrite", {"query": "q", "tenant": "acme", "lane": 1}
                    )
                    assert status == 200
                    _, _, stats = await client.get("/v1/stats")
                    assert stats["gateway"]["responses_by_status"] == {
                        "200": 1, "400": 3
                    }
                finally:
                    await client.close()

        asyncio.run(run())

    def test_a_refused_submit_leaves_no_future_behind(self):
        """Past the gateway's own check, the bridge still cleans up after a
        submit the scheduler refuses."""

        async def run():
            clock = WallClock()
            pipeline = make_pipelines(clock, tenants=("acme",))["acme"]
            bridge = SchedulerBridge(pipeline, clock, IMMEDIATE)
            for bad in ({"lane": 2}, {"kind": "mystery"}):
                try:
                    bridge.submit(bad.get("kind", "rewrite"), "q", lane=bad.get("lane", 0))
                except ValueError:
                    pass
                else:
                    raise AssertionError(f"{bad} was accepted")
                assert bridge.waiting == 0
            completion = await bridge.submit("rewrite", "q")
            assert completion.outcome.rewrites == ["q acme"]
            assert bridge.waiting == 0

        asyncio.run(run())


class TestRetention:
    def test_nothing_per_request_outlives_its_response(self):
        """5 000 items through the socket, then a drain: the scheduler and
        the bridge hold on to none of them."""
        retained = (CompletedRequest, ScheduledRequest, ServedRewrite)

        def live() -> int:  # a delta, so another test's leftovers do not count
            gc.collect()
            return sum(isinstance(o, retained) for o in gc.get_objects())

        async def run():
            clock = WallClock()
            config = make_config(
                scheduler=SchedulerConfig(
                    max_batch_size=16, max_wait_seconds=0.002, max_queue_depth=4096
                )
            )
            async with Gateway(
                make_pipelines(clock, tenants=("acme",)), config, clock=clock
            ) as gateway:
                client = MiniClient(gateway.config.host, gateway.port)
                try:
                    for call in range(100):
                        items = [
                            {"kind": "rewrite", "query": f"q{(call * 50 + n) % 97}"}
                            for n in range(50)
                        ]
                        status, _, body = await client.post(
                            "/v1/batch", {"items": items, "tenant": "acme"}
                        )
                        assert status == 200 and len(body["results"]) == 50
                    _, _, receipt = await client.post("/v1/drain", {})
                    assert receipt["completed"] == 5000 and receipt["shed"] == 0
                finally:
                    await client.close()
                assert gateway.bridges["acme"].waiting == 0
                return live()

        before = live()
        assert asyncio.run(run()) == before


class TestShedding:
    def test_arrival_shed_is_a_429_and_admitted_work_completes(self):
        async def run():
            clock = WallClock()
            config = make_config(scheduler=PARKED)
            async with Gateway(
                make_pipelines(clock), config, clock=clock
            ) as gateway:
                hangers = [
                    MiniClient(gateway.config.host, gateway.port)
                    for _ in range(2)
                ]
                probe = MiniClient(gateway.config.host, gateway.port)
                try:
                    tasks = [
                        asyncio.create_task(
                            hanger.post(
                                "/v1/rewrite",
                                {"query": f"early{n}", "tenant": "acme"},
                            )
                        )
                        for n, hanger in enumerate(hangers)
                    ]
                    await wait_for_queue_depth(probe, 2)
                    # the queue is full of equal-priority work: shed arrival
                    status, headers, body = await probe.post(
                        "/v1/rewrite", {"query": "late", "tenant": "acme"}
                    )
                    assert status == 429
                    envelope = ErrorEnvelope.parse(body)
                    assert envelope.code == "queue_full"
                    assert envelope.retry_after_seconds > 0.0
                    assert "retry-after" in headers

                    _, _, receipt = await probe.post("/v1/drain", {})
                    assert [(await task)[0] for task in tasks] == [200, 200]
                    # zero admitted requests lost; the shed one was never
                    # admitted and is accounted separately
                    assert receipt["admitted"] == 2
                    assert receipt["completed"] == 2
                    assert receipt["shed"] == 1
                finally:
                    for hanger in hangers:
                        await hanger.close()
                    await probe.close()

        asyncio.run(run())

    def test_priority_eviction_429s_the_victims_connection(self):
        """Lane-0 arrivals evict parked lane-1 work; the victims' own
        in-flight HTTP requests resolve to 429 ``queue_full``."""

        async def run():
            clock = WallClock()
            config = make_config(scheduler=PARKED)
            async with Gateway(
                make_pipelines(clock), config, clock=clock
            ) as gateway:
                low = [
                    MiniClient(gateway.config.host, gateway.port)
                    for _ in range(2)
                ]
                probe = MiniClient(gateway.config.host, gateway.port)
                high_clients: list = []
                try:
                    parked = [
                        asyncio.create_task(
                            client.post(
                                "/v1/rewrite",
                                {
                                    "query": f"low{n}",
                                    "tenant": "acme",
                                    "lane": 1,
                                },
                            )
                        )
                        for n, client in enumerate(low)
                    ]
                    await wait_for_queue_depth(probe, 2)
                    # two high-priority arrivals evict the two parked ones
                    # (each on its own connection — a keep-alive client
                    # serializes, and these requests park until the drain)
                    high_clients.extend(
                        MiniClient(gateway.config.host, gateway.port)
                        for _ in range(2)
                    )
                    high = []
                    for n in range(2):
                        high.append(
                            asyncio.create_task(
                                high_clients[n].post(
                                    "/v1/rewrite",
                                    {
                                        "query": f"high{n}",
                                        "tenant": "acme",
                                        "lane": 0,
                                    },
                                )
                            )
                        )
                        # eviction sheds the youngest parked lane-1 request
                        # and resolves its future (and connection) at once
                        victim_status, _, victim_body = await parked[1 - n]
                        assert victim_status == 429
                        assert ErrorEnvelope.parse(victim_body).code == (
                            "queue_full"
                        )
                    drainer = MiniClient(gateway.config.host, gateway.port)
                    try:
                        _, _, receipt = await drainer.post("/v1/drain", {})
                    finally:
                        await drainer.close()
                    assert [(await task)[0] for task in high] == [200, 200]
                    # victims were admitted then shed: the receipt's
                    # conservation identity holds exactly
                    assert receipt["admitted"] == 4
                    assert receipt["completed"] == 2
                    assert receipt["shed"] == 2
                    assert receipt["admitted"] == (
                        receipt["completed"] + receipt["shed"]
                    )
                finally:
                    for client in low + high_clients:
                        await client.close()
                    await probe.close()

        asyncio.run(run())

    def test_batch_reports_partial_sheds_per_item(self):
        """A batch overrunning the queue gets per-item 429 envelopes in
        place, while the admitted items still serve — one 200 response."""

        async def run():
            clock = WallClock()
            config = make_config(scheduler=PARKED)
            async with Gateway(
                make_pipelines(clock), config, clock=clock
            ) as gateway:
                client = MiniClient(gateway.config.host, gateway.port)
                probe = MiniClient(gateway.config.host, gateway.port)
                try:
                    items = [
                        {"kind": "rewrite", "query": f"item{n}"}
                        for n in range(5)
                    ]
                    task = asyncio.create_task(
                        client.post(
                            "/v1/batch", {"items": items, "tenant": "acme"}
                        )
                    )
                    await wait_for_queue_depth(probe, 2)
                    _, _, receipt = await probe.post("/v1/drain", {})
                    status, _, body = await task
                    assert status == 200
                    results = body["results"]
                    assert len(results) == 5
                    served = [r for r in results if "error" not in r]
                    shed = [r for r in results if "error" in r]
                    assert len(served) == 2 and len(shed) == 3
                    # order preserved: the first two items were admitted
                    assert [r["query"] for r in served] == ["item0", "item1"]
                    for entry in shed:
                        assert entry["error"]["code"] == "queue_full"
                    assert receipt["admitted"] == 2
                    assert receipt["completed"] == 2
                    assert receipt["shed"] == 3
                finally:
                    await client.close()
                    await probe.close()

        asyncio.run(run())


class TestFailedDispatch:
    def test_failed_batch_500s_its_own_callers_and_serving_goes_on(self):
        """A pipeline call that raises must cost exactly its own batch:
        each of its requests gets the typed 500 on its own connection,
        the pump survives, later requests are served, and the receipt
        accounts the batch as admitted-and-shed."""

        async def run():
            clock = WallClock()
            pipelines = make_pipelines(clock, tenants=("acme",))
            pipeline = pipelines["acme"]
            search_batch = pipeline.search_batch
            failed_batch: list[str] = []

            def fail_once(queries, modes=None):
                if not failed_batch:
                    failed_batch.extend(queries)
                    raise RuntimeError("a shard fell over")
                return search_batch(queries, modes=modes)

            pipeline.search_batch = fail_once
            config = make_config(
                scheduler=SchedulerConfig(
                    max_batch_size=4, max_wait_seconds=0.05, max_queue_depth=4096
                )
            )
            async with Gateway(pipelines, config, clock=clock) as gateway:
                clients = [
                    MiniClient(gateway.config.host, gateway.port) for _ in range(3)
                ]
                try:
                    # never a full batch: the pump's deadline tick dispatches
                    first = await asyncio.wait_for(
                        asyncio.gather(
                            *(
                                client.post(
                                    "/v1/search", {"query": f"q{n}", "tenant": "acme"}
                                )
                                for n, client in enumerate(clients)
                            )
                        ),
                        timeout=10,
                    )
                    assert failed_batch
                    for n, (status, _, body) in enumerate(first):
                        if f"q{n}" in failed_batch:
                            assert status == 500
                            envelope = ErrorEnvelope.parse(body)
                            assert envelope.code == "internal"
                            assert "a shard fell over" in envelope.message
                        else:  # arrived after the failed batch had left
                            assert status == 200
                    for n in range(2):
                        status, _, body = await asyncio.wait_for(
                            clients[0].post(
                                "/v1/search", {"query": f"later{n}", "tenant": "acme"}
                            ),
                            timeout=10,
                        )
                        assert status == 200 and body["doc_ids"] == [1, 2]
                    assert gateway.bridges["acme"].waiting == 0
                    status, _, receipt = await asyncio.wait_for(
                        clients[0].post("/v1/drain", {}), timeout=10
                    )
                    assert status == 200
                    assert receipt["admitted"] == 5
                    assert receipt["shed"] == len(failed_batch)
                    assert receipt["completed"] == 5 - len(failed_batch)
                    assert pipeline.stats.shed == len(failed_batch)
                finally:
                    for client in clients:
                        await client.close()

        asyncio.run(run())


class TestTenantIsolation:
    def test_caches_never_leak_across_tenants_over_http(self):
        """The cross-tenant no-leak audit, end to end through the API:
        a rewrite cached for one tenant must not serve another, and the
        per-tenant stats must attribute every request to its own tenant."""

        async def run():
            clock = WallClock()
            async with Gateway(
                make_pipelines(clock), make_config(), clock=clock
            ) as gateway:
                client = MiniClient(gateway.config.host, gateway.port)
                try:
                    # acme asks twice: model tier then its own cache
                    _, _, first = await client.post(
                        "/v1/rewrite", {"query": "blue mug", "tenant": "acme"}
                    )
                    _, _, second = await client.post(
                        "/v1/rewrite", {"query": "blue mug", "tenant": "acme"}
                    )
                    assert first["source"] == "model"
                    assert second["source"] == "cache"
                    assert first["rewrites"] == ["blue mug acme"]

                    # globex asks the same query: a miss, served by its
                    # own model tier with its own marker — no leak
                    _, _, other = await client.post(
                        "/v1/rewrite", {"query": "blue mug", "tenant": "globex"}
                    )
                    assert other["source"] == "model"
                    assert other["rewrites"] == ["blue mug globex"]

                    # search answers carry the tenant's rewrites too
                    _, _, searched = await client.post(
                        "/v1/search", {"query": "blue mug", "tenant": "globex"}
                    )
                    assert searched["rewrites"] == ["blue mug globex"]

                    # the stats attribute work tenant-by-tenant, exactly
                    _, _, stats = await client.get("/v1/stats")
                    serving = stats["serving"]
                    assert serving["acme"]["cache_served"] == 1
                    assert serving["acme"]["model_served"] == 1
                    assert serving["globex"]["cache_served"] == 1
                    assert serving["globex"]["model_served"] == 1
                    assert (
                        stats["totals"]["cache_served"]
                        + stats["totals"]["model_served"]
                        == 4
                    )
                    scheduler = stats["scheduler"]
                    assert scheduler["acme"]["admitted"] == 2
                    assert scheduler["globex"]["admitted"] == 2
                finally:
                    await client.close()

        asyncio.run(run())


class TestBodyFraming:
    def test_get_with_a_body_does_not_desync_keep_alive(self):
        """The body of one request must not become the head of the next:
        both requests on the connection answer 200."""

        async def run():
            clock = WallClock()
            async with Gateway(
                make_pipelines(clock), make_config(), clock=clock
            ) as gateway:
                client = MiniClient(gateway.config.host, gateway.port)
                try:
                    status, headers, body = await client.raw(
                        "GET", "/v1/health", b"hello", content_type="text/plain"
                    )
                    assert status == 200 and body["status"] == "ok"
                    assert headers["connection"] == "keep-alive"
                    status, _, body = await client.get("/v1/health")
                    assert status == 200 and body["status"] == "ok"
                    status, _, body = await client.post(
                        "/v1/rewrite", {"query": "q", "tenant": "acme"}
                    )
                    assert status == 200
                    _, _, stats = await client.get("/v1/stats")
                    assert stats["gateway"]["connections"] == 1
                    assert stats["gateway"]["errors_by_code"] == {}
                finally:
                    await client.close()

        asyncio.run(run())


class TestRoutingErrors:
    def test_unknown_tenant_unsupported_mode_and_unknown_route(self):
        async def run():
            clock = WallClock()
            async with Gateway(
                make_pipelines(clock), make_config(), clock=clock
            ) as gateway:
                client = MiniClient(gateway.config.host, gateway.port)
                try:
                    status, _, body = await client.post(
                        "/v1/rewrite", {"query": "q", "tenant": "nobody"}
                    )
                    assert status == 400
                    envelope = ErrorEnvelope.parse(body)
                    assert envelope.code == "invalid_value"
                    assert envelope.field == "tenant"

                    # well-formed but unsupported mode: 400, never a 500
                    status, _, body = await client.post(
                        "/v1/search",
                        {"query": "q", "tenant": "acme", "mode": "semantic"},
                    )
                    assert status == 400
                    assert ErrorEnvelope.parse(body).code == "invalid_value"

                    status, _, body = await client.get("/v1/nope")
                    assert status == 404
                    assert ErrorEnvelope.parse(body).code == "not_found"

                    status, _, body = await client.get("/v1/rewrite")
                    assert status == 405
                    assert ErrorEnvelope.parse(body).code == (
                        "method_not_allowed"
                    )
                finally:
                    await client.close()

        asyncio.run(run())


#: far deadline, roomy queue: a miss waits a minute, a hit must not
HELD = SchedulerConfig(
    max_batch_size=64, max_wait_seconds=60.0, max_queue_depth=4096, num_lanes=2
)


class JumpingClock(SteppedClock):
    """Every ``sync()`` finds 10 ms of real time gone — a preempted or
    GC-paused gateway on a busy box, every time."""

    __slots__ = ()

    def sync(self) -> float:
        """Fold in another 10 ms."""
        return self.advance(0.010)


class TestArrivalInstants:
    """One HTTP call is one arrival instant, closed at the end of the
    call: its items batch together, and its cache hits are answered
    without waiting for any deadline."""

    def test_a_call_is_not_split_when_time_moves_mid_call(self):
        async def run():
            clock = JumpingClock()
            config = make_config(
                scheduler=SchedulerConfig(
                    max_batch_size=4, max_wait_seconds=0.002, max_queue_depth=64
                )
            )
            async with Gateway(
                make_pipelines(clock, tenants=("acme",)), config, clock=clock
            ) as gateway:
                client = MiniClient(gateway.config.host, gateway.port)
                try:
                    items = [{"kind": "rewrite", "query": f"q{n}"} for n in range(4)]
                    status, _, body = await client.post(
                        "/v1/batch", {"items": items, "tenant": "acme"}
                    )
                finally:
                    await client.close()
                assert status == 200
                assert [r["source"] for r in body["results"]] == ["model"] * 4
                report = gateway.bridges["acme"].scheduler.report
                assert (report.batches, report.size_triggered) == (1, 1)

        asyncio.run(run())

    def test_a_cached_rewrite_is_answered_without_waiting(self):
        async def run():
            clock = WallClock()
            pipelines = make_pipelines(clock, tenants=("acme",))
            pipelines["acme"].cache.put("head", ["head cached"])
            async with Gateway(
                pipelines, make_config(scheduler=HELD), clock=clock
            ) as gateway:
                client = MiniClient(gateway.config.host, gateway.port)
                try:
                    status, _, body = await asyncio.wait_for(
                        client.post("/v1/rewrite", {"query": "head", "tenant": "acme"}),
                        timeout=1.0,
                    )
                finally:
                    await client.close()
                assert status == 200
                assert (body["source"], body["rewrites"]) == ("cache", ["head cached"])
                [delay] = gateway.bridges["acme"].scheduler.report.queue_delays_seconds
                assert delay == 0.0

        asyncio.run(run())

    def test_a_batch_of_cached_queries_is_one_dispatch(self):
        async def run():
            clock = WallClock()
            pipelines = make_pipelines(clock, tenants=("acme",))
            heads = ["head a", "head b", "head c"]
            for head in heads:
                pipelines["acme"].cache.put(head, [f"{head} cached"])
            async with Gateway(
                pipelines, make_config(scheduler=HELD), clock=clock
            ) as gateway:
                client = MiniClient(gateway.config.host, gateway.port)
                try:
                    items = [{"kind": "rewrite", "query": head} for head in heads]
                    status, _, body = await asyncio.wait_for(
                        client.post("/v1/batch", {"items": items, "tenant": "acme"}),
                        timeout=1.0,
                    )
                finally:
                    await client.close()
                assert status == 200
                assert [r["source"] for r in body["results"]] == ["cache"] * 3
                report = gateway.bridges["acme"].scheduler.report
                assert report.batch_sizes == [3]

        asyncio.run(run())

    def test_a_miss_still_waits_and_is_answered_by_drain(self):
        async def run():
            clock = WallClock()
            async with Gateway(
                make_pipelines(clock, tenants=("acme",)),
                make_config(scheduler=HELD),
                clock=clock,
            ) as gateway:
                hanger = MiniClient(gateway.config.host, gateway.port)
                probe = MiniClient(gateway.config.host, gateway.port)
                try:
                    task = asyncio.create_task(
                        hanger.post("/v1/rewrite", {"query": "tail", "tenant": "acme"})
                    )
                    await wait_for_queue_depth(probe, 1)
                    assert not task.done()
                    _, _, receipt = await probe.post("/v1/drain", {})
                    status, _, body = await task
                finally:
                    await hanger.close()
                    await probe.close()
                assert status == 200 and body["source"] == "model"
                assert receipt["admitted"] == 1
                assert receipt["completed"] + receipt["shed"] == receipt["admitted"]

        asyncio.run(run())
