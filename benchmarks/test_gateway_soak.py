"""Gateway soak — acceptance bars for the service front door.

The ``gateway_soak`` scenario arm (rendered by the ``scenarios``
experiment) boots a real asyncio HTTP gateway on an ephemeral loopback
port, replays a deterministic trace through it with concurrent socket
clients, and twins the run in process on a virtual clock.  The bars
here drive the same harness at acceptance scale where the arm cannot:
a mid-soak drain that loses nothing, a client-count sweep, and
micro-batched conservation through the socket path.
"""

import asyncio

from repro.gateway.app import Gateway, GatewayConfig
from repro.gateway.ratelimit import RateLimitConfig
from repro.gateway.soak import (
    SOAK_SCHEDULER,
    MiniClient,
    build_tenant_pipeline,
    build_workload,
    item_path,
    item_payload,
    run_soak,
)
from repro.online import ScenarioConfig
from repro.online.clock import WallClock
from repro.online.scheduler import SchedulerConfig

#: shaping off: admission depends on the trace alone, not client pacing
UNSHAPED = RateLimitConfig(rate_per_second=1e6, burst=1_000_000)


def _config(scale) -> ScenarioConfig:
    """Two tenants, acceptance-scale traffic, the scale's seed."""
    return ScenarioConfig(
        seed=scale.seed, requests_per_tenant=scale.scaled(120, 60), num_sessions=250
    )


def _pipelines(config: ScenarioConfig, clock) -> dict:
    """tenant -> serving pipeline, exactly as the soak builds them."""
    return {
        f"tenant{index}": build_tenant_pipeline(config, index, clock.now)
        for index in range(config.num_tenants)
    }


def test_drain_mid_soak_loses_nothing(scale):
    """Interrupt the soak with a drain at ~50%: conservation still exact.

    Late requests race the drain and legitimately get 503 ``draining``;
    what must never happen is an admitted request vanishing — the drain
    receipt's ``admitted == completed + shed`` is checked against the
    clients' own accounting of 200s received.
    """
    config = _config(scale)
    items, _ = build_workload(config)

    async def interrupted():
        clock = WallClock()
        gateway_config = GatewayConfig(scheduler=SOAK_SCHEDULER, rate_limit=UNSHAPED)
        drain_after = len(items) // 2
        served_200 = 0
        draining_503 = 0
        async with Gateway(
            _pipelines(config, clock), gateway_config, clock=clock
        ) as gateway:
            client = MiniClient(gateway.config.host, gateway.port)
            drainer = MiniClient(gateway.config.host, gateway.port)
            receipt = None
            try:
                for position, item in enumerate(items):
                    if position == drain_after:
                        _, _, receipt = await drainer.post("/v1/drain", {})
                    status, _, _ = await client.post(
                        item_path(item), item_payload(item)
                    )
                    if status == 200:
                        served_200 += 1
                    elif status == 503:
                        draining_503 += 1
                    else:  # pragma: no cover - would fail the assertions below
                        raise AssertionError(f"unexpected status {status}")
            finally:
                await client.close()
                await drainer.close()
        return served_200, draining_503, receipt

    served_200, draining_503, receipt = asyncio.run(interrupted())
    # Everything before the drain was served; everything after got 503.
    assert served_200 + draining_503 == len(items)
    assert draining_503 > 0
    # Zero loss: the receipt accounts for every admitted request, and the
    # clients saw exactly as many 200s as the schedulers completed.
    assert receipt["admitted"] == receipt["completed"] + receipt["shed"]
    assert receipt["shed"] == 0
    assert receipt["completed"] == served_200


def test_concurrency_level_does_not_change_counters(scale):
    """1 client vs 8 clients: identical deterministic counters.

    The soak's byte-equality claim is only meaningful if the socket arm
    is insensitive to interleaving; sweeping the client count is the
    direct probe of that property.  Each run must byte-match its twin,
    so the two runs' outcomes fingerprint identically.
    """
    config = _config(scale)
    fingerprints = []
    for clients in (1, 8):
        outcome = run_soak(config, clients=clients)
        assert outcome.passed, [str(r) for r in outcome.failures()]
        fingerprints.append(outcome.fingerprint())
    assert fingerprints[0] == fingerprints[1]


def test_micro_batched_gateway_conserves_work(scale):
    """B=8 with a real deadline trigger: conservation, not byte equality.

    Micro-batching under wall-clock timing legitimately regroups
    requests (so cache/model splits may differ from the twin); what must
    hold is exact work conservation and zero error responses.
    """
    config = _config(scale)
    items, _ = build_workload(config)

    async def batched():
        clock = WallClock()
        gateway_config = GatewayConfig(
            scheduler=SchedulerConfig(
                max_batch_size=8, max_wait_seconds=0.02, max_queue_depth=4096
            ),
            rate_limit=UNSHAPED,
            pump_interval_seconds=0.002,
        )
        async with Gateway(
            _pipelines(config, clock), gateway_config, clock=clock
        ) as gateway:
            lanes = [items[offset::4] for offset in range(4)]

            async def drive(slice_items):
                client = MiniClient(gateway.config.host, gateway.port)
                statuses = []
                try:
                    for item in slice_items:
                        status, _, _ = await client.post(
                            item_path(item), item_payload(item)
                        )
                        statuses.append(status)
                finally:
                    await client.close()
                return statuses

            results = await asyncio.gather(*(drive(lane) for lane in lanes))
            reader = MiniClient(gateway.config.host, gateway.port)
            try:
                _, _, receipt = await reader.post("/v1/drain", {})
            finally:
                await reader.close()
        return [status for lane in results for status in lane], receipt

    statuses, receipt = asyncio.run(batched())
    assert all(status == 200 for status in statuses)
    assert receipt["admitted"] == len(items)
    assert receipt["admitted"] == receipt["completed"] + receipt["shed"]
    assert receipt["shed"] == 0


def test_soak_fingerprint_stable_across_runs(scale):
    """Two full soak runs agree on the deterministic fingerprint."""
    config = _config(scale)
    assert run_soak(config).fingerprint() == run_soak(config).fingerprint()
