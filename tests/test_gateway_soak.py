"""Tier-1 gateway soak: the socket path IS the virtual-clock replay.

A small deterministic trace is driven through a **live** gateway on an
ephemeral loopback port by concurrent HTTP clients, and the identical
trace is replayed in process on a :class:`VirtualClock`.  The pinned
claim: with the soak's order-independent configuration, the per-tenant
``ServingPipeline.counters()`` of the two arms are **byte-identical** —
plus zero HTTP 500s, schema-valid responses end to end, and a drain
receipt that conserves every admitted request.

``benchmarks/test_gateway_soak.py`` holds the acceptance-scale bars
(mid-soak drain, client-count sweeps, micro-batched conservation); this
file keeps a fast version of the headline claims in the tier-1 suite,
and exercises the ``gateway_soak`` scenario arm + workload builder.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.gateway.soak import (
    SoakConfig,
    build_workload,
    run_gateway_arm,
    run_soak,
    run_twin_arm,
)
from repro.online import ScenarioConfig, run_scenario

#: one small soak shared by the whole file (sockets are not free)
SMALL = SoakConfig(seed=0, num_requests=96, sessions_per_tenant=120)


@pytest.fixture(scope="module")
def outcome():
    """Run the small soak once; every test reads the same outcome."""
    return run_soak(SMALL)


class TestSoakConformance:
    def test_counters_byte_identical_across_the_socket(self, outcome):
        assert outcome.identical, (
            outcome.gateway_counters,
            outcome.twin_counters,
        )

    def test_zero_500s_and_every_request_answered_200(self, outcome):
        assert outcome.http_500s == 0
        assert outcome.responses_by_status == {"200": outcome.requests}

    def test_every_response_schema_valid(self, outcome):
        assert outcome.schema_failures == 0

    def test_drain_receipt_conserves_every_admitted_request(self, outcome):
        receipt = outcome.receipt
        assert outcome.lost_requests == 0
        assert receipt["admitted"] == receipt["completed"] + receipt["shed"]
        assert receipt["admitted"] == outcome.requests
        assert receipt["shed"] == 0

    def test_gateway_stats_tally_the_soak(self, outcome):
        stats = outcome.gateway_stats
        # every trace request plus the final stats/drain round trips
        assert stats["http_requests"] >= outcome.requests
        assert stats["drains"] == 1
        assert stats["responses_by_status"].get("500", 0) == 0


class TestDeterminism:
    def test_twin_arm_is_deterministic(self):
        items, _ = build_workload(SMALL)
        assert run_twin_arm(SMALL, items) == run_twin_arm(SMALL, items)

    def test_workload_is_deterministic_and_interleaved(self):
        items, heads = build_workload(SMALL)
        again, _ = build_workload(SMALL)
        assert items == again
        assert len(items) == SMALL.num_requests
        assert set(heads) == set(SMALL.tenants)
        # round-robin interleave: both tenants appear in every window
        tenants_seen = {item.tenant for item in items[: len(SMALL.tenants)]}
        assert tenants_seen == set(SMALL.tenants)
        # the probe cadence is positional, so search mix is fixed
        kinds = {item.kind for item in items}
        assert kinds == {"rewrite", "search"}

    def test_seed_changes_the_fingerprint(self):
        items, _ = build_workload(SMALL)
        other_config = SoakConfig(
            seed=SMALL.seed + 1,
            num_requests=SMALL.num_requests,
            sessions_per_tenant=SMALL.sessions_per_tenant,
        )
        other_items, _ = build_workload(other_config)
        assert run_twin_arm(SMALL, items) != run_twin_arm(
            other_config, other_items
        )


class TestConcurrencyInsensitivity:
    def test_two_client_counts_agree(self):
        """The byte-equality claim requires interleaving-insensitivity;
        1 vs 3 concurrent clients must produce identical counters."""
        items, _ = build_workload(SMALL)
        counters = []
        for clients in (1, 3):
            config = SoakConfig(
                seed=SMALL.seed,
                num_requests=SMALL.num_requests,
                sessions_per_tenant=SMALL.sessions_per_tenant,
                clients=clients,
            )
            serving, by_status, schema_failures, _, _ = asyncio.run(
                run_gateway_arm(config, items)
            )
            assert by_status == {"200": len(items)}
            assert schema_failures == 0
            counters.append(serving)
        assert counters[0] == counters[1]


class TestScenarioArm:
    def test_gateway_soak_arm_passes_at_smoke_scale(self):
        outcome = run_scenario("gateway_soak", ScenarioConfig().scaled(0.04))
        assert outcome.passed, [str(r) for r in outcome.failures()]
        names = {result.name for result in outcome.invariants}
        assert {
            "socket_counters_byte_identical",
            "zero_http_500s",
            "all_responses_schema_valid",
            "every_request_answered_200",
            "zero_lost_requests",
            "soak_sheds_nothing",
        } <= names
        totals = outcome.totals()
        assert totals["admitted"] + totals["shed"] == totals["submitted"]
        assert totals["shed"] == 0


class TestSoakConfigValidation:
    def test_rejects_degenerate_values(self):
        with pytest.raises(ValueError):
            SoakConfig(num_requests=0)
        with pytest.raises(ValueError):
            SoakConfig(tenants=())
        with pytest.raises(ValueError):
            SoakConfig(clients=0)
        with pytest.raises(ValueError):
            SoakConfig(search_every=0)
