"""Tier-1 gateway soak: the socket path IS the virtual-clock replay.

A small deterministic trace is driven through a **live** gateway on an
ephemeral loopback port by concurrent HTTP clients, and the identical
trace is replayed in process on a :class:`VirtualClock`.  The pinned
claim: with the soak's order-independent configuration, the per-tenant
``ServingPipeline.counters()`` of the two arms are **byte-identical** —
plus zero HTTP 500s, schema-valid responses end to end, and a drain
receipt that conserves every admitted request.

The soak runs only as the ``gateway_soak`` scenario arm:
:func:`~repro.gateway.soak.run_soak` takes the arm's ``ScenarioConfig``
and returns its ``ScenarioOutcome``.  ``benchmarks/test_gateway_soak.py``
holds the acceptance-scale bars (mid-soak drain, client-count sweep,
micro-batched conservation).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.gateway.soak import build_workload, run_soak, run_twin_arm
from repro.online import ScenarioConfig, run_scenario

#: one small soak shared by the whole file (sockets are not free)
SMALL = ScenarioConfig(seed=0, requests_per_tenant=48, num_sessions=120)
#: requests in SMALL's trace, across both tenants
REQUESTS = SMALL.requests_per_tenant * SMALL.num_tenants


@pytest.fixture(scope="module")
def outcome():
    """Run the small soak once; every test reads the same outcome."""
    return run_soak(SMALL)


def _bar(outcome, name: str):
    """The arm's invariant called ``name``."""
    return next(result for result in outcome.invariants if result.name == name)


class TestSoakConformance:
    def test_counters_byte_identical_across_the_socket(self, outcome):
        assert _bar(outcome, "socket_counters_byte_identical").passed
        for tenant in outcome.per_tenant.values():
            assert tenant["counters_byte_identical"] is True

    def test_zero_500s_and_every_request_answered_200(self, outcome):
        assert _bar(outcome, "zero_http_500s").observed == 0
        assert outcome.notes["responses_by_status"] == {"200": REQUESTS}

    def test_every_response_schema_valid(self, outcome):
        assert _bar(outcome, "all_responses_schema_valid").observed == 0

    def test_drain_receipt_conserves_every_admitted_request(self, outcome):
        receipt = outcome.notes["receipt"]
        assert _bar(outcome, "zero_lost_requests").observed == 0
        assert receipt["admitted"] == receipt["completed"] + receipt["shed"]
        assert receipt["admitted"] == REQUESTS
        assert receipt["shed"] == 0

    def test_gateway_stats_tally_the_soak(self, outcome):
        stats = outcome.notes["gateway_stats"]
        # every trace request plus the final drain/stats round trips
        assert stats["http_requests"] >= REQUESTS
        assert stats["drains"] == 1
        assert stats["responses_by_status"].get("500", 0) == 0

    def test_tenants_and_counts_follow_the_scenario_config(self, outcome):
        assert sorted(outcome.per_tenant) == ["tenant0", "tenant1"]
        for tenant in outcome.per_tenant.values():
            assert tenant["requests"] == SMALL.requests_per_tenant
            assert tenant["searches"] == SMALL.requests_per_tenant // 8


class TestDeterminism:
    def test_twin_arm_is_deterministic(self):
        items, _ = build_workload(SMALL)
        assert run_twin_arm(SMALL, items) == run_twin_arm(SMALL, items)

    def test_workload_is_deterministic_and_interleaved(self):
        items, heads = build_workload(SMALL)
        again, _ = build_workload(SMALL)
        assert items == again
        assert len(items) == REQUESTS
        assert set(heads) == {"tenant0", "tenant1"}
        # round-robin interleave: both tenants appear in every window
        tenants_seen = {item.tenant for item in items[: SMALL.num_tenants]}
        assert tenants_seen == set(heads)
        # the probe cadence is positional, so search mix is fixed
        kinds = {item.kind for item in items}
        assert kinds == {"rewrite", "search"}

    def test_seed_changes_the_fingerprint(self):
        items, _ = build_workload(SMALL)
        other_config = dataclasses.replace(SMALL, seed=SMALL.seed + 1)
        other_items, _ = build_workload(other_config)
        assert run_twin_arm(SMALL, items) != run_twin_arm(
            other_config, other_items
        )


class TestConcurrencyInsensitivity:
    def test_two_client_counts_agree(self, outcome):
        """The byte-equality claim requires interleaving-insensitivity:
        1 and 3 concurrent clients must each byte-match the twin, so
        their outcomes fingerprint like the default 4-client run's."""
        for clients in (1, 3):
            swept = run_soak(SMALL, clients=clients)
            assert swept.passed, [str(r) for r in swept.failures()]
            assert swept.fingerprint() == outcome.fingerprint()


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


class TestSoakValidation:
    def test_rejects_fewer_than_one_client(self):
        with pytest.raises(ValueError, match="clients"):
            run_soak(SMALL, clients=0)
