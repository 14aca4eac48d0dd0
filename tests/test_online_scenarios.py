"""Unit tests for the scenario library (``repro.online.scenarios``).

The benchmark suite (``benchmarks/test_scenarios.py``) holds the
acceptance bars at full scale; this file covers the machinery itself —
registry lookup, config validation and scaling floors, the invariant /
outcome value types, the one trace walk every arm's incidents and
request window go through, scratch cleanup, and smoke-scale end-to-end
runs of the runner (multi-tenant interleave and the single-tenant arms).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.cluster import ReplicaRouter
from repro.online.scenarios import (
    SCENARIOS,
    InvariantResult,
    Scenario,
    ScenarioConfig,
    ScenarioOutcome,
    ScenarioRunner,
    get_scenario,
    run_scenario,
)
from repro.online.scenarios import _walk_trace

#: one shared smoke-scale config (120 requests/tenant) keeps this file fast
SMOKE = ScenarioConfig().scaled(0.04)


class TestRegistry:
    def test_registry_holds_the_eight_arms(self):
        assert set(SCENARIOS) == {
            "multi_tenant",
            "hot_key_storm",
            "churn_storm",
            "cold_restart",
            "cold_restart_persistent",
            "vocab_drift",
            "shard_failover",
            "gateway_soak",
        }

    def test_registry_keys_match_scenario_names(self):
        for key, scenario in SCENARIOS.items():
            assert key == scenario.name
            assert scenario.description

    def test_get_scenario_returns_registered_instance(self):
        assert get_scenario("multi_tenant") is SCENARIOS["multi_tenant"]

    def test_get_scenario_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("nope")


class TestScenarioConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_tenants", 0),
            ("requests_per_tenant", 0),
        ],
    )
    def test_rejects_degenerate_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value})

    def test_scaled_shrinks_workload_with_floors(self):
        tiny = ScenarioConfig().scaled(0.001)
        assert tiny.requests_per_tenant == 120
        assert tiny.num_sessions == 120
        assert tiny.intent_pool_size == 30
        assert tiny.products_per_category == 3
        assert tiny.churn_every == 30

    def test_scaled_leaves_policy_knobs_alone(self):
        base = ScenarioConfig()
        tiny = base.scaled(0.04)
        assert tiny.max_batch_size == base.max_batch_size
        assert tiny.churn_adds == base.churn_adds
        assert tiny.namespace_cache == base.namespace_cache
        assert tiny.seed == base.seed

    def test_scaled_rejects_non_positive_factor(self):
        with pytest.raises(ValueError, match="factor"):
            ScenarioConfig().scaled(0.0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ScenarioConfig().seed = 1


class TestInvariantResult:
    def test_str_reports_verdict(self):
        ok = InvariantResult(name="bar", passed=True, observed=0.0, bar="== 0")
        bad = InvariantResult(name="bar", passed=False, observed=3.0, bar="== 0")
        assert "PASS" in str(ok)
        assert "FAIL" in str(bad)
        assert "bar" in str(bad)


class TestScenarioOutcome:
    def _outcome(self, passed_flags):
        return ScenarioOutcome(
            scenario="fake",
            config=SMOKE,
            invariants=[
                InvariantResult(name=f"i{n}", passed=p, observed=0.0, bar="== 0")
                for n, p in enumerate(passed_flags)
            ],
            per_tenant={"tenant0": {"requests": 1, "nested": {"b": 2, "a": 1}}},
        )

    def test_passed_and_failures(self):
        assert self._outcome([True, True]).passed
        mixed = self._outcome([True, False])
        assert not mixed.passed
        assert [result.name for result in mixed.failures()] == ["i1"]

    def test_fingerprint_is_hashable_and_order_insensitive(self):
        print_a = self._outcome([True]).fingerprint()
        hash(print_a)  # must be usable as a set/dict member
        reordered = ScenarioOutcome(
            scenario="fake",
            config=SMOKE,
            invariants=[],
            per_tenant={"tenant0": {"nested": {"a": 1, "b": 2}, "requests": 1}},
        )
        assert print_a == reordered.fingerprint()


def _random_trace(rng: random.Random) -> list:
    """Requests with Poisson-ish times (some tied), churn between some."""
    events, t = [], 0.0
    for seq in range(rng.randint(0, 40)):
        t += rng.choice((0.0, rng.random()))
        events.append(("request", t, ("request", seq)))
        if rng.random() < 0.2:
            events.append(("churn", t, ("churn", seq)))
    return events


class TestWalkTrace:
    """Seeded properties of the one trace walk (``_walk_trace``)."""

    CASES = 300

    @staticmethod
    def _case(rng: random.Random):
        events = _random_trace(rng)
        n = sum(1 for kind, _, _ in events if kind == "request")
        inserts = {
            rng.randrange(n): [("incident", (tag, i)) for i in range(rng.randint(1, 2))]
            for tag in range(rng.randint(0, 3) if n else 0)
        }
        window = None
        if n and rng.random() < 0.5:
            lo = rng.randrange(n)
            window = (lo, rng.randint(lo, n), lambda seq: ("storm", seq))
        return events, n, inserts, window

    @staticmethod
    def _requests(trace):
        return [(at, payload) for kind, at, payload in trace if kind == "request"]

    def test_inserts_land_before_their_request_and_order_holds(self):
        rng = random.Random(2026)
        for _ in range(self.CASES):
            events, n, inserts, window = self._case(rng)
            out = _walk_trace(events, inserts, window)
            times = [at for _, at, _ in out]
            assert times == sorted(times)
            requests = self._requests(out)
            assert len(requests) == n
            for seq, ((at, payload), (want_at, want)) in enumerate(
                zip(requests, self._requests(events))
            ):
                assert at == want_at
                in_window = window is not None and window[0] <= seq < window[1]
                assert payload == (("storm", seq) if in_window else want)
            # Each request is preceded by exactly its inserts, at its time.
            positions = [i for i, (kind, _, _) in enumerate(out) if kind == "request"]
            for seq, position in enumerate(positions):
                extra = inserts.get(seq, [])
                before = out[position - len(extra) : position]
                assert [(kind, data) for kind, _, data in before] == extra
                assert all(at == out[position][1] for _, at, _ in before)
            assert len(out) == len(events) + sum(
                len(extra) for seq, extra in inserts.items() if seq < n
            )

    def test_after_churn_inserts_follow_the_first_churn_past_their_seq(self):
        rng = random.Random(7)
        for _ in range(self.CASES):
            events, n, inserts, window = self._case(rng)
            out = _walk_trace(events, inserts, window, after_churn=True)
            times = [at for _, at, _ in out]
            assert times == sorted(times)
            assert len(self._requests(out)) == n
            seen, churn_after = 0, {}
            for kind, at, _ in events:
                seen += kind == "request"
                for key in inserts:
                    if kind == "churn" and seen >= key:
                        churn_after.setdefault(key, (kind, at))
            if len(churn_after) < len(inserts):
                assert out == _walk_trace(events, inserts, window)
                continue
            for key, extra in inserts.items():
                first = out.index(("incident", churn_after[key][1], extra[0][1]))
                kind, at, _ = out[first - 1]
                assert kind in ("churn", "incident") and at == churn_after[key][1]

    def test_no_inserts_no_window_is_a_copy(self):
        events = _random_trace(random.Random(1))
        assert _walk_trace(events) == events


class TestScratchCleanup:
    def test_raising_incident_leaves_no_scratch_directory(self, tmp_path, monkeypatch):
        """A run that raises mid-trace still removes its segment stores."""
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))

        def refuse(self, index):
            raise RuntimeError("injected incident failure")

        monkeypatch.setattr(ReplicaRouter, "kill_replica", refuse)
        with pytest.raises(RuntimeError, match="injected incident failure"):
            run_scenario("shard_failover", SMOKE)
        assert list(tmp_path.iterdir()) == []

    def test_completed_runs_leave_no_scratch_directory(self, tmp_path, monkeypatch):
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        for name in ("shard_failover", "cold_restart_persistent"):
            assert run_scenario(name, SMOKE).passed
        assert list(tmp_path.iterdir()) == []


class TestSmokeRuns:
    def test_multi_tenant_smoke(self):
        outcome = run_scenario("multi_tenant", SMOKE)
        assert outcome.passed, [str(r) for r in outcome.failures()]
        assert len(outcome.per_tenant) == SMOKE.num_tenants
        totals = outcome.totals()
        assert totals["requests"] == SMOKE.num_tenants * SMOKE.requests_per_tenant
        assert totals["cross_tenant_cache_hits"] == 0
        assert totals["cross_tenant_doc_serves"] == 0

    def test_common_invariants_present_in_every_arm(self):
        outcome = run_scenario("hot_key_storm", SMOKE)
        names = {result.name for result in outcome.invariants}
        assert {
            "zero_cross_tenant_cache_serves",
            "zero_cross_tenant_doc_serves",
            "index_id_ranges_disjoint",
            "tenant_counters_sum_to_global",
            "zero_dead_document_serves",
        } <= names

    def test_single_tenant_arms_pin_num_tenants(self):
        assert Scenario().adjust(SMOKE) is SMOKE
        assert SCENARIOS["multi_tenant"].adjust(SMOKE) is SMOKE
        for name in (
            "hot_key_storm",
            "churn_storm",
            "cold_restart",
            "cold_restart_persistent",
            "vocab_drift",
            "shard_failover",
        ):
            assert SCENARIOS[name].adjust(SMOKE).num_tenants == 1

    def test_runner_accepts_default_config(self):
        runner = ScenarioRunner(get_scenario("multi_tenant"), SMOKE)
        outcome = runner.run()
        assert outcome.scenario == "multi_tenant"
        # the runner keeps the judged tenants around for post-hoc audits
        assert len(runner.tenants) == SMOKE.num_tenants

    def test_run_scenario_defaults_to_base_config(self):
        # default config is the acceptance-scale one; just check plumbing
        # with an explicit smoke config object equal to a scaled default
        outcome = run_scenario("churn_storm", SMOKE)
        assert outcome.config.requests_per_tenant == SMOKE.requests_per_tenant
        assert outcome.passed, [str(r) for r in outcome.failures()]
