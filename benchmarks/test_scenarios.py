"""Scenario library — acceptance bars for ``repro.online.scenarios``.

Every registered adversarial replay arm must hold every pinned invariant
at acceptance scale, same-seed replays must fingerprint byte-identically
(three runs, not two — a stateful scenario object would typically agree
on the second run and drift on the third), batch-size choices must not
change the work accounted, and — the part that makes the gates
trustworthy — a deliberately broken config must make the isolation
invariant FAIL.  A harness that cannot fail proves nothing.
"""

from repro.experiments import scenarios as scenarios_experiment
from repro.online.scenarios import SCENARIOS, ScenarioConfig, run_scenario

EXPECTED_ARMS = {
    "multi_tenant",
    "hot_key_storm",
    "churn_storm",
    "cold_restart",
    "cold_restart_persistent",
    "vocab_drift",
    "shard_failover",
    "gateway_soak",
}


def test_scenarios(benchmark, save_result, scale):
    result = benchmark.pedantic(
        scenarios_experiment.run, args=(scale,), rounds=1, iterations=1
    )
    save_result(result)
    measured = result.measured

    # The registry holds exactly the eight arms the library promises.
    assert set(SCENARIOS) == EXPECTED_ARMS
    assert measured["scenarios"] == len(EXPECTED_ARMS)

    # Every arm passes every pinned invariant at acceptance scale.
    for name in EXPECTED_ARMS:
        assert measured[f"{name}_passed"] is True, name
        assert measured[f"{name}_invariants"] >= 5, name
    assert measured["all_passed"] is True

    # The library-level guarantees the experiment re-checks inline.
    assert measured["deterministic"] is True
    assert measured["gates_catch_regressions"] is True

    # Isolation tallies are exact zeros in every arm, not just "small".
    for name in EXPECTED_ARMS:
        totals = measured[f"{name}_totals"]
        assert totals["cross_tenant_cache_hits"] == 0, name
        assert totals["cross_tenant_doc_serves"] == 0, name
        assert totals["dead_doc_hits"] == 0, name
        # Conservation: everything submitted was admitted or shed.
        assert totals["admitted"] + totals["shed"] == totals["submitted"], name


def test_same_seed_fingerprints_identical_across_three_runs():
    """Three same-seed runs of every arm produce byte-identical digests."""
    config = ScenarioConfig(seed=0)
    for name in SCENARIOS:
        prints = {run_scenario(name, config).fingerprint() for _ in range(3)}
        assert len(prints) == 1, f"{name} diverged across same-seed runs"


def test_totals_invariant_across_micro_batch_sizes():
    """Batch grouping must not change the work accounted.

    Full fingerprints legitimately differ across ``max_batch_size``
    (duplicates sharing a batch all miss together), but the admitted/
    completed/shed/churn/isolation totals may not.
    """
    baseline = None
    for batch_size in (8, 16, 32):
        config = ScenarioConfig(seed=0, max_batch_size=batch_size)
        totals = run_scenario("multi_tenant", config).totals()
        if baseline is None:
            baseline = totals
        else:
            assert totals == baseline, f"totals drifted at max_batch_size={batch_size}"
    assert baseline is not None and baseline["shed"] == 0


def test_broken_config_fails_the_isolation_gate():
    """The regression gates can actually catch a regression.

    Disabling cache namespacing shares one un-prefixed store across
    tenants; the cross-tenant-serve invariant must FAIL — and only the
    isolation bars may trip, proving the failure is attributed precisely.
    """
    outcome = run_scenario("multi_tenant", ScenarioConfig(namespace_cache=False))
    assert not outcome.passed
    failed = {result.name for result in outcome.failures()}
    assert "zero_cross_tenant_cache_serves" in failed
    # The leak is a cache-tier phenomenon: index/doc isolation, accounting
    # and scheduler bars still hold even with the shared cache.
    assert "zero_cross_tenant_doc_serves" not in failed
    assert "tenant_counters_sum_to_global" not in failed
