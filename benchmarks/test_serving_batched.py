"""Batched serving throughput: serve_batch vs the per-query loop."""

from repro.experiments import serving_batched


def test_serving_batched_throughput(benchmark, context, scale, save_result, wall_clock):
    result = benchmark.pedantic(
        lambda: serving_batched.run(scale), rounds=1, iterations=1
    )
    save_result(result)
    measured = result.measured
    # The tentpole claim: stacking a batch's cache misses into one decode
    # at least doubles throughput on a mixed head/tail workload.
    assert measured["speedup"] >= 2.0
    # Both tiers saw traffic.
    assert measured["batched_cache_share"] > 0.0
    assert measured["batched_model_share"] > 0.0
    # The bounded cache held its capacity under write-back load.
    assert measured["max_cache_occupancy"] <= measured["cache_capacity"]
    assert measured["cache_evictions"] > 0
    # KV-cached incremental stepping + active-row compaction returns
    # byte-identical (token-for-token) rewrite outputs under the same
    # seeds as the frozen full-prefix reference decode.
    assert measured["decode_outputs_identical"] is True
    # Compaction is visible in the work accounting: the optimized path
    # steps no more rows than the keep-every-row reference.
    assert measured["decode_rows_new"] <= measured["decode_rows_reference"]
    assert measured["decode_verdict"] == "PASS"
    # Wall-clock ratio: rendered always, gates only under --wall-clock.
    if wall_clock:
        assert measured["decode_speedup"] >= 3.0
