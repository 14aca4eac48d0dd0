"""Batched serving work: serve_batch vs the per-query loop."""

from repro.experiments import serving_batched


def test_serving_batched_throughput(benchmark, context, scale, save_result):
    result = benchmark.pedantic(
        lambda: serving_batched.run(scale), rounds=1, iterations=1
    )
    save_result(result)
    measured = result.measured
    # The tentpole claim: stacking a batch's cache misses into one decode
    # at least halves the decoder steps on a mixed head/tail workload.
    assert measured["per_query_decode_steps"] > 0
    assert measured["batched_decode_steps"] <= 0.5 * measured["per_query_decode_steps"]
    # Both tiers saw traffic.
    assert measured["batched_cache_share"] > 0.0
    assert measured["batched_model_share"] > 0.0
    # The bounded cache held its capacity under write-back load.
    assert measured["max_cache_occupancy"] <= measured["cache_capacity"]
    assert measured["cache_evictions"] > 0
