"""Section III-G — two-tier serving: cache coverage and the bounded cache."""

from repro.experiments import serving


def test_serving_tradeoff(benchmark, context, scale, save_result):
    result = benchmark.pedantic(lambda: serving.run(scale), rounds=1, iterations=1)
    save_result(result)
    measured = result.measured
    # Head-query caching must absorb a large share of zipf traffic.
    assert measured["cache_share"] > 0.5
    # The fallback model serves (part of) the tail.
    assert measured["model_share"] + measured["unserved_share"] > 0.0
    # Model-tier write-back stays inside the cache's capacity bound.
    assert 0 < measured["cache_entries"] <= measured["cache_capacity"]
