"""Online freshness under churn — acceptance bar for ``repro.online``.

Replays the same ≥10k-request, churn-interleaved traffic stream through a
no-freshness baseline and a freshness-controlled serving stack.  The
controller must cut the stale-serve rate hard (and the combined
stale-or-empty rate strictly) while re-populating at most one head
entry per ten requests, and the incrementally-churned sharded index must
never surface a delisted product in the end-to-end retrieval probes.
"""

from repro.experiments import online_replay


def test_online_replay(benchmark, save_result):
    result = benchmark.pedantic(online_replay.run, rounds=1, iterations=1)
    save_result(result)
    measured = result.measured

    # The stream actually exercises the regime: ≥10k requests with churn
    # landing mid-traffic and the TTL clock running out on real entries.
    assert measured["requests_per_arm"] >= 10_000
    assert measured["churn_events"] >= 5
    assert measured["baseline_expirations"] > 0

    # Freshness controller: stale serves collapse, stale-or-empty strictly
    # drops, and nothing is gained by serving less traffic from cache.
    assert measured["baseline_stale_rate"] > 0.0
    assert (
        measured["freshness_stale_rate"] <= 0.5 * measured["baseline_stale_rate"]
    )
    assert (
        measured["freshness_stale_or_empty_rate"]
        < measured["baseline_stale_or_empty_rate"]
    )
    assert measured["freshness_hit_rate"] >= measured["baseline_hit_rate"]

    # ... for little controller work: churn-driven plus refresh-ahead
    # re-population, (refreshed + proactive_refreshed) / requests, stays
    # at or below one rewrite per ten requests.
    assert measured["controller_rewrite_rate"] <= 0.10

    # Churn consistency: the live index follows the catalog, so retrieval
    # probes never return a delisted product.
    assert measured["baseline_dead_doc_hits"] == 0
    assert measured["freshness_dead_doc_hits"] == 0

    # The controller actually worked for its keep.
    assert measured["invalidated"] > 0
    assert measured["refreshed"] > 0
    assert measured["purged_expired"] > 0
