"""Retrieval engine at catalog scale — slot masks + heap vs the seed path.

Acceptance bars for the sharded retrieval engine: on a ≥50k-document
catalog the merged-tree slot-mask + bounded-heap path must return
*identical* top-k lists to the seed set-intersect/full-sort path, the
sharded fan-out must merge to the exact unsharded top-k, and the Section
III-H invariant (merged-tree postings cost ≤ separate trees) must still
hold at this scale.

The worker sweep adds the cluster-tier bar: process shard workers must
return the exact unsharded top-k at every worker count.  How fast the
engine and the workers serve is measured by ``bench/``'s
``search_process`` workload, not here.
"""

from repro.experiments import retrieval_scale


def test_retrieval_scale(benchmark, save_result):
    result = benchmark.pedantic(lambda: retrieval_scale.run(), rounds=1, iterations=1)
    save_result(result)
    measured = result.measured

    assert measured["docs_indexed"] >= 50_000
    # Same BM25 scores on both paths: top-k lists must match exactly.
    assert measured["topk_match_rate"] == 1.0
    # Shard fan-out with global statistics merges to the unsharded top-k.
    assert measured["sharded_match_rate"] == 1.0
    # Section III-H: the merged tree never reads more postings.
    assert measured["merged_postings"] <= measured["separate_postings"]
    assert measured["postings_ratio"] <= 1.0
    # Incremental churn really lands in the live index.
    assert measured["docs_after_churn"] == measured["docs_indexed"] + (
        measured["churn_docs_added"] - measured["churn_docs_removed"]
    )
    assert measured["churn_probe_found"]
    # Process workers are equivalence-by-construction: identical top-k
    # at every worker count.
    assert measured["worker_match_rate"] == 1.0
    assert "FAIL" not in result.rendered
