"""Retrieval engine at catalog scale — galloping + heap vs the seed path.

Acceptance bar for the sharded retrieval engine: on a ≥50k-document
catalog the merged-tree galloping + bounded-heap path must beat the seed
set-intersect/full-sort path by ≥3x while returning *identical* top-k
lists, the sharded fan-out must merge to the exact unsharded top-k, and
the Section III-H invariant (merged-tree postings cost ≤ separate trees)
must still hold at this scale.

The worker-scaling sweep adds the GIL-breaking bar: process shard
workers must return the exact unsharded top-k at every worker count,
and — on machines with the cores to show it (the bar is cores-gated,
3x at >= 8 cores) — 8 workers must beat the thread fan-out's qps.  That
last bar is a ratio of two wall-clock timings, so it is asserted only
under ``--wall-clock`` (see ``conftest.py``) and rendered always.
"""

from repro.experiments import retrieval_scale


def test_retrieval_scale(benchmark, save_result, wall_clock):
    result = benchmark.pedantic(lambda: retrieval_scale.run(), rounds=1, iterations=1)
    save_result(result)
    measured = result.measured

    assert measured["docs_indexed"] >= 50_000
    # Same BM25 scores on both paths: top-k lists must match exactly.
    assert measured["topk_match_rate"] == 1.0
    assert measured["speedup"] >= 3.0
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
    # at every worker count, unconditionally.
    assert measured["worker_match_rate"] == 1.0
    # The qps ratio bar only applies where the cores exist (0.0 = SKIP).
    if wall_clock and measured["worker_qps_bar"] > 0.0:
        assert measured["worker_scaling_ratio"] >= measured["worker_qps_bar"]
        assert measured["worker_bar_met"]
