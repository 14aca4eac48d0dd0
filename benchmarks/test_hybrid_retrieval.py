"""Hybrid lexical/semantic retrieval — the vocabulary-gap acceptance bar.

Three claims must hold on a ≥50k-document catalog (see
``repro/experiments/hybrid_retrieval.py`` and docs/SEMANTIC.md):

1. **Recall** — on the vocabulary-gap query set (queries and rewrites
   built from query-side-only tokens, so every rewrite misses the
   inverted index), hybrid recall@10 is strictly above lexical-only.
2. **Speed** — the IVF probe search beats per-query brute-force dot
   products by ≥5× (a wall-clock ratio: asserted under ``--wall-clock``,
   rendered always) while agreeing with the exact top-10 at ≥0.95.
3. **Churn** — products delisted through the hybrid engine (catalog,
   inverted index, and vector index in lockstep) never surface from the
   vector tier again, even probed with their own embeddings.
"""

from repro.experiments import hybrid_retrieval


def test_hybrid_retrieval(benchmark, save_result, wall_clock):
    result = benchmark.pedantic(lambda: hybrid_retrieval.run(), rounds=1, iterations=1)
    save_result(result)
    measured = result.measured

    assert measured["docs_indexed"] >= 50_000

    # The gap query set is structurally out of lexical reach...
    assert measured["lexical_recall"] == 0.0
    # ...and the semantic tier actually recovers it: hybrid strictly wins.
    assert measured["hybrid_recall"] > measured["lexical_recall"]
    assert measured["hybrid_recall"] >= 0.25
    # Fusion never does worse than the better single tier here (lexical
    # contributes nothing, so hybrid == semantic ranking).
    assert measured["hybrid_recall"] >= measured["semantic_recall"] - 1e-9

    # ANN vs brute force: matched recall first, then the speed claim.
    assert measured["ann_matched_recall"] >= 0.95
    if wall_clock:
        assert measured["ann_speedup"] >= 5.0

    # Churn-interleaved: removed products never surface from the vector
    # tier; a surviving fresh product is findable in both tiers.
    assert measured["churn_dead_hits"] == 0
    assert measured["churn_probe_found"]
    assert measured["docs_after_churn"] == measured["docs_indexed"] + (
        measured["churn_docs_added"] - measured["churn_docs_removed"]
    )
