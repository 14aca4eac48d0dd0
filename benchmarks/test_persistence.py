"""Persistent index segments — the cold-start acceptance bars.

Four claims must hold on a ≥50k-document catalog (see
``repro/experiments/persistence.py`` and docs/PERSISTENCE.md):

1. **Cold start** — restoring the hybrid engine from on-disk segments
   does none of the rebuild's work: a rebuild embeds every catalog
   title, a restore embeds none (the experiment's encoder counts them).
2. **Equality** — the restored engine ranks every seeded query
   byte-identically (doc ids AND scores) to the live engine in all
   three retrieval modes, including after churn (delta segments) and
   after compaction.
3. **Incrementality** — a post-churn save writes delta segments rather
   than rewriting every shard, and compaction folds the chain back
   into fewer files.
4. **Corruption** — every seeded bit-flip / truncation / zero-fill is
   either detected by a typed ``StoreError`` or leaves results
   byte-identical; silent wrong-result loads are zero, always.
"""

from repro.experiments import persistence


def test_persistence(benchmark, save_result, scale):
    result = benchmark.pedantic(
        persistence.run, args=(scale,), rounds=1, iterations=1
    )
    save_result(result)
    measured = result.measured

    assert measured["docs_indexed"] >= 50_000

    # Cold start: the rebuild embeds every title, the restore none.
    assert measured["build_titles_encoded"] == measured["docs_indexed"]
    assert measured["load_titles_encoded"] == 0

    # Exact equality in every retrieval mode, at every lifecycle stage.
    assert measured["match_rate_lexical"] == 1.0
    assert measured["match_rate_semantic"] == 1.0
    assert measured["match_rate_hybrid"] == 1.0
    assert measured["churn_match_rate"] == 1.0
    assert measured["compact_match_rate"] == 1.0

    # Churn produced an incremental save, and compaction reclaimed it.
    assert measured["delta_segments"] > 0
    assert measured["files_after_compaction"] < measured["files_before_compaction"]

    # Corruption: everything injected was detected or provably harmless.
    assert measured["corruption_trials"] >= 24
    assert measured["corruption_silent"] == 0
    assert (
        measured["corruption_detected"] + measured["corruption_identical"]
        == measured["corruption_trials"]
    )

    # The rendered artifact carries the per-bar verdicts the CI greps.
    assert measured["all_passed"] is True
    assert "FAIL" not in result.rendered
