"""Retrieval at catalog scale — the engine behind the Section III-H story.

The paper's system-cost claims (Figure 5, Table V) assume the retrieval
layer itself can keep up with production traffic.  This experiment builds
a ≥50k-document synthetic catalog and checks the current ``repro.search``
engine — one merged syntax tree (Section III-H) evaluated as masks over
slot-indexed term vectors, vectorized BM25 scoring and a bounded-heap
top-k — against the pre-rewrite **seed path**, reproduced verbatim here
(one hash set materialized per term, set-AND per query, set-union across
rewrites, then a full O(n log n) sort of every candidate).

Both paths score with the same BM25 formula, so their top-k lists must be
*identical*.  The experiment also fans the same queries out over a
4-shard :class:`~repro.search.ShardedIndex` (global-statistics ranking,
so the merged top-k again matches the unsharded engine exactly),
exercises incremental ``add_document``/``remove_document`` churn, and
re-checks the Figure 5 invariant that the merged tree's postings cost
never exceeds the separate trees' — the work the merged tree saves.

The worker sweep replays the same requests through 1/2/4/8
:class:`~repro.cluster.ProcessBackend` shard workers (each cold-started
from segments) in the serving shape — ``search_many`` over micro-batches
of the scheduler's size, one round trip per shard per batch — and the
results must equal the unsharded engine's at every worker count.  How
fast the engine and the workers serve is ``bench/``'s ``search_process``
workload to measure.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.data.catalog import CATEGORY_SPECS, CatalogGenerator, Catalog, CatalogConfig
from repro.experiments.rendering import ascii_table
from repro.experiments.result import ExperimentResult
from repro.experiments.scale import ExperimentScale, SMALL
from repro.search import BM25Ranker, SearchConfig, SearchEngine, ShardedSearchEngine
from repro.text import tokenize

#: corpus floor — the acceptance bar is "a ≥50k-doc synthetic catalog"
#: (scaled down only by a sub-1.0 ``ExperimentScale.workload_factor``)
TARGET_DOCS = 50_000
NUM_QUERIES = 30
TOP_K = 100
NUM_SHARDS = 4
CHURN_DOCS = 500
#: process-worker counts swept for equivalence with the unsharded engine
WORKER_COUNTS = (1, 2, 4, 8)
#: searches per fan-out in that sweep: the serving scheduler's micro-batch
MICRO_BATCH = 16


def _build_catalog(scale: ExperimentScale) -> Catalog:
    generator = CatalogGenerator(CatalogConfig(seed=scale.seed))
    rng = np.random.default_rng(scale.seed)
    return Catalog(products=generator.sample_products(scale.scaled(TARGET_DOCS, 2_000), rng))


def _build_queries(scale: ExperimentScale) -> list[tuple[str, list[str]]]:
    """Rewrite-augmented requests over the catalog vocabulary.

    Each request is ``brand + canonical-category + feature`` with two
    rewrites that keep the brand/category tokens and swap the feature —
    the token-sharing shape that makes Section III-H's merged tree pay.
    """
    rng = np.random.default_rng(scale.seed + 1)
    names = sorted(CATEGORY_SPECS)
    requests: list[tuple[str, list[str]]] = []
    for i in range(NUM_QUERIES):
        spec = CATEGORY_SPECS[names[i % len(names)]]
        brand = str(rng.choice(spec.brands))
        features = [str(f) for f in rng.permutation(np.array(spec.features))]
        base = f"{brand} {' '.join(spec.canonical)}"
        query = f"{base} {features[0]}"
        rewrites = [f"{base} {features[1]}", f"{base} {features[2]}"]
        requests.append((query, rewrites))
    return requests


# -- the seed path, reproduced for comparison --------------------------------
def _seed_intersect(index, tokens: list[str]) -> set[int]:
    """Verbatim seed semantics: a ``set(postings)`` per term, cheapest first."""
    ordered = sorted(set(tokens), key=lambda t: (index.postings_length(t), t))
    result: set[int] | None = None
    for token in ordered:
        postings = set(index.postings(token))
        result = postings if result is None else result & postings
        if not result:
            break
    return result or set()


def _seed_search(index, ranker, query: str, rewrites: list[str], k: int) -> list[int]:
    """Set-AND per query variant, set-union, score-all, full sort, cap k."""
    candidates: set[int] = set()
    for text in [query, *rewrites]:
        tokens = tokenize(text)
        if tokens:
            candidates |= _seed_intersect(index, tokens)
    query_tokens = tokenize(query)
    ordered = sorted(
        candidates,
        key=lambda doc_id: (-ranker.score_doc(index, query_tokens, doc_id), doc_id),
    )
    return ordered[:k]


def run(scale: ExperimentScale = SMALL) -> ExperimentResult:
    catalog = _build_catalog(scale)
    requests = _build_queries(scale)
    churn_docs = scale.scaled(CHURN_DOCS, 50)
    config = SearchConfig(max_candidates=TOP_K, ranker="bm25")
    engine = SearchEngine(catalog, config)
    ranker: BM25Ranker = engine.ranker

    # Seed-path parity: the same BM25 scores rank the same top-k.
    matches = 0
    candidate_counts: list[int] = []
    for query, rewrites in requests:
        expected = _seed_search(engine.index, ranker, query, rewrites, TOP_K)
        outcome = engine.search(query, rewrites)
        candidate_counts.append(len(outcome.doc_ids))
        if outcome.doc_ids == expected:
            matches += 1
    topk_match_rate = matches / len(requests)

    # Figure 5 invariant at scale: merged tree never costs more postings.
    merged_postings = 0
    separate_postings = 0
    for query, rewrites in requests:
        costs = engine.compare_costs(query, rewrites)
        merged_postings += int(costs["merged_postings"])
        separate_postings += int(costs["separate_postings"])

    # Shard fan-out: merged top-k must equal the unsharded engine's.
    sharded = ShardedSearchEngine(
        catalog, config, num_shards=NUM_SHARDS, parallel=True
    )
    unsharded_topk = [engine.search(q, rw).doc_ids for q, rw in requests]
    sharded_topk = [sharded.search(q, rw).doc_ids for q, rw in requests]
    sharded_matches = sum(a == b for a, b in zip(sharded_topk, unsharded_topk))

    # Worker sweep: the same corpus behind 1/2/4/8 process workers, each
    # cold-started from segments; results must equal the unsharded top-k
    # exactly (equivalence by construction).
    micro_batches = [
        requests[at : at + MICRO_BATCH] for at in range(0, len(requests), MICRO_BATCH)
    ]
    worker_matches: dict[int, int] = {}
    sweep_root = Path(tempfile.mkdtemp(prefix="repro-worker-sweep-"))
    try:
        for workers in WORKER_COUNTS:
            build = ShardedSearchEngine(
                catalog, config, num_shards=workers, parallel=False
            )
            store = sweep_root / f"workers-{workers}"
            build.save(store)
            build.close()
            process_engine = ShardedSearchEngine.load(
                catalog, store, config, backend="process"
            )
            try:
                outcomes = [
                    outcome
                    for batch in micro_batches
                    for outcome in process_engine.search_many(batch)
                ]
                worker_matches[workers] = sum(
                    outcome.doc_ids == expected
                    for outcome, expected in zip(outcomes, unsharded_topk)
                )
            finally:
                process_engine.close()
    finally:
        shutil.rmtree(sweep_root, ignore_errors=True)

    # Incremental churn: the catalog is no longer build-once.
    generator = CatalogGenerator(CatalogConfig(seed=scale.seed))
    churn_rng = np.random.default_rng(scale.seed + 2)
    fresh = generator.sample_products(
        churn_docs, churn_rng, start_id=catalog.next_product_id()
    )
    for product in fresh:
        catalog.add_product(product)
        sharded.add_document(product.product_id, product.title_tokens)
    for product in fresh[: churn_docs // 2]:
        catalog.remove_product(product.product_id)
        sharded.remove_document(product.product_id)
    probe = fresh[-1]
    probe_hit = probe.product_id in sharded.search(probe.title).doc_ids
    docs_after_churn = len(sharded.index)
    sharded.close()

    measured = {
        "docs_indexed": len(engine.index),
        "num_queries": len(requests),
        "top_k": TOP_K,
        "mean_candidates": float(np.mean(candidate_counts)),
        "topk_match_rate": topk_match_rate,
        "merged_postings": merged_postings,
        "separate_postings": separate_postings,
        "postings_ratio": merged_postings / max(1, separate_postings),
        "num_shards": NUM_SHARDS,
        "sharded_match_rate": sharded_matches / len(requests),
        "churn_docs_added": churn_docs,
        "churn_docs_removed": churn_docs // 2,
        "docs_after_churn": docs_after_churn,
        "churn_probe_found": bool(probe_hit),
        "worker_requests_per_round_trip": len(requests) / len(micro_batches),
        "worker_match_rate": sum(worker_matches.values())
        / (len(requests) * len(WORKER_COUNTS)),
    }
    per_trip = f"{measured['worker_requests_per_round_trip']:.0f} req/round trip"
    rows = [
        [
            "seed path (sets + full sort)",
            f"top-{TOP_K} match {topk_match_rate:.0%}",
            f"{len(requests)} queries",
        ],
        [
            f"sharded fan-out ({NUM_SHARDS} shards)",
            f"match {measured['sharded_match_rate']:.0%}",
            "vs unsharded engine",
        ],
        [
            "merged vs separate postings",
            f"{merged_postings} vs {separate_postings}",
            f"ratio {measured['postings_ratio']:.3f}",
        ],
        [
            "incremental churn",
            f"+{churn_docs}/-{churn_docs // 2} docs",
            f"{docs_after_churn} indexed, probe {'hit' if probe_hit else 'MISS'}",
        ],
        *[
            [
                f"process workers x{workers}",
                f"match {matched / len(requests):.0%} at {per_trip}",
                "PASS" if matched == len(requests) else "FAIL",
            ]
            for workers, matched in worker_matches.items()
        ],
    ]
    rendered = ascii_table(["path", "result", "detail"], rows, float_format="{:.3f}")
    return ExperimentResult(
        experiment_id="retrieval_scale",
        title="Sharded top-k retrieval at catalog scale (Section III-H engine)",
        measured=measured,
        paper={
            "claim": "tree merging keeps multi-query retrieval near single-query cost",
            "scale": "production index behind the serving tier",
        },
        rendered=rendered,
        notes=(
            "Both paths rank with the same BM25 scores, so top-k lists are "
            "identical; the merged tree reads at most the separate trees' "
            "postings, and process workers return the unsharded top-k at "
            "every worker count."
        ),
    )
