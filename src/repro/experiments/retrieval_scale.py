"""Retrieval at catalog scale — the engine behind the Section III-H story.

The paper's system-cost claims (Figure 5, Table V) assume the retrieval
layer itself can keep up with production traffic.  This experiment builds
a ≥50k-document synthetic catalog and replays the same rewrite-augmented
queries through two implementations:

* **seed path** — the pre-rewrite implementation, reproduced verbatim
  here: one hash set materialized per term, set-AND per query, set-union
  across rewrites, then a full O(n log n) sort of every candidate;
* **engine path** — the current ``repro.search`` engine: one merged
  syntax tree (Section III-H), galloping sorted-postings intersection,
  vectorized BM25 scoring, and a bounded-heap top-k.

Both paths score with the same BM25 formula, so their top-k lists must be
*identical* — the speedup is pure mechanics, not a relevance change.  The
experiment also fans the same queries out over a 4-shard
:class:`~repro.search.ShardedIndex` (global-statistics ranking, so the
merged top-k again matches the unsharded engine exactly), exercises
incremental ``add_document``/``remove_document`` churn, and re-checks the
Figure 5 invariant that the merged tree's postings cost never exceeds the
separate trees'.

The worker-scaling sweep replays the same requests through 1/2/4/8
:class:`~repro.cluster.ProcessBackend` shard workers (each cold-started
from segments) against the in-process thread fan-out, both in the
serving shape — ``search_many`` over micro-batches of the scheduler's
size, one round trip per shard per batch: results must stay
identical to the unsharded engine at every worker count, and on machines
with the cores to show it, 8 workers must beat the thread baseline by a
cores-gated qps ratio (no GIL on the scoring path).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
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
TIMING_ROUNDS = 3
NUM_SHARDS = 4
CHURN_DOCS = 500
#: process-worker counts swept against the thread-backend baseline
WORKER_COUNTS = (1, 2, 4, 8)
#: searches per fan-out in that sweep: the serving scheduler's micro-batch
MICRO_BATCH = 16
#: (cores floor, required qps ratio of 8 process workers over threads);
#: near-linear scaling is only observable when the cores exist, so the
#: bar is gated on the machine — one core means no bar at all (SKIP)
WORKER_QPS_BARS = ((8, 3.0), (4, 1.5), (2, 1.1))


def _worker_qps_bar(cores: int) -> float | None:
    """The cores-gated qps-ratio bar (None below two cores)."""
    for floor, bar in WORKER_QPS_BARS:
        if cores >= floor:
            return bar
    return None


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
    timing_rounds = scale.timing_rounds(TIMING_ROUNDS)
    churn_docs = scale.scaled(CHURN_DOCS, 50)
    config = SearchConfig(max_candidates=TOP_K, ranker="bm25")
    engine = SearchEngine(catalog, config)
    ranker: BM25Ranker = engine.ranker

    # Warm-up pass: also checks result parity between the two paths.
    matches = 0
    candidate_counts: list[int] = []
    for query, rewrites in requests:
        expected = _seed_search(engine.index, ranker, query, rewrites, TOP_K)
        outcome = engine.search(query, rewrites)
        candidate_counts.append(len(outcome.doc_ids))
        if outcome.doc_ids == expected:
            matches += 1
    topk_match_rate = matches / len(requests)

    started = time.perf_counter()
    for _ in range(timing_rounds):
        for query, rewrites in requests:
            _seed_search(engine.index, ranker, query, rewrites, TOP_K)
    seed_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(timing_rounds):
        for query, rewrites in requests:
            engine.search(query, rewrites)
    engine_seconds = time.perf_counter() - started
    total_queries = timing_rounds * len(requests)

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
    started = time.perf_counter()
    sharded_topk = [sharded.search(q, rw).doc_ids for q, rw in requests]
    sharded_seconds = time.perf_counter() - started
    sharded_matches = sum(a == b for a, b in zip(sharded_topk, unsharded_topk))

    # Worker scaling: the same corpus behind 1/2/4/8 process workers,
    # each cold-started from segments, against the thread fan-out
    # baseline.  Process results must equal the unsharded top-k exactly
    # (equivalence by construction); the qps bar is cores-gated.
    cores = os.cpu_count() or 1
    micro_batches = [
        requests[at : at + MICRO_BATCH] for at in range(0, len(requests), MICRO_BATCH)
    ]

    def batched_qps(sharded_engine) -> float:
        started = time.perf_counter()
        for _ in range(timing_rounds):
            for batch in micro_batches:
                sharded_engine.search_many(batch)
        return total_queries / (time.perf_counter() - started)

    thread_engine = ShardedSearchEngine(
        catalog, config, num_shards=max(WORKER_COUNTS), parallel=True
    )
    thread_qps = batched_qps(thread_engine)
    thread_engine.close()

    worker_qps: dict[int, float] = {}
    worker_matches = 0
    worker_compared = 0
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
                for outcome, expected in zip(outcomes, unsharded_topk):
                    worker_compared += 1
                    if outcome.doc_ids == expected:
                        worker_matches += 1
                worker_qps[workers] = batched_qps(process_engine)
            finally:
                process_engine.close()
    finally:
        shutil.rmtree(sweep_root, ignore_errors=True)
    scaling_ratio = worker_qps[max(WORKER_COUNTS)] / thread_qps
    qps_bar = _worker_qps_bar(cores)
    bar_met = qps_bar is None or scaling_ratio >= qps_bar

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
        "seed_ms_per_query": seed_seconds * 1000.0 / total_queries,
        "engine_ms_per_query": engine_seconds * 1000.0 / total_queries,
        "speedup": seed_seconds / engine_seconds,
        "topk_match_rate": topk_match_rate,
        "merged_postings": merged_postings,
        "separate_postings": separate_postings,
        "postings_ratio": merged_postings / max(1, separate_postings),
        "num_shards": NUM_SHARDS,
        "sharded_match_rate": sharded_matches / len(requests),
        "sharded_ms_per_query": sharded_seconds * 1000.0 / len(requests),
        "churn_docs_added": churn_docs,
        "churn_docs_removed": churn_docs // 2,
        "docs_after_churn": docs_after_churn,
        "churn_probe_found": bool(probe_hit),
        "worker_cpu_count": cores,
        "worker_requests_per_round_trip": len(requests) / len(micro_batches),
        "worker_thread_qps": thread_qps,
        **{
            f"worker_qps_{workers}": qps for workers, qps in worker_qps.items()
        },
        "worker_scaling_ratio": scaling_ratio,
        "worker_match_rate": worker_matches / worker_compared,
        "worker_qps_bar": 0.0 if qps_bar is None else qps_bar,
        "worker_bar_met": bool(bar_met),
    }
    per_trip = f"{measured['worker_requests_per_round_trip']:.0f} req/round trip"
    rows = [
        ["seed path (sets + full sort)", f"{measured['seed_ms_per_query']:.2f} ms/q", "-"],
        [
            "engine (gallop + heap top-k)",
            f"{measured['engine_ms_per_query']:.2f} ms/q",
            f"{measured['speedup']:.1f}x",
        ],
        [
            f"sharded fan-out ({NUM_SHARDS} shards)",
            f"{measured['sharded_ms_per_query']:.2f} ms/q",
            f"match {measured['sharded_match_rate']:.0%}",
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
        [
            f"thread fan-out baseline ({max(WORKER_COUNTS)} shards)",
            f"{thread_qps:.0f} q/s at {per_trip}",
            "-",
        ],
        *[
            [
                f"process workers x{workers}",
                f"{qps:.0f} q/s at {per_trip}",
                f"{qps / thread_qps:.2f}x threads, "
                f"match {measured['worker_match_rate']:.0%}",
            ]
            for workers, qps in worker_qps.items()
        ],
        [
            "worker scaling verdict",
            f"{scaling_ratio:.2f}x @ {cores} cores",
            (
                "SKIP (bar needs >= 2 cores)"
                if qps_bar is None
                else ("PASS" if bar_met else "FAIL")
            )
            + f" (bar {qps_bar or 0.0:.1f}x)",
        ],
    ]
    rendered = ascii_table(["path", "latency", "vs seed"], rows, float_format="{:.3f}")
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
            "identical; the speedup is galloping intersection + bounded-heap "
            "selection vs per-term sets + full sort."
        ),
    )
