"""Batched-serving work: per-query loop vs ``serve_batch``.

The paper's serving tier must sustain heavy traffic, and what batching
saves is model work: every decoder step costs one forward pass whether
it advances one query or sixteen.  This experiment replays the same
mixed head/tail workload through two identical two-tier pipelines — one
serving requests one at a time (the seed path), one in batches whose
cache misses share a single stacked model decode — and counts the
decoder steps each one takes (``model.decode_steps``).  It also hammers
a deliberately undersized cache with write-backs to show the LRU bound
holding under load.  Wall-clock throughput is ``bench/``'s to measure
(the ``tail_decode`` workload).

The fallback model is an *untrained* hybrid (transformer encoder + RNN
decoder): decode work per token is identical to a trained one, and
batching is a property of the serving machinery, not model quality.
"""

from __future__ import annotations

import numpy as np

from repro.core import DirectRewriter, RewriteCache, RewriterConfig, ServingConfig, ServingPipeline
from repro.experiments.rendering import ascii_table
from repro.experiments.result import ExperimentResult
from repro.experiments.scale import ExperimentScale, SMALL
from repro.experiments.shared import build_context
from repro.models import HybridNMT, ModelConfig

#: requests per serving batch on the batched path
BATCH_SIZE = 16
#: cache shards for both pipelines
CACHE_SHARDS = 4


def _build_pipeline(context, scale: ExperimentScale, capacity: int) -> ServingPipeline:
    """A fresh two-tier pipeline (own cache + own rewriter RNG)."""
    model = HybridNMT(
        ModelConfig(
            vocab_size=len(context.vocab),
            d_model=scale.d_model,
            num_heads=scale.num_heads,
            d_ff=scale.d_ff,
            encoder_layers=1,
            decoder_layers=1,
            dropout=0.0,
            seed=scale.seed,
        )
    )
    model.eval()
    fallback = DirectRewriter(
        model,
        context.vocab,
        RewriterConfig(k=3, top_n=scale.top_n, max_query_len=10, seed=scale.seed),
    )
    cache = RewriteCache(capacity=capacity, shards=CACHE_SHARDS)
    return ServingPipeline(
        cache, fallback, ServingConfig(max_rewrites=3, cache_model_results=True)
    )


def run(scale: ExperimentScale = SMALL) -> ExperimentResult:
    context = build_context(scale)
    rng = np.random.default_rng(scale.seed)
    records = sorted(
        context.marketplace.click_log.queries.values(),
        key=lambda r: (-r.total_clicks, r.text),
    )
    texts = [r.text for r in records]
    weights = np.array([max(r.total_clicks, 1) for r in records], dtype=float)
    weights /= weights.sum()

    # Mixed head/tail workload over a deliberately undersized cache: only
    # part of the head fits, and write-backs from the tail force LRU
    # evictions well before the replay ends.
    capacity = max(CACHE_SHARDS, len(texts) // 16)
    head = texts[: capacity // 2]
    n_requests = scale.abtest_sessions_per_day * 4
    requests = [
        texts[int(i)] for i in rng.choice(len(texts), size=n_requests, p=weights)
    ]

    # Path A: the per-query loop.
    per_query = _build_pipeline(context, scale, capacity)
    for query in head:
        per_query.cache.put(query, [query + " (precomputed)"])
    for query in requests:
        per_query.serve(query)

    # Path B: batched serving, same workload, same cache provisioning.
    batched = _build_pipeline(context, scale, capacity)
    for query in head:
        batched.cache.put(query, [query + " (precomputed)"])
    max_occupancy = len(batched.cache)
    for start in range(0, n_requests, BATCH_SIZE):
        batched.serve_batch(requests[start : start + BATCH_SIZE])
        max_occupancy = max(max_occupancy, len(batched.cache))

    # Each pipeline owns a fresh model, so its counters hold exactly the
    # decoder steps its replay took.
    per_query_steps = per_query.fallback.model.decode_steps
    batched_steps = batched.fallback.model.decode_steps
    measured = {
        "requests": n_requests,
        "batch_size": BATCH_SIZE,
        "per_query_decode_steps": per_query_steps,
        "batched_decode_steps": batched_steps,
        "decode_step_ratio": batched_steps / max(1, per_query_steps),
        "cache_capacity": capacity,
        "max_cache_occupancy": max_occupancy,
        "cache_evictions": batched.cache.stats.evictions,
        "batched_cache_share": batched.stats.cache_served / max(1, batched.stats.total),
        "batched_model_share": batched.stats.model_served / max(1, batched.stats.total),
    }
    rows = [
        [
            "per-query loop",
            f"{per_query_steps} decode steps",
            f"{per_query.stats.model_served} misses decoded",
        ],
        [
            f"serve_batch (B={BATCH_SIZE})",
            f"{batched_steps} decode steps",
            f"{batched.stats.model_served} misses decoded",
        ],
        ["decode-step ratio", f"{measured['decode_step_ratio']:.3f}x", "bar <= 0.5x"],
        [
            "cache bound under load",
            f"cap {capacity}",
            f"max occupancy {max_occupancy}, {measured['cache_evictions']} evictions",
        ],
    ]
    rendered = ascii_table(["path", "work", "detail"], rows, float_format="{:.3f}")
    return ExperimentResult(
        experiment_id="serving_batched",
        title="Batched serving work (Section III-G at scale)",
        measured=measured,
        paper={"throughput": "batched model tier", "cache": "bounded top-8M KV store"},
        rendered=rendered,
        notes=(
            "Same workload, same untrained hybrid fallback; the batched path "
            "stacks all cache misses of a batch into one decode, so it takes "
            "a fraction of the per-query loop's decoder steps.  Write-backs "
            "exercise LRU eviction; occupancy never exceeds capacity."
        ),
    )
