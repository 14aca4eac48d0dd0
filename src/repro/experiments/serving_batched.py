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
from repro.decoding import top_n_sampling_batch
from repro.decoding.reference import top_n_sampling_batch_reference
from repro.experiments.rendering import ascii_table
from repro.experiments.result import ExperimentResult
from repro.experiments.scale import ExperimentScale, SMALL
from repro.experiments.shared import build_context
from repro.models import HybridNMT, ModelConfig, TransformerNMT

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


def _decode_work(scale: ExperimentScale, vocab_size: int) -> dict:
    """Run the optimized transformer decode beside the frozen reference.

    Both paths run :func:`top_n_sampling_batch` semantics over the same
    untrained :class:`TransformerNMT`, the same sources and the same RNG
    seeds — the reference from ``repro.decoding.reference`` keeps the seed
    behaviour (full-prefix re-decode, no compaction, per-row sampling).
    The verdict: hypotheses identical and no more rows stepped than the
    reference.  Decode speed is ``bench/``'s ``tail_decode`` workload.
    """
    model = TransformerNMT(
        ModelConfig(
            vocab_size=vocab_size,
            d_model=scale.d_model,
            num_heads=scale.num_heads,
            d_ff=scale.d_ff,
            encoder_layers=2,
            decoder_layers=2,
            max_len=80,
            dropout=0.0,
            seed=scale.seed,
        )
    )
    model.eval()
    rng = np.random.default_rng(scale.seed)
    n_sources = scale.scaled(8, 2)
    src = rng.integers(3, vocab_size, size=(n_sources, 9))
    src[:, 7:] = np.where(rng.random((n_sources, 2)) < 0.5, 0, src[:, 7:])
    max_len = scale.scaled(32, 6)

    outputs = {}
    rows_stepped = {}
    for name, decode in (
        ("new", top_n_sampling_batch),
        ("reference", top_n_sampling_batch_reference),
    ):
        model.reset_decode_counters()
        outputs[name] = decode(
            model, src, k=3, n=scale.top_n, max_len=max_len,
            rng=np.random.default_rng(scale.seed + 1),
        )
        rows_stepped[name] = model.decode_rows

    identical = [
        [(h.tokens, h.finished) for h in group] for group in outputs["new"]
    ] == [
        [(h.tokens, h.finished) for h in group] for group in outputs["reference"]
    ]
    no_more_rows = rows_stepped["new"] <= rows_stepped["reference"]
    verdict = "PASS" if identical and no_more_rows else "FAIL"
    return {
        "decode_outputs_identical": identical,
        "decode_rows_new": rows_stepped["new"],
        "decode_rows_reference": rows_stepped["reference"],
        "decode_verdict": verdict,
    }


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

    decode = _decode_work(scale, len(context.vocab))

    # Each pipeline owns a fresh model, so its counters hold exactly the
    # decoder steps its replay took.
    per_query_steps = per_query.fallback.model.decode_steps
    batched_steps = batched.fallback.model.decode_steps
    measured = {
        **decode,
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
        [
            "decode: cached+compacted",
            f"{decode['decode_rows_new']} rows stepped",
            "-",
        ],
        [
            "decode: frozen reference",
            f"{decode['decode_rows_reference']} rows stepped",
            "-",
        ],
        [
            "decode verdict",
            decode["decode_verdict"],
            f"outputs identical={decode['decode_outputs_identical']}, rows stepped "
            f"{decode['decode_rows_new']} vs reference {decode['decode_rows_reference']}",
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
            "exercise LRU eviction; occupancy never exceeds capacity.  The "
            "decode phase runs the KV-cached, row-compacted transformer "
            "decode beside the frozen full-prefix reference on identical "
            "seeds; outputs must match token-for-token."
        ),
    )
