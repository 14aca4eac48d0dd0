"""Section III-G — online-serving tradeoff: cache coverage + model fallback.

The paper's two-tier deployment: precomputed rewrites for head queries
(>80% traffic, <5 ms) and a fast hybrid q2q model for the long tail
(~30 ms).  We populate a *bounded, sharded* cache with the head of the
simulated traffic distribution, replay traffic through the batched
serving path (requests arrive in batches; misses share one stacked
decode), and report tier shares and the cache's occupancy/eviction
gauges.  Model-tier results are written back into the cache, so repeated
tail queries promote themselves and the LRU bound evicts whatever went
cold — the "top 8M queries" tier as a finite resource rather than an
ever-growing dict.  Every rendered quantity is a count, so the artifact
reproduces byte for byte; the paper's latencies are Table V's
(``table5``) to time.
"""

from __future__ import annotations

import numpy as np

from repro.core import DirectRewriter, RewriteCache, RewriterConfig, ServingConfig, ServingPipeline
from repro.data.dataset import ParallelCorpus, train_eval_split
from repro.experiments.rendering import ascii_table
from repro.experiments.result import ExperimentResult
from repro.experiments.scale import ExperimentScale, SMALL
from repro.experiments.shared import build_context
from repro.models import HybridNMT, ModelConfig
from repro.training import SeparateTrainer, TrainingConfig

#: requests per serving batch in the traffic replay
BATCH_SIZE = 16
#: cache shards (the partitioned key-value deployment)
CACHE_SHARDS = 4


def _train_q2q_model(context, steps: int) -> HybridNMT:
    marketplace = context.marketplace
    train_pairs, _ = train_eval_split(marketplace.synonym_pairs, 0.1)
    corpus = ParallelCorpus.from_pairs(train_pairs, marketplace.vocab)
    model = HybridNMT(
        ModelConfig(
            vocab_size=len(marketplace.vocab),
            d_model=context.scale.d_model,
            num_heads=context.scale.num_heads,
            d_ff=context.scale.d_ff,
            encoder_layers=1,
            decoder_layers=1,
            dropout=0.0,
            seed=context.scale.seed,
        )
    )
    SeparateTrainer(
        model, corpus, TrainingConfig(batch_size=16, max_steps=steps, seed=context.scale.seed)
    ).train(steps)
    return model


def run(scale: ExperimentScale = SMALL, head_fraction: float = 0.4) -> ExperimentResult:
    context = build_context(scale)
    rng = np.random.default_rng(scale.seed)
    click_log = context.marketplace.click_log

    # Traffic distribution: queries weighted by click volume.
    records = sorted(
        click_log.queries.values(), key=lambda r: (-r.total_clicks, r.text)
    )
    texts = [r.text for r in records]
    weights = np.array([max(r.total_clicks, 1) for r in records], dtype=float)
    weights /= weights.sum()

    # Tier 1: precompute rewrites for the head of the distribution into a
    # capacity-bounded sharded LRU.  Capacity carries 25% headroom over the
    # head set: the bound is split evenly across shards while crc32 key
    # placement is not, so an exact-fit budget would evict head entries
    # from whichever shard runs hot.
    head_count = max(CACHE_SHARDS, int(len(texts) * head_fraction))
    cache = RewriteCache(
        capacity=max(CACHE_SHARDS, int(head_count * 1.25)), shards=CACHE_SHARDS
    )
    offline_rewriter = context.rewriter("joint")
    cache.populate(offline_rewriter, texts[:head_count], k=3)

    # Tier 2: fast q2q hybrid fallback.
    q2q_model = _train_q2q_model(context, steps=scale.warmup_steps)
    fallback = DirectRewriter(
        q2q_model,
        context.vocab,
        RewriterConfig(k=3, top_n=scale.top_n, max_query_len=10, seed=scale.seed),
    )
    pipeline = ServingPipeline(
        cache, fallback, ServingConfig(max_rewrites=3, cache_model_results=True)
    )

    # Replay traffic in serving batches: misses share one stacked decode.
    n_requests = scale.abtest_sessions_per_day * 2
    requests = [
        texts[int(i)] for i in rng.choice(len(texts), size=n_requests, p=weights)
    ]
    for start in range(0, n_requests, BATCH_SIZE):
        pipeline.serve_batch(requests[start : start + BATCH_SIZE])

    stats = pipeline.stats
    measured = {
        "cache_entries": len(cache),
        "cache_capacity": cache.capacity,
        "cache_fill_ratio": cache.fill_ratio,
        "cache_evictions": cache.stats.evictions,
        "cache_share": stats.cache_served / max(1, stats.total),
        "model_share": stats.model_served / max(1, stats.total),
        "unserved_share": stats.unserved / max(1, stats.total),
    }
    occupancy = ", ".join(str(n) for n in cache.shard_occupancy())
    rows = [
        ["traffic served from cache", "> 80% (top 8M queries)", f"{measured['cache_share']:.1%}"],
        ["traffic served by q2q model", "long tail", f"{measured['model_share']:.1%}"],
        ["cache occupancy / capacity", "top-8M budget", f"{len(cache)}/{cache.capacity} ({measured['cache_fill_ratio']:.0%})"],
        ["cache evictions (LRU)", "finite KV store", f"{measured['cache_evictions']}"],
        ["per-shard occupancy", f"{CACHE_SHARDS} shards", occupancy],
    ]
    rendered = ascii_table(["quantity", "paper", "measured"], rows, float_format="{:.3f}")
    return ExperimentResult(
        experiment_id="serving",
        title="Online serving tradeoff (Section III-G)",
        measured=measured,
        paper={"cache_share": ">0.8"},
        rendered=rendered,
        notes=(
            "Bounded sharded-LRU head cache plus batched direct-q2q fallback; "
            "model-tier results are written back so hot tail queries promote "
            "themselves under the LRU capacity."
        ),
    )
