"""Two-tier online serving (paper Section III-G).

JD's deployment: rewrites for the top 8M queries are precomputed into a
key-value store (<5 ms, >80% of traffic); the long tail is served by a fast
direct query-to-query model — a transformer encoder with an RNN decoder,
because Table V shows the transformer *decoder* is the latency bottleneck.

This example builds both tiers over zipf-distributed traffic and prints the
tier shares and latencies.

Usage::

    python examples/online_serving.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    CyclicRewriter,
    DirectRewriter,
    RewriteCache,
    RewriterConfig,
    ServingConfig,
    ServingPipeline,
)
from repro.data import MarketplaceConfig, generate_marketplace
from repro.data.catalog import CatalogConfig
from repro.data.clicklog import ClickLogConfig
from repro.data.dataset import ParallelCorpus
from repro.models import HybridNMT, ModelConfig, TransformerNMT
from repro.online import WindowedStats
from repro.training import CyclicConfig, CyclicTrainer, SeparateTrainer, TrainingConfig


def main() -> None:
    market = generate_marketplace(
        MarketplaceConfig(
            catalog=CatalogConfig(products_per_category=20),
            clicks=ClickLogConfig(num_sessions=6000, intent_pool_size=400),
            seed=0,
        )
    )
    vocab = market.vocab

    print("== offline: training the two-hop rewriter for head queries ==")
    forward = TransformerNMT(
        ModelConfig(vocab_size=len(vocab), d_model=32, num_heads=4, d_ff=64,
                    encoder_layers=2, decoder_layers=2, dropout=0.0, seed=0))
    backward = TransformerNMT(
        ModelConfig(vocab_size=len(vocab), d_model=32, num_heads=4, d_ff=64,
                    encoder_layers=1, decoder_layers=1, dropout=0.0, seed=1))
    CyclicTrainer(
        forward, backward, market.train_pairs, vocab,
        CyclicConfig(batch_size=16, warmup_steps=150, max_steps=260,
                     beam_width=3, top_n=5, max_title_len=14, seed=0),
    ).train()
    offline_rewriter = CyclicRewriter(
        forward, backward, vocab,
        RewriterConfig(k=3, top_n=5, max_title_len=14, max_query_len=8, seed=0))

    print("== offline: training the direct q2q model for the long tail ==")
    q2q_model = HybridNMT(
        ModelConfig(vocab_size=len(vocab), d_model=32, num_heads=4, d_ff=64,
                    encoder_layers=1, decoder_layers=1, dropout=0.0, seed=2))
    q2q_corpus = ParallelCorpus.from_pairs(market.synonym_pairs, vocab)
    SeparateTrainer(q2q_model, q2q_corpus, TrainingConfig(max_steps=200, seed=0)).train()
    fallback = DirectRewriter(
        q2q_model, vocab, RewriterConfig(k=3, top_n=5, max_query_len=8, seed=0))

    # Head of the traffic distribution -> the cache tier.
    records = sorted(
        market.click_log.queries.values(), key=lambda r: (-r.total_clicks, r.text))
    head = [r.text for r in records[: len(records) // 3]]
    cache = RewriteCache()
    filled = cache.populate(offline_rewriter, head, k=3)
    print(f"  cache populated: {filled}/{len(head)} head queries")

    print("\n== online: replaying zipf traffic through the pipeline ==")
    pipeline = ServingPipeline(cache, fallback, ServingConfig(max_rewrites=3))
    rng = np.random.default_rng(0)
    weights = np.array([max(r.total_clicks, 1) for r in records], dtype=float)
    weights /= weights.sum()
    latencies = WindowedStats(window=400)
    for _ in range(400):
        record = records[int(rng.choice(len(records), p=weights))]
        latencies.record(pipeline.serve(record.text).latency_ms)

    stats = pipeline.stats
    print(f"  requests          : {stats.total}")
    print(f"  cache tier        : {stats.cache_served / stats.total:.1%}")
    print(f"  q2q model tier    : {stats.model_served / stats.total:.1%}")
    print(f"  unserved          : {stats.unserved / stats.total:.1%}")
    print(f"  mean latency      : {latencies.mean_latency_ms():.2f} ms")
    print(f"  p99 latency       : {latencies.p99_latency_ms():.2f} ms")

    print("\n== sample served rewrites ==")
    for text in [records[0].text, records[len(records) // 2].text]:
        served = pipeline.serve(text)
        print(f"  [{served.source:5s}] {text!r} -> {served.rewrites}")


if __name__ == "__main__":
    main()
