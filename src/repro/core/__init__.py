"""The query rewriter — the paper's primary contribution — plus its
production serving tier.

Exported symbols:

* :class:`CyclicRewriter` — the two-hop inference pipeline of Figure 3:
  query → k synthetic titles → k² synthetic queries → merge & top-k by
  ``P(x'|x) = Σ_t P(y_t|x; θ_f) P(x'|y_t; θ_b)``.  Offline use: populating
  the cache tier.
* :class:`DirectRewriter` — the low-latency query-to-query model of
  Section III-G (one decode instead of two); ``rewrite_batch`` decodes
  many queries in one stacked pass for the batched serving path.
* :class:`RewriteResult` — one rewritten query with its log probability
  and (for two-hop rewrites) the synthetic title it came through.
* :class:`RewriterConfig` — inference knobs shared by the rewriters
  (k, top-n pool size, length caps, seed).
* :class:`RewriteCache` / :class:`CacheStats` — the key-value tier
  covering head queries (the paper precomputes the top 8M, ~80% of
  traffic), modeled as a finite resource: capacity-bounded sharded LRU
  with optional TTL and per-shard eviction/occupancy counters.  Expired
  entries are collected (and counted) on every access path, and the
  freshness surface (``delete``/``purge_expired``/``stored_at``/
  ``expiring_within``) lets ``repro.online`` keep the tier fresh under
  catalog churn.
* :class:`ServingPipeline` — cache-first serving with a model fallback;
  ``serve`` handles one request, ``serve_batch`` partitions a batch into
  cache hits and one batched model-tier decode for the misses, and
  ``search_batch`` feeds the batch's rewrites straight into a retrieval
  engine (``repro.search``) for the end-to-end rewrite-then-retrieve
  path (:class:`ServedSearch`).
* :class:`ServingConfig` / :class:`ServingStats` / :class:`ServedRewrite`
  — serving knobs, the pipeline's own tier counters, and the
  per-request outcome record (with its latency).
  ``ServingPipeline.counters()`` adds the cache and cluster gauges, read
  from their owners; :func:`sum_counters` totals those dicts.

The Section V decoder-only LM exploration (``LMRewriter``,
``LMRewriterConfig``, ``build_lm_sequences``) is imported from
:mod:`repro.core.lm_rewriter`, so a server that imports this package
does not load its model and optimizer code.  It has no batch entry:
``serve_batch`` serves such a rewriter per query.
"""

from repro.core.rewriter import CyclicRewriter, DirectRewriter, RewriteResult, RewriterConfig
from repro.core.cache import CacheStats, RewriteCache
from repro.core.serving import (
    ServedRewrite,
    ServedSearch,
    ServingConfig,
    ServingPipeline,
    ServingStats,
    sum_counters,
)

__all__ = [
    "CyclicRewriter",
    "DirectRewriter",
    "RewriteResult",
    "RewriterConfig",
    "RewriteCache",
    "CacheStats",
    "ServingPipeline",
    "ServingConfig",
    "ServingStats",
    "ServedRewrite",
    "ServedSearch",
    "sum_counters",
]
