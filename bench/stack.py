"""The fixed stack every workload runs against.

One place for every size and knob of the serving stack the benchmark
stands up, and the two builders the launcher (``server.py``) and the
in-process twin of the pre-check (``run.py``) share, so both construct
the rewrite tier and the retrieval tier the same way.  The values are
part of the benchmark: changing one moves every metric, so a change that
claims a gain may not touch this file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import RewriteCache, ServingConfig, ServingPipeline
from repro.core.rewriter import DirectRewriter, RewriterConfig
from repro.data.catalog import Catalog
from repro.gateway import GatewayConfig, RateLimitConfig
from repro.models import HybridNMT, ModelConfig
from repro.online.scheduler import SchedulerConfig
from repro.search import SearchConfig, ShardedSearchEngine

NUM_SHARDS = 2
SEARCH = SearchConfig(max_candidates=10)
REWRITER = RewriterConfig(k=3, top_n=5, max_query_len=10, seed=0)
#: model weights are part of the program under test, not an input: the
#: seed is fixed so that decode lengths do not change with ``--seed``
MODEL_SEED = 0
CACHE_CAPACITY = 4096
CACHE_SHARDS = 4
SERVING = ServingConfig(max_rewrites=REWRITER.k, cache_model_results=True)
GATEWAY = GatewayConfig(
    pump_interval_seconds=0.001,
    scheduler=SchedulerConfig(
        max_batch_size=16, max_wait_seconds=0.002, max_queue_depth=4096
    ),
    # out of reach: admission must depend on the workload alone
    rate_limit=RateLimitConfig(rate_per_second=1e9, burst=10**9),
)
#: base products take ids from here up; the ids below are the churn
#: products' (``mixed_open``), which therefore win the ranker's
#: ascending-id tie-break and do show up in served top-k lists
BASE_PRODUCT_ID = 1000
#: at most this many churn products are live at once
MAX_LIVE_CHURN = 64
#: one catalog write per this many searches served (``mixed_open``)
SEARCHES_PER_WRITE = 8


@dataclass(frozen=True)
class Scale:
    """Sizes of one run; ``FULL`` is the benchmark, ``SMOKE`` the test."""

    products: int
    heads: int
    cold_starts: int
    warmup_seconds: float
    precheck_tails: int


FULL = Scale(
    products=20_000, heads=300, cold_starts=4, warmup_seconds=3.0, precheck_tails=32
)
SMOKE = Scale(
    products=2_000, heads=40, cold_starts=1, warmup_seconds=0.3, precheck_tails=4
)
SCALES = {"full": FULL, "smoke": SMOKE}


def build_rewrite_tier(vocab, heads, timings: dict | None = None):
    """Model, rewriter and warmed cache: ``(rewriter, cache)``.

    ``timings`` (optional) receives ``models.build_s`` and
    ``cache.warm_s``.  Deterministic: two calls with equal arguments
    leave equal caches and rewriters in the same RNG state, which is
    what lets the pre-check compare the served stack with a twin.
    """
    started = time.monotonic()
    model = HybridNMT(
        ModelConfig(
            vocab_size=len(vocab),
            d_model=32,
            num_heads=4,
            d_ff=64,
            encoder_layers=1,
            decoder_layers=1,
            dropout=0.0,
            seed=MODEL_SEED,
        )
    )
    rewriter = DirectRewriter(model, vocab, REWRITER)
    built = time.monotonic()
    cache = RewriteCache(capacity=CACHE_CAPACITY, shards=CACHE_SHARDS)
    cache.populate(rewriter, heads, k=REWRITER.k)
    if timings is not None:
        timings["models.build_s"] = built - started
        timings["cache.warm_s"] = time.monotonic() - built
    return rewriter, cache


def build_pipeline(rewriter, cache, engine=None) -> ServingPipeline:
    """The serving pipeline over a built rewrite tier (and engine)."""
    return ServingPipeline(cache, rewriter, SERVING, search_engine=engine)


def load_engine(products, segments_root) -> ShardedSearchEngine:
    """Cold-start the sharded engine: one worker process per shard,
    each decoding its own segment chain from ``segments_root``."""
    return ShardedSearchEngine.load(
        Catalog(products=list(products)), segments_root, SEARCH, backend="process"
    )
