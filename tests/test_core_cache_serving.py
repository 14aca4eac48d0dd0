"""Rewrite cache (bounded sharded LRU) and the two-tier serving pipeline."""

import gc

import pytest

from repro.core import (
    RewriteCache,
    ServingConfig,
    ServingPipeline,
    sum_counters,
)
from repro.baselines import RuleBasedRewriter
from repro.core.rewriter import DirectRewriter, RewriteResult, RewriterConfig
from repro.data.synonyms import build_rule_dictionary
from repro.models import HybridNMT, ModelConfig


class StubRewriter:
    """Deterministic rewriter for serving tests."""

    def __init__(self, mapping=None):
        self.mapping = mapping or {}
        self.calls = 0

    def rewrite(self, query, k=3):
        self.calls += 1
        rewrites = self.mapping.get(query, [])
        return [RewriteResult(tokens=tuple(r.split()), log_prob=-1.0) for r in rewrites[:k]]


class BatchStubRewriter(StubRewriter):
    """Stub with batch support, recording the batches it received."""

    def __init__(self, mapping=None):
        super().__init__(mapping)
        self.batches: list[list[str]] = []

    def rewrite_batch(self, queries, k=3):
        self.batches.append(list(queries))
        return [super(BatchStubRewriter, self).rewrite(q, k) for q in queries]


class TestRewriteCache:
    def test_put_get_roundtrip(self):
        cache = RewriteCache()
        cache.put("Senior Phone", ["senior mobile phone"])
        assert cache.get("senior  phone") == ["senior mobile phone"]  # normalized

    def test_miss_returns_none_and_counts(self):
        cache = RewriteCache()
        assert cache.get("unknown") is None
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.0

    def test_hit_rate(self):
        cache = RewriteCache()
        cache.put("a", ["b"])
        cache.get("a")
        cache.get("a")
        cache.get("z")
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_contains_and_len(self):
        cache = RewriteCache()
        cache.put("a", ["b"])
        assert "a" in cache
        assert "b" not in cache
        assert len(cache) == 1

    def test_get_returns_copy(self):
        cache = RewriteCache()
        cache.put("a", ["b"])
        result = cache.get("a")
        result.append("mutation")
        assert cache.get("a") == ["b"]

    def test_populate(self):
        cache = RewriteCache()
        rewriter = StubRewriter({"q1": ["r1"], "q2": []})
        filled = cache.populate(rewriter, ["q1", "q2"], k=3)
        assert filled == 1
        assert cache.get("q1") == ["r1"]
        assert cache.get("q2") is None


class TestBatchedWarm:
    """``populate`` decodes heads in stacked chunks of 8 through
    ``rewrite_many``, the dispatch ``serve_batch`` uses, and writes the
    entries in input order."""

    @staticmethod
    def _direct(vocab):
        model = HybridNMT(
            ModelConfig(
                vocab_size=len(vocab), d_model=16, num_heads=2, d_ff=32,
                encoder_layers=1, decoder_layers=1, dropout=0.0, seed=3,
            )
        )
        return DirectRewriter(
            model, vocab, RewriterConfig(k=3, top_n=5, max_query_len=8, seed=11)
        )

    @staticmethod
    def _heads(market, count=20):
        queries = dict.fromkeys(" ".join(q) for q, _, _ in market.train_pairs)
        return list(queries)[:count]

    def test_direct_rewriter_warms_in_chunks_of_eight(self, tiny_market):
        heads = self._heads(tiny_market)
        warmed = self._direct(tiny_market.vocab)
        sizes = []
        rewrite_batch = warmed.rewrite_batch

        def counted(queries, k=None):
            sizes.append(len(queries))
            return rewrite_batch(queries, k=k)

        warmed.rewrite_batch = counted
        cache = RewriteCache()
        filled = cache.populate(warmed, heads, k=3)
        assert sizes == [8, 8, 4]

        # The same chunked calls on a fresh rewriter with the same seed.
        fresh = self._direct(tiny_market.vocab)
        expected = {}
        for start in range(0, len(heads), 8):
            chunk = heads[start:start + 8]
            for query, results in zip(chunk, fresh.rewrite_batch(chunk, k=3)):
                expected[query] = [r.text for r in results] or None
        assert filled == sum(v is not None for v in expected.values()) > 0
        assert {query: cache.get(query) for query in heads} == expected

    def test_rewriter_without_batch_gets_one_rewrite_per_head(self, tiny_market):
        heads = self._heads(tiny_market)
        rules = build_rule_dictionary()
        warmed = RuleBasedRewriter(rules)
        seen = []
        rewrite = warmed.rewrite

        def counted(query, k=3):
            seen.append(query)
            return rewrite(query, k=k)

        warmed.rewrite = counted
        cache = RewriteCache()
        filled = cache.populate(warmed, heads, k=3)
        assert seen == heads

        fresh = RuleBasedRewriter(rules)
        expected = {
            query: [r.text for r in fresh.rewrite(query, k=3)] or None
            for query in heads
        }
        assert filled == sum(v is not None for v in expected.values()) > 0
        assert {query: cache.get(query) for query in heads} == expected

    def test_entries_are_written_in_input_order(self):
        heads = [f"head {i}" for i in range(10)]
        rewriter = BatchStubRewriter({query: [f"{query} rewrite"] for query in heads})
        cache = RewriteCache(capacity=4, shards=1)
        assert cache.populate(rewriter, heads, k=3) == 10
        assert rewriter.batches == [heads[:8], heads[8:]]
        # The bounded LRU keeps the last four written, as a head-by-head
        # warm leaves it.
        assert [query in cache for query in heads] == [False] * 6 + [True] * 4


class TestBoundedCache:
    def test_capacity_never_exceeded(self):
        cache = RewriteCache(capacity=8, shards=4)
        for i in range(100):
            cache.put(f"query number {i}", [f"rewrite {i}"])
            assert len(cache) <= 8
        assert cache.stats.evictions == 100 - len(cache)

    def test_lru_eviction_order(self):
        cache = RewriteCache(capacity=2)
        cache.put("a", ["ra"])
        cache.put("b", ["rb"])
        cache.put("c", ["rc"])  # evicts a (least recently used)
        assert cache.get("a") is None
        assert cache.get("b") == ["rb"]
        assert cache.get("c") == ["rc"]
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = RewriteCache(capacity=2)
        cache.put("a", ["ra"])
        cache.put("b", ["rb"])
        assert cache.get("a") == ["ra"]  # a is now most recent
        cache.put("c", ["rc"])  # evicts b, not a
        assert cache.get("a") == ["ra"]
        assert cache.get("b") is None

    def test_put_refreshes_recency(self):
        cache = RewriteCache(capacity=2)
        cache.put("a", ["ra"])
        cache.put("b", ["rb"])
        cache.put("a", ["ra2"])  # refresh, no eviction
        assert cache.stats.evictions == 0
        cache.put("c", ["rc"])  # evicts b
        assert cache.get("a") == ["ra2"]
        assert cache.get("b") is None

    def test_shard_distribution(self):
        cache = RewriteCache(capacity=64, shards=4)
        for i in range(64):
            cache.put(f"some query text {i}", ["r"])
        occupancy = cache.shard_occupancy()
        assert len(occupancy) == 4
        assert sum(occupancy) == len(cache) == 64
        # The crc32 hash spreads keys: every shard holds something, and no
        # shard exceeds its per-shard budget (capacity split evenly).
        assert all(0 < n <= 16 for n in occupancy)

    def test_per_shard_eviction_counters(self):
        cache = RewriteCache(capacity=4, shards=2)
        for i in range(40):
            cache.put(f"query {i}", ["r"])
        assert sum(cache.shard_evictions()) == cache.stats.evictions > 0

    def test_ttl_expiry(self):
        now = [0.0]
        cache = RewriteCache(ttl_seconds=10, clock=lambda: now[0])
        cache.put("a", ["ra"])
        assert cache.get("a") == ["ra"]
        now[0] = 10.5
        assert "a" not in cache
        assert cache.get("a") is None
        assert cache.stats.expirations == 1
        assert len(cache) == 0  # collected on access

    def test_ttl_refreshed_by_put(self):
        now = [0.0]
        cache = RewriteCache(ttl_seconds=10, clock=lambda: now[0])
        cache.put("a", ["ra"])
        now[0] = 8.0
        cache.put("a", ["ra2"])  # re-stamped
        now[0] = 12.0
        assert cache.get("a") == ["ra2"]

    def test_fill_ratio(self):
        cache = RewriteCache(capacity=4)
        assert cache.fill_ratio == 0.0
        cache.put("a", ["r"])
        assert cache.fill_ratio == pytest.approx(0.25)
        unbounded = RewriteCache()
        unbounded.put("a", ["r"])
        assert unbounded.fill_ratio == 0.0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RewriteCache(shards=0)
        with pytest.raises(ValueError):
            RewriteCache(capacity=2, shards=4)
        with pytest.raises(ValueError):
            RewriteCache(ttl_seconds=0)

    def test_unbounded_default_never_evicts(self):
        cache = RewriteCache()
        for i in range(500):
            cache.put(f"q{i}", ["r"])
        assert len(cache) == 500
        assert cache.stats.evictions == 0


class TestCacheExpiryRegressions:
    """Expired entries must be collected on ANY access path, and capacity
    pressure must never evict a live entry while an expired one survives."""

    def test_contains_collects_expired_entry(self):
        # Regression: __contains__ used to detect expiry but leave the
        # entry occupying capacity, uncounted.
        now = [0.0]
        cache = RewriteCache(ttl_seconds=10, clock=lambda: now[0])
        cache.put("a", ["ra"])
        now[0] = 11.0
        assert "a" not in cache
        assert len(cache) == 0
        assert cache.stats.expirations == 1
        # Collected exactly once: the follow-up get is a plain miss.
        assert cache.get("a") is None
        assert cache.stats.expirations == 1
        assert cache.stats.misses == 1

    def test_expired_entry_never_forces_live_eviction(self):
        # Regression: a get() refreshed an entry's recency without
        # re-stamping its TTL, so an *expired* entry could sit at the MRU
        # end while a *live* one sat at the LRU front — and put() evicted
        # the live one.
        now = [0.0]
        cache = RewriteCache(capacity=2, ttl_seconds=10, clock=lambda: now[0])
        cache.put("x", ["rx"])  # written t=0
        now[0] = 6.0
        cache.put("y", ["ry"])  # written t=6
        now[0] = 7.0
        assert cache.get("x") == ["rx"]  # x now MRU; y is the LRU front
        now[0] = 12.0  # x expired (age 12 > 10), y live (age 6)
        cache.put("z", ["rz"])
        assert cache.get("y") == ["ry"]  # pre-fix: y was evicted here
        assert cache.get("z") == ["rz"]
        assert cache.get("x") is None
        assert cache.stats.evictions == 0
        assert cache.stats.expirations == 1

    def test_live_entries_still_evict_lru_when_nothing_expired(self):
        now = [0.0]
        cache = RewriteCache(capacity=2, ttl_seconds=100, clock=lambda: now[0])
        cache.put("a", ["ra"])
        cache.put("b", ["rb"])
        cache.put("c", ["rc"])
        assert cache.get("a") is None
        assert cache.stats.evictions == 1
        assert cache.stats.expirations == 0


class TestFreshnessApis:
    """delete / purge_expired / stored_at / expiring_within — the surface
    the online freshness controller drives."""

    def test_delete_removes_without_counting(self):
        cache = RewriteCache()
        cache.put("a", ["r"])
        assert cache.delete("A ") is True  # normalized key
        assert cache.delete("a") is False
        assert len(cache) == 0
        assert cache.stats.evictions == 0
        assert cache.stats.expirations == 0

    def test_purge_expired_sweeps_all_shards(self):
        now = [0.0]
        cache = RewriteCache(shards=2, ttl_seconds=10, clock=lambda: now[0])
        for i in range(6):
            cache.put(f"query {i}", ["r"])
        now[0] = 5.0
        cache.put("late", ["r"])
        now[0] = 12.0  # the first six expired; "late" is live
        assert cache.purge_expired() == 6
        assert cache.stats.expirations == 6
        assert len(cache) == 1
        assert cache.get("late") == ["r"]
        assert cache.purge_expired() == 0

    def test_purge_correct_after_refresh_moves_expiry_forward(self):
        # The earliest-expiry fast path must stay conservative when an
        # entry is re-put (its old, earlier expiry no longer exists).
        now = [0.0]
        cache = RewriteCache(ttl_seconds=10, clock=lambda: now[0])
        cache.put("a", ["r"])
        now[0] = 5.0
        cache.put("a", ["r2"])  # re-stamped: expires at 15, not 10
        now[0] = 12.0
        assert cache.purge_expired() == 0  # nothing actually expired
        assert cache.get("a") == ["r2"]
        now[0] = 16.0
        assert cache.purge_expired() == 1

    def test_purge_expired_without_ttl_is_noop(self):
        cache = RewriteCache()
        cache.put("a", ["r"])
        assert cache.purge_expired() == 0
        assert len(cache) == 1

    def test_stored_at_is_a_pure_peek(self):
        now = [3.0]
        cache = RewriteCache(capacity=2, ttl_seconds=10, clock=lambda: now[0])
        cache.put("a", ["ra"])
        assert cache.stored_at("a") == 3.0
        assert cache.stored_at("missing") is None
        # No hit/miss accounting...
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0
        # ...and no LRU refresh: "a" is still the eviction victim.
        cache.put("b", ["rb"])
        cache.put("c", ["rc"])
        assert cache.get("a") is None
        # Expired entries read as absent (and are not collected by a peek).
        now[0] = 20.0
        assert cache.stored_at("b") is None

    def test_expiring_within_margin(self):
        now = [0.0]
        cache = RewriteCache(ttl_seconds=10, clock=lambda: now[0])
        cache.put("early bird", ["r"])  # expires at t=10
        now[0] = 5.0
        cache.put("late riser", ["r"])  # expires at t=15
        now[0] = 7.0
        assert cache.expiring_within(1.0) == []
        assert cache.expiring_within(4.0) == ["early bird"]
        assert sorted(cache.expiring_within(10.0)) == ["early bird", "late riser"]

    def test_expiring_within_without_ttl_is_empty(self):
        cache = RewriteCache()
        cache.put("a", ["r"])
        assert cache.expiring_within(1e9) == []


class TestCachedEmptyServing:
    """A cache hit whose rewrite list truncates to empty is an
    authoritative answer, not a miss to re-decode every request."""

    def test_cached_empty_served_from_cache_tier(self):
        cache = RewriteCache()
        cache.put("q", [])  # negative entry stored directly
        fallback = StubRewriter({"q": ["model rewrite"]})
        pipeline = ServingPipeline(cache, fallback)
        for _ in range(3):
            served = pipeline.serve("q")
            assert served.source == "cache"
            assert served.rewrites == []
        # Regression: every one of these used to pay a model decode.
        assert fallback.calls == 0
        assert pipeline.stats.cache_served == 3
        assert pipeline.stats.model_served == 0

    def test_max_rewrites_zero_truncation_still_a_hit(self):
        cache = RewriteCache()
        cache.put("q", ["a", "b"])
        fallback = StubRewriter({"q": ["m"]})
        pipeline = ServingPipeline(cache, fallback, ServingConfig(max_rewrites=0))
        served = pipeline.serve("q")
        assert served.source == "cache"
        assert served.rewrites == []
        assert fallback.calls == 0
        assert cache.stats.hits == 1

    def test_serve_batch_cached_empty_accounting(self):
        cache = RewriteCache()
        cache.put("negative", [])
        fallback = BatchStubRewriter({"tail": ["model rewrite"]})
        pipeline = ServingPipeline(cache, fallback)
        served = pipeline.serve_batch(["negative", "tail"])
        assert [s.source for s in served] == ["cache", "model"]
        # Only the true miss reached the batched decode.
        assert fallback.batches == [["tail"]]
        assert pipeline.stats.cache_served == 1
        assert pipeline.stats.model_served == 1

    def test_unservable_results_never_written_back(self):
        cache = RewriteCache()
        fallback = StubRewriter({"q": ["m"]})
        pipeline = ServingPipeline(
            cache, fallback, ServingConfig(max_rewrites=0, cache_model_results=True)
        )
        served = pipeline.serve("q")
        assert served.source == "none"
        assert len(cache) == 0  # nothing unservable stored


class TestServeBatch:
    def test_mixed_batch_tier_accounting(self):
        cache = RewriteCache()
        cache.put("head", ["cached rewrite"])
        fallback = BatchStubRewriter({"tail": ["model rewrite"]})
        pipeline = ServingPipeline(cache, fallback)
        served = pipeline.serve_batch(["head", "tail", "unknown"])
        assert [s.source for s in served] == ["cache", "model", "none"]
        assert [s.query for s in served] == ["head", "tail", "unknown"]
        assert all(s.latency_ms >= 0.0 for s in served)
        stats = pipeline.stats
        assert stats.cache_served == 1
        assert stats.model_served == 1
        assert stats.unserved == 1
        assert stats.total == 3
        assert stats.batches == 1

    def test_misses_share_one_batched_call(self):
        fallback = BatchStubRewriter({"t1": ["r1"], "t2": ["r2"]})
        pipeline = ServingPipeline(RewriteCache(), fallback)
        pipeline.serve_batch(["t1", "t2"])
        assert fallback.batches == [["t1", "t2"]]
        assert fallback.calls == 2  # via the batch path only

    def test_cache_hits_bypass_model(self):
        cache = RewriteCache()
        cache.put("head", ["cached"])
        fallback = BatchStubRewriter({"head": ["model"]})
        pipeline = ServingPipeline(cache, fallback)
        served = pipeline.serve_batch(["head", "head"])
        assert fallback.batches == []
        assert all(s.source == "cache" for s in served)

    def test_falls_back_to_per_query_rewrite(self):
        fallback = StubRewriter({"t": ["r"]})  # no rewrite_batch
        pipeline = ServingPipeline(RewriteCache(), fallback)
        served = pipeline.serve_batch(["t", "t"])
        assert [s.source for s in served] == ["model", "model"]
        assert fallback.calls == 2

    def test_max_rewrites_enforced(self):
        cache = RewriteCache()
        cache.put("q", ["a", "b", "c", "d"])
        fallback = BatchStubRewriter({"t": ["1", "2", "3", "4"]})
        pipeline = ServingPipeline(cache, fallback, ServingConfig(max_rewrites=2))
        served = pipeline.serve_batch(["q", "t"])
        assert len(served[0].rewrites) == 2
        assert len(served[1].rewrites) == 2

    def test_empty_batch(self):
        pipeline = ServingPipeline(RewriteCache(), StubRewriter())
        assert pipeline.serve_batch([]) == []
        assert pipeline.stats.total == 0
        assert pipeline.stats.batches == 0

    def test_no_fallback_counts_unserved(self):
        pipeline = ServingPipeline(RewriteCache(), None)
        served = pipeline.serve_batch(["a", "b"])
        assert all(s.source == "none" for s in served)
        assert pipeline.stats.unserved == 2

    def test_model_writeback_promotes_and_respects_capacity(self):
        cache = RewriteCache(capacity=2, shards=1)
        fallback = BatchStubRewriter({f"t{i}": [f"r{i}"] for i in range(6)})
        pipeline = ServingPipeline(
            cache, fallback, ServingConfig(cache_model_results=True)
        )
        pipeline.serve_batch([f"t{i}" for i in range(6)])
        assert len(cache) <= 2
        assert pipeline.cache.stats.evictions > 0
        # The promoted entries now hit the cache tier.
        served = pipeline.serve_batch(["t5"])
        assert served[0].source == "cache"

    def test_cache_gauges_read_from_the_cache(self):
        cache = RewriteCache(capacity=4, shards=2)
        pipeline = ServingPipeline(cache, None)
        cache.put("a", ["r"])
        pipeline.serve_batch(["a"])
        assert pipeline.cache.fill_ratio == pytest.approx(0.25)
        assert sum(pipeline.cache.shard_occupancy()) == 1
        assert len(pipeline.cache.shard_occupancy()) == 2


class TestServingPipeline:
    def test_cache_tier_served_first(self):
        cache = RewriteCache()
        cache.put("head query", ["cached rewrite"])
        fallback = StubRewriter({"head query": ["model rewrite"]})
        pipeline = ServingPipeline(cache, fallback)
        served = pipeline.serve("head query")
        assert served.source == "cache"
        assert served.rewrites == ["cached rewrite"]
        assert fallback.calls == 0

    def test_model_tier_on_miss(self):
        fallback = StubRewriter({"tail query": ["model rewrite"]})
        pipeline = ServingPipeline(RewriteCache(), fallback)
        served = pipeline.serve("tail query")
        assert served.source == "model"
        assert served.rewrites == ["model rewrite"]

    def test_unserved_when_nothing_available(self):
        pipeline = ServingPipeline(RewriteCache(), StubRewriter())
        served = pipeline.serve("nothing")
        assert served.source == "none"
        assert served.rewrites == []

    def test_max_rewrites_enforced(self):
        cache = RewriteCache()
        cache.put("q", ["a", "b", "c", "d", "e"])
        pipeline = ServingPipeline(cache, None, ServingConfig(max_rewrites=2))
        assert len(pipeline.serve("q").rewrites) == 2

    def test_stats_accumulate(self):
        cache = RewriteCache()
        cache.put("hit", ["r"])
        pipeline = ServingPipeline(cache, StubRewriter({"model": ["m"]}))
        served = [pipeline.serve(q) for q in ("hit", "model", "none")]
        assert all(s.latency_ms >= 0.0 for s in served)
        stats = pipeline.stats
        assert stats.cache_served == 1
        assert stats.model_served == 1
        assert stats.unserved == 1
        assert stats.total == 3

    def test_cache_only_pipeline(self):
        cache = RewriteCache()
        cache.put("q", ["r"])
        pipeline = ServingPipeline(cache, None)
        assert pipeline.serve("q").source == "cache"
        assert pipeline.serve("other").source == "none"


class StubSearchEngine:
    """Deterministic retrieval engine: doc ids keyed by sorted token set."""

    def __init__(self):
        self.calls: list[tuple[str, tuple[str, ...]]] = []

    def search(self, query, rewrites=None):
        from repro.search import SearchOutcome

        rewrites = rewrites or []
        self.calls.append((query, tuple(rewrites)))
        n = len(query.split()) + len(rewrites)
        return SearchOutcome(
            query=query,
            rewrites=list(rewrites),
            doc_ids=list(range(n)),
            postings_accessed=10 * n,
            tree_nodes=n,
            num_trees=1,
        )


class TestSearchBatch:
    def test_requires_engine(self):
        pipeline = ServingPipeline(RewriteCache(), None)
        with pytest.raises(ValueError):
            pipeline.search_batch(["q"])

    def test_rewrites_feed_retrieval(self):
        cache = RewriteCache()
        cache.put("head query", ["head rewrite one", "head rewrite two"])
        engine = StubSearchEngine()
        pipeline = ServingPipeline(cache, None, search_engine=engine)
        results = pipeline.search_batch(["head query"])
        assert engine.calls == [("head query", ("head rewrite one", "head rewrite two"))]
        assert results[0].query == "head query"
        assert results[0].served.source == "cache"
        assert results[0].doc_ids
        assert results[0].postings_accessed > 0

    def test_batch_order_and_tiers(self):
        cache = RewriteCache()
        cache.put("hit", ["cached rewrite"])
        fallback = BatchStubRewriter({"miss": ["model rewrite"]})
        engine = StubSearchEngine()
        pipeline = ServingPipeline(cache, fallback, search_engine=engine)
        results = pipeline.search_batch(["hit", "miss", "nothing"])
        assert [r.query for r in results] == ["hit", "miss", "nothing"]
        assert [r.served.source for r in results] == ["cache", "model", "none"]
        # one stacked decode for the two misses
        assert fallback.batches == [["miss", "nothing"]]
        # unserved queries still retrieve on the original query alone
        assert engine.calls[-1] == ("nothing", ())

    def test_untokenizable_query_yields_empty_docs(self):
        engine = StubSearchEngine()
        pipeline = ServingPipeline(RewriteCache(), None, search_engine=engine)
        results = pipeline.search_batch(["   "])
        assert results[0].doc_ids == []
        assert results[0].postings_accessed == 0
        assert engine.calls == []  # never reached the engine

    def test_stats_accumulate_postings(self):
        cache = RewriteCache()
        cache.put("a", ["r1"])
        cache.put("b", ["r2"])
        engine = StubSearchEngine()
        pipeline = ServingPipeline(cache, None, search_engine=engine)
        pipeline.search_batch(["a", "b"])
        assert pipeline.stats.search_requests == 2
        assert pipeline.stats.search_postings_accessed == sum(
            10 * (len(q.split()) + 1) for q in ("a", "b")
        )

    def test_latency_includes_retrieval(self):
        cache = RewriteCache()
        cache.put("q", ["r"])
        pipeline = ServingPipeline(cache, None, search_engine=StubSearchEngine())
        result = pipeline.search_batch(["q"])[0]
        assert result.latency_ms >= result.served.latency_ms

    def test_end_to_end_with_real_engine(self, tiny_market):
        from repro.search import SearchConfig, SearchEngine

        engine = SearchEngine(tiny_market.catalog, SearchConfig(max_candidates=10))
        cache = RewriteCache()
        cache.put("mobile phone", ["senior mobile phone"])
        pipeline = ServingPipeline(cache, None, search_engine=engine)
        result = pipeline.search_batch(["mobile phone"])[0]
        assert result.served.source == "cache"
        assert result.doc_ids
        assert all(
            tiny_market.catalog.get(d).category == "phone" for d in result.doc_ids
        )


class ModalStubSearchEngine(StubSearchEngine):
    """A stub that serves named retrieval modes and reports a backend."""

    retrieval_modes = ("lexical", "semantic")
    default_mode = "lexical"

    def search(self, query, rewrites=None, mode=None):
        outcome = super().search(query, rewrites)
        outcome.mode = mode or self.default_mode
        return outcome

    def cluster_stats(self):
        return {"backend": "stub", "failovers": 2, "rerouted_requests": 3}


COUNTER_KEYS = [
    "cache_served",
    "model_served",
    "unserved",
    "batches",
    "admitted",
    "shed",
    "search_requests",
    "search_postings_accessed",
    "search_by_mode",
    "cache_evictions",
    "cache_expirations",
    "cache_fill_ratio",
    "cache_shard_occupancy",
    "search_backend",
    "failovers",
    "rerouted_requests",
]
TOTAL_KEYS = [
    "cache_served",
    "model_served",
    "unserved",
    "batches",
    "admitted",
    "shed",
    "search_requests",
    "search_postings_accessed",
    "cache_evictions",
    "cache_expirations",
    "failovers",
    "rerouted_requests",
    "search_by_mode",
]


def _busy_pipeline(modes):
    """A pipeline that has served hits, misses, evictions and searches."""
    cache = RewriteCache(capacity=2, shards=1)
    cache.put("hit", ["cached rewrite"])
    fallback = BatchStubRewriter({f"t{i}": [f"r{i}"] for i in range(4)})
    pipeline = ServingPipeline(
        cache,
        fallback,
        ServingConfig(cache_model_results=True),
        search_engine=ModalStubSearchEngine(),
    )
    pipeline.serve_batch(["hit", "t0", "t1", "t2", "nothing"])
    pipeline.search_batch(["hit", "t3", "other"], modes=modes)
    return pipeline


class TestCounters:
    def test_counters_key_order(self):
        pipeline = _busy_pipeline("lexical")
        assert list(pipeline.counters()) == COUNTER_KEYS

    def test_sum_counters_key_order(self):
        pipelines = [_busy_pipeline("lexical"), _busy_pipeline("semantic")]
        totals = sum_counters([p.counters() for p in pipelines])
        assert list(totals) == TOTAL_KEYS
        assert list(totals)[-1] == "search_by_mode"

    def test_totals_are_per_key_sums(self):
        pipelines = [
            _busy_pipeline("lexical"),
            _busy_pipeline(["semantic", None, "lexical"]),
        ]
        per_pipeline = [p.counters() for p in pipelines]
        totals = sum_counters([p.counters() for p in pipelines])
        for key in TOTAL_KEYS[:-1]:
            assert totals[key] == sum(c[key] for c in per_pipeline), key
        assert totals["cache_evictions"] > 0
        assert totals["failovers"] == 4
        assert totals["search_by_mode"] == {"lexical": 5, "semantic": 1}

    def test_gauges_never_summed(self):
        pipelines = [_busy_pipeline("lexical"), _busy_pipeline("lexical")]
        totals = sum_counters([p.counters() for p in pipelines])
        for gauge in ("cache_fill_ratio", "cache_shard_occupancy", "search_backend"):
            assert gauge not in totals

    def test_cache_gauges_read_at_read_time(self):
        cache = RewriteCache(capacity=8, shards=2)
        cache.put("a", ["r"])
        cache.put("b", ["r"])
        pipeline = ServingPipeline(cache, None)
        assert pipeline.serve("a").source == "cache"
        assert cache.delete("a")
        counters = pipeline.counters()
        assert counters["cache_fill_ratio"] == cache.fill_ratio == pytest.approx(1 / 8)
        assert counters["cache_shard_occupancy"] == cache.shard_occupancy()
        assert sum(counters["cache_shard_occupancy"]) == 1

    def test_search_backend_reported_before_first_search(self):
        pipeline = ServingPipeline(
            RewriteCache(), None, search_engine=ModalStubSearchEngine()
        )
        counters = pipeline.counters()
        assert counters["search_backend"] == "stub"
        assert (counters["failovers"], counters["rerouted_requests"]) == (2, 3)


def _reachable(root) -> int:
    """How many objects a ``gc.get_referents`` walk reaches from ``root``
    (classes excluded: they reach every module)."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def test_serving_stats_memory_is_bounded():
    cache = RewriteCache()
    for i in range(10):
        cache.put(f"q{i}", [f"r{i}"])
    pipeline = ServingPipeline(cache, None)
    batch = [f"q{i % 12}" for i in range(50)]
    reachable = {}
    for served in range(0, 50_000 + 1, len(batch)):
        if served in (5_000, 50_000):
            reachable[served] = _reachable(pipeline.stats)
        pipeline.serve_batch(batch)
    assert pipeline.stats.total > 50_000
    assert reachable[5_000] == reachable[50_000]
