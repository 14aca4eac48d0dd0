"""Round-trip equivalence: saved-and-loaded indexes ARE the live ones.

The persistence contract of :mod:`repro.store` is exact-state restore:
an engine loaded from segments returns **identical** ``(doc_id, score)``
rankings to the in-RAM engine it was saved from — same oracle style as
``tests/test_search_equivalence.py``, with the disk round-trip replacing
the shard fan-out as the transparency under test.  The suite covers
every wired ``save``/``load`` surface (single ``InvertedIndex`` /
``VectorIndex`` files, sharded stores at 1/2/4/8 shards, the hybrid
engine's twin stores) across the full segment lifecycle: fresh full
save, churn followed by an incremental delta save, and compaction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.catalog import CATEGORY_SPECS, CatalogConfig, CatalogGenerator
from repro.embedding import DualEncoder, DualEncoderConfig
from repro.search import (
    HybridConfig,
    HybridSearchEngine,
    SearchConfig,
    ShardedSearchEngine,
    ShardedVectorIndex,
    VectorIndex,
)
from repro.search.inverted_index import InvertedIndex
from repro.store import SegmentStore

TOP_K = 15
NUM_QUERIES = 25
DIM = 12


def sample_query(rng: np.random.Generator, products) -> str:
    """A 1-3 token query from a live title (sometimes plus an OOV token)."""
    title = list(products[int(rng.integers(0, len(products)))].title_tokens)
    count = int(rng.integers(1, min(3, len(title)) + 1))
    picks = [title[int(i)] for i in rng.choice(len(title), size=count, replace=False)]
    if rng.random() < 0.2:
        picks.append("xyzzy")
    return " ".join(picks)


def assert_identical_results(live, loaded, rng, *, queries=NUM_QUERIES):
    """Seeded queries must rank identically — doc ids AND scores."""
    for _ in range(queries):
        query = sample_query(rng, live.catalog.products)
        rewrites = [sample_query(rng, live.catalog.products)] if rng.random() < 0.5 else []
        expected = live.search(query, rewrites)
        got = loaded.search(query, rewrites)
        assert got.doc_ids == expected.doc_ids, query
        assert got.scores == expected.scores, query


def churn(engine, generator, rng, *, adds: int, removes: int):
    """List ``adds`` fresh products, then delist ``removes`` live ones."""
    fresh = generator.sample_products(
        adds, rng, start_id=engine.catalog.next_product_id()
    )
    for product in fresh:
        engine.add_product(product)
    live = sorted(p.product_id for p in engine.catalog.products)
    victims = [int(live[int(i)]) for i in rng.choice(len(live), size=removes, replace=False)]
    for victim in victims:
        engine.remove_product(victim)
    return fresh


class TestShardedLexicalRoundtrip:
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("ranker", ["bm25", "overlap"])
    def test_fresh_save_restores_identical_rankings(self, tmp_path, num_shards, ranker):
        generator = CatalogGenerator(CatalogConfig(products_per_category=8, seed=3))
        config = SearchConfig(max_candidates=TOP_K, ranker=ranker)
        live = ShardedSearchEngine(
            generator.generate(), config, num_shards=num_shards, parallel=False
        )
        live.save(tmp_path)
        loaded = ShardedSearchEngine.load(live.catalog, tmp_path, config, parallel=False)
        assert loaded.index.document_ids() == live.index.document_ids()
        assert_identical_results(
            live, loaded, np.random.default_rng(10 + num_shards)
        )

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    def test_churn_delta_save_and_compaction_stay_identical(self, tmp_path, num_shards):
        generator = CatalogGenerator(CatalogConfig(products_per_category=8, seed=4))
        config = SearchConfig(max_candidates=TOP_K, ranker="bm25")
        live = ShardedSearchEngine(
            generator.generate(), config, num_shards=num_shards, parallel=False
        )
        rng = np.random.default_rng(20 + num_shards)
        live.save(tmp_path)

        # Light churn -> the second save extends the chains with deltas.
        churn(live, generator, rng, adds=6, removes=4)
        manifest = live.save(tmp_path)
        assert manifest.generation == 2
        assert any(not ref.is_full for ref in manifest.segments)
        loaded = ShardedSearchEngine.load(live.catalog, tmp_path, config, parallel=False)
        assert loaded.index.document_ids() == live.index.document_ids()
        assert_identical_results(live, loaded, rng)

        # Compaction folds the chains back into one full per shard...
        store = SegmentStore(tmp_path, "lexical")
        compacted = store.compact()
        assert all(ref.is_full for ref in compacted.segments)
        assert len(list(tmp_path.glob("*.seg"))) == num_shards
        # ...without changing a single ranking.
        loaded = ShardedSearchEngine.load(live.catalog, tmp_path, config, parallel=False)
        assert_identical_results(live, loaded, rng)

    def test_heavy_churn_triggers_full_rewrite_not_delta(self, tmp_path):
        generator = CatalogGenerator(CatalogConfig(products_per_category=6, seed=5))
        live = ShardedSearchEngine(
            generator.generate(), SearchConfig(ranker="bm25"), num_shards=2,
            parallel=False,
        )
        rng = np.random.default_rng(5)
        live.save(tmp_path)
        docs = len(live.index)
        churn(live, generator, rng, adds=docs, removes=docs // 2)
        manifest = live.save(tmp_path)
        # Churn touched more than half of every shard: delta replay would
        # cost more than a rewrite, so the store must write fresh fulls.
        assert all(ref.is_full for ref in manifest.segments)
        loaded = ShardedSearchEngine.load(
            live.catalog, tmp_path, SearchConfig(ranker="bm25"), parallel=False
        )
        assert_identical_results(live, loaded, rng)

    def test_noop_save_keeps_the_manifest_generation(self, tmp_path):
        generator = CatalogGenerator(CatalogConfig(products_per_category=4, seed=6))
        live = ShardedSearchEngine(
            generator.generate(), SearchConfig(ranker="bm25"), num_shards=2,
            parallel=False,
        )
        first = live.save(tmp_path)
        again = live.save(tmp_path)
        assert again.generation == first.generation
        assert [ref.name for ref in again.segments] == [
            ref.name for ref in first.segments
        ]


class TestInvertedIndexSingleFile:
    def test_roundtrip_restores_every_private_structure(self, tmp_path):
        generator = CatalogGenerator(CatalogConfig(products_per_category=5, seed=7))
        index = InvertedIndex()
        for product in generator.generate().products:
            index.add_document(product.product_id, product.title_tokens)
        path = tmp_path / "one.seg"
        index.save(path)
        loaded = InvertedIndex.load(path)
        for got, want in zip(loaded.postings_table(), index.postings_table()):
            np.testing.assert_array_equal(got, want)
        assert {t: v.dtype for t, v in loaded._tfs.items()} == {
            t: v.dtype for t, v in index._tfs.items()
        }
        assert loaded._dfs == index._dfs
        assert loaded._docs == index._docs
        assert [loaded.doc_length(d) for d in loaded.document_ids()] == [
            index.doc_length(d) for d in index.document_ids()
        ]
        assert loaded.total_doc_length == index.total_doc_length
        assert loaded.avg_doc_length == index.avg_doc_length

    def test_empty_index_roundtrips(self, tmp_path):
        path = tmp_path / "empty.seg"
        InvertedIndex().save(path)
        loaded = InvertedIndex.load(path)
        assert len(loaded) == 0
        assert loaded.num_terms == 0


class TestVectorRoundtrip:
    @staticmethod
    def _vectors(n: int, rng) -> np.ndarray:
        mat = rng.standard_normal((n, DIM))
        return mat / np.linalg.norm(mat, axis=1, keepdims=True)

    def test_single_file_roundtrip_matches_probe_and_brute_force(self, tmp_path):
        rng = np.random.default_rng(11)
        vectors = self._vectors(120, rng)
        index = VectorIndex(DIM, num_clusters=6, seed=1)
        index.fit(list(range(120)), vectors)
        path = tmp_path / "cells.seg"
        index.save(path)
        loaded = VectorIndex.load(path)
        for i in range(25):
            assert loaded.search(vectors[i], TOP_K) == index.search(vectors[i], TOP_K)
            assert loaded.brute_force(vectors[i], TOP_K) == index.brute_force(
                vectors[i], TOP_K
            )

    def test_untrained_index_roundtrips(self, tmp_path):
        rng = np.random.default_rng(12)
        vectors = self._vectors(10, rng)
        index = VectorIndex(DIM, num_clusters=4, seed=2)
        for i in range(10):
            index.add_document(i, vectors[i])
        path = tmp_path / "flat.seg"
        index.save(path)
        loaded = VectorIndex.load(path)
        assert len(loaded) == len(index)
        for i in range(10):
            assert loaded.search(vectors[i], 5) == index.search(vectors[i], 5)

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded_roundtrip_with_churn_and_compaction(self, tmp_path, num_shards):
        rng = np.random.default_rng(13 + num_shards)
        vectors = self._vectors(160, rng)
        live = ShardedVectorIndex(
            DIM, num_shards=num_shards, num_clusters=5, parallel=False, seed=3
        )
        live.fit(list(range(160)), vectors)
        live.save(tmp_path)
        loaded = ShardedVectorIndex.load(tmp_path, parallel=False)
        for i in range(25):
            assert loaded.search(vectors[i], TOP_K) == live.search(vectors[i], TOP_K)

        # Churn within frozen centroids -> delta save, still identical.
        for doc_id in range(0, 20):
            live.remove_document(doc_id)
        extra = self._vectors(12, rng)
        for offset in range(12):
            live.add_document(200 + offset, extra[offset])
        manifest = live.save(tmp_path)
        assert any(not ref.is_full for ref in manifest.segments)
        loaded = ShardedVectorIndex.load(tmp_path, parallel=False)
        for i in range(20, 45):
            assert loaded.search(vectors[i], TOP_K) == live.search(vectors[i], TOP_K)

        compacted = SegmentStore(tmp_path, "vector").compact()
        assert all(ref.is_full for ref in compacted.segments)
        loaded = ShardedVectorIndex.load(tmp_path, parallel=False)
        for i in range(20, 45):
            assert loaded.search(vectors[i], TOP_K) == live.search(vectors[i], TOP_K)


class TestHybridRoundtrip:
    def test_all_retrieval_modes_restore_identically(self, tmp_path):
        generator = CatalogGenerator(CatalogConfig(products_per_category=6, seed=8))
        catalog = generator.generate()
        from repro.data.clicklog import ClickLogConfig
        from repro.data.marketplace import MarketplaceConfig, generate_marketplace

        market = generate_marketplace(
            MarketplaceConfig(
                catalog=CatalogConfig(products_per_category=6, seed=8),
                clicks=ClickLogConfig(num_sessions=150, intent_pool_size=30),
                seed=8,
            )
        )
        encoder = DualEncoder(market.vocab, DualEncoderConfig(seed=0))
        config = SearchConfig(max_candidates=TOP_K, ranker="bm25")
        hybrid_config = HybridConfig(nprobe=4)
        live = HybridSearchEngine(
            catalog, encoder, config, hybrid_config,
            num_shards=2, num_clusters=6, parallel=False, seed=0,
        )
        live.save(tmp_path)
        loaded = HybridSearchEngine.load(
            tmp_path, catalog, encoder, config, hybrid_config, parallel=False
        )
        rng = np.random.default_rng(30)
        for _ in range(NUM_QUERIES):
            query = sample_query(rng, catalog.products)
            for mode in ("lexical", "semantic", "hybrid"):
                expected = live.search(query, mode=mode)
                got = loaded.search(query, mode=mode)
                assert got.doc_ids == expected.doc_ids, (query, mode)
                assert got.scores == expected.scores, (query, mode)

        # Churn through the live engine, delta-save, reload: still identical
        # in every mode (the delisted products must not resurface anywhere).
        fresh = churn(live, generator, rng, adds=10, removes=6)
        live.save(tmp_path)
        loaded = HybridSearchEngine.load(
            tmp_path, catalog, encoder, config, hybrid_config, parallel=False
        )
        probes = [" ".join(p.title_tokens[:2]) for p in fresh[:5]]
        for query in probes:
            for mode in ("lexical", "semantic", "hybrid"):
                expected = live.search(query, mode=mode)
                got = loaded.search(query, mode=mode)
                assert got.doc_ids == expected.doc_ids, (query, mode)
                assert got.scores == expected.scores, (query, mode)
