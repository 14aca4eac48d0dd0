"""Inverted index, syntax trees, the merge optimization, and the engine."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.search import (
    AndNode,
    BM25Ranker,
    InvertedIndex,
    OrNode,
    SearchConfig,
    SearchEngine,
    TermNode,
    TermOverlapRanker,
    build_tree,
    make_ranker,
    merge_queries,
    tree_size,
)


@pytest.fixture()
def index():
    idx = InvertedIndex()
    docs = {
        0: ["red", "men", "sock"],
        1: ["red", "men", "breathable", "low-cut-sock"],
        2: ["red", "men", "anklet"],
        3: ["blue", "women", "sock"],
        4: ["red", "women", "sock"],
    }
    for doc_id, tokens in docs.items():
        idx.add_document(doc_id, tokens)
    return idx


class TestInvertedIndex:
    def test_lookup(self, index):
        result = index.lookup("red")
        assert result.doc_ids == {0, 1, 2, 4}
        assert result.postings_accessed == 4

    def test_lookup_unknown_token(self, index):
        result = index.lookup("zzz")
        assert result.doc_ids == set()
        assert result.postings_accessed == 0

    def test_intersect(self, index):
        result = index.intersect(["red", "men"])
        assert result.doc_ids == {0, 1, 2}

    def test_intersect_empty_token_list_matches_all(self, index):
        assert index.intersect([]).doc_ids == {0, 1, 2, 3, 4}

    def test_intersect_orders_cheapest_first(self, index):
        """Selective-first evaluation: 'anklet' (1 posting) before 'red' (4)."""
        result = index.intersect(["red", "anklet"])
        assert result.doc_ids == {2}
        assert result.postings_accessed == 1 + 4

    def test_duplicate_doc_rejected(self, index):
        with pytest.raises(ValueError):
            index.add_document(0, ["again"])

    def test_document_roundtrip(self, index):
        assert index.document(0) == ("red", "men", "sock")

    def test_duplicate_tokens_single_posting(self):
        idx = InvertedIndex()
        idx.add_document(0, ["red", "red", "red"])
        assert idx.postings("red") == [0]


class TestSyntaxTree:
    def test_build_tree_single_term(self):
        tree = build_tree(["sock"])
        assert isinstance(tree, TermNode)
        assert tree_size(tree) == 1

    def test_build_tree_and_of_terms(self):
        tree = build_tree(["red", "men", "sock"])
        assert isinstance(tree, AndNode)
        assert tree_size(tree) == 4

    def test_build_tree_dedupes_terms(self):
        tree = build_tree(["red", "red"])
        assert isinstance(tree, TermNode)

    def test_build_tree_empty_raises(self):
        with pytest.raises(ValueError):
            build_tree([])

    def test_evaluate_and(self, index):
        result = build_tree(["red", "men"]).evaluate(index)
        assert result.doc_ids == {0, 1, 2}

    def test_evaluate_or(self, index):
        tree = OrNode(children=(TermNode("anklet"), TermNode("blue")))
        assert tree.evaluate(index).doc_ids == {2, 3}

    def test_paper_figure5_example(self, index):
        """origin: red&men&sock; g1: red&men&breathable&low-cut-sock;
        g2: red&men&anklet -> red & men & (sock | (breathable & low-cut-sock) | anklet)."""
        queries = [
            ["red", "men", "sock"],
            ["red", "men", "breathable", "low-cut-sock"],
            ["red", "men", "anklet"],
        ]
        merged = merge_queries(queries)
        assert merged.evaluate(index).doc_ids == {0, 1, 2}
        assert merged.terms() == {"red", "men", "sock", "breathable", "low-cut-sock", "anklet"}
        # merged tree far smaller than three separate trees
        separate_nodes = sum(tree_size(build_tree(q)) for q in queries)
        assert tree_size(merged) < separate_nodes

    def test_merge_single_query_is_plain_tree(self, index):
        merged = merge_queries([["red", "men"]])
        assert merged.evaluate(index).doc_ids == build_tree(["red", "men"]).evaluate(index).doc_ids

    def test_merge_with_query_fully_covered_by_common(self, index):
        """If one query is a subset of the common tokens, the OR is vacuous."""
        merged = merge_queries([["red"], ["red", "men"]])
        # union of results: docs with red (query 1) ∪ docs with red&men
        assert merged.evaluate(index).doc_ids == {0, 1, 2, 4}

    def test_merge_disjoint_queries(self, index):
        merged = merge_queries([["anklet"], ["blue"]])
        assert merged.evaluate(index).doc_ids == {2, 3}

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_queries([[]])

    @settings(
        max_examples=60,
        deadline=None,
        # the index fixture is read-only, so sharing it across examples is safe
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        queries=st.lists(
            st.lists(
                st.sampled_from(["red", "men", "sock", "blue", "women", "anklet", "breathable"]),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_property_merge_equals_union_of_individual_retrievals(self, index, queries):
        """Soundness of the Section III-H optimization: the merged tree must
        retrieve EXACTLY the union of per-query retrievals."""
        merged_docs = merge_queries(queries).evaluate(index).doc_ids
        union = set()
        for query in queries:
            union |= build_tree(query).evaluate(index).doc_ids
        assert merged_docs == union


class TestSearchEngine:
    @pytest.fixture(scope="class")
    def engine(self, tiny_market):
        return SearchEngine(tiny_market.catalog)

    def test_search_returns_ranked_docs(self, engine, tiny_market):
        product = tiny_market.catalog.products[0]
        outcome = engine.search(" ".join(product.title_tokens[:2]))
        assert product.product_id in outcome.doc_ids

    def test_rewrites_add_recall(self, engine):
        base = engine.search("senior mobile phone")
        extended = engine.search("senior mobile phone", ["big-button mobile phone"])
        assert set(base.doc_ids) <= set(extended.doc_ids)

    def test_merged_and_separate_agree(self, engine):
        comparison = engine.compare_costs(
            "senior mobile phone", ["big-button mobile phone", "flip mobile phone"]
        )
        assert comparison["postings_ratio"] <= 1.0 + 1e-9

    def test_merge_cheaper_with_shared_tokens(self, engine):
        comparison = engine.compare_costs(
            "senior mobile phone",
            ["senior flip mobile phone", "senior big-button mobile phone"],
        )
        assert comparison["postings_ratio"] < 1.0
        assert comparison["nodes_ratio"] < 1.0

    def test_empty_query_raises(self, engine):
        with pytest.raises(ValueError):
            engine.search("   ")

    def test_max_candidates_cap(self, tiny_market):
        engine = SearchEngine(tiny_market.catalog, SearchConfig(max_candidates=2))
        outcome = engine.search("mobile phone")
        assert len(outcome.doc_ids) <= 2

    def test_ranking_prefers_overlap(self, tiny_market):
        engine = SearchEngine(tiny_market.catalog)
        outcome = engine.search("mobile phone")
        if len(outcome.doc_ids) >= 2:
            first = engine.index.document(outcome.doc_ids[0])
            overlap_first = sum(1 for t in first if t in ("mobile", "phone"))
            last = engine.index.document(outcome.doc_ids[-1])
            overlap_last = sum(1 for t in last if t in ("mobile", "phone"))
            assert overlap_first >= overlap_last


class TestMergeQueriesEdgeCases:
    """Section III-H merge soundness on the shapes rewriters actually emit."""

    def _union(self, index, queries):
        union = set()
        for query in queries:
            union |= build_tree(query).evaluate(index).doc_ids
        return union

    def test_duplicate_rewrites_collapse(self, index):
        queries = [["red", "men", "sock"], ["red", "men", "anklet"], ["red", "men", "anklet"]]
        merged = merge_queries(queries)
        deduped = merge_queries(queries[:2])
        assert merged.evaluate(index).doc_ids == deduped.evaluate(index).doc_ids
        # duplicates must not grow the tree
        assert tree_size(merged) == tree_size(deduped)
        assert merged.evaluate(index).doc_ids == self._union(index, queries)

    def test_single_token_queries(self, index):
        queries = [["red"], ["blue"], ["anklet"]]
        merged = merge_queries(queries)
        assert merged.evaluate(index).doc_ids == self._union(index, queries)

    def test_single_token_query_mixed_with_multi_token(self, index):
        queries = [["sock"], ["red", "men", "sock"]]
        merged = merge_queries(queries)
        # "sock" subsumes the more specific query: exactly the sock docs
        assert merged.evaluate(index).doc_ids == {0, 3, 4}
        assert merged.evaluate(index).doc_ids == self._union(index, queries)

    def test_rewrite_identical_to_query(self, index):
        query = ["red", "men", "sock"]
        merged = merge_queries([query, list(query)])
        single = build_tree(query)
        assert merged.evaluate(index).doc_ids == single.evaluate(index).doc_ids
        # an identical rewrite is free: same tree size, same postings cost
        assert tree_size(merged) == tree_size(single)
        assert (
            merged.evaluate(index).postings_accessed
            == single.evaluate(index).postings_accessed
        )

    def test_rewrite_reordered_tokens_identical(self, index):
        """Token order never matters — AND queries are sets of terms."""
        merged = merge_queries([["red", "men", "sock"], ["sock", "red", "men"]])
        assert tree_size(merged) == tree_size(build_tree(["red", "men", "sock"]))

    @pytest.mark.parametrize(
        "queries",
        [
            [["red", "men", "sock"], ["red", "men", "anklet"], ["red", "men", "anklet"]],
            [["red"], ["blue"], ["anklet"]],
            [["red", "men", "sock"], ["red", "men", "sock"]],
            [["sock"], ["red", "men", "sock"]],
        ],
        ids=["duplicate-rewrite", "single-token", "identical-rewrite", "subsumed"],
    )
    def test_merged_equals_separate_doc_sets(self, index, queries):
        """The merged tree and N separate trees retrieve the same docs."""
        merged_docs = merge_queries(queries).evaluate(index).doc_ids
        assert merged_docs == self._union(index, queries)


class TestRankers:
    @pytest.fixture()
    def market_engine(self, tiny_market):
        return SearchEngine(tiny_market.catalog, SearchConfig(ranker="bm25"))

    def test_make_ranker_unknown_name(self):
        with pytest.raises(ValueError):
            make_ranker("pagerank")

    def test_overlap_rank_matches_scalar_scores(self, index):
        ranker = TermOverlapRanker()
        candidates = index.all_slots()
        ranked = ranker.rank(index, ["red", "men"], candidates, k=5)
        resorted = sorted(
            index.document_ids(),
            key=lambda d: (-ranker.score_doc(index, ["red", "men"], d), d),
        )
        assert ranked == resorted[:5]

    def test_overlap_counts_repeated_title_tokens(self):
        idx = InvertedIndex()
        idx.add_document(0, ["phone", "case"])
        idx.add_document(1, ["phone", "phone", "case"])
        ranker = TermOverlapRanker()
        assert ranker.rank(idx, ["phone"], idx.all_slots(), k=2) == [1, 0]

    def test_bm25_vectorized_equals_scalar(self, market_engine):
        """The vectorized scoring path and the scalar mirror must agree."""
        engine = market_engine
        ranker = engine.ranker
        outcome = engine.search("mobile phone")
        tokens = ["mobile", "phone"]
        resorted = sorted(
            outcome.doc_ids,
            key=lambda d: (-ranker.score_doc(engine.index, tokens, d), d),
        )
        assert outcome.doc_ids == resorted

    def test_bm25_prefers_rarer_term(self):
        idx = InvertedIndex()
        for doc_id in range(10):
            idx.add_document(doc_id, ["common", "filler"])
        idx.add_document(10, ["common", "rare"])
        ranker = BM25Ranker()
        ranked = ranker.rank(idx, ["common", "rare"], idx.all_slots(), k=3)
        assert ranked[0] == 10

    def test_bm25_bounded_k(self, market_engine):
        engine = market_engine
        full = engine.search("mobile phone")
        capped = SearchEngine(
            engine.catalog,
            SearchConfig(ranker="bm25", max_candidates=3),
            index=engine.index,
        ).search("mobile phone")
        assert capped.doc_ids == full.doc_ids[:3]

    def test_rank_empty_candidates(self, index):
        import numpy as np

        for ranker in (TermOverlapRanker(), BM25Ranker()):
            assert ranker.rank(index, ["red"], np.empty(0, dtype=np.int64), k=5) == []


class TestIncrementalIndex:
    def test_remove_document(self, index):
        index.remove_document(0)
        assert 0 not in index
        assert index.lookup("sock").doc_ids == {3, 4}
        assert len(index) == 4

    def test_remove_unknown_raises(self, index):
        with pytest.raises(KeyError):
            index.remove_document(99)

    def test_out_of_order_add_keeps_postings_sorted(self):
        idx = InvertedIndex()
        for doc_id in (5, 1, 9, 3):
            idx.add_document(doc_id, ["tok"])
        assert idx.postings("tok") == [1, 3, 5, 9]
        assert idx.slot_doc_ids[idx.all_slots()].tolist() == [5, 1, 9, 3]

    def test_removed_slot_is_reused_and_capacity_doubles(self):
        idx = InvertedIndex()
        for doc_id in range(17):
            idx.add_document(doc_id, ["tok"])
        assert idx.slot_doc_ids.size == 32
        idx.remove_document(3)
        assert idx.term_frequency(3, "tok") == 0
        idx.add_document(40, ["tok", "tok", "new"])
        assert idx.slot_doc_ids[3] == 40
        assert idx.term_frequency(40, "tok") == 2
        assert idx.tf_vector("new").size == 32
        assert idx.postings("tok") == [d for d in range(17) if d != 3] + [40]

    def test_add_after_remove_roundtrip(self, index):
        index.remove_document(2)
        index.add_document(2, ["red", "men", "anklet"])
        assert index.lookup("anklet").doc_ids == {2}

    def test_stats_track_churn(self):
        idx = InvertedIndex()
        idx.add_document(0, ["a", "b"])
        idx.add_document(1, ["a", "b", "c", "d"])
        assert idx.stats().num_docs == 2
        assert idx.avg_doc_length == 3.0
        idx.remove_document(1)
        stats = idx.stats()
        assert stats.num_docs == 1
        assert stats.document_frequency("c") == 0
        assert idx.avg_doc_length == 2.0
