"""Property-based randomized tests for the retrieval primitives.

Seeded fuzzing (no fixed examples to overfit): the sorted-postings
oracle's galloping intersection and k-way union
(``tests/postings_oracle.py``) are checked against naive set-based
oracles, the vectorized bounded top-k selection against a full
``(-score, doc_id)`` sort, and the served slot-mask evaluation and
rankers against that sorted-postings oracle, across hundreds of
generated cases spanning empty inputs, disjoint/dense overlap, duplicate
scores at the threshold, every interesting ``k`` regime, duplicate,
subsumed and unindexed queries, and indexes churned until their slots
are reused.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.data.catalog import CatalogConfig, CatalogGenerator
from repro.search.inverted_index import InvertedIndex
from repro.search.ranking import BM25Ranker, TermOverlapRanker, top_k_by_score
from repro.search.syntax_tree import (
    AndNode,
    OrNode,
    TermNode,
    build_tree,
    evaluate_trees,
    merge_queries,
    pack,
    tree_size,
)
from tests.postings_oracle import (
    EMPTY_POSTINGS,
    SortedPostings,
    as_postings_array,
    evaluate_postings,
    intersect_sorted,
    rank_bm25,
    rank_overlap,
    union_sorted,
)

#: generated cases per property (the satellite bar is 200+ overall)
NUM_CASES = 250


def random_postings(rng: np.random.Generator, universe: int) -> np.ndarray:
    """A sorted, duplicate-free int64 doc-id vector (possibly empty)."""
    size = int(rng.integers(0, 40))
    if size == 0:
        return EMPTY_POSTINGS
    return np.unique(rng.integers(0, universe, size=size).astype(np.int64))


class TestIntersectionProperties:
    def test_matches_set_oracle_across_generated_cases(self):
        rng = np.random.default_rng(1234)
        non_trivial = 0
        for case in range(NUM_CASES):
            # Small universes force dense overlap, large ones sparse/disjoint.
            universe = int(rng.choice([5, 30, 1000]))
            a = random_postings(rng, universe)
            b = random_postings(rng, universe)
            got = intersect_sorted(a, b)
            expected = sorted(set(a.tolist()) & set(b.tolist()))
            assert got.tolist() == expected, f"case {case}: {a} & {b}"
            assert got.dtype == np.int64
            if len(expected) > 0:
                non_trivial += 1
        # The generator actually produced overlapping cases, not just
        # trivially-empty intersections.
        assert non_trivial > NUM_CASES // 4

    def test_symmetry_and_idempotence(self):
        rng = np.random.default_rng(99)
        for _ in range(NUM_CASES // 5):
            a = random_postings(rng, 50)
            b = random_postings(rng, 50)
            assert intersect_sorted(a, b).tolist() == intersect_sorted(b, a).tolist()
            assert intersect_sorted(a, a).tolist() == a.tolist()

    def test_result_is_subset_of_smaller_input(self):
        rng = np.random.default_rng(7)
        for _ in range(NUM_CASES // 5):
            a = random_postings(rng, 40)
            b = random_postings(rng, 40)
            got = set(intersect_sorted(a, b).tolist())
            assert got <= set(a.tolist())
            assert got <= set(b.tolist())


class TestUnionProperties:
    def test_matches_set_oracle_across_generated_cases(self):
        rng = np.random.default_rng(4321)
        for case in range(NUM_CASES):
            universe = int(rng.choice([5, 30, 1000]))
            lists = [
                random_postings(rng, universe)
                for _ in range(int(rng.integers(0, 5)))
            ]
            got = union_sorted(lists)
            expected = sorted(set().union(*(arr.tolist() for arr in lists)))
            assert got.tolist() == expected, f"case {case}"
            assert got.dtype == np.int64

    def test_union_absorbs_intersection(self):
        # A ∪ (A ∩ B) == A for every generated pair.
        rng = np.random.default_rng(55)
        for _ in range(NUM_CASES // 5):
            a = random_postings(rng, 30)
            b = random_postings(rng, 30)
            assert union_sorted([a, intersect_sorted(a, b)]).tolist() == a.tolist()

    def test_empty_inputs(self):
        assert union_sorted([]).tolist() == []
        assert union_sorted([EMPTY_POSTINGS, EMPTY_POSTINGS]).tolist() == []
        assert intersect_sorted(EMPTY_POSTINGS, as_postings_array([1, 2])).tolist() == []


def topk_oracle(doc_ids: np.ndarray, scores: np.ndarray, k: int):
    """Full sort by ``(-score, doc_id)`` truncated to k — the spec."""
    order = sorted(zip(scores.tolist(), doc_ids.tolist()), key=lambda p: (-p[0], p[1]))
    return order[: max(k, 0)]


class TestTopKProperties:
    def test_matches_full_sort_across_generated_cases(self):
        rng = np.random.default_rng(2024)
        threshold_tie_cases = 0
        for case in range(NUM_CASES):
            n = int(rng.integers(0, 60))
            doc_ids = rng.permutation(
                rng.choice(10_000, size=n, replace=False)
            ).astype(np.int64)
            # A tiny score alphabet forces heavy duplicate scores, so the
            # partition threshold almost always lands on a tie.
            alphabet = rng.normal(size=int(rng.choice([2, 3, 50])))
            scores = rng.choice(alphabet, size=n) if n else np.empty(0)
            for k in (0, 1, max(1, n // 2), n, n + 5):
                got = top_k_by_score(doc_ids, scores, k)
                assert got == topk_oracle(doc_ids, scores, k), (
                    f"case {case}, k={k}"
                )
            if n > 2 and len(np.unique(scores)) < n:
                threshold_tie_cases += 1
        assert threshold_tie_cases > NUM_CASES // 4

    def test_scores_survive_bit_for_bit(self):
        # Selection must report the exact IEEE doubles it was given, not
        # recomputed or rounded ones.
        rng = np.random.default_rng(77)
        doc_ids = np.arange(20, dtype=np.int64)
        scores = rng.normal(size=20) * 1e-12
        by_doc = dict(zip(doc_ids.tolist(), scores.tolist()))
        for score, doc_id in top_k_by_score(doc_ids, scores, 7):
            assert score == by_doc[doc_id]

    def test_prefix_property(self):
        # top-k is always a prefix of top-(k+1) under the same ordering.
        rng = np.random.default_rng(31)
        for _ in range(NUM_CASES // 5):
            n = int(rng.integers(1, 40))
            doc_ids = rng.choice(5_000, size=n, replace=False).astype(np.int64)
            scores = rng.choice(rng.normal(size=3), size=n)
            k = int(rng.integers(1, n + 1))
            smaller = top_k_by_score(doc_ids, scores, k)
            larger = top_k_by_score(doc_ids, scores, k + 1)
            assert larger[:k] == smaller


def random_shard(rng: np.random.Generator) -> InvertedIndex:
    """A shard over tokens ``t0..t7`` — empty one time in ten, and never
    holding ``absent`` (a token other shards may have)."""
    index = InvertedIndex()
    if rng.random() < 0.1:
        return index
    vocabulary = [f"t{i}" for i in range(int(rng.integers(1, 9)))]
    for doc_id in rng.choice(500, size=int(rng.integers(1, 60)), replace=False):
        size = int(rng.integers(1, 5))
        index.add_document(int(doc_id), tuple(rng.choice(vocabulary, size=size).tolist()))
    return index


def random_queries(rng: np.random.Generator) -> list[list[str]]:
    """1-4 queries over ``t0..t7`` plus ``absent``, with duplicates and
    queries subsumed by (or subsuming) another thrown in."""
    tokens = [f"t{i}" for i in range(8)] + ["absent"]
    queries = [
        rng.choice(tokens, size=int(rng.integers(1, 5)), replace=False).tolist()
        for _ in range(int(rng.integers(1, 5)))
    ]
    if rng.random() < 0.3:
        queries.append(list(queries[int(rng.integers(len(queries)))]))
    if rng.random() < 0.3:
        base = queries[int(rng.integers(len(queries)))]
        queries.append(base[: int(rng.integers(1, len(base) + 1))])
    if rng.random() < 0.2:
        queries.append(queries[0] + ["t0", "t1"])
    return queries


def oracle_of(index: InvertedIndex) -> SortedPostings:
    """The sorted-postings layout of ``index``'s documents."""
    return SortedPostings({d: index.document(d) for d in index.document_ids()})


def served_docs(index: InvertedIndex, mask) -> list[int]:
    """Sorted doc ids of a packed evaluation's mask (None: nothing)."""
    return [] if mask is None else sorted(index.slot_doc_ids[mask].tolist())


class TestPackedTreeProperties:
    def test_packed_evaluation_matches_the_sorted_postings_oracle(self):
        rng = np.random.default_rng(1729)
        early_exits = 0
        for case in range(NUM_CASES):
            index = random_shard(rng)
            oracle = oracle_of(index)
            queries = random_queries(rng)
            trees = [merge_queries(queries)] + [build_tree(q) for q in queries]
            for tree in trees:
                packed = pack(tree)
                assert len(packed.kinds) == tree_size(tree), f"case {case}: {tree!r}"
                assert set(packed.tokens) == tree.terms()
                assert len(packed.tokens) == len(set(packed.tokens))
                mask, cost = packed.evaluate(index)
                expected_docs, expected_cost = evaluate_postings(tree, oracle)
                assert served_docs(index, mask) == expected_docs.tolist(), (
                    f"case {case}: {tree!r}"
                )
                assert cost == expected_cost, f"case {case}: {tree!r}"
                assert mask is None or (mask.dtype == bool and mask.any())
                full = sum(index.postings_length(t) for t in tree.terms())
                early_exits += cost < full
        # AND's cheapest-first early exit actually fired, so the cases
        # check which postings are charged, not only the doc ids.
        assert early_exits > NUM_CASES // 4

    def test_packed_table_is_post_order_with_the_root_last(self):
        rng = np.random.default_rng(4)
        for _ in range(NUM_CASES // 5):
            packed = pack(merge_queries(random_queries(rng)))
            for node, (start, count) in enumerate(zip(packed.args, packed.counts)):
                if packed.kinds[node]:
                    below = packed.children[start : start + count]
                    assert below and all(child < node for child in below)
            referenced = sorted(packed.children)
            assert referenced == list(range(len(packed.kinds) - 1))


#: catalog titles the churn property indexes: doc ``i`` holds title ``i``
TITLES = [
    product.title_tokens
    for product in CatalogGenerator(CatalogConfig(seed=3)).sample_products(
        300, np.random.default_rng([3, 1]), start_id=0
    )
]


@st.composite
def churned_cases(draw):
    """An index built by interleaved adds and removes of catalog titles
    (about one op in four removes a live doc, so later adds reuse freed
    slots), the sorted-postings oracle of what it ends up holding, and
    1-4 queries of 1-4 tokens, each from a live title when there is one,
    else from any title, now and then with a token no title holds."""
    index = InvertedIndex()
    docs: dict[int, tuple[str, ...]] = {}
    for op, pick in draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, len(TITLES) - 1)),
            min_size=10,
            max_size=200,
        )
    ):
        if op == 0 and docs:
            doc_id = sorted(docs)[pick % len(docs)]
            index.remove_document(doc_id)
            del docs[doc_id]
        elif pick not in docs:
            index.add_document(pick, TITLES[pick])
            docs[pick] = TITLES[pick]
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        live = sorted(docs) if docs and draw(st.booleans()) else range(len(TITLES))
        pool = list(TITLES[draw(st.sampled_from(live))]) + ["absent"]
        queries.append(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)))
    return index, SortedPostings(docs), queries


def hexed(top) -> list[tuple[str, int]]:
    """``(float.hex(score), doc_id)`` rows, so scores compare bit for bit."""
    return [(float(score).hex(), doc_id) for score, doc_id in top]


class TestSlotVectorsMatchSortedPostings:
    """The served slot-mask path against the sorted-postings oracle."""

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(churned_cases(), st.sampled_from([1, 5, 1000]))
    def test_doc_sets_costs_and_rankings_match(self, case, k):
        index, oracle, queries = case
        for trees in ([merge_queries(queries)], [build_tree(q) for q in queries]):
            slots, cost = evaluate_trees([pack(tree) for tree in trees], index)
            expected_cost = 0
            branches = []
            for tree in trees:
                docs, tree_cost = evaluate_postings(tree, oracle)
                branches.append(docs)
                expected_cost += tree_cost
            expected = union_sorted(branches)
            assert sorted(index.slot_doc_ids[slots].tolist()) == expected.tolist()
            assert cost == expected_cost
            ranked = queries[0]
            assert TermOverlapRanker().rank_scored(index, ranked, slots, k) == rank_overlap(
                oracle, ranked, expected, k
            )
            for bm25 in (BM25Ranker(), BM25Ranker().with_stats(index.stats())):
                assert hexed(bm25.rank_scored(index, ranked, slots, k)) == hexed(
                    rank_bm25(bm25, oracle, ranked, expected, k)
                )

    def test_absent_term(self):
        index = InvertedIndex()
        index.add_document(7, ["red", "sock"])
        assert pack(TermNode("absent")).evaluate(index) == (None, 0)
        assert pack(build_tree(["absent", "red"])).evaluate(index) == (None, 0)
        mask, cost = pack(OrNode((TermNode("absent"), TermNode("red")))).evaluate(index)
        assert served_docs(index, mask) == [7] and cost == 1
        assert TermOverlapRanker().rank_scored(index, ["absent"], index.all_slots(), 5) == [
            (0, 7)
        ]

    def test_or_of_empty_children_empties_its_and(self):
        # Every term is indexed, so the OR estimates above 0, but both of
        # its ANDs come back empty: the outer AND is empty, and charges
        # what it read before it knew.
        index = InvertedIndex()
        for doc_id, tokens in enumerate([["a", "x"], ["b", "x"], ["c", "x"], ["d", "x"]]):
            index.add_document(doc_id, tokens)
        empty_or = OrNode((build_tree(["a", "b"]), build_tree(["c", "d"])))
        tree = AndNode((TermNode("x"), empty_or))
        expected_docs, expected_cost = evaluate_postings(tree, oracle_of(index))
        assert expected_docs.size == 0 and expected_cost == 4
        assert pack(tree).evaluate(index) == (None, expected_cost)
        assert pack(empty_or).evaluate(index) == (None, 4)

    def test_empty_index(self):
        index = InvertedIndex()
        tree = merge_queries([["red", "men"], ["red", "sock"]])
        assert pack(tree).evaluate(index) == (None, 0)
        slots, cost = evaluate_trees([pack(tree)], index)
        assert slots.size == 0 and cost == 0
        for ranker in (TermOverlapRanker(), BM25Ranker()):
            assert ranker.rank_scored(index, ["red"], index.all_slots(), 5) == []

    def test_tf_above_255_widens_only_that_term(self, tmp_path):
        index = InvertedIndex()
        index.add_document(0, ["sock", "red"])
        index.add_document(1, ["sock"] * 300 + ["red"])
        index.add_document(2, ["bulk"] * 256)
        assert index.tf_vector("sock").dtype == np.uint16
        assert index.tf_vector("bulk").dtype == np.uint16
        assert index.tf_vector("red").dtype == np.uint8
        assert index.term_frequency(1, "sock") == 300
        assert index.term_frequency(2, "bulk") == 256
        oracle = oracle_of(index)
        slots = index.all_slots()
        doc_ids = as_postings_array(index.document_ids())
        assert TermOverlapRanker().rank_scored(index, ["sock"], slots, 2) == [(300, 1), (1, 0)]
        assert TermOverlapRanker().rank_scored(index, ["bulk"], slots, 1) == [(256, 2)]
        assert hexed(BM25Ranker().rank_scored(index, ["sock", "red"], slots, 2)) == hexed(
            rank_bm25(BM25Ranker(), oracle, ["sock", "red"], doc_ids, 2)
        )
        index.save(tmp_path / "wide.seg")
        loaded = InvertedIndex.load(tmp_path / "wide.seg")
        assert loaded.tf_vector("sock").dtype == np.uint16
        assert loaded.term_frequency(1, "sock") == 300
