"""Property-based randomized tests for the retrieval primitives.

Seeded fuzzing (no fixed examples to overfit): the galloping-skip
intersection and k-way union are checked against naive set-based
oracles, the vectorized bounded top-k selection against a full
``(-score, doc_id)`` sort, and packed syntax trees against the object
trees they were packed from, across hundreds of generated cases spanning
empty inputs, disjoint/dense overlap, duplicate scores at the threshold,
every interesting ``k`` regime, and duplicate, subsumed and unindexed
queries.
"""

from __future__ import annotations

import numpy as np

from repro.search.inverted_index import InvertedIndex
from repro.search.postings import (
    EMPTY_POSTINGS,
    as_postings_array,
    intersect_sorted,
    union_sorted,
)
from repro.search.ranking import top_k_by_score
from repro.search.syntax_tree import build_tree, merge_queries, pack, tree_size

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


class TestPackedTreeProperties:
    def test_packed_evaluation_matches_the_object_tree(self):
        rng = np.random.default_rng(1729)
        early_exits = 0
        for case in range(NUM_CASES):
            index = random_shard(rng)
            queries = random_queries(rng)
            trees = [merge_queries(queries)] + [build_tree(q) for q in queries]
            for tree in trees:
                packed = pack(tree)
                assert len(packed.kinds) == tree_size(tree), f"case {case}: {tree!r}"
                assert set(packed.tokens) == tree.terms()
                assert len(packed.tokens) == len(set(packed.tokens))
                docs, cost = packed.evaluate_postings(index)
                expected_docs, expected_cost = tree.evaluate_postings(index)
                assert docs.tolist() == expected_docs.tolist(), f"case {case}: {tree!r}"
                assert cost == expected_cost, f"case {case}: {tree!r}"
                assert docs.dtype == np.int64
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
