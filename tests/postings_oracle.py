"""The sorted-postings evaluator and rankers, kept as a test oracle.

The index once stored each term as a doc-id-sorted postings list:
AND galloped the smaller list into the larger with ``searchsorted``, OR
merged, and rankers gathered term frequencies with one ``searchsorted``
per term.  The served path now evaluates masks over slot-indexed term
vectors (:mod:`repro.search.inverted_index`).  :class:`SortedPostings`
builds the old layout straight from the documents, and this module
evaluates object trees and rankings on it, so tests can assert the two
agree on doc sets, postings cost and ``float.hex`` scores.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.search.ranking import BM25Ranker, top_k_by_score
from repro.search.syntax_tree import AndNode, OrNode, SyntaxNode, TermNode

#: canonical empty postings vector (doc ids are int64 everywhere)
EMPTY_POSTINGS: np.ndarray = np.empty(0, dtype=np.int64)


def as_postings_array(doc_ids) -> np.ndarray:
    """An int64 doc-id vector from an already-sorted iterable of doc ids."""
    array = np.asarray(doc_ids, dtype=np.int64)
    return EMPTY_POSTINGS if array.size == 0 else array


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Galloping AND of two sorted doc-id vectors (smaller side drives)."""
    if a.size == 0 or b.size == 0:
        return EMPTY_POSTINGS
    small, large = (a, b) if a.size <= b.size else (b, a)
    positions = np.searchsorted(large, small)
    in_range = positions < large.size
    candidates = small[in_range]
    return candidates[large[positions[in_range]] == candidates]


def union_sorted(lists: list[np.ndarray]) -> np.ndarray:
    """Deduplicated OR of sorted doc-id vectors, returned sorted."""
    non_empty = [arr for arr in lists if arr.size]
    if not non_empty:
        return EMPTY_POSTINGS
    if len(non_empty) == 1:
        return non_empty[0]
    return np.unique(np.concatenate(non_empty))


class SortedPostings:
    """Per term, a doc-id-sorted postings vector and its parallel tf
    vector, built from ``{doc_id: tokens}`` — the old index layout.

    Offers the reads :class:`~repro.search.ranking.BM25Ranker` makes of an
    index (``len``, ``avg_doc_length``, ``document_frequency``).
    """

    def __init__(self, docs: dict[int, tuple[str, ...]]):
        self.docs = dict(docs)
        postings: dict[str, list[tuple[int, int]]] = {}
        for doc_id in sorted(docs):
            for token, tf in sorted(Counter(docs[doc_id]).items()):
                postings.setdefault(token, []).append((doc_id, tf))
        self._postings = {
            token: (
                np.asarray([d for d, _ in pairs], dtype=np.int64),
                np.asarray([f for _, f in pairs], dtype=np.int64),
            )
            for token, pairs in postings.items()
        }
        total = sum(len(tokens) for tokens in docs.values())
        self.avg_doc_length = total / len(docs) if docs else 0.0

    def __len__(self) -> int:
        return len(self.docs)

    def postings(self, token: str) -> tuple[np.ndarray, np.ndarray]:
        """``(doc ids ascending, tfs)`` of ``token`` (empty if unseen)."""
        return self._postings.get(token, (EMPTY_POSTINGS, EMPTY_POSTINGS))

    def postings_length(self, token: str) -> int:
        """Documents holding ``token``."""
        return self.postings(token)[0].size

    document_frequency = postings_length


def cost_estimate(node: SyntaxNode, index: SortedPostings) -> int:
    """A term's postings length, an AND's cheapest child, an OR's sum."""
    if isinstance(node, TermNode):
        return index.postings_length(node.token)
    costs = [cost_estimate(child, index) for child in node.children]
    return min(costs, default=0) if isinstance(node, AndNode) else sum(costs)


def evaluate_postings(node: SyntaxNode, index: SortedPostings) -> tuple[np.ndarray, int]:
    """Sorted doc ids an object tree retrieves, plus the postings read.

    A term reads its whole postings list; an AND intersects its children
    cheapest-first and stops once the running intersection is empty; an
    OR evaluates and unions every child.
    """
    if isinstance(node, TermNode):
        postings = index.postings(node.token)[0]
        return postings, postings.size
    cost = 0
    if isinstance(node, OrNode):
        branches = []
        for child in node.children:
            child_docs, child_cost = evaluate_postings(child, index)
            cost += child_cost
            branches.append(child_docs)
        return union_sorted(branches), cost
    docs: np.ndarray | None = None
    for child in sorted(node.children, key=lambda c: cost_estimate(c, index)):
        child_docs, child_cost = evaluate_postings(child, index)
        cost += child_cost
        docs = child_docs if docs is None else intersect_sorted(docs, child_docs)
        if docs.size == 0:
            break
    return (docs if docs is not None else EMPTY_POSTINGS), cost


def _gather(index: SortedPostings, token: str, doc_ids: np.ndarray):
    """``(hit, tf)``: which ``doc_ids`` hold ``token`` (one searchsorted
    into its postings) and their term frequencies."""
    postings, tfs = index.postings(token)
    if postings.size == 0:
        return np.zeros(doc_ids.size, dtype=bool), EMPTY_POSTINGS
    positions = np.minimum(np.searchsorted(postings, doc_ids), postings.size - 1)
    hit = postings[positions] == doc_ids
    return hit, tfs[positions[hit]]


def rank_overlap(index: SortedPostings, query_tokens, doc_ids: np.ndarray, k: int):
    """Term-overlap top-k over sorted candidate doc ids."""
    if doc_ids.size == 0 or k <= 0:
        return []
    scores = np.zeros(doc_ids.size, dtype=np.int64)
    for token in sorted(set(query_tokens)):
        hit, tf = _gather(index, token, doc_ids)
        scores[hit] += tf
    return top_k_by_score(doc_ids, scores, k)


def rank_bm25(
    ranker: BM25Ranker, index: SortedPostings, query_tokens, doc_ids: np.ndarray, k: int
):
    """BM25 top-k over sorted candidate doc ids, in the served
    operation order (so equal inputs give IEEE-equal doubles)."""
    if doc_ids.size == 0 or k <= 0:
        return []
    num_docs, avgdl = ranker._corpus(index)
    if num_docs == 0 or avgdl == 0.0:
        return []
    lengths = np.asarray([len(index.docs[d]) for d in doc_ids.tolist()], dtype=np.float64)
    scores = np.zeros(doc_ids.size, dtype=np.float64)
    for token in sorted(set(query_tokens)):
        hit, tf = _gather(index, token, doc_ids)
        if not hit.any():
            continue
        tf = tf.astype(np.float64)
        idf = ranker._idf(index, token)
        denom = tf + ranker.k1 * (1.0 - ranker.b + ranker.b * lengths[hit] / avgdl)
        scores[hit] += idf * (tf * (ranker.k1 + 1.0)) / denom
    return top_k_by_score(doc_ids, scores, k)
