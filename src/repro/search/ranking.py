"""Top-k ranking over retrieved candidates.

The seed engine sorted *every* candidate (O(n log n) per query) with a
hard-wired term-overlap key.  Ranking is now a pluggable :class:`Ranker`
protocol, and selection is a **vectorized bounded top-k**
(:func:`top_k_by_score`: ``numpy.partition`` threshold + a lexsort of
the survivors, O(n + k log k)) so a query touching tens of thousands of
candidates pays for its top-k, not for a total order of the candidate
set.

Two rankers ship:

* :class:`TermOverlapRanker` — the seed's tf-style overlap baseline,
  bit-for-bit the same ordering as before (scores are integers; ties break
  by doc id).
* :class:`BM25Ranker` — Okapi BM25 with idf and document-length
  normalization.  Scoring is vectorized over the candidate slots (one
  gather of each query term's slot-indexed tf vector); ``score_doc`` is
  the scalar reference implementation, kept operation-for-operation
  identical to the vectorized path so both produce the same IEEE doubles.

Candidates are slots of the ranked index
(:mod:`repro.search.inverted_index`), as
:func:`~repro.search.syntax_tree.evaluate_trees` returns them; results
name doc ids.

Both rankers take the corpus statistics from the index by default; a
:class:`~repro.search.inverted_index.IndexStats` override lets a sharded
index rank every shard against *global* statistics, which keeps per-shard
scores comparable during the fan-out merge.

Thread safety: rankers are frozen dataclasses with no mutable state —
one instance can rank on any number of threads concurrently, and
``with_stats`` returns a new pinned copy rather than mutating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Protocol, runtime_checkable

import numpy as np

from repro.search.inverted_index import IndexStats, InvertedIndex


@runtime_checkable
class Ranker(Protocol):
    """Orders candidate doc ids for a query; higher score = better.

    Invariants every implementation must hold (the engines, the shard
    fan-out merge, and the hybrid fusion all lean on them):

    ``candidates`` is an int array of slots in ``index`` (see
    :meth:`~repro.search.inverted_index.InvertedIndex.all_slots`).

    1. **Determinism** — ``rank`` equals a full sort of the candidates by
       ``(-score, doc_id)`` truncated to ``k``; ties always break by
       ascending doc id (use :func:`top_k_by_score` to get this for
       free).
    2. **Agreement** — ``rank(...) == [d for _, d in rank_scored(...)]``,
       and ``score_doc`` reproduces the vectorized score of the same
       document bit for bit (IEEE-identical operation order).
    3. **Candidate-bounded** — only the doc ids of ``candidates`` may
       appear in the result; the ranker retrieves nothing on its own.
    4. **Statistics pinning** — ``with_stats`` returns a copy scoring
       against the given corpus statistics and leaves ``self``
       untouched; a statistics-free ranker may return itself.
    5. **No mutation** — ranking reads the index but never writes it, so
       rankers are safe to share across threads and engines.
    """

    def rank(
        self,
        index: InvertedIndex,
        query_tokens: list[str],
        candidates: np.ndarray,
        k: int,
    ) -> list[int]:
        """Top-``k`` doc ids, best first; ties break by ascending doc id."""
        ...

    def rank_scored(
        self,
        index: InvertedIndex,
        query_tokens: list[str],
        candidates: np.ndarray,
        k: int,
    ) -> list[tuple[float, int]]:
        """Top-``k`` as ``(score, doc_id)`` pairs — what a shard fan-out
        merges, without re-scoring the ranked docs."""
        ...

    def score_doc(
        self, index: InvertedIndex, query_tokens: list[str], doc_id: int
    ) -> float:
        """Scalar reference score for one document."""
        ...

    def with_stats(self, stats: IndexStats) -> "Ranker":
        """A copy of this ranker pinned to explicit corpus statistics."""
        ...


def top_k_by_score(
    doc_ids: np.ndarray, scores: np.ndarray, k: int
) -> list[tuple[float, int]]:
    """Bounded top-k of ``(score, doc_id)``, best score first.

    Selection semantics are exactly a full descending sort with doc-id
    tie-break, truncated to ``k`` — but computed without ordering all n
    candidates: ``numpy.partition`` finds the k-th score threshold in
    O(n), only the ≥-threshold survivors (k plus score ties) are
    lexsorted by ``(-score, doc_id)``.  O(n + m log m) for m survivors,
    fully vectorized; every ranker and the vector tier select through
    this one function, so ordering is deterministic everywhere.
    """
    n = int(doc_ids.size)
    if n == 0 or k <= 0:
        return []
    if k < n:
        # k-th largest score; ties at the threshold survive to the sort
        # below, where doc-id order decides which of them make the cut.
        threshold = np.partition(scores, n - k)[n - k]
        keep = scores >= threshold
        doc_ids = doc_ids[keep]
        scores = scores[keep]
    order = np.lexsort((doc_ids, -scores))[:k]
    return list(zip(scores[order].tolist(), doc_ids[order].tolist()))


@dataclass(frozen=True)
class TermOverlapRanker:
    """The seed baseline: sum of query-term frequencies in the title.

    ``score = Σ_{t ∈ distinct(query)} tf(doc, t)`` — identical to counting
    title tokens that appear in the query set, the seed's ordering.
    """

    def rank(self, index, query_tokens, candidates, k) -> list[int]:
        """Top-``k`` doc ids by overlap score (see :class:`Ranker` #1/#2)."""
        return [doc_id for _, doc_id in self.rank_scored(index, query_tokens, candidates, k)]

    def rank_scored(self, index, query_tokens, candidates, k) -> list[tuple[float, int]]:
        """Vectorized overlap scoring: one tf gather per term."""
        if candidates.size == 0 or k <= 0:
            return []
        scores = np.zeros(candidates.size, dtype=np.int64)
        for token in sorted(set(query_tokens)):
            tfs = index.tf_vector(token)
            if tfs is not None:
                scores += tfs[candidates]
        return top_k_by_score(index.slot_doc_ids[candidates], scores, k)

    def score_doc(self, index, query_tokens, doc_id) -> float:
        """Scalar mirror of :meth:`rank_scored` for one document."""
        return float(
            sum(index.term_frequency(doc_id, t) for t in sorted(set(query_tokens)))
        )

    def with_stats(self, stats: IndexStats) -> "TermOverlapRanker":
        """Overlap is corpus-statistics-free, so the same instance works."""
        return self


@dataclass(frozen=True)
class BM25Ranker:
    """Okapi BM25 (idf + length normalization) with bounded top-k selection."""

    k1: float = 1.5
    b: float = 0.75
    stats: IndexStats | None = None

    def with_stats(self, stats: IndexStats) -> "BM25Ranker":
        """A copy pinned to explicit (e.g. global sharded) statistics."""
        return replace(self, stats=stats)

    def _corpus(self, index) -> tuple[int, float]:
        if self.stats is not None:
            return self.stats.num_docs, self.stats.avg_doc_length
        return len(index), index.avg_doc_length

    def _idf(self, index, token: str) -> float:
        num_docs, _ = self._corpus(index)
        if self.stats is not None:
            df = self.stats.document_frequency(token)
        else:
            df = index.document_frequency(token)
        return math.log(1.0 + (num_docs - df + 0.5) / (df + 0.5))

    def rank(self, index, query_tokens, candidates, k) -> list[int]:
        """Top-``k`` doc ids by BM25 score (see :class:`Ranker` #1/#2)."""
        return [doc_id for _, doc_id in self.rank_scored(index, query_tokens, candidates, k)]

    def rank_scored(self, index, query_tokens, candidates, k) -> list[tuple[float, int]]:
        """Vectorized BM25 over the candidate slots.

        One tf gather per distinct query term, O(candidates)
        arithmetic per term, then the shared bounded top-k selection.
        """
        if candidates.size == 0 or k <= 0:
            return []
        num_docs, avgdl = self._corpus(index)
        if num_docs == 0 or avgdl == 0.0:
            return []
        # the length norm, elementwise as score_doc computes it per term
        norm = self.k1 * (1.0 - self.b + self.b * index.slot_lengths[candidates] / avgdl)
        scores = np.zeros(candidates.size, dtype=np.float64)
        for token in sorted(set(query_tokens)):
            tfs = index.tf_vector(token)
            if tfs is None:
                continue
            tf = tfs[candidates]
            hit = np.flatnonzero(tf)
            if hit.size == 0:
                continue
            tf = tf[hit].astype(np.float64)
            idf = self._idf(index, token)
            scores[hit] += idf * (tf * (self.k1 + 1.0)) / (tf + norm[hit])
        return top_k_by_score(index.slot_doc_ids[candidates], scores, k)

    def score_doc(self, index, query_tokens, doc_id) -> float:
        """Scalar mirror of :meth:`rank`'s vectorized scoring.

        Same term order, same operation order, same float64 arithmetic —
        so the score of a doc here equals its vectorized score bit for bit.
        """
        num_docs, avgdl = self._corpus(index)
        if num_docs == 0 or avgdl == 0.0:
            return 0.0
        length = float(index.doc_length(doc_id))
        score = 0.0
        for token in sorted(set(query_tokens)):
            tf = float(index.term_frequency(doc_id, token))
            if tf == 0.0:
                continue
            idf = self._idf(index, token)
            denom = tf + self.k1 * (1.0 - self.b + self.b * length / avgdl)
            score += idf * (tf * (self.k1 + 1.0)) / denom
        return score


#: registry used by ``SearchConfig.ranker`` string knob
RANKERS = {
    "overlap": TermOverlapRanker,
    "bm25": BM25Ranker,
}


def make_ranker(name: str) -> Ranker:
    """Instantiate a registered ranker by its config-string name."""
    try:
        return RANKERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown ranker {name!r}; available: {', '.join(sorted(RANKERS))}"
        ) from None
