"""In-memory inverted index with access-cost accounting.

The cost model counts postings touched per retrieval, which is the quantity
the paper's Section III-H optimization reduces: evaluating N separate
syntax trees re-reads shared terms' postings N times, while the merged tree
reads each term's postings once.

Beyond the seed's build-once dict-of-lists, the index is now a mutable
retrieval structure sized for the serving tier:

* every document owns a **slot**, and every term keeps one
  **term-frequency vector indexed by slot** (0 where the document lacks
  the term), so syntax trees evaluate to boolean masks over slots
  (:meth:`~repro.search.syntax_tree.PackedTree.evaluate`) and rankers
  gather term frequencies and document lengths by slot;
* documents can be **added and removed incrementally** in O(distinct
  tokens): a removed document's slot is freed and reused, and capacity
  grows by doubling — which is what the sharded index builds on;
* corpus statistics (document frequency, document length, average length)
  are maintained online for BM25-style ranking
  (:mod:`repro.search.ranking`).

Writes change the vectors in place, so a read must not overlap a write:
every shard op runs under its shard's mutex (or in its own worker
process), and an unsharded engine is written only while it is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

#: slots a first write allocates; capacity doubles from there
_MIN_CAPACITY = 16


@dataclass
class RetrievalResult:
    """Doc ids plus the postings-access cost incurred to produce them."""

    doc_ids: set[int]
    postings_accessed: int


@dataclass(frozen=True)
class IndexStats:
    """Corpus-level statistics a ranker needs (BM25's idf and length norm).

    For a :class:`~repro.search.sharded.ShardedIndex` these are the
    *global* statistics, aggregated over all shards, so per-shard scores
    stay comparable when shard top-k results are merged.
    """

    num_docs: int
    avg_doc_length: float
    document_frequencies: dict[str, int]

    def document_frequency(self, token: str) -> int:
        """Documents containing ``token`` under these statistics (0 if unseen)."""
        return self.document_frequencies.get(token, 0)


def _grown(vector: np.ndarray, capacity: int, fill=0) -> np.ndarray:
    """``vector`` copied into a new array of ``capacity`` slots."""
    grown = np.full(capacity, fill, dtype=vector.dtype)
    grown[: vector.size] = vector
    return grown


class InvertedIndex:
    """token -> term-frequency vector over per-document slots."""

    def __init__(self):
        self._docs: dict[int, tuple[str, ...]] = {}
        self._slots: dict[int, int] = {}
        #: freed slots, reused last-freed first
        self._free: list[int] = []
        #: slots ever handed out; the rest of the capacity is unused
        self._used = 0
        #: doc id per slot (-1 when free) and document length per slot
        self._slot_docs = np.empty(0, dtype=np.int64)
        self._slot_lengths = np.empty(0, dtype=np.float64)
        #: per term: tf by slot, in the narrowest unsigned dtype holding
        #: its largest tf, and its document frequency
        self._tfs: dict[str, np.ndarray] = {}
        self._dfs: dict[str, int] = {}
        self._total_length = 0

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._docs

    @property
    def num_terms(self) -> int:
        """Distinct tokens with at least one live posting."""
        return len(self._dfs)

    @property
    def total_doc_length(self) -> int:
        """Sum of all live document lengths (kept as an exact integer)."""
        return self._total_length

    @property
    def avg_doc_length(self) -> float:
        """Mean document length — BM25's length-normalization pivot."""
        return self._total_length / len(self._docs) if self._docs else 0.0

    @property
    def slot_doc_ids(self) -> np.ndarray:
        """Doc id per slot, -1 for a free slot (read-only use)."""
        return self._slot_docs

    @property
    def slot_lengths(self) -> np.ndarray:
        """Float64 document length per slot (the BM25 gather)."""
        return self._slot_lengths

    # -- incremental maintenance ----------------------------------------------
    def add_document(self, doc_id: int, tokens: list[str] | tuple[str, ...]) -> None:
        """Index one document in O(distinct tokens), in a free or new slot.

        Corpus statistics update online.  Raises on duplicate ids.
        """
        if doc_id in self._docs:
            raise ValueError(f"document {doc_id} already indexed")
        tokens = tuple(tokens)
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._used
            if slot == self._slot_docs.size:
                self._resize(max(2 * slot, _MIN_CAPACITY))
            self._used += 1
        self._docs[doc_id] = tokens
        self._slots[doc_id] = slot
        self._slot_docs[slot] = doc_id
        self._slot_lengths[slot] = len(tokens)
        self._total_length += len(tokens)
        for token, tf in Counter(tokens).items():
            vector = self._tfs.get(token)
            if vector is None:
                vector = self._tfs[token] = np.zeros(
                    self._slot_docs.size, np.min_scalar_type(tf)
                )
            elif tf > np.iinfo(vector.dtype).max:
                vector = self._tfs[token] = vector.astype(np.min_scalar_type(tf))
            vector[slot] = tf
            self._dfs[token] = self._dfs.get(token, 0) + 1

    def remove_document(self, doc_id: int) -> None:
        """Unindex one document, the exact inverse of :meth:`add_document`."""
        if doc_id not in self._docs:
            raise KeyError(f"document {doc_id} not indexed")
        tokens = self._docs.pop(doc_id)
        slot = self._slots.pop(doc_id)
        self._total_length -= len(tokens)
        self._slot_docs[slot] = -1
        self._slot_lengths[slot] = 0.0
        self._free.append(slot)
        for token in set(tokens):
            if self._dfs[token] == 1:
                del self._dfs[token]
                del self._tfs[token]
            else:
                self._dfs[token] -= 1
                self._tfs[token][slot] = 0

    def _resize(self, capacity: int) -> None:
        self._slot_docs = _grown(self._slot_docs, capacity, fill=-1)
        self._slot_lengths = _grown(self._slot_lengths, capacity)
        for token, vector in self._tfs.items():
            self._tfs[token] = _grown(vector, capacity)

    @classmethod
    def _from_columns(cls, docs, doc_lengths, tokens, bounds, post_slots, post_tfs):
        """An index whose slots are ``docs``' ids in ascending order.

        The segment decoder's one pass: ``tokens[i]``'s postings are
        ``post_slots``/``post_tfs`` up to ``bounds[i]``.
        """
        index = cls()
        index._docs = docs
        index._slots = dict(zip(docs, range(len(docs))))
        index._used = len(docs)
        index._slot_docs = np.fromiter(docs, dtype=np.int64, count=len(docs))
        index._slot_lengths = doc_lengths.astype(np.float64)
        index._total_length = int(doc_lengths.sum())
        lo = 0
        for token, hi in zip(tokens, bounds):
            tfs = post_tfs[lo:hi]
            vector = np.zeros(len(docs), dtype=np.min_scalar_type(int(tfs.max())))
            vector[post_slots[lo:hi]] = tfs
            index._tfs[token] = vector
            index._dfs[token] = hi - lo
            lo = hi
        return index

    # -- lookups ---------------------------------------------------------------
    def document_ids(self) -> list[int]:
        """Sorted ids of every indexed document (isolation audits walk
        this to prove an index holds only its own tenant's documents)."""
        return sorted(self._docs)

    def document(self, doc_id: int) -> tuple[str, ...]:
        """The indexed token tuple of ``doc_id`` (KeyError if absent)."""
        return self._docs[doc_id]

    def doc_length(self, doc_id: int) -> int:
        """Token count of ``doc_id`` (KeyError if absent)."""
        return len(self._docs[doc_id])

    def tf_vector(self, token: str) -> np.ndarray | None:
        """``token``'s term frequency per slot, or None if unseen.

        The live vector, not a copy: read it under the index's mutex.
        """
        return self._tfs.get(token)

    def postings(self, token: str) -> list[int]:
        """The doc ids containing ``token``, ascending (empty if unseen)."""
        vector = self._tfs.get(token)
        if vector is None:
            return []
        return np.sort(self._slot_docs[vector != 0]).tolist()

    def postings_length(self, token: str) -> int:
        """Length of ``token``'s postings list — its retrieval cost."""
        return self._dfs.get(token, 0)

    def document_frequency(self, token: str) -> int:
        """Documents containing ``token`` (= postings length, by construction)."""
        return self._dfs.get(token, 0)

    def term_frequency(self, doc_id: int, token: str) -> int:
        """Occurrences of ``token`` in ``doc_id`` (0 if either is absent)."""
        vector = self._tfs.get(token)
        slot = self._slots.get(doc_id)
        return 0 if vector is None or slot is None else int(vector[slot])

    def all_slots(self) -> np.ndarray:
        """Every live slot, ascending (the empty-query candidate set)."""
        return np.flatnonzero(self._slot_docs >= 0)

    def postings_table(self) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
        """Every term's postings in doc-id order, concatenated.

        ``(tokens ascending, postings length per token, doc ids, tfs)``,
        int64 — what a full postings segment stores.
        """
        tokens = sorted(self._tfs)
        slots = self.all_slots()
        slots = slots[np.argsort(self._slot_docs[slots])]
        if not tokens:
            empty = np.empty(0, dtype=np.int64)
            return tokens, empty, empty, empty
        table = np.stack([self._tfs[token][slots] for token in tokens])
        rows, columns = np.nonzero(table)
        return (
            tokens,
            np.bincount(rows, minlength=len(tokens)).astype(np.int64),
            self._slot_docs[slots][columns],
            table[rows, columns].astype(np.int64),
        )

    # -- persistence -----------------------------------------------------------
    def save(self, path) -> None:
        """Write this index as one full postings segment file.

        The single-file form of :mod:`repro.store` (no manifest): a
        checksummed, zlib-compressed segment that :meth:`load` restores
        byte-identically — postings, term frequencies, the ordered token
        tuples behind :meth:`document`, and the corpus statistics.
        Sharded stores go through :meth:`ShardedIndex.save` instead.
        """
        from pathlib import Path

        from repro.store import segments as _segments

        Path(path).write_bytes(_segments.encode_postings_segment(self))

    @classmethod
    def load(cls, path) -> "InvertedIndex":
        """Restore an index saved by :meth:`save`, fully verified.

        Raises a typed :class:`~repro.store.StoreError` subclass on any
        corruption (bad magic, checksum mismatch, truncation, internal
        inconsistency) — never returns a half-built index.
        """
        from repro.store import read_segment_file
        from repro.store import segments as _segments

        return _segments.decode_postings_segment(read_segment_file(path))

    def stats(self) -> IndexStats:
        """Point-in-time corpus statistics snapshot (copies the df table)."""
        return IndexStats(
            num_docs=len(self._docs),
            avg_doc_length=self.avg_doc_length,
            document_frequencies=dict(self._dfs),
        )

    # -- primitive retrievals (each reports its own cost) ----------------------
    def lookup(self, token: str) -> RetrievalResult:
        """Single-term retrieval; charges the postings list it reads."""
        return RetrievalResult(
            doc_ids=set(self.postings(token)), postings_accessed=self.postings_length(token)
        )

    def intersect(self, tokens: list[str]) -> RetrievalResult:
        """AND of term postings, cheapest first: the one-query syntax tree.

        No tokens match every document at no cost.
        """
        if not tokens:
            return RetrievalResult(doc_ids=set(self._docs), postings_accessed=0)
        from repro.search.syntax_tree import build_tree

        return build_tree(tokens).evaluate(self)
