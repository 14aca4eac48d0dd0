"""The shard RPC vocabulary: named operations over one shard's index.

Every shard interaction — search fan-out, churn, stats, persistence
snapshots, failure-injection probes — is expressed as an ``(op, args)``
pair dispatched through these per-tier handler tables.  Both backends
execute the *same* handler functions: :class:`~repro.cluster.backend.
InprocBackend` calls them directly under the shard mutex, and
:class:`~repro.cluster.backend.ProcessBackend` workers resolve them by
``(tier, op)`` name after the pair crosses the pipe.  Identical code on
identical state is what makes process results byte-identical to thread
results — equivalence by construction, not by careful reimplementation.

Handlers take ``(index, *args)`` where ``index`` is the shard's
:class:`~repro.search.inverted_index.InvertedIndex` (``"lexical"`` tier)
or :class:`~repro.search.vector.VectorIndex` (``"vector"`` tier).
Arguments and results must be picklable; all of ours are (packed
syntax trees, which are tuples, frozen-dataclass rankers, token tuples,
numpy arrays, floats — and pickled floats round-trip bit-exactly).

:data:`MUTATING_OPS` names the ops that change shard state; the replica
router broadcasts those to every healthy replica and routes everything
else to exactly one.
"""

from __future__ import annotations

import time
import zlib

#: ops that mutate shard state — the router broadcasts these to all
#: healthy replicas instead of routing them to one
MUTATING_OPS = frozenset({"add", "remove", "fit"})


# -- tier-agnostic ops --------------------------------------------------------
def ping(index) -> bool:
    """Liveness probe: proves the worker loop is serving requests."""
    return True


def shard_size(index) -> int:
    """Live document count of this shard."""
    return len(index)


def contains(index, doc_id: int) -> bool:
    """Whether ``doc_id`` is indexed in this shard."""
    return doc_id in index

def get_state(index):
    """The shard's index object itself (a pickled copy over a pipe).

    The quiesced-snapshot primitive behind ``save``: the parent collects
    every shard's state and runs the normal segment-store encode.  Over
    a process backend the reply is a private copy; in-process callers
    receive the live object and must hold the backend's quiesce context
    while touching it.
    """
    return index


def stall(index, seconds: float) -> float:
    """Block the shard for ``seconds`` (failure injection: a slow worker).

    Exists so timeout/failover paths can be exercised deterministically
    in tests; never called by the serving path.
    """
    time.sleep(seconds)
    return seconds


# -- lexical tier -------------------------------------------------------------
def lexical_add(index, doc_id: int, tokens: tuple) -> None:
    """Index one document in this shard."""
    index.add_document(doc_id, tokens)


def lexical_remove(index, doc_id: int) -> tuple:
    """Unindex one document; returns its token tuple.

    The tokens flow back so the facade can decrement the global
    document-frequency table without a second round trip.
    """
    tokens = index.document(doc_id)
    index.remove_document(doc_id)
    return tokens


def lexical_document(index, doc_id: int) -> tuple:
    """The indexed token tuple of ``doc_id`` (KeyError if absent)."""
    return index.document(doc_id)


def lexical_doc_ids(index) -> list:
    """Sorted live doc ids of this shard."""
    return index.document_ids()


def lexical_stats_raw(index) -> tuple:
    """``(num_docs, total_length, dfs)`` exact integer shard statistics.

    Summed across shards by the facade to rebuild global corpus
    statistics after a cold start — the same integers an unsharded
    index would hold, so BM25 stays bit-identical.
    """
    return (len(index), index.total_doc_length, index.stats().document_frequencies)


def lexical_search(index, requests, ranker, k: int) -> list:
    """One shard's share of a micro-batch of fan-out searches.

    ``requests`` is ``[(trees, query_tokens), ...]`` — a lone search is a
    batch of one.  The trees are :class:`~repro.search.syntax_tree.
    PackedTree` node tables, evaluated straight from the table into
    masks over the shard's document slots.  Each request unions its
    trees' masks into candidate slots and ranks the local top-``k`` with
    the pinned ranker (global statistics travel inside it, once for the
    batch).  Returns one ``(top, cost, num_candidates)`` per request, in
    order, exactly as the thread fan-out always has per query.
    """
    # Imported here, like the digest codecs: repro.search itself imports
    # this package, so a module-level import would be circular.
    from repro.search.syntax_tree import evaluate_trees

    results = []
    for trees, query_tokens in requests:
        candidates, cost = evaluate_trees(trees, index)
        top = ranker.rank_scored(index, query_tokens, candidates, k)
        results.append((top, cost, int(candidates.size)))
    return results


def lexical_digest(index) -> int:
    """CRC32 of the shard's full-segment encoding.

    The respawn fingerprint: the segment codec is deterministic, so two
    shards digest equal iff their persisted form is byte-identical.
    """
    from repro.store import segments as codecs

    return zlib.crc32(codecs.encode_postings_segment(index))


# -- vector tier --------------------------------------------------------------
def vector_add(index, doc_id: int, vector) -> None:
    """Insert one vector into this shard."""
    index.add_document(doc_id, vector)


def vector_remove(index, doc_id: int) -> None:
    """Delete one vector from this shard (KeyError if absent)."""
    index.remove_document(doc_id)


def vector_fit(index, doc_ids, vectors) -> None:
    """Bulk-load and (re)train this shard's IVF cells."""
    index.fit(doc_ids, vectors)


def vector_document(index, doc_id: int):
    """The stored vector for ``doc_id`` (a copy)."""
    return index.document(doc_id)


def vector_doc_ids(index) -> list:
    """Sorted live doc ids of this shard."""
    return sorted(index._cell_of)


def vector_meta(index) -> dict:
    """Shard geometry: dim / clusters / nprobe / seed.

    Lets a facade reconstruct itself over a cold-started backend without
    decoding any segment in the parent.
    """
    return {
        "dim": index.dim,
        "num_clusters": index.num_clusters,
        "nprobe": index.nprobe,
        "seed": index.seed,
    }


def vector_search(index, query, k: int, nprobe) -> list:
    """One shard's ANN probe: local ``(score, doc_id)`` top-k."""
    return index.search(query, k, nprobe=nprobe)


def vector_digest(index) -> int:
    """CRC32 of the shard's full-segment encoding (see lexical twin)."""
    from repro.store import segments as codecs

    return zlib.crc32(codecs.encode_vectors_segment(index))


#: handler tables: ``OPS[tier][op](index, *args)``
OPS: dict[str, dict] = {
    "lexical": {
        "ping": ping,
        "shard_size": shard_size,
        "contains": contains,
        "get_state": get_state,
        "stall": stall,
        "add": lexical_add,
        "remove": lexical_remove,
        "doc": lexical_document,
        "doc_ids": lexical_doc_ids,
        "stats_raw": lexical_stats_raw,
        "search": lexical_search,
        "digest": lexical_digest,
    },
    "vector": {
        "ping": ping,
        "shard_size": shard_size,
        "contains": contains,
        "get_state": get_state,
        "stall": stall,
        "add": vector_add,
        "remove": vector_remove,
        "fit": vector_fit,
        "doc": vector_document,
        "doc_ids": vector_doc_ids,
        "meta": vector_meta,
        "search": vector_search,
        "digest": vector_digest,
    },
}
