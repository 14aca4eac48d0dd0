"""Sharded retrieval: N single-writer index shards with fan-out search.

The single :class:`~repro.search.inverted_index.InvertedIndex` serves the
paper's figures; the ROADMAP's "heavy traffic" north star needs the shape
of a production index: documents partitioned across shards that can be
updated independently (one writer per shard, no global write lock) and
searched in parallel, with per-shard top-k results merged into a global
top-k.

Layout and semantics:

* **Partitioning** — ``doc_id % num_shards``, stable and computable by
  any tier without a routing table.
* **Pluggable backends** — shard state lives behind a
  :class:`~repro.cluster.ShardBackend`: threads in this process
  (:class:`~repro.cluster.InprocBackend`, the default — single-writer
  mutex per shard, fan-out through one clamped shared pool), worker
  *processes* serving RPCs over pipes
  (:class:`~repro.cluster.ProcessBackend`, breaking the GIL), or an
  N-way :class:`~repro.cluster.ReplicaRouter` over either.  Both
  backends execute the same :mod:`repro.cluster.ops` handlers, so the
  deployment choice never changes a result.
* **Compile once** — a query (plus rewrites) compiles to ONE merged
  syntax tree (Section III-H applies unchanged per shard), packed into a
  flat node table (:func:`~repro.search.syntax_tree.pack`).  The
  compiled form is a pure function of the request's strings, so
  :class:`ShardedSearchEngine` memoizes it in a bounded LRU: a repeated
  head search skips tokenizing and tree building, and every repeat of
  it in a micro-batch is the same object, pickled once.  Catalog churn
  changes postings, never trees, so the memo is never invalidated.
* **Fan-out / merge** — every shard evaluates the packed trees and ranks
  its local top-k, and the per-shard ``(score, doc_id)`` heaps merge
  into the global top-k.  Every shard ranks against *global* corpus
  statistics, pinned into the ranker and pruned to the ranked queries'
  tokens (the only frequencies the ranker protocol consults) so they
  ship over a pipe in O(query) bytes — the merged result is identical
  to ranking an unsharded index, bit for bit.  A micro-batch of
  searches (``search_many``) shares one pin and ONE request and reply
  per shard; a lone ``search`` is the batch of one.
* **Cost accounting** — ``postings_accessed`` sums over shards.  A term's
  postings are split across shards, so the total equals the unsharded
  cost modulo per-shard early exits, and the merged-tree-vs-separate-trees
  comparison (Figure 5) carries over shard by shard.
"""

from __future__ import annotations

import functools
import heapq
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple

from repro.cluster import InprocBackend, ProcessBackend, ShardBackend
from repro.data.catalog import Catalog
from repro.search.engine import SearchConfig, SearchOutcome
from repro.search.inverted_index import IndexStats
from repro.search.ranking import Ranker, make_ranker
from repro.search.syntax_tree import PackedTree, build_tree, merge_queries, pack
from repro.text import tokenize

#: compiled searches an engine keeps (LRU).  A bench-shaped entry (a
#: head query and its three cached rewrites) measures 2.0 kB under
#: ``tracemalloc``, LRU bookkeeping included, so a full memo is ~2 MB
COMPILE_MEMO_SIZE = 1024


class CompiledSearch(NamedTuple):
    """One request, ready to ship: what :func:`compile_search` returns.

    ``trees`` (one merged tree, or one per non-empty query) and
    ``ranked`` (the tokens the ranker scores: the first non-empty query)
    are exactly what crosses the wire.
    """

    trees: tuple[PackedTree, ...]
    ranked: tuple[str, ...]
    tree_nodes: int
    num_trees: int


def compile_search(queries, merge_trees: bool) -> CompiledSearch:
    """Compile tokenized ``queries`` (original first) into packed trees.

    Empty queries drop out; none left raises ``ValueError``.  Merging
    goes through the module's ``merge_queries`` attribute at call time.
    """
    queries = tuple(tuple(query) for query in queries if query)
    if not queries:
        raise ValueError("search received an empty query")
    if merge_trees:
        trees = (pack(merge_queries(queries)),)
    else:
        trees = tuple(pack(build_tree(query)) for query in queries)
    return CompiledSearch(
        trees=trees,
        ranked=queries[0],
        tree_nodes=sum(len(tree.kinds) for tree in trees),
        num_trees=len(trees),
    )


def _compile_request(query: str, rewrites: tuple, merge_trees: bool) -> CompiledSearch:
    """:func:`compile_search` over raw strings (the engine's memo entry).

    Tokens are interned, so a token shared by several memo entries is
    one object: stored once, and pickled once per fan-out request.
    """
    return compile_search(
        [tuple(map(sys.intern, tokenize(text))) for text in (query, *rewrites)],
        merge_trees,
    )


def merge_topk(
    per_shard: list[list[tuple[float, int]]], k: int
) -> list[tuple[float, int]]:
    """K-way merge of per-shard ``(score, doc_id)`` top-k lists.

    Returns the global top-``k``, best score first, ties broken by
    ascending doc id — exactly the order a single index ranking the union
    would produce.  O(total · log k) via a bounded heap.  Pure function;
    shared by the lexical (:class:`ShardedIndex`) and semantic
    (:class:`~repro.search.vector.ShardedVectorIndex`) fan-outs.
    """
    merged = heapq.nsmallest(
        k,
        ((-score, doc_id) for top in per_shard for score, doc_id in top),
    )
    return [(-neg, doc_id) for neg, doc_id in merged]


def resolve_backend(
    tier: str,
    backend,
    root,
    *,
    parallel: bool = True,
    timeout: float | None = None,
):
    """Materialize a load-time ``backend`` choice for a segment store.

    ``backend`` is ``"inproc"`` (decode in this process, thread
    fan-out), ``"process"`` (spawn one worker per shard, each
    cold-starting its own chain via ``SegmentStore.load_shard``), or an
    already-built :class:`~repro.cluster.ShardBackend` /
    :class:`~repro.cluster.ReplicaRouter` instance, returned as-is.
    Shared by the lexical and vector restore paths.
    """
    if not isinstance(backend, str):
        if backend.tier != tier:
            raise ValueError(
                f"backend serves tier {backend.tier!r}, expected {tier!r}"
            )
        return backend
    if backend == "process":
        return ProcessBackend(tier, store_root=root, timeout=timeout)
    if backend != "inproc":
        raise ValueError(
            f"unknown backend {backend!r}; expected 'inproc', 'process', "
            "or a ShardBackend instance"
        )
    import numpy as np

    from repro.store import SegmentCorruptError, SegmentStore

    indexes = SegmentStore(root, tier).load()
    for shard_id, index in enumerate(indexes):
        live_ids = index._docs if tier == "lexical" else index._vectors
        ids = np.fromiter(live_ids, dtype=np.int64, count=len(live_ids))
        if ids.size and np.any(ids % len(indexes) != shard_id):
            raise SegmentCorruptError(
                f"shard {shard_id} holds documents routed to another shard"
            )
    return InprocBackend(tier, indexes=indexes, parallel=parallel)


@dataclass
class ShardedOutcome:
    """Global top-k plus per-shard accounting for one fan-out search."""

    doc_ids: list[int]
    scores: list[float]
    postings_accessed: int
    per_shard_postings: list[int]
    per_shard_candidates: list[int]
    tree_nodes: int

    def __len__(self) -> int:
        return len(self.doc_ids)


class ShardedIndex:
    """Documents partitioned over N single-writer inverted-index shards."""

    def __init__(
        self,
        num_shards: int = 4,
        *,
        parallel: bool = True,
        backend: ShardBackend | None = None,
    ):
        """Fresh thread-backed shards by default; ``backend`` injects any
        pre-built deployment (a loaded :class:`~repro.cluster.
        ProcessBackend`, a :class:`~repro.cluster.ReplicaRouter`, ...) —
        global statistics are then rebuilt from the backend's shards."""
        if backend is None:
            if num_shards < 1:
                raise ValueError("num_shards must be >= 1")
            backend = InprocBackend(
                "lexical", num_shards=num_shards, parallel=parallel
            )
        elif backend.tier != "lexical":
            raise ValueError(
                f"backend serves tier {backend.tier!r}, expected 'lexical'"
            )
        self._backend = backend
        self.num_shards = backend.num_shards
        self.parallel = getattr(backend, "parallel", True)
        # Global corpus statistics are maintained incrementally on every
        # write (O(distinct tokens of the doc)), so interleaved churn and
        # search never pays a full-vocabulary rescan.
        self._stats_lock = threading.Lock()
        self._num_docs = 0
        self._total_length = 0
        self._dfs: dict[str, int] = {}
        self._seed_stats()

    def _seed_stats(self) -> None:
        """Rebuild global statistics as exact integer sums over shards.

        One fan-out at construction; zero-cost for fresh empty shards,
        and after a cold start it reproduces the same integers the live
        index held, keeping BM25 bit-identical across restore/replica
        boundaries.
        """
        for num_docs, total_length, dfs in self._backend.fanout("stats_raw"):
            self._num_docs += num_docs
            self._total_length += total_length
            for token, count in dfs.items():
                self._dfs[token] = self._dfs.get(token, 0) + count

    @property
    def backend(self) -> ShardBackend:
        """The shard backend this index routes through."""
        return self._backend

    # -- partitioning ---------------------------------------------------------
    def shard_of(self, doc_id: int) -> int:
        """The owning shard: ``doc_id % num_shards``."""
        return doc_id % self.num_shards

    def shard_sizes(self) -> list[int]:
        """Live document count per shard."""
        return self._backend.fanout("shard_size")

    def __len__(self) -> int:
        return sum(self.shard_sizes())

    def __contains__(self, doc_id: int) -> bool:
        return self._backend.call(self.shard_of(doc_id), "contains", doc_id)

    # -- incremental maintenance ----------------------------------------------
    def add_document(self, doc_id: int, tokens: list[str] | tuple[str, ...]) -> None:
        """Index one document in its owning shard (that shard only).

        Global corpus statistics update under their own lock — O(distinct
        tokens), never a full-vocabulary rescan.
        """
        tokens = tuple(tokens)
        self._backend.call(self.shard_of(doc_id), "add", doc_id, tokens)
        with self._stats_lock:
            self._num_docs += 1
            self._total_length += len(tokens)
            for token in set(tokens):
                self._dfs[token] = self._dfs.get(token, 0) + 1

    def remove_document(self, doc_id: int) -> None:
        """Unindex one document from its owning shard, inverse of add."""
        tokens = self._backend.call(self.shard_of(doc_id), "remove", doc_id)
        with self._stats_lock:
            self._num_docs -= 1
            self._total_length -= len(tokens)
            for token in set(tokens):
                remaining = self._dfs[token] - 1
                if remaining:
                    self._dfs[token] = remaining
                else:
                    del self._dfs[token]

    def document(self, doc_id: int) -> tuple[str, ...]:
        """The indexed token tuple of ``doc_id`` (KeyError if absent)."""
        return self._backend.call(self.shard_of(doc_id), "doc", doc_id)

    def document_ids(self) -> list[int]:
        """Sorted ids of every live document across all shards.

        The audit surface for tenant isolation: a per-tenant index must
        only ever hold ids from its tenant's id space, churn included.
        """
        ids: list[int] = []
        for shard_ids in self._backend.fanout("doc_ids"):
            ids.extend(shard_ids)
        return sorted(ids)

    def stats(self) -> IndexStats:
        """Global corpus statistics, maintained incrementally.

        The integer total length keeps ``avg_doc_length`` bit-identical to
        what an unsharded index over the same corpus would compute, which
        in turn keeps sharded BM25 scores equal to unsharded ones.  The
        document-frequency table is the live counter dict (rankers only
        ``.get`` from it), so building the view is O(1), not O(vocabulary).
        """
        with self._stats_lock:
            return IndexStats(
                num_docs=self._num_docs,
                avg_doc_length=(
                    self._total_length / self._num_docs if self._num_docs else 0.0
                ),
                document_frequencies=self._dfs,
            )

    def _query_stats(self, tokens: set[str]) -> IndexStats:
        """Global statistics pruned to the ranked tokens.

        The ranker protocol only consults ``document_frequency`` for the
        tokens it ranks, so this view scores identically to the full
        table while costing O(ranked tokens) to build and to pickle —
        what makes shipping the pinned ranker to a worker process cheap
        AND bit-identical.
        """
        with self._stats_lock:
            return IndexStats(
                num_docs=self._num_docs,
                avg_doc_length=(
                    self._total_length / self._num_docs if self._num_docs else 0.0
                ),
                document_frequencies={
                    token: self._dfs[token] for token in tokens if token in self._dfs
                },
            )

    # -- persistence -----------------------------------------------------------
    def save(self, root):
        """Persist every shard into a ``"lexical"`` segment store at ``root``.

        Quiesces the backend for the snapshot (in-process: all shard
        mutexes held; worker processes: consistent pickled copies).
        Incremental after the first save: unchanged shards write
        nothing, churned shards append a delta segment, heavily churned
        shards rewrite their base.  Returns the new
        :class:`~repro.store.Manifest`.
        """
        from repro.store import SegmentStore

        store = SegmentStore(root, "lexical")
        with self._backend.quiesce() as indexes:
            return store.save(indexes)

    @classmethod
    def load(
        cls,
        root,
        *,
        parallel: bool = True,
        backend: str | ShardBackend = "inproc",
        timeout: float | None = None,
    ) -> "ShardedIndex":
        """Restore a sharded index saved by :meth:`save`.

        The shard count comes from the store.  ``backend`` picks the
        deployment: ``"inproc"`` decodes every shard in this process
        (thread fan-out, the default), ``"process"`` spawns one worker
        per shard that cold-starts its own chain (``timeout`` bounds
        each RPC).  Global corpus statistics are rebuilt as exact
        integer sums over the decoded shards, so BM25 scores after a
        reload are bit-identical to the live index the store was saved
        from.  Routing is re-validated; every checksum failure raises a
        typed :class:`~repro.store.StoreError`.
        """
        return cls(
            backend=resolve_backend(
                "lexical", backend, root, parallel=parallel, timeout=timeout
            )
        )

    # -- fan-out search --------------------------------------------------------
    def search(
        self,
        queries: list[list[str]],
        k: int,
        ranker: Ranker | None = None,
        merge_trees: bool = True,
    ) -> ShardedOutcome:
        """Evaluate ``queries`` (original + rewrites, tokenized) on every
        shard and merge the per-shard top-k heaps into the global top-k
        (:meth:`search_many` over a batch of one)."""
        return self.search_many([queries], k, ranker, merge_trees)[0]

    def search_many(
        self,
        batch: list[list[list[str]]],
        k: int,
        ranker: Ranker | None = None,
        merge_trees: bool = True,
    ) -> list[ShardedOutcome]:
        """A micro-batch of searches in ONE request and reply per shard.

        Each entry of ``batch`` is one search's ``queries``; every entry
        is compiled (:func:`compile_search`, no memo) before anything is
        sent, then the batch takes :meth:`_fan_out`.  An empty batch
        sends nothing.
        """
        compiled = [compile_search(queries, merge_trees) for queries in batch]
        return self._fan_out(compiled, k, ranker)

    def _fan_out(
        self, compiled: list[CompiledSearch], k: int, ranker: Ranker | None
    ) -> list[ShardedOutcome]:
        """Search compiled requests: ONE request and reply per shard.

        The ranker is pinned once, to the statistics of the union of the
        batch's ranked tokens (a ranker reads only the frequencies of the
        query it ranks, so every score is what a lone search computes);
        one fan-out carries every request's packed trees, and the
        per-shard top-k heaps are merged per request.
        """
        if not compiled:
            return []
        ranked: set[str] = set()
        for search in compiled:
            ranked.update(search.ranked)
        ranker = (ranker or make_ranker("bm25")).with_stats(self._query_stats(ranked))
        shard_results = self._backend.fanout(
            "search", [(search.trees, search.ranked) for search in compiled], ranker, k
        )

        # Global top-k per request: k-way merge of the per-shard bounded heaps.
        outcomes = []
        for search, results in zip(compiled, zip(*shard_results)):
            merged = merge_topk([top for top, _, _ in results], k)
            outcomes.append(
                ShardedOutcome(
                    doc_ids=[doc_id for _, doc_id in merged],
                    scores=[score for score, _ in merged],
                    postings_accessed=sum(cost for _, cost, _ in results),
                    per_shard_postings=[cost for _, cost, _ in results],
                    per_shard_candidates=[n for _, _, n in results],
                    tree_nodes=search.tree_nodes,
                )
            )
        return outcomes

    # -- deployment reporting --------------------------------------------------
    def cluster_stats(self) -> dict:
        """Backend choice + failover counters (see ``ServingStats``)."""
        return dict(self._backend.describe())

    def close(self) -> None:
        """Release the backend (threads or worker processes; idempotent)."""
        self._backend.close()

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardedSearchEngine:
    """Drop-in, catalog-facing facade over :class:`ShardedIndex`.

    Mirrors :class:`~repro.search.engine.SearchEngine`'s ``search(query,
    rewrites)`` surface so the serving pipeline's ``search_batch`` can use
    either engine, while exposing the sharded index for incremental
    catalog updates.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: SearchConfig | None = None,
        *,
        num_shards: int = 4,
        parallel: bool = True,
        ranker: Ranker | None = None,
        index: ShardedIndex | None = None,
    ):
        """``index`` injects a pre-built sharded index (the restore path:
        :meth:`load` skips the per-product catalog build entirely); when
        given, ``num_shards``/``parallel`` are taken from it."""
        self.catalog = catalog
        self.config = config or SearchConfig(ranker="bm25")
        self.ranker = ranker or make_ranker(self.config.ranker)
        #: (query, rewrites, merge_trees) -> CompiledSearch, bounded LRU
        self._compiled = functools.lru_cache(maxsize=COMPILE_MEMO_SIZE)(
            _compile_request
        )
        if index is not None:
            self.index = index
        else:
            self.index = ShardedIndex(num_shards, parallel=parallel)
            for product in catalog.products:
                self.index.add_document(product.product_id, product.title_tokens)

    # -- persistence -----------------------------------------------------------
    def save(self, root):
        """Persist the engine's index (see :meth:`ShardedIndex.save`)."""
        return self.index.save(root)

    @classmethod
    def load(
        cls,
        catalog: Catalog,
        root,
        config: SearchConfig | None = None,
        *,
        parallel: bool = True,
        ranker: Ranker | None = None,
        backend: str | ShardBackend = "inproc",
        timeout: float | None = None,
    ) -> "ShardedSearchEngine":
        """Cold-start an engine from a segment store instead of the catalog.

        Restores the sharded index from ``root`` (checksums verified,
        global statistics rebuilt exactly) and wraps it with the given
        catalog and config — O(store size), without re-tokenizing or
        re-adding a single product.  ``backend`` picks the deployment
        (see :meth:`ShardedIndex.load`).  The catalog is only consulted
        for future churn, so it may legitimately differ from the
        persisted document set until the caller reconciles them.
        """
        return cls(
            catalog,
            config,
            ranker=ranker,
            index=ShardedIndex.load(
                root, parallel=parallel, backend=backend, timeout=timeout
            ),
        )

    def add_document(self, doc_id: int, tokens) -> None:
        """Index a raw document (index only; see :meth:`add_product`)."""
        self.index.add_document(doc_id, tokens)

    def remove_document(self, doc_id: int) -> None:
        """Unindex a raw document (index only; see :meth:`remove_product`)."""
        self.index.remove_document(doc_id)

    def document_ids(self) -> list[int]:
        """Sorted live document ids (see :meth:`ShardedIndex.document_ids`)."""
        return self.index.document_ids()

    # -- catalog-level churn ---------------------------------------------------
    def add_product(self, product) -> None:
        """Add a product to the catalog AND the live index, in lockstep.

        The one-call form keeps the two structures from drifting under
        churn: a product is either in both (searchable, resolvable) or in
        neither.  ``Catalog.add_product`` validates id uniqueness first,
        so a rejected add never half-lands in the index.
        """
        self.catalog.add_product(product)
        self.index.add_document(product.product_id, product.title_tokens)

    def remove_product(self, product_id: int) -> None:
        """Remove a product from the catalog AND the live index."""
        self.catalog.remove_product(product_id)
        self.index.remove_document(product_id)

    def search(self, query: str, rewrites: list[str] | None = None) -> SearchOutcome:
        """Fan-out retrieval of ``query`` + rewrites over every shard
        (:meth:`search_many` over a batch of one)."""
        return self.search_many([(query, rewrites)])[0]

    def search_many(self, batch: list[tuple]) -> list[SearchOutcome]:
        """Retrieve a micro-batch of ``(query, rewrites)`` requests.

        Per request: its compiled form — tokens and one merged, packed
        syntax tree (Section III-H) — from the engine's memo, built on a
        miss; then per-shard evaluation and ranking against global
        statistics and an exact global top-k merge, with one round trip
        per shard for the whole batch (see :meth:`ShardedIndex.search_many`).
        """
        batch = [(query, list(rewrites or [])) for query, rewrites in batch]
        merge_trees = self.config.merge_trees
        compiled = [
            self._compiled(query, tuple(rewrites), merge_trees)
            for query, rewrites in batch
        ]
        outcomes = self.index._fan_out(
            compiled, self.config.max_candidates, self.ranker
        )
        return [
            SearchOutcome(
                query=query,
                rewrites=rewrites,
                doc_ids=outcome.doc_ids,
                postings_accessed=outcome.postings_accessed,
                tree_nodes=outcome.tree_nodes,
                num_trees=search.num_trees,
                scores=outcome.scores,
            )
            for (query, rewrites), search, outcome in zip(batch, compiled, outcomes)
        ]

    def cluster_stats(self) -> dict:
        """Backend choice + failover counters of the underlying index."""
        return self.index.cluster_stats()

    def close(self) -> None:
        """Release the underlying index's backend."""
        self.index.close()
