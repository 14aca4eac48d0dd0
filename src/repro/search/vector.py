"""Clustered ANN vector index: IVF over dual-encoder embeddings.

The lexical tier (:mod:`repro.search.inverted_index`) retrieves by exact
term match; when a query's vocabulary misses the catalog's (the gap the
paper's rewriting exists to close), lexical recall is zero no matter how
many rewrites are tried.  This module is the semantic tier underneath
:class:`~repro.search.hybrid.HybridSearchEngine`: documents live as
unit-norm embedding vectors, and retrieval is maximum-inner-product
(= cosine) search accelerated with an inverted-file (IVF) layout —
k-means centroids partition the vectors, a query probes only the
``nprobe`` nearest cells, and candidates in probed cells are re-ranked
with exact dot products.

Layout and semantics:

* **Training** — :meth:`VectorIndex.fit` runs spherical k-means
  (:func:`spherical_kmeans`) over the current vectors and rebuilds the
  per-cluster storage.  Centroids are frozen between fits, the standard
  IVF discipline: incremental adds assign to the nearest existing
  centroid, and a periodic re-fit re-balances the cells.
* **Per-cluster contiguous matrices** — each cell keeps its member
  vectors in one ``(capacity, dim)`` matrix (amortized doubling), so
  probing a cell is a single C-speed matrix–vector product, not a
  Python loop over documents.
* **Incremental maintenance** — ``add_document`` / ``remove_document``
  mirror :class:`~repro.search.inverted_index.InvertedIndex`; removal is
  an O(1) swap-with-last inside the owning cell, so churn never rebuilds
  anything.
* **Exact re-rank** — scores returned are exact dot products; the only
  approximation is which cells get probed.  With ``nprobe`` = number of
  cells the ranking equals :meth:`VectorIndex.brute_force` (scores can
  differ from the one-dense-matrix baseline in the last ulp, since BLAS
  sums per-cell products in a different order).

Complexity: ``fit`` is O(iters · n · clusters · dim); a probe search is
O(clusters · dim) to pick cells plus O(probed_vectors · dim) to score,
against O(n · dim) for brute force.  Ties break by ascending doc id
(:func:`~repro.search.ranking.top_k_by_score`), so results are
deterministic.

Thread safety: a :class:`VectorIndex` is single-writer — interleave
writes and searches only under external locking.
:class:`ShardedVectorIndex` provides exactly that through a pluggable
:class:`~repro.cluster.ShardBackend` (the same discipline as
:class:`~repro.search.sharded.ShardedIndex`): single-writer shards
behind per-shard mutexes in-process, or one worker process per shard
over pipes, with identical probe results either way.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import ShardBackend
from repro.search.ranking import top_k_by_score
from repro.search.sharded import ShardedTier, merge_topk


def spherical_kmeans(
    vectors: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator,
    iterations: int = 10,
) -> np.ndarray:
    """Spherical k-means: unit-norm centroids maximizing cosine to members.

    Assignment is by maximum dot product (= cosine for unit inputs); the
    update renormalizes each cluster mean back onto the sphere, and an
    emptied cluster is reseeded to a random vector.  Deterministic for a
    given ``rng`` state.  O(iterations · n · num_clusters · dim), fully
    vectorized.  Returns a ``(num_clusters, dim)`` centroid matrix (fewer
    rows when there are fewer vectors than requested clusters).
    """
    if num_clusters < 1:
        raise ValueError("num_clusters must be >= 1")
    n = vectors.shape[0]
    if n == 0:
        raise ValueError("cannot cluster zero vectors")
    num_clusters = min(num_clusters, n)
    seeds = rng.choice(n, size=num_clusters, replace=False)
    centroids = vectors[seeds].copy()
    for _ in range(iterations):
        assignment = np.argmax(vectors @ centroids.T, axis=1)
        for c in range(num_clusters):
            members = vectors[assignment == c]
            if members.shape[0] == 0:
                centroids[c] = vectors[int(rng.integers(n))]
                continue
            mean = members.mean(axis=0)
            norm = float(np.linalg.norm(mean))
            centroids[c] = mean / norm if norm > 0.0 else mean
    return centroids


class _Cell:
    """One IVF cell: member ids + a contiguous, growable vector matrix.

    The id vector consumed by searches is cached as an ndarray and
    invalidated by writes — converting a Python id list per probe would
    dominate small-probe searches.
    """

    __slots__ = ("ids", "pos", "matrix", "size", "_ids_cache")

    def __init__(self, dim: int, capacity: int = 8):
        self.ids: list[int] = []
        self.pos: dict[int, int] = {}
        self.matrix = np.zeros((capacity, dim), dtype=np.float64)
        self.size = 0
        self._ids_cache: np.ndarray | None = None

    def add(self, doc_id: int, vector: np.ndarray) -> None:
        if self.size == self.matrix.shape[0]:
            grown = np.zeros(
                (self.matrix.shape[0] * 2, self.matrix.shape[1]), dtype=np.float64
            )
            grown[: self.size] = self.matrix[: self.size]
            self.matrix = grown
        self.pos[doc_id] = self.size
        self.ids.append(doc_id)
        self.matrix[self.size] = vector
        self.size += 1
        self._ids_cache = None

    def remove(self, doc_id: int) -> None:
        at = self.pos.pop(doc_id)
        last = self.size - 1
        if at != last:
            moved = self.ids[last]
            self.ids[at] = moved
            self.matrix[at] = self.matrix[last]
            self.pos[moved] = at
        self.ids.pop()
        self.size = last
        self._ids_cache = None

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, vectors) snapshot views over the live prefix."""
        if self._ids_cache is None:
            self._ids_cache = np.asarray(self.ids, dtype=np.int64)
        return self._ids_cache, self.matrix[: self.size]


class VectorIndex:
    """IVF index over unit-norm document vectors, incrementally mutable.

    Mirrors :class:`~repro.search.inverted_index.InvertedIndex`'s
    maintenance surface (``add_document`` / ``remove_document`` /
    ``document`` / ``__len__`` / ``__contains__``) so the sharded and
    hybrid layers can drive both tiers through one idiom.

    Before the first :meth:`fit` the index has a single cell and every
    search degenerates to exact brute force; after ``fit``, adds assign
    to the nearest frozen centroid.  Single-writer (see module docstring).
    """

    def __init__(self, dim: int, *, num_clusters: int = 64, nprobe: int = 8, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if num_clusters < 1 or nprobe < 1:
            raise ValueError("num_clusters and nprobe must be >= 1")
        self.dim = dim
        self.num_clusters = num_clusters
        self.nprobe = nprobe
        self.seed = seed
        self.centroids: np.ndarray | None = None
        self._cells: list[_Cell] = [_Cell(dim)]
        self._cell_of: dict[int, int] = {}
        self._vectors: dict[int, np.ndarray] = {}
        self._dense_cache: tuple[np.ndarray, np.ndarray] | None = None

    # -- introspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cell_of)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._cell_of

    @property
    def trained(self) -> bool:
        """Whether k-means centroids exist (i.e. probing is meaningful)."""
        return self.centroids is not None

    def document(self, doc_id: int) -> np.ndarray:
        """The stored vector for ``doc_id`` (read-only copy)."""
        return self._vectors[doc_id].copy()

    def cell_sizes(self) -> list[int]:
        """Live member count per IVF cell (diagnostics / balance checks)."""
        return [cell.size for cell in self._cells]

    # -- incremental maintenance ----------------------------------------------
    def add_document(self, doc_id: int, vector: np.ndarray) -> None:
        """Insert one vector; assigns to the nearest frozen centroid.

        O(num_clusters · dim) for the assignment, amortized O(dim) for
        the append.  Raises on duplicate ids and on dimension mismatch,
        mirroring :class:`InvertedIndex.add_document`'s duplicate check.
        """
        if doc_id in self._cell_of:
            raise ValueError(f"document {doc_id} already indexed")
        # Own copy: the index must not alias a caller buffer that may be
        # reused — document() and re-fit() read these vectors later.
        vector = np.array(vector, dtype=np.float64).reshape(-1)
        if vector.shape[0] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {vector.shape[0]}")
        cell_id = 0
        if self.centroids is not None:
            cell_id = int(np.argmax(self.centroids @ vector))
        self._cells[cell_id].add(doc_id, vector)
        self._cell_of[doc_id] = cell_id
        self._vectors[doc_id] = vector
        self._dense_cache = None

    def remove_document(self, doc_id: int) -> None:
        """Delete one vector: O(1) swap-with-last in its owning cell."""
        cell_id = self._cell_of.pop(doc_id, None)
        if cell_id is None:
            raise KeyError(f"document {doc_id} not indexed")
        self._cells[cell_id].remove(doc_id)
        del self._vectors[doc_id]
        self._dense_cache = None

    def fit(
        self,
        doc_ids=None,
        vectors: np.ndarray | None = None,
        *,
        iterations: int = 10,
    ) -> None:
        """(Re)train centroids and re-bucket every vector.

        ``doc_ids``/``vectors`` bulk-load additional documents first (the
        catalog-build path: one call embeds-and-fits instead of n adds
        into an untrained single cell).  Existing documents are kept and
        re-assigned under the new centroids.
        """
        if (doc_ids is None) != (vectors is None):
            raise ValueError("pass doc_ids and vectors together")
        if doc_ids is not None:
            # np.array (not asarray): the bulk-load rows are stored and
            # must not alias the caller's matrix.
            vectors = np.array(vectors, dtype=np.float64)
            doc_ids = [int(d) for d in doc_ids]
            if vectors.ndim != 2 or vectors.shape != (len(doc_ids), self.dim):
                raise ValueError(
                    f"vectors must be (len(doc_ids), {self.dim}), got {vectors.shape}"
                )
            counts: dict[int, int] = {}
            for d in doc_ids:
                counts[d] = counts.get(d, 0) + 1
            offenders = sorted(
                {d for d in doc_ids if d in self._cell_of}
                | {d for d, c in counts.items() if c > 1}
            )
            if offenders:
                raise ValueError(f"documents already indexed or repeated: {offenders}")
            for doc_id, vector in zip(doc_ids, vectors):
                self._cell_of[doc_id] = 0  # placeholder; re-bucketed below
                self._vectors[doc_id] = vector
        if not self._vectors:
            raise ValueError("fit needs at least one vector")

        all_ids = sorted(self._vectors)
        matrix = np.stack([self._vectors[d] for d in all_ids])
        rng = np.random.default_rng(self.seed)
        self.centroids = spherical_kmeans(
            matrix, self.num_clusters, rng, iterations=iterations
        )
        assignment = np.argmax(matrix @ self.centroids.T, axis=1)
        self._cells = [_Cell(self.dim) for _ in range(self.centroids.shape[0])]
        for doc_id, cell_id, vector in zip(all_ids, assignment, matrix):
            self._cells[int(cell_id)].add(doc_id, vector)
            self._cell_of[doc_id] = int(cell_id)
        self._dense_cache = None

    # -- persistence -----------------------------------------------------------
    def save(self, path) -> None:
        """Write this index as one full IVF-cell segment file.

        The single-file form of :mod:`repro.store`: centroids, per-cell
        member ids and vectors in live cell order, and the geometry
        (dim, clusters, nprobe, seed) — so :meth:`load` reproduces the
        exact cell layout and therefore the exact probe results.
        """
        from pathlib import Path

        from repro.store import segments as _segments

        Path(path).write_bytes(_segments.encode_vectors_segment(self))

    @classmethod
    def load(cls, path) -> "VectorIndex":
        """Restore an index saved by :meth:`save`, fully verified.

        Raises a typed :class:`~repro.store.StoreError` subclass on any
        corruption; never returns a half-built index.
        """
        from repro.store import read_segment_file
        from repro.store import segments as _segments

        return _segments.decode_vectors_segment(read_segment_file(path))

    # -- search ----------------------------------------------------------------
    def search(
        self, query: np.ndarray, k: int, *, nprobe: int | None = None
    ) -> list[tuple[float, int]]:
        """ANN top-``k`` as ``(score, doc_id)``, best dot product first.

        Probes the ``nprobe`` cells whose centroids score highest against
        the query, concatenates their member matrices, and re-ranks the
        candidates with exact dot products; ties break by ascending doc
        id.  ``nprobe`` ≥ the cell count makes the search exact.
        """
        nprobe = self.nprobe if nprobe is None else nprobe
        if nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        if k <= 0 or not self._cell_of:
            return []
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if self.centroids is None or nprobe >= len(self._cells):
            cells = [c for c in self._cells if c.size]
        else:
            sims = self.centroids @ query
            order = np.argpartition(-sims, nprobe - 1)[:nprobe]
            cells = [self._cells[int(c)] for c in order if self._cells[int(c)].size]
        if not cells:
            return []
        views = [cell.view() for cell in cells]
        if len(views) == 1:
            ids, vectors = views[0]
            return top_k_by_score(ids, vectors @ query, k)
        # Score per cell and concatenate only the score vectors: each
        # cell matrix is already contiguous, so stacking them first would
        # copy dim× more bytes than this does.
        ids = np.concatenate([v[0] for v in views])
        scores = np.concatenate([v[1] @ query for v in views])
        return top_k_by_score(ids, scores, k)

    def brute_force(self, query: np.ndarray, k: int) -> list[tuple[float, int]]:
        """Exact top-``k`` by one dense matrix–vector product.

        The ground truth the ANN search is measured against, and the
        honest baseline for the ≥5× speed claim: the document matrix is
        kept as one contiguous snapshot (cached, invalidated by writes),
        so this costs exactly one O(n · dim) scoring pass — no IVF
        overheads to flatter the comparison.
        """
        if k <= 0 or not self._cell_of:
            return []
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if self._dense_cache is None:
            # concatenate always allocates, so the cache never aliases a
            # live cell matrix even with a single non-empty cell.
            views = [cell.view() for cell in self._cells if cell.size]
            self._dense_cache = (
                np.concatenate([v[0] for v in views]),
                np.concatenate([v[1] for v in views]),
            )
        ids, matrix = self._dense_cache
        return top_k_by_score(ids, matrix @ query, k)


class ShardedVectorIndex(ShardedTier):
    """Vectors partitioned over N single-writer :class:`VectorIndex` shards.

    The same fan-out/merge discipline as the lexical
    :class:`~repro.search.sharded.ShardedIndex`, from the same
    :class:`~repro.search.sharded.ShardedTier` base: routing is
    ``doc_id % num_shards`` (stable, no routing table), shard state
    lives behind a pluggable :class:`~repro.cluster.ShardBackend`
    (threads in-process by default, worker processes or a replica
    router by injection), and the per-shard ``(score, doc_id)`` lists
    merge through the shared :func:`~repro.search.sharded.merge_topk`.
    Because scores are exact dot products — no per-shard statistics —
    the merged top-k at full probe width equals an unsharded exact
    search, on every backend.
    """

    tier = "vector"

    def __init__(
        self,
        dim: int,
        *,
        num_shards: int = 4,
        num_clusters: int = 16,
        nprobe: int = 4,
        parallel: bool = True,
        seed: int = 0,
        backend: ShardBackend | None = None,
    ):
        """Fresh thread-backed shards by default (shard ``i`` seeds its
        k-means at ``seed + i``); ``backend`` injects any pre-built
        deployment and must match ``dim``."""
        super().__init__(
            num_shards,
            parallel,
            backend,
            lambda i: VectorIndex(
                dim, num_clusters=num_clusters, nprobe=nprobe, seed=seed + i
            ),
        )
        self.dim = dim
        self._store_meta = {"dim": dim}

    @classmethod
    def _from_backend(cls, backend) -> "ShardedVectorIndex":
        """The restored index, its ``dim`` read from the shards (which
        must agree)."""
        from repro.store import SegmentCorruptError

        metas = backend.fanout("meta")
        dims = {meta["dim"] for meta in metas}
        if len(dims) != 1:
            backend.close()
            raise SegmentCorruptError(
                f"shards disagree on vector dim: {sorted(dims)}"
            )
        return cls(metas[0]["dim"], backend=backend)

    # -- incremental maintenance ----------------------------------------------
    def fit(self, doc_ids, vectors: np.ndarray) -> None:
        """Bulk-load and train every shard on its own partition."""
        vectors = np.asarray(vectors, dtype=np.float64)
        doc_ids = [int(d) for d in doc_ids]
        if vectors.ndim != 2 or vectors.shape[0] != len(doc_ids):
            raise ValueError("vectors must be (len(doc_ids), dim)")
        by_shard: dict[int, list[int]] = {}
        for at, doc_id in enumerate(doc_ids):
            by_shard.setdefault(self.shard_of(doc_id), []).append(at)
        for shard_id, rows in by_shard.items():
            self._backend.call(
                shard_id,
                "fit",
                [doc_ids[r] for r in rows],
                vectors[np.asarray(rows)],
            )

    def add_document(self, doc_id: int, vector: np.ndarray) -> None:
        """Insert into the owning shard (single-writer discipline)."""
        self._backend.call(self.shard_of(doc_id), "add", doc_id, vector)

    def remove_document(self, doc_id: int) -> None:
        """Delete from the owning shard (single-writer discipline)."""
        self._backend.call(self.shard_of(doc_id), "remove", doc_id)

    # -- fan-out search --------------------------------------------------------
    def search(
        self, query: np.ndarray, k: int, *, nprobe: int | None = None
    ) -> list[tuple[float, int]]:
        """Probe every shard (in parallel) and merge the per-shard top-k."""
        query = np.asarray(query, dtype=np.float64)
        per_shard = self._backend.fanout("search", query, k, nprobe)
        return merge_topk(per_shard, k)
