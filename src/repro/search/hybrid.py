"""Hybrid lexical/semantic retrieval: BM25 ∪ ANN with rank fusion.

The classic dense-retrieval recipe (DPR-style dual encoders fused with a
BM25 baseline): run the lexical tier and the semantic tier side by side
and fuse their top-k lists, so exact term matches keep their precision
while embedding recall covers the vocabulary gap — the queries whose
tokens (and whose rewrites' tokens) never occur in any title.

Three per-request retrieval modes (:data:`RETRIEVAL_MODES`):

* ``"lexical"`` — the sharded BM25 engine alone (rewrites expand the
  merged syntax tree as before);
* ``"semantic"`` — the ANN tier alone: the *original* query is embedded
  with the dual encoder's query tower and probed against the IVF index
  (rewrites are a lexical device; the embedding already generalizes);
* ``"hybrid"`` — both, fused.

Two fusion strategies:

* **Reciprocal-rank fusion** (:func:`reciprocal_rank_fusion`) —
  ``score(d) = Σ_lists 1 / (rrf_k + rank_d)``; scale-free, so BM25 and
  dot-product scores need no calibration.  The default.
* **Weighted-score fusion** (:func:`weighted_score_fusion`) —
  ``α · norm(lexical) + (1-α) · norm(semantic)`` with per-list min-max
  normalization.  The lexical scores come from whatever
  :class:`~repro.search.ranking.Ranker` the engine is configured with,
  so the strategy composes with any ranker behind the protocol.

Complexity: a hybrid search costs one lexical fan-out plus one ANN probe
plus O(k) fusion.  Thread safety: search is safe under the two tiers'
own shard locking; ``add_product``/``remove_product`` are single-writer
(one churn applier at a time), same as the engines they compose.

``docs/SEMANTIC.md`` documents the tier end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.catalog import Catalog
from repro.search.engine import SearchConfig, SearchOutcome
from repro.search.sharded import ShardedSearchEngine
from repro.search.vector import ShardedVectorIndex
from repro.text import tokenize

#: retrieval modes a hybrid engine accepts per request
RETRIEVAL_MODES = ("lexical", "semantic", "hybrid")


def reciprocal_rank_fusion(
    rankings: list[list[int]], k: int, *, rrf_k: int = 60
) -> list[tuple[float, int]]:
    """Fuse ranked doc-id lists: ``score(d) = Σ 1 / (rrf_k + rank(d))``.

    Ranks are 1-based within each list; documents absent from a list
    simply contribute nothing.  Scale-free — only positions matter — so
    heterogeneous scores (BM25 vs dot product) fuse without calibration.
    Returns the top-``k`` as ``(fused_score, doc_id)``, best first, ties
    broken by ascending doc id.  O(total entries + m log m) for m fused
    candidates.
    """
    if rrf_k < 1:
        raise ValueError("rrf_k must be >= 1")
    fused: dict[int, float] = {}
    for ranking in rankings:
        for rank, doc_id in enumerate(ranking, start=1):
            fused[doc_id] = fused.get(doc_id, 0.0) + 1.0 / (rrf_k + rank)
    ordered = sorted(fused.items(), key=lambda item: (-item[1], item[0]))
    return [(score, doc_id) for doc_id, score in ordered[:k]]


def weighted_score_fusion(
    lexical: list[tuple[float, int]],
    semantic: list[tuple[float, int]],
    k: int,
    *,
    alpha: float = 0.5,
) -> list[tuple[float, int]]:
    """Fuse scored lists: ``α · norm(lexical) + (1-α) · norm(semantic)``.

    Each list is min-max normalized onto [0, 1] independently (a constant
    list normalizes to all-ones), so the mixing weight ``α`` is
    meaningful across score families.  A document missing from one list
    contributes 0 from that list.  Returns the top-``k`` as
    ``(fused_score, doc_id)``, ties broken by ascending doc id.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    fused: dict[int, float] = {}
    for weight, scored in ((alpha, lexical), (1.0 - alpha, semantic)):
        if not scored or weight == 0.0:
            continue
        values = np.array([score for score, _ in scored], dtype=np.float64)
        span = float(values.max() - values.min())
        normalized = (values - values.min()) / span if span > 0.0 else np.ones_like(values)
        for (_, doc_id), value in zip(scored, normalized):
            fused[doc_id] = fused.get(doc_id, 0.0) + weight * float(value)
    ordered = sorted(fused.items(), key=lambda item: (-item[1], item[0]))
    return [(score, doc_id) for doc_id, score in ordered[:k]]


@dataclass(frozen=True)
class HybridConfig:
    """Knobs of the hybrid tier (the lexical tier keeps its own
    :class:`~repro.search.engine.SearchConfig`)."""

    #: semantic candidates fetched per request
    semantic_k: int = 100
    #: fusion strategy: "rrf" (scale-free, default) or "weighted"
    fusion: str = "rrf"
    #: RRF smoothing constant (the literature's default is 60)
    rrf_k: int = 60
    #: lexical weight for weighted-score fusion
    alpha: float = 0.5
    #: IVF cells probed per semantic search (None = each index's default)
    nprobe: int | None = None
    #: mode used when a request does not specify one
    default_mode: str = "hybrid"

    def __post_init__(self):
        if self.fusion not in ("rrf", "weighted"):
            raise ValueError(f"unknown fusion {self.fusion!r}")
        if self.default_mode not in RETRIEVAL_MODES:
            raise ValueError(f"unknown mode {self.default_mode!r}")
        if self.semantic_k < 1:
            raise ValueError("semantic_k must be >= 1")
        if self.rrf_k < 1:
            raise ValueError("rrf_k must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.nprobe is not None and self.nprobe < 1:
            raise ValueError("nprobe must be >= 1 (or None for index defaults)")


class HybridSearchEngine:
    """Lexical + semantic retrieval behind one ``search(query, rewrites)``.

    Owns the two tiers as peers over one catalog: a
    :class:`~repro.search.sharded.ShardedSearchEngine` (BM25 over the
    inverted index) and a :class:`~repro.search.vector.ShardedVectorIndex`
    over dual-encoder title embeddings, built here by batch-encoding the
    catalog and fitting per-shard IVF cells.

    Catalog churn goes through :meth:`add_product` / :meth:`remove_product`,
    which update the catalog, the inverted index, and the vector index in
    lockstep — a product is searchable in every mode or in none, which is
    what keeps :class:`~repro.online.replay.TrafficReplay`'s churn
    accounting and the freshness controller's invalidation meaningful over
    this engine.
    """

    retrieval_modes = RETRIEVAL_MODES

    @property
    def default_mode(self) -> str:
        """Mode used when a request does not specify one (config knob)."""
        return self.config.default_mode

    def __init__(
        self,
        catalog: Catalog,
        encoder,
        search_config: SearchConfig | None = None,
        hybrid_config: HybridConfig | None = None,
        *,
        num_shards: int = 4,
        num_clusters: int = 16,
        parallel: bool = True,
        lexical: ShardedSearchEngine | None = None,
        vector: ShardedVectorIndex | None = None,
        seed: int = 0,
    ):
        """``encoder`` is any object with ``encode_query(text) -> vector``
        and ``encode_titles(texts) -> matrix`` (a trained
        :class:`~repro.embedding.DualEncoder`).  ``lexical``/``vector``
        inject pre-built tiers (tests, shared indexes); by default both
        are built here from the catalog."""
        self.catalog = catalog
        self.encoder = encoder
        self.config = hybrid_config or HybridConfig()
        self.lexical = lexical or ShardedSearchEngine(
            catalog,
            search_config or SearchConfig(ranker="bm25"),
            num_shards=num_shards,
            parallel=parallel,
        )
        if vector is not None:
            self.vector = vector
        else:
            self.vector = ShardedVectorIndex(
                encoder.config.output_dim,
                num_shards=num_shards,
                num_clusters=num_clusters,
                parallel=parallel,
                seed=seed,
            )
            if catalog.products:
                self.vector.fit(
                    [p.product_id for p in catalog.products],
                    encoder.encode_titles([list(p.title_tokens) for p in catalog.products]),
                )

    # -- persistence -----------------------------------------------------------
    def save(self, root) -> None:
        """Persist both tiers under ``root`` (``lexical/`` + ``vector/``).

        Two sibling segment stores, one per tier, each with its own
        versioned manifest — so the tiers can be loaded, diffed and
        compacted independently.  Incremental like the tier saves:
        unchanged shards write nothing.
        """
        from pathlib import Path

        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        self.lexical.save(root / "lexical")
        self.vector.save(root / "vector")

    @classmethod
    def load(
        cls,
        root,
        catalog: Catalog,
        encoder,
        search_config: SearchConfig | None = None,
        hybrid_config: HybridConfig | None = None,
        *,
        parallel: bool = True,
        backend: str = "inproc",
        timeout: float | None = None,
    ) -> "HybridSearchEngine":
        """Cold-start a hybrid engine from a :meth:`save` directory.

        Restores the lexical and vector tiers from their segment stores
        (checksum-verified; no catalog scan, no re-encoding, no IVF
        re-fit) and assembles them through the constructor's injection
        parameters.  ``backend`` picks both tiers' deployment —
        ``"inproc"`` threads or ``"process"`` shard workers (see
        :meth:`~repro.search.sharded.ShardedIndex.load`) — with
        identical results either way.  Configs are the caller's, exactly
        as in ``__init__`` — the store persists index *state*, not
        policy.
        """
        from pathlib import Path

        root = Path(root)
        return cls(
            catalog,
            encoder,
            search_config,
            hybrid_config,
            lexical=ShardedSearchEngine.load(
                catalog,
                root / "lexical",
                search_config,
                parallel=parallel,
                backend=backend,
                timeout=timeout,
            ),
            vector=ShardedVectorIndex.load(
                root / "vector", parallel=parallel, backend=backend, timeout=timeout
            ),
        )

    # -- catalog-level churn ---------------------------------------------------
    def add_product(self, product) -> None:
        """List a product in the catalog and BOTH retrieval tiers.

        Failure-ordering keeps the lockstep invariant under the
        single-writer contract: the title is embedded *before* anything
        mutates (an encoder error touches nothing), the lexical engine
        then validates id uniqueness against the catalog, and a
        vector-tier rejection (e.g. an injected index that already holds
        the id) rolls the lexical add back — so a rejected add never
        leaves the product searchable in one mode but not another.
        """
        vector = self.encoder.encode_title(list(product.title_tokens))
        self.lexical.add_product(product)
        try:
            self.vector.add_document(product.product_id, vector)
        except BaseException:
            self.lexical.remove_product(product.product_id)
            raise

    def remove_product(self, product_id: int) -> None:
        """Delist a product from the catalog and BOTH retrieval tiers.

        Both tiers are validated before either mutates (single-writer
        contract), so an unknown id raises with nothing half-removed.
        """
        if product_id not in self.vector:
            raise KeyError(f"product {product_id} not in the vector tier")
        self.lexical.remove_product(product_id)
        self.vector.remove_document(product_id)

    # -- retrieval -------------------------------------------------------------
    def search(
        self, query: str, rewrites: list[str] | None = None, *, mode: str | None = None
    ) -> SearchOutcome:
        """Retrieve top-k for ``query`` (+ rewrites) in the given mode.

        Returns a :class:`~repro.search.engine.SearchOutcome` whose
        ``mode`` records the tier used; ``postings_accessed`` counts only
        lexical work (the semantic tier touches no postings), so the
        paper's Section III-H cost accounting stays comparable across
        modes.
        """
        mode = mode or self.config.default_mode
        if mode not in RETRIEVAL_MODES:
            raise ValueError(
                f"unknown retrieval mode {mode!r}; available: {', '.join(RETRIEVAL_MODES)}"
            )
        if mode == "lexical":
            outcome = self.lexical.search(query, rewrites)
            outcome.mode = mode
            return outcome

        k = self.lexical.config.max_candidates
        semantic = self._semantic_topk(query)
        if mode == "semantic":
            # semantic_k sizes the candidate pool fed into fusion; the
            # returned list honors the engine-wide top-k cap like every
            # other mode.
            top = semantic[:k]
            return SearchOutcome(
                query=query,
                rewrites=list(rewrites or []),
                doc_ids=[doc_id for _, doc_id in top],
                postings_accessed=0,
                tree_nodes=0,
                num_trees=0,
                scores=[score for score, _ in top],
                mode=mode,
            )

        lexical = self.lexical.search(query, rewrites)
        if self.config.fusion == "rrf":
            fused = reciprocal_rank_fusion(
                [lexical.doc_ids, [doc_id for _, doc_id in semantic]],
                k,
                rrf_k=self.config.rrf_k,
            )
        else:
            fused = weighted_score_fusion(
                list(zip(lexical.scores, lexical.doc_ids)),
                semantic,
                k,
                alpha=self.config.alpha,
            )
        return SearchOutcome(
            query=query,
            rewrites=list(rewrites or []),
            doc_ids=[doc_id for _, doc_id in fused],
            postings_accessed=lexical.postings_accessed,
            tree_nodes=lexical.tree_nodes,
            num_trees=lexical.num_trees,
            scores=[score for score, _ in fused],
            mode=mode,
        )

    def _semantic_topk(self, query: str) -> list[tuple[float, int]]:
        """ANN top-k for the original query; empty for untokenizable text."""
        if not tokenize(query):
            return []
        return self.vector.search(
            self.encoder.encode_query(query),
            self.config.semantic_k,
            nprobe=self.config.nprobe,
        )

    def cluster_stats(self) -> dict:
        """Combined backend/failover counters across both tiers.

        The backend label is the lexical tier's when the tiers agree,
        or ``"lexical+vector"`` joined otherwise; numeric counters
        (failovers, rerouted requests, respawns) are summed so the
        serving layer can export one gauge per pipeline.
        """
        lex = self.lexical.cluster_stats()
        vec = self.vector.cluster_stats()
        labels = {lex["backend"], vec["backend"]}
        return {
            "backend": lex["backend"] if len(labels) == 1 else "+".join(sorted(labels)),
            "num_shards": lex["num_shards"],
            "replicas": lex["replicas"],
            "healthy_replicas": min(lex["healthy_replicas"], vec["healthy_replicas"]),
            "failovers": lex["failovers"] + vec["failovers"],
            "rerouted_requests": lex["rerouted_requests"] + vec["rerouted_requests"],
            "respawns": lex["respawns"] + vec["respawns"],
        }

    def close(self) -> None:
        """Shut down both tiers' fan-out pools and workers."""
        self.lexical.close()
        self.vector.close()

    def __enter__(self) -> "HybridSearchEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
