"""Rewrite-aware search engine over the synthetic catalog.

Wires together tokenization, syntax-tree construction (optionally merged
per Section III-H), slot-mask inverted-index retrieval, and pluggable
top-k ranking (term-overlap baseline or BM25, both heap-bounded) — enough
substrate to measure both the retrieval-cost claims (Figure 5 /
Table-level CPU cost) and the recall gains that drive the paper's online
metrics (Table VIII).

See ``docs/RETRIEVAL.md`` for the full retrieval-layer story (index
layout, cost model, sharding).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.data.catalog import Catalog
from repro.search.inverted_index import InvertedIndex
from repro.search.ranking import Ranker, make_ranker
from repro.search.syntax_tree import build_tree, evaluate_trees, merge_queries, pack, tree_size
from repro.text import tokenize


@dataclass(frozen=True)
class SearchConfig:
    #: candidate cap per retrieval (paper: each rewrite adds at most 1,000)
    max_candidates: int = 1000
    #: merge rewrites into one syntax tree (Section III-H) or run one tree
    #: per query (the naive approach the paper rejects)
    merge_trees: bool = True
    #: ranking strategy: "overlap" (seed baseline) or "bm25"
    ranker: str = "overlap"


@dataclass
class SearchOutcome:
    """Everything one retrieval produced, including system-cost accounting.

    ``scores`` is parallel to ``doc_ids`` (ranker scores for lexical and
    hybrid-fused retrievals, exact dot products for semantic ones);
    ``mode`` records which retrieval tier produced the result —
    ``"lexical"`` unless a :class:`~repro.search.hybrid.HybridSearchEngine`
    served the request in another mode.
    """

    query: str
    rewrites: list[str]
    doc_ids: list[int]
    postings_accessed: int
    tree_nodes: int
    num_trees: int
    scores: list[float] = field(default_factory=list)
    mode: str = "lexical"

    def __len__(self) -> int:
        return len(self.doc_ids)


class SearchEngine:
    """Inverted-index retrieval over a product catalog.

    ``index`` lets several engines share one built index (used by
    :meth:`compare_costs` to spin up throwaway per-config engines without
    re-indexing the catalog); ``ranker`` overrides the config's ranker
    string with a concrete :class:`~repro.search.ranking.Ranker` instance.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: SearchConfig | None = None,
        *,
        index: InvertedIndex | None = None,
        ranker: Ranker | None = None,
    ):
        self.catalog = catalog
        self.config = config or SearchConfig()
        self.ranker = ranker or make_ranker(self.config.ranker)
        if index is not None:
            self.index = index
        else:
            self.index = InvertedIndex()
            for product in catalog.products:
                self.index.add_document(product.product_id, product.title_tokens)

    # -- retrieval -------------------------------------------------------------
    def search(self, query: str, rewrites: list[str] | None = None) -> SearchOutcome:
        """Retrieve candidates for ``query`` plus optional rewrites."""
        rewrites = rewrites or []
        queries = [tokenize(query)] + [tokenize(r) for r in rewrites]
        queries = [q for q in queries if q]
        if not queries:
            raise ValueError("search received an empty query")

        if self.config.merge_trees:
            trees = [merge_queries(queries)]
        else:
            trees = [build_tree(q) for q in queries]
        candidates, cost = evaluate_trees([pack(tree) for tree in trees], self.index)

        ranked = self.ranker.rank_scored(
            self.index, queries[0], candidates, self.config.max_candidates
        )
        return SearchOutcome(
            query=query,
            rewrites=list(rewrites),
            doc_ids=[doc_id for _, doc_id in ranked],
            postings_accessed=cost,
            tree_nodes=sum(tree_size(tree) for tree in trees),
            num_trees=len(trees),
            scores=[score for score, _ in ranked],
        )

    # -- cost comparison (Section III-H experiment) ---------------------------------
    def compare_costs(self, query: str, rewrites: list[str]) -> dict[str, float]:
        """Merged-tree vs per-query-trees costs for the same request.

        Two throwaway engines share this engine's index and ranker but
        carry their own configs, so a concurrent :meth:`search` on *this*
        engine can never observe a temporarily swapped config (the seed
        mutated ``self.config`` in place here).
        """
        merged_engine = SearchEngine(
            self.catalog,
            replace(self.config, merge_trees=True),
            index=self.index,
            ranker=self.ranker,
        )
        separate_engine = SearchEngine(
            self.catalog,
            replace(self.config, merge_trees=False),
            index=self.index,
            ranker=self.ranker,
        )
        merged = merged_engine.search(query, rewrites)
        separate = separate_engine.search(query, rewrites)
        if set(merged.doc_ids) != set(separate.doc_ids):
            raise AssertionError(
                "merged and separate retrieval disagree — tree merge is unsound"
            )
        return {
            "merged_postings": merged.postings_accessed,
            "separate_postings": separate.postings_accessed,
            "merged_nodes": merged.tree_nodes,
            "separate_nodes": separate.tree_nodes,
            "postings_ratio": merged.postings_accessed / max(1, separate.postings_accessed),
            "nodes_ratio": merged.tree_nodes / max(1, separate.tree_nodes),
        }
