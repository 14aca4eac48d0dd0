"""Sharded top-k retrieval substrate.

Reproduces the paper's candidate-retrieval stage — documents (item titles)
indexed by term, queries compiled into AND/OR syntax trees, and the
Section III-H optimization that merges the original query and all rewritten
queries into a *single* tree (Figure 5) — and scales it into a
production-shaped engine:

* **slot-indexed term-frequency vectors**: syntax trees evaluate to
  boolean masks over document slots and rankers gather by slot
  (:mod:`repro.search.inverted_index`);
* pluggable **top-k ranking** behind the :class:`Ranker` protocol —
  term-overlap baseline and BM25, both heap-bounded
  (:mod:`repro.search.ranking`);
* a **ShardedIndex** of single-writer shards with parallel fan-out search,
  global-statistics ranking, and incremental ``add_document`` /
  ``remove_document`` (:mod:`repro.search.sharded`);
* a **semantic tier**: an IVF-clustered ANN index over dual-encoder
  embeddings (:mod:`repro.search.vector`) and a
  :class:`HybridSearchEngine` fusing lexical and semantic top-k lists
  per request — ``lexical | semantic | hybrid`` retrieval modes
  (:mod:`repro.search.hybrid`).

``docs/RETRIEVAL.md`` documents the lexical layout, the postings cost
model, and how Section III-H maps onto all of this;
``docs/SEMANTIC.md`` documents the vector tier and the fusion math.
"""

from repro.search.inverted_index import IndexStats, InvertedIndex, RetrievalResult
from repro.search.ranking import (
    BM25Ranker,
    Ranker,
    TermOverlapRanker,
    make_ranker,
)
from repro.search.syntax_tree import (
    SyntaxNode,
    TermNode,
    AndNode,
    OrNode,
    build_tree,
    merge_queries,
    tree_size,
)
from repro.search.engine import SearchEngine, SearchConfig, SearchOutcome
from repro.search.sharded import (
    ShardedIndex,
    ShardedOutcome,
    ShardedSearchEngine,
    merge_topk,
)
from repro.search.vector import (
    ShardedVectorIndex,
    VectorIndex,
    spherical_kmeans,
)
from repro.search.hybrid import (
    RETRIEVAL_MODES,
    HybridConfig,
    HybridSearchEngine,
    reciprocal_rank_fusion,
    weighted_score_fusion,
)

__all__ = [
    "InvertedIndex",
    "IndexStats",
    "RetrievalResult",
    "Ranker",
    "TermOverlapRanker",
    "BM25Ranker",
    "make_ranker",
    "SyntaxNode",
    "TermNode",
    "AndNode",
    "OrNode",
    "build_tree",
    "merge_queries",
    "tree_size",
    "SearchEngine",
    "SearchConfig",
    "SearchOutcome",
    "ShardedIndex",
    "ShardedOutcome",
    "ShardedSearchEngine",
    "merge_topk",
    "VectorIndex",
    "ShardedVectorIndex",
    "spherical_kmeans",
    "RETRIEVAL_MODES",
    "HybridConfig",
    "HybridSearchEngine",
    "reciprocal_rank_fusion",
    "weighted_score_fusion",
]
