"""Writes ``tests/data/golden_search.json`` — the sharded-search byte pin.

``tests/test_search_sharded.py`` checks the fan-out against the unsharded
engine and against itself, so a change that moves both sides (how a
request compiles, what crosses the pipe, which statistics the ranker is
pinned to) passes there unseen.  This fixture freezes what a bench-shaped
two-shard engine returned at one commit, per request, through both entry
points — ``ShardedSearchEngine.search_many`` (raw strings) and
``ShardedIndex.search_many`` (token lists), which must agree: doc ids,
``float.hex()`` scores, postings touched in total and per shard,
candidates per shard, tree nodes and tree count.
``tests/test_search_golden.py`` asserts the current code reproduces it,
in process and over worker processes.
Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/golden_search.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from repro.data.catalog import Catalog, CatalogConfig, CatalogGenerator
from repro.search import InvertedIndex, SearchConfig, ShardedIndex, ShardedSearchEngine
from repro.text import tokenize

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_search.json"

NUM_SHARDS = 2
#: the bench's smoke-scale catalog, with its first product id
PRODUCTS = 2_000
BASE_PRODUCT_ID = 1000
#: micro-batch sizes, in order: ragged, as a scheduler hands them over
BATCH_SIZES = (1, 7, 16, 16, 7, 1)
#: ``(merge_trees, ranker, k)`` of every pinned engine
CONFIGS = tuple(
    (merge_trees, ranker, k)
    for merge_trees in (True, False)
    for ranker in ("overlap", "bm25")
    for k in (10, 1000)
)
#: leading results of each ranking kept verbatim in a row
SHOWN = 3
#: strings that tokenize to nothing
BLANKS = ("", "   ", "?!", "!!! ???")


def products() -> list:
    """The pinned catalog: bench-shaped, seed 5."""
    return CatalogGenerator(CatalogConfig(seed=5)).sample_products(
        PRODUCTS, np.random.default_rng([5, 1]), start_id=BASE_PRODUCT_ID
    )


def shard_indexes(items) -> list[InvertedIndex]:
    """Routed per-shard indexes over ``items``."""
    indexes = [InvertedIndex() for _ in range(NUM_SHARDS)]
    for product in items:
        indexes[product.product_id % NUM_SHARDS].add_document(
            product.product_id, product.title_tokens
        )
    return indexes


def requests(items) -> list[list[tuple]]:
    """Seeded micro-batches of ``(query, rewrites)``.

    Queries are 1-4 tokens of a live title, now and then with a token no
    product carries; rewrites are 0-3 strings of random vocabulary, some
    of which tokenize to nothing.  A few requests have a blank query (the
    first non-empty rewrite is then the ranked query), and every batch of
    more than one repeats some of its own requests.
    """
    rng = np.random.default_rng(2026)
    vocab = sorted({token for p in items for token in p.title_tokens})

    def query() -> str:
        title = items[int(rng.integers(len(items)))].title_tokens
        picks = list(title[: int(rng.integers(1, min(4, len(title)) + 1))])
        if rng.random() < 0.15:
            picks.append("xyzzy")
        return " ".join(picks)

    def rewrite() -> str:
        if rng.random() < 0.15:
            return BLANKS[int(rng.integers(len(BLANKS)))]
        picks = rng.integers(len(vocab), size=int(rng.integers(1, 5)))
        return " ".join(vocab[i] for i in picks)

    batches = []
    for size in BATCH_SIZES:
        batch = []
        for _ in range(size):
            rewrites = [rewrite() for _ in range(int(rng.integers(0, 4)))]
            if rng.random() < 0.08:
                batch.append((BLANKS[int(rng.integers(len(BLANKS)))], [query(), *rewrites]))
            else:
                batch.append((query(), rewrites))
        if size > 1:
            for slot in rng.choice(size, size=size // 3, replace=False):
                batch[int(slot)] = batch[int(rng.integers(size))]
        batches.append(batch)
    return batches


def ranking(outcome) -> dict:
    """What both entry points must agree on, floats by their exact bits.

    The first ``SHOWN`` results are kept verbatim (a drift names the doc
    it moved); the whole ranking is pinned by its length and sha256.
    """
    hexes = [float(score).hex() for score in outcome.scores]
    return {
        "doc_ids": outcome.doc_ids[:SHOWN],
        "scores": hexes[:SHOWN],
        "ranked": len(outcome.doc_ids),
        "ranking_sha256": hashlib.sha256(
            json.dumps([outcome.doc_ids, hexes]).encode()
        ).hexdigest()[:16],
        "postings_accessed": outcome.postings_accessed,
        "tree_nodes": outcome.tree_nodes,
    }


def config_record(index: ShardedIndex, catalog: Catalog, config: tuple) -> list:
    """One row per request of :func:`requests`, through both entry points.

    The engine's outcome and the index's outcome over the same tokens
    must agree on everything they share (a mismatch raises); the row adds
    the index's per-shard accounting and the engine's tree count.
    """
    merge_trees, ranker, k = config
    engine = ShardedSearchEngine(
        catalog,
        SearchConfig(max_candidates=k, ranker=ranker, merge_trees=merge_trees),
        index=index,
    )
    rows = []
    for batch in requests(catalog.products):
        tokenized = [
            [tokenize(text) for text in [query, *rewrites]] for query, rewrites in batch
        ]
        by_engine = engine.search_many(batch)
        by_index = index.search_many(tokenized, k, engine.ranker, merge_trees)
        for served, sharded in zip(by_engine, by_index, strict=True):
            row = ranking(served)
            if ranking(sharded) != row:
                raise AssertionError(f"entry points disagree on {served.query!r}")
            row["num_trees"] = served.num_trees
            row["per_shard_postings"] = sharded.per_shard_postings
            row["per_shard_candidates"] = sharded.per_shard_candidates
            rows.append(row)
    return rows


def config_key(config: tuple) -> str:
    """``merge|separate``/``ranker``/``k`` — one JSON key per config."""
    merge_trees, ranker, k = config
    return f"{'merge' if merge_trees else 'separate'}/{ranker}/k{k}"


def compute(index: ShardedIndex | None = None) -> dict:
    """The full fixture, recomputed from the current code.

    ``index`` is the deployment to search (an in-process two-shard index
    over :func:`products` when omitted); it must hold exactly that catalog.
    """
    items = products()
    catalog = Catalog(products=list(items))
    owned = index is None
    if owned:
        index = ShardedIndex(num_shards=NUM_SHARDS, parallel=False)
        for product in items:
            index.add_document(product.product_id, product.title_tokens)
    try:
        return {config_key(c): config_record(index, catalog, c) for c in CONFIGS}
    finally:
        if owned:
            index.close()


def render(fixture: dict) -> str:
    """The fixture as JSON text, one request row per line."""
    blocks = []
    for key in sorted(fixture):
        rows = ",\n".join(
            "  " + json.dumps(row, sort_keys=True, separators=(",", ":"))
            for row in fixture[key]
        )
        blocks.append(f" {json.dumps(key)}: [\n{rows}\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render(compute()))
    print(f"wrote {GOLDEN_PATH}")
