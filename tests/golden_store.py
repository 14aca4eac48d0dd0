"""Writes ``tests/data/golden_store.json`` — the segment-store byte pin.

``tests/data/golden_manifest.json`` pins one lexical full save.  This
fixture pins every write path of :class:`~repro.store.SegmentStore`, for
both tiers, through the sharded facades' real ``save`` / ``load``: the
sha256 of every ``.seg`` file and of ``MANIFEST.json`` in the store
directory at four points —

* ``first_save`` — one full segment per shard;
* ``churn_delta`` — removals, additions and same-id content changes
  below the rewrite fraction: one delta segment per changed shard;
* ``base_rewrite`` — one shard's base rewritten (vector: a re-fit moved
  its centroids; lexical: it churned past the rewrite fraction) while
  another shard appends a delta and the rest keep their chains;
* ``compact`` — one fresh base per shard, orphans deleted —

plus each shard's ``digest`` op (CRC32 of its full-segment encoding)
after a verified ``load()``.  ``tests/test_store_golden.py`` asserts the
current code reproduces the file byte for byte.
Regenerate (only when a format change is intended) with::

    PYTHONPATH=src python tests/golden_store.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tempfile

import numpy as np

from repro.search import ShardedIndex, ShardedVectorIndex

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_store.json"

NUM_SHARDS = 3
NUM_DOCS = 240
#: the lexical corpus's vocabulary: a few shared words, so postings overlap
VOCAB = tuple(f"w{i:02d}" for i in range(40))
DIM = 6
#: vector geometry per shard (shard ``i`` seeds its k-means at ``SEED + i``)
NUM_CLUSTERS = 4
NPROBE = 2
SEED = 7
POINTS = ("first_save", "churn_delta", "base_rewrite", "compact")


def _tokens(rng) -> tuple[str, ...]:
    return tuple(VOCAB[i] for i in rng.integers(len(VOCAB), size=int(rng.integers(1, 7))))


def _vectors(rng, n: int) -> np.ndarray:
    vectors = rng.normal(size=(n, DIM))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def _snapshot(root: pathlib.Path) -> dict:
    """``{file name: sha256}`` of every file in the store directory."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.iterdir())
    }


def lexical_steps(index: ShardedIndex, root: pathlib.Path):
    """Drive a lexical index through the four points, yielding after each."""
    rng = np.random.default_rng(29)
    for doc_id in range(NUM_DOCS):
        index.add_document(doc_id, _tokens(rng))
    index.save(root)
    yield
    for doc_id in range(0, 60, 7):
        index.remove_document(doc_id)
    for doc_id in range(NUM_DOCS, NUM_DOCS + 12):
        index.add_document(doc_id, _tokens(rng))
    for doc_id in (61, 62, 100):  # same id, new tokens
        index.remove_document(doc_id)
        index.add_document(doc_id, _tokens(rng) + ("changed",))
    index.save(root)
    yield
    # shard 2 churns past the rewrite fraction; shard 0 gets a small delta
    for doc_id in [d for d in range(2, NUM_DOCS, NUM_SHARDS) if d in index][:50]:
        index.remove_document(doc_id)
        index.add_document(doc_id, _tokens(rng))
    index.remove_document(150)
    index.save(root)
    yield
    from repro.store import SegmentStore

    SegmentStore(root, "lexical").compact()
    yield


def vector_steps(index: ShardedVectorIndex, root: pathlib.Path):
    """Drive a vector index through the four points, yielding after each."""
    rng = np.random.default_rng(29)
    index.fit(list(range(NUM_DOCS)), _vectors(rng, NUM_DOCS))
    index.save(root)
    yield
    for doc_id in range(0, 60, 7):
        index.remove_document(doc_id)
    for doc_id, vector in zip(range(NUM_DOCS, NUM_DOCS + 12), _vectors(rng, 12)):
        index.add_document(doc_id, vector)
    for doc_id, vector in zip((61, 62, 100), _vectors(rng, 3)):  # same id, new vector
        index.remove_document(doc_id)
        index.add_document(doc_id, vector)
    index.save(root)
    yield
    # shard 1 re-fits (its centroids move); shard 0 gets a small delta
    index.fit([NUM_DOCS + 100], _vectors(rng, 1))
    index.remove_document(150)
    index.save(root)
    yield
    from repro.store import SegmentStore

    SegmentStore(root, "vector").compact()
    yield


def tier_record(tier: str) -> dict:
    """Every pinned point of one tier, plus the post-load shard digests."""
    if tier == "lexical":
        index, steps, cls = ShardedIndex(NUM_SHARDS, parallel=False), lexical_steps, ShardedIndex
    else:
        index = ShardedVectorIndex(
            DIM, num_shards=NUM_SHARDS, num_clusters=NUM_CLUSTERS,
            nprobe=NPROBE, parallel=False, seed=SEED,
        )
        steps, cls = vector_steps, ShardedVectorIndex
    record = {}
    with tempfile.TemporaryDirectory() as scratch, index:
        root = pathlib.Path(scratch) / "store"
        for point, _ in zip(POINTS, steps(index, root), strict=True):
            record[point] = _snapshot(root)
        with cls.load(root, parallel=False) as loaded:
            record["load_digests"] = loaded.backend.fanout("digest")
    return record


def compute() -> dict:
    """The full fixture, recomputed from the current code."""
    return {tier: tier_record(tier) for tier in ("lexical", "vector")}


def render(fixture: dict) -> str:
    """The fixture as sorted, indented JSON text."""
    return json.dumps(fixture, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render(compute()))
    print(f"wrote {GOLDEN_PATH}")
