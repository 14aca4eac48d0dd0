"""Struct-packed codecs for postings and IVF-cell segments.

Each codec turns one in-RAM index shard into a small set of contiguous
array payloads (and back), framed by :mod:`repro.store.blocks`:

* **postings** (full) — the token table (newline-joined UTF-8), one
  int64 postings-length per token, the concatenated sorted doc-id and
  term-frequency vectors, then the document side: sorted doc ids, doc
  lengths, and every document's ordered token-id sequence (indices into
  the token table) so :meth:`InvertedIndex.document` round-trips
  exactly.
* **postings_delta** — removed doc ids plus added documents (ids,
  lengths, token-id sequences against the delta's own token table).
* **vectors** (full) — the IVF geometry (dim, clusters, nprobe, seed,
  trained flag), the centroid matrix, per-cell sizes, and the
  concatenated member ids and float64 vectors in live cell order, so a
  reload reproduces the exact cell layout (and therefore the exact
  probe results) of the saved index.
* **vectors_delta** — removed doc ids plus added ``(id, vector)`` rows;
  replaying them through :meth:`VectorIndex.add_document` assigns each
  vector to the same cell the live index chose, because the centroids
  are identical by construction (the store falls back to a full rewrite
  whenever centroids changed).

Decoders validate shape and ordering invariants (sorted postings,
consistent totals, in-range token ids) on top of the block checksums
and raise :class:`~repro.store.errors.SegmentCorruptError` on any
mismatch; they never return a half-built index.

:data:`TIERS` holds one :class:`TierCodec` per tier — its two segment
kinds and their codecs, the shard's live documents, content equality
for the delta diff, and the re-fit rule — which is everything
:class:`~repro.store.SegmentStore` needs to know about a tier.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.search.inverted_index import InvertedIndex
from repro.search.vector import VectorIndex, _Cell
from repro.store import blocks
from repro.store.errors import SegmentCorruptError
from repro.store.manifest import KINDS_BY_TIER

_POSTINGS_HEADER = struct.Struct("<QQQQ")
_POSTINGS_DELTA_HEADER = struct.Struct("<QQQ")
_VECTORS_HEADER = struct.Struct("<qqqqqqq")
_VECTORS_DELTA_HEADER = struct.Struct("<qqq")


def _decode_array(section: bytes, dtype, what: str) -> np.ndarray:
    """Reinterpret a raw section as an array, or raise typed corruption."""
    dtype = np.dtype(dtype)
    if len(section) % dtype.itemsize:
        raise SegmentCorruptError(
            f"{what} payload of {len(section)} bytes is not a whole number of "
            f"{dtype.itemsize}-byte items"
        )
    return np.frombuffer(section, dtype=dtype)


def _decode_tokens(section: bytes) -> list[str]:
    """The newline-joined token table back into a list (may be empty)."""
    if not section:
        return []
    try:
        text = section.decode("utf-8")
    except UnicodeDecodeError as error:
        raise SegmentCorruptError(f"token table is not valid UTF-8: {error}") from None
    return text.split("\n")


def _encode_tokens(tokens: list[str]) -> bytes:
    for token in tokens:
        if "\n" in token:
            raise ValueError(f"token {token!r} contains a newline")
    return "\n".join(tokens).encode("utf-8")


def _encode_docs(
    docs: dict[int, tuple[str, ...]], token_ids: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doc_ids, doc_lengths, concatenated per-doc token-id sequences)."""
    doc_ids = sorted(docs)
    lengths = np.asarray([len(docs[d]) for d in doc_ids], dtype=np.int64)
    flat = np.asarray(
        [token_ids[token] for d in doc_ids for token in docs[d]], dtype=np.int64
    )
    return np.asarray(doc_ids, dtype=np.int64), lengths, flat


def _decode_docs(
    tokens: list[str],
    doc_ids: np.ndarray,
    doc_lengths: np.ndarray,
    flat_token_ids: np.ndarray,
    what: str,
) -> dict[int, tuple[str, ...]]:
    """Rebuild the doc-id -> ordered-token-tuple map with full validation."""
    if doc_ids.size != doc_lengths.size:
        raise SegmentCorruptError(
            f"{what}: {doc_ids.size} doc ids but {doc_lengths.size} doc lengths"
        )
    if doc_ids.size and np.any(np.diff(doc_ids) <= 0):
        raise SegmentCorruptError(f"{what}: doc ids are not strictly increasing")
    if doc_lengths.size and int(doc_lengths.min()) < 0:
        raise SegmentCorruptError(f"{what}: negative document length")
    if int(doc_lengths.sum()) != flat_token_ids.size:
        raise SegmentCorruptError(
            f"{what}: doc lengths sum to {int(doc_lengths.sum())} but "
            f"{flat_token_ids.size} token ids are stored"
        )
    if flat_token_ids.size and (
        int(flat_token_ids.min()) < 0 or int(flat_token_ids.max()) >= len(tokens)
    ):
        raise SegmentCorruptError(f"{what}: token id outside the token table")
    docs: dict[int, tuple[str, ...]] = {}
    offset = 0
    id_list = doc_ids.tolist()
    length_list = doc_lengths.tolist()
    # one fancy-indexed id->token pass, then C-speed tuple(slice) per doc
    token_table = np.asarray(tokens, dtype=object)
    flat_tokens = (
        token_table[flat_token_ids].tolist() if flat_token_ids.size else []
    )
    for doc_id, length in zip(id_list, length_list):
        end = offset + length
        docs[doc_id] = tuple(flat_tokens[offset:end])
        offset = end
    return docs


# ---------------------------------------------------------------------------
# postings (full)
# ---------------------------------------------------------------------------
def encode_postings_segment(index: InvertedIndex) -> bytes:
    """Serialize one :class:`InvertedIndex` into a full postings segment."""
    tokens, lengths, post_ids, post_tfs = index.postings_table()
    token_ids = {token: at for at, token in enumerate(tokens)}
    doc_ids, doc_lengths, flat = _encode_docs(index._docs, token_ids)
    header = _POSTINGS_HEADER.pack(
        len(index._docs), len(tokens), post_ids.size, flat.size
    )
    return blocks.pack_segment(
        blocks.KIND_POSTINGS,
        [
            header,
            _encode_tokens(tokens),
            lengths.tobytes(),
            post_ids.tobytes(),
            post_tfs.tobytes(),
            doc_ids.tobytes(),
            doc_lengths.tobytes(),
            flat.tobytes(),
        ],
    )


def decode_postings_segment(
    data: bytes, *, expected_crc: int | None = None
) -> InvertedIndex:
    """Rebuild an :class:`InvertedIndex` from a full postings segment."""
    _, sections = blocks.unpack_segment(
        data, expected_kind=blocks.KIND_POSTINGS, expected_crc=expected_crc
    )
    if len(sections) != 8:
        raise SegmentCorruptError(
            f"postings segment has {len(sections)} sections, expected 8"
        )
    if len(sections[0]) != _POSTINGS_HEADER.size:
        raise SegmentCorruptError("postings segment header has the wrong size")
    num_docs, num_terms, num_postings, num_doc_tokens = _POSTINGS_HEADER.unpack(
        sections[0]
    )
    tokens = _decode_tokens(sections[1])
    if len(tokens) != num_terms:
        raise SegmentCorruptError(
            f"token table holds {len(tokens)} tokens, header says {num_terms}"
        )
    lengths = _decode_array(sections[2], np.int64, "postings lengths")
    post_ids = _decode_array(sections[3], np.int64, "postings doc ids")
    post_tfs = _decode_array(sections[4], np.int64, "postings term frequencies")
    doc_ids = _decode_array(sections[5], np.int64, "doc ids")
    doc_lengths = _decode_array(sections[6], np.int64, "doc lengths")
    flat = _decode_array(sections[7], np.int64, "doc token ids")

    if lengths.size != num_terms:
        raise SegmentCorruptError(
            f"{lengths.size} postings lengths for {num_terms} tokens"
        )
    if lengths.size and int(lengths.min()) < 1:
        raise SegmentCorruptError("a token has an empty postings list")
    if int(lengths.sum()) != num_postings or post_ids.size != num_postings:
        raise SegmentCorruptError("postings lengths do not sum to the stored total")
    if post_tfs.size != num_postings:
        raise SegmentCorruptError("term-frequency vector length mismatch")
    if post_tfs.size and int(post_tfs.min()) < 1:
        raise SegmentCorruptError("non-positive term frequency")
    if doc_ids.size != num_docs:
        raise SegmentCorruptError(f"{doc_ids.size} doc ids, header says {num_docs}")
    if flat.size != num_doc_tokens:
        raise SegmentCorruptError("document token payload length mismatch")

    # Per-token postings must be strictly increasing: diff over the
    # concatenated vector, masking out the boundaries between tokens.
    if num_postings:
        boundaries = np.cumsum(lengths)[:-1]
        deltas = np.diff(post_ids)
        mask = np.ones(deltas.size, dtype=bool)
        mask[boundaries - 1] = False
        if np.any(deltas[mask] <= 0):
            raise SegmentCorruptError("postings are not sorted by doc id")

    docs = _decode_docs(tokens, doc_ids, doc_lengths, flat, "postings segment")

    # The index's slots are the doc ids in ascending order.
    post_slots = np.searchsorted(doc_ids, post_ids)
    if num_postings and (
        int(post_slots.max()) >= doc_ids.size
        or np.any(doc_ids[post_slots] != post_ids)
    ):
        raise SegmentCorruptError("a posting names a document the segment lacks")
    return InvertedIndex._from_columns(
        docs, doc_lengths, tokens, np.cumsum(lengths).tolist(), post_slots, post_tfs
    )


# ---------------------------------------------------------------------------
# postings (delta)
# ---------------------------------------------------------------------------
def encode_postings_delta(
    index: InvertedIndex, added_ids: list[int], removed_ids: list[int]
) -> bytes:
    """Serialize a churn delta: removals plus ``index``'s current docs."""
    added_ids = sorted(added_ids)
    docs = {doc_id: index._docs[doc_id] for doc_id in added_ids}
    tokens = sorted({token for tokens_ in docs.values() for token in tokens_})
    token_ids = {token: at for at, token in enumerate(tokens)}
    doc_ids, doc_lengths, flat = _encode_docs(docs, token_ids)
    removed = np.asarray(sorted(removed_ids), dtype=np.int64)
    header = _POSTINGS_DELTA_HEADER.pack(len(added_ids), removed.size, flat.size)
    return blocks.pack_segment(
        blocks.KIND_POSTINGS_DELTA,
        [
            header,
            _encode_tokens(tokens),
            removed.tobytes(),
            doc_ids.tobytes(),
            doc_lengths.tobytes(),
            flat.tobytes(),
        ],
    )


def decode_postings_delta(
    data: bytes, *, expected_crc: int | None = None
) -> tuple[list[tuple[int, tuple[str, ...]]], list[int]]:
    """Decode a postings delta into ``([(doc id, tokens)...], removed ids)``,
    added documents in ascending id order."""
    _, sections = blocks.unpack_segment(
        data, expected_kind=blocks.KIND_POSTINGS_DELTA, expected_crc=expected_crc
    )
    if len(sections) != 6:
        raise SegmentCorruptError(
            f"postings delta has {len(sections)} sections, expected 6"
        )
    if len(sections[0]) != _POSTINGS_DELTA_HEADER.size:
        raise SegmentCorruptError("postings delta header has the wrong size")
    num_added, num_removed, num_tokens = _POSTINGS_DELTA_HEADER.unpack(sections[0])
    tokens = _decode_tokens(sections[1])
    removed = _decode_array(sections[2], np.int64, "removed doc ids")
    doc_ids = _decode_array(sections[3], np.int64, "added doc ids")
    doc_lengths = _decode_array(sections[4], np.int64, "added doc lengths")
    flat = _decode_array(sections[5], np.int64, "added doc token ids")
    if removed.size != num_removed:
        raise SegmentCorruptError("removed-id count mismatch")
    if removed.size and np.any(np.diff(removed) <= 0):
        raise SegmentCorruptError("removed ids are not strictly increasing")
    if doc_ids.size != num_added:
        raise SegmentCorruptError("added-doc count mismatch")
    if flat.size != num_tokens:
        raise SegmentCorruptError("added token payload length mismatch")
    docs = _decode_docs(tokens, doc_ids, doc_lengths, flat, "postings delta")
    return list(docs.items()), removed.tolist()


# ---------------------------------------------------------------------------
# vectors (full)
# ---------------------------------------------------------------------------
def encode_vectors_segment(index: VectorIndex) -> bytes:
    """Serialize one :class:`VectorIndex`, preserving exact cell layout."""
    trained = 1 if index.centroids is not None else 0
    cells = index._cells
    sizes = np.asarray([cell.size for cell in cells], dtype=np.int64)
    ids = np.asarray(
        [doc_id for cell in cells for doc_id in cell.ids], dtype=np.int64
    )
    if ids.size:
        vectors = np.concatenate([cell.matrix[: cell.size] for cell in cells])
    else:
        vectors = np.zeros((0, index.dim), dtype=np.float64)
    centroids = (
        np.ascontiguousarray(index.centroids, dtype=np.float64)
        if trained
        else np.zeros((0, index.dim), dtype=np.float64)
    )
    header = _VECTORS_HEADER.pack(
        index.dim,
        index.num_clusters,
        index.nprobe,
        index.seed,
        trained,
        len(cells),
        ids.size,
    )
    return blocks.pack_segment(
        blocks.KIND_VECTORS,
        stored=(4,),  # the dense embedding matrix: skip zlib on the hot path
        sections=[
            header,
            centroids.tobytes(),
            sizes.tobytes(),
            ids.tobytes(),
            np.ascontiguousarray(vectors, dtype=np.float64).tobytes(),
        ],
    )


def decode_vectors_segment(
    data: bytes, *, expected_crc: int | None = None
) -> VectorIndex:
    """Rebuild a :class:`VectorIndex` with its exact saved cell layout."""
    _, sections = blocks.unpack_segment(
        data, expected_kind=blocks.KIND_VECTORS, expected_crc=expected_crc
    )
    if len(sections) != 5:
        raise SegmentCorruptError(
            f"vectors segment has {len(sections)} sections, expected 5"
        )
    if len(sections[0]) != _VECTORS_HEADER.size:
        raise SegmentCorruptError("vectors segment header has the wrong size")
    dim, num_clusters, nprobe, seed, trained, num_cells, num_docs = (
        _VECTORS_HEADER.unpack(sections[0])
    )
    if trained not in (0, 1):
        raise SegmentCorruptError(f"invalid trained flag {trained}")
    try:
        index = VectorIndex(
            int(dim), num_clusters=int(num_clusters), nprobe=int(nprobe), seed=int(seed)
        )
    except ValueError as error:
        raise SegmentCorruptError(f"invalid vector-index geometry: {error}") from None

    centroid_flat = _decode_array(sections[1], np.float64, "centroids")
    sizes = _decode_array(sections[2], np.int64, "cell sizes")
    ids = _decode_array(sections[3], np.int64, "cell member ids")
    flat = _decode_array(sections[4], np.float64, "cell vectors")

    if trained:
        if num_cells < 1 or centroid_flat.size != num_cells * dim:
            raise SegmentCorruptError("centroid matrix does not match the cell count")
        index.centroids = centroid_flat.reshape(num_cells, dim).copy()
    else:
        if centroid_flat.size:
            raise SegmentCorruptError("untrained index carries centroid data")
        if num_cells != 1:
            raise SegmentCorruptError(
                f"untrained index must have exactly one cell, found {num_cells}"
            )
    if sizes.size != num_cells:
        raise SegmentCorruptError(f"{sizes.size} cell sizes for {num_cells} cells")
    if sizes.size and int(sizes.min()) < 0:
        raise SegmentCorruptError("negative cell size")
    if int(sizes.sum()) != num_docs or ids.size != num_docs:
        raise SegmentCorruptError("cell sizes do not sum to the stored doc count")
    if flat.size != num_docs * dim:
        raise SegmentCorruptError("vector payload does not match the doc count")

    matrix = flat.reshape(num_docs, dim) if num_docs else flat.reshape(0, dim)
    if ids.size != np.unique(ids).size:
        raise SegmentCorruptError("a doc id is stored in two cells")
    index._cells = []
    offset = 0
    for cell_id, size in enumerate(sizes.tolist()):
        cell = _Cell(int(dim), capacity=max(8, size))
        members = ids[offset : offset + size].tolist()
        cell.ids = members
        cell.pos = {doc_id: at for at, doc_id in enumerate(members)}
        # one standalone copy per cell: _vectors must never alias the cell
        # matrix, whose rows are overwritten by swap-with-last removal
        block = matrix[offset : offset + size].copy()
        if size:
            cell.matrix[:size] = block
        cell.size = size
        index._cells.append(cell)
        index._cell_of.update((doc_id, cell_id) for doc_id in members)
        index._vectors.update(zip(members, block))
        offset += size
    return index


# ---------------------------------------------------------------------------
# vectors (delta)
# ---------------------------------------------------------------------------
def encode_vectors_delta(
    index: VectorIndex, added_ids: list[int], removed_ids: list[int]
) -> bytes:
    """Serialize a vector churn delta from ``index``'s current vectors."""
    added_ids = sorted(added_ids)
    removed = np.asarray(sorted(removed_ids), dtype=np.int64)
    added = np.asarray(added_ids, dtype=np.int64)
    if added_ids:
        vectors = np.stack([index._vectors[doc_id] for doc_id in added_ids])
    else:
        vectors = np.zeros((0, index.dim), dtype=np.float64)
    header = _VECTORS_DELTA_HEADER.pack(index.dim, added.size, removed.size)
    return blocks.pack_segment(
        blocks.KIND_VECTORS_DELTA,
        stored=(3,),  # the dense embedding matrix: skip zlib on the hot path
        sections=[
            header,
            removed.tobytes(),
            added.tobytes(),
            np.ascontiguousarray(vectors, dtype=np.float64).tobytes(),
        ],
    )


def decode_vectors_delta(
    data: bytes, *, expected_crc: int | None = None
) -> tuple[list[tuple[int, np.ndarray]], list[int]]:
    """Decode a vector delta into ``([(doc id, vector)...], removed ids)``,
    added rows in ascending id order."""
    _, sections = blocks.unpack_segment(
        data, expected_kind=blocks.KIND_VECTORS_DELTA, expected_crc=expected_crc
    )
    if len(sections) != 4:
        raise SegmentCorruptError(
            f"vectors delta has {len(sections)} sections, expected 4"
        )
    if len(sections[0]) != _VECTORS_DELTA_HEADER.size:
        raise SegmentCorruptError("vectors delta header has the wrong size")
    dim, num_added, num_removed = _VECTORS_DELTA_HEADER.unpack(sections[0])
    if dim < 1:
        raise SegmentCorruptError(f"invalid vector dimension {dim}")
    removed = _decode_array(sections[1], np.int64, "removed doc ids")
    added = _decode_array(sections[2], np.int64, "added doc ids")
    flat = _decode_array(sections[3], np.float64, "added vectors")
    if removed.size != num_removed:
        raise SegmentCorruptError("removed-id count mismatch")
    if removed.size and np.any(np.diff(removed) <= 0):
        raise SegmentCorruptError("removed ids are not strictly increasing")
    if added.size != num_added:
        raise SegmentCorruptError("added-id count mismatch")
    if added.size and np.any(np.diff(added) <= 0):
        raise SegmentCorruptError("added ids are not strictly increasing")
    if flat.size != num_added * dim:
        raise SegmentCorruptError("added-vector payload does not match the id count")
    return list(zip(added.tolist(), flat.reshape(num_added, dim))), removed.tolist()


# ---------------------------------------------------------------------------
# the per-tier record
# ---------------------------------------------------------------------------
def _centroids_moved(persisted: VectorIndex, live: VectorIndex) -> bool:
    """Whether ``live`` was re-fit since ``persisted``: a delta replay
    assigns each vector to a frozen centroid, so it cannot reproduce a
    new cell layout."""
    a, b = persisted.centroids, live.centroids
    return (a is None) != (b is None) or (a is not None and not np.array_equal(a, b))


@dataclass(frozen=True)
class TierCodec:
    """What one tier's shard is to :class:`~repro.store.SegmentStore`.

    ``full_kind`` / ``delta_kind`` name the two segment kinds, each with
    its encoder and decoder; ``decode_delta`` returns
    ``([(doc id, content)...], removed ids)``.  ``live(index)`` is the
    shard's ``{doc_id: content}`` map (token tuples or vectors): the ids
    a segment records and routing checks, and the content the delta diff
    compares with ``same``.  ``refit(persisted, live)`` is True when a
    delta could not reproduce the live shard, forcing a base rewrite.
    """

    full_kind: str
    delta_kind: str
    encode_full: Callable[[Any], bytes]
    decode_full: Callable[..., Any]
    encode_delta: Callable[[Any, list, list], bytes]
    decode_delta: Callable[..., tuple[list, list]]
    live: Callable[[Any], Mapping]
    same: Callable[[Any, Any], bool]
    refit: Callable[[Any, Any], bool]

    def replay(self, index, rows: list, removed: list[int]) -> None:
        """Apply one decoded delta onto ``index``: removals, then additions.

        Additions go through the index's own ``add_document``; for the
        vector tier that assigns each vector to the nearest centroid —
        the computation the live index performed, so the rebuilt cell
        layout matches exactly (the store writes a full segment instead
        whenever centroids moved).
        """
        try:
            for doc_id in removed:
                index.remove_document(doc_id)
            for doc_id, content in rows:
                index.add_document(doc_id, content)
        except (KeyError, ValueError) as error:
            raise SegmentCorruptError(
                f"{self.full_kind} delta does not apply to its base segment: {error}"
            ) from None


#: the segment store's view of each tier, by tier name
TIERS = {
    "lexical": TierCodec(
        *KINDS_BY_TIER["lexical"],
        encode_full=encode_postings_segment,
        decode_full=decode_postings_segment,
        encode_delta=encode_postings_delta,
        decode_delta=decode_postings_delta,
        live=operator.attrgetter("_docs"),
        same=operator.eq,
        refit=lambda persisted, live: False,
    ),
    "vector": TierCodec(
        *KINDS_BY_TIER["vector"],
        encode_full=encode_vectors_segment,
        decode_full=decode_vectors_segment,
        encode_delta=encode_vectors_delta,
        decode_delta=decode_vectors_delta,
        live=operator.attrgetter("_vectors"),
        same=np.array_equal,
        refit=_centroids_moved,
    ),
}
