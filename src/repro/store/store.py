"""The segment store: a directory of immutable segments + one manifest.

:class:`SegmentStore` persists the per-shard state of one retrieval
tier — ``"lexical"`` (:class:`~repro.search.inverted_index.InvertedIndex`
shards) or ``"vector"`` (:class:`~repro.search.vector.VectorIndex`
shards) — under a root directory:

```
root/
  MANIFEST.json                      # versioned table of contents
  lexical-s000-g000001.postings.seg  # shard 0 base segment
  lexical-s000-g000003.postings_delta.seg
  ...
```

Write path (:meth:`save`): the first save writes one full segment per
shard; subsequent saves *diff* the live shards against the persisted
state and append one delta segment per changed shard (or rewrite the
shard's base when more than half its documents changed, or — vector
tier — when the centroids moved, since a delta replay could not
reproduce the new cell layout).  An unchanged store is a no-op that
returns the existing manifest.  Segment files are immutable; each save
bumps the manifest generation and atomically replaces ``MANIFEST.json``
via rename, so a crash mid-save leaves the previous manifest intact and
consistent.

Read path (:meth:`load`): manifest → per-shard chain (base + deltas in
generation order) → decode with every check on: block checksums, the
manifest's payload checksum, the manifest's doc-count/id-range records
cross-checked against the decoded state, and routing (every id in
shard ``doc_id % num_shards``).  Any mismatch raises a typed
:class:`~repro.store.errors.StoreError` subclass.

What a tier's shard *is* — its segment kinds and codecs, live
documents, content equality and re-fit rule — the store reads from the
tier's :class:`~repro.store.segments.TierCodec`; it never branches on
the tier itself.

Compaction (:meth:`compact`): loads the current state, rewrites one
fresh full segment per shard at the next generation, and deletes every
segment file the new manifest no longer references (including orphans
left behind by base rewrites).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.store.blocks import payload_checksum, unpack_segment
from repro.store.errors import ManifestError, SegmentCorruptError
from repro.store.manifest import MANIFEST_NAME, Manifest, SegmentRef
from repro.store.segments import TIERS

#: rewrite a shard's base instead of appending a delta when the changed
#: document count exceeds this fraction of the live shard
FULL_REWRITE_FRACTION = 0.5


def read_segment_file(path) -> bytes:
    """Read one segment file, wrapping I/O failures as typed corruption."""
    try:
        return Path(path).read_bytes()
    except OSError as error:
        raise SegmentCorruptError(
            f"segment file {Path(path).name!r} is missing or unreadable: {error}"
        ) from None


def _id_range(doc_ids) -> tuple[int, int]:
    """(min, max) over ``doc_ids``; (-1, -1) when empty."""
    ids = list(doc_ids)
    if not ids:
        return -1, -1
    return int(min(ids)), int(max(ids))


def _check_routing(doc_ids, shard_id: int, num_shards: int) -> None:
    """Refuse a shard holding any id with ``doc_id % num_shards != shard_id``."""
    ids = np.fromiter(doc_ids, dtype=np.int64, count=len(doc_ids))
    if ids.size and np.any(ids % num_shards != shard_id):
        raise SegmentCorruptError(
            f"shard {shard_id} holds documents routed to another shard"
        )


class SegmentStore:
    """Save/load/compact one tier's sharded indexes under a directory."""

    def __init__(self, root, tier: str):
        """``tier`` is ``"lexical"`` or ``"vector"``; the directory is
        created lazily on the first :meth:`save`."""
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}; expected one of {sorted(TIERS)}")
        self.root = Path(root)
        self.tier = tier
        self._codec = TIERS[tier]

    # -- manifest ------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        """Where this store's ``MANIFEST.json`` lives."""
        return self.root / MANIFEST_NAME

    def exists(self) -> bool:
        """True when a manifest is present (the store has been saved)."""
        return self.manifest_path.is_file()

    def manifest(self) -> Manifest:
        """Read and validate the manifest (typed errors on any defect)."""
        try:
            text = self.manifest_path.read_text(encoding="utf-8")
        except OSError as error:
            raise ManifestError(
                f"no readable manifest at {self.manifest_path}: {error}"
            ) from None
        except UnicodeDecodeError as error:
            raise ManifestError(f"manifest is not valid UTF-8: {error}") from None
        manifest = Manifest.from_json(text)
        if manifest.tier != self.tier:
            raise ManifestError(
                f"store at {self.root} holds tier {manifest.tier!r}, "
                f"not {self.tier!r}"
            )
        return manifest

    def _write_manifest(self, manifest: Manifest) -> None:
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(manifest.to_json(), encoding="utf-8")
        os.replace(tmp, self.manifest_path)

    # -- encode --------------------------------------------------------------
    def _ref(self, shard_id: int, generation: int, kind: str, data: bytes,
             counts: tuple[int, int], touched, writes) -> SegmentRef:
        """Queue ``data`` for writing and describe it for the manifest.

        ``counts`` is (documents added, documents removed); ``touched``
        the ids the segment carries.
        """
        name = f"{self.tier}-s{shard_id:03d}-g{generation:06d}.{kind}.seg"
        writes.append((name, data))
        _, sections = unpack_segment(data)
        lo, hi = _id_range(touched)
        return SegmentRef(
            name=name,
            kind=kind,
            shard=shard_id,
            generation=generation,
            checksum=payload_checksum(sections),
            payload_bytes=sum(map(len, sections)),
            doc_count=counts[0],
            removed_count=counts[1],
            min_doc_id=lo,
            max_doc_id=hi,
        )

    def _full_ref(self, shard_id: int, generation: int, index, writes) -> SegmentRef:
        codec = self._codec
        return self._ref(
            shard_id, generation, codec.full_kind, codec.encode_full(index),
            (len(index), 0), codec.live(index), writes,
        )

    # -- diffing -------------------------------------------------------------
    def _diff_shard(self, persisted, live) -> tuple[list[int], list[int], bool]:
        """``(added, removed, must_rewrite)`` between two shard states.

        A document whose content changed (same id, different tokens or
        vector) appears in both lists — the delta removes the old row and
        re-adds the new one.  ``must_rewrite`` is True when a delta could
        not reproduce the live state (the tier's re-fit rule: vector
        centroids changed, meaning every cell assignment may have moved).
        """
        codec = self._codec
        old, new = codec.live(persisted), codec.live(live)
        removed = sorted(
            doc_id for doc_id in old
            if doc_id not in new or not codec.same(old[doc_id], new[doc_id])
        )
        added = sorted(
            doc_id for doc_id in new
            if doc_id not in old or not codec.same(old[doc_id], new[doc_id])
        )
        return added, removed, codec.refit(persisted, live)

    # -- save ----------------------------------------------------------------
    def save(self, shards: list, *, meta: dict | None = None, force_full: bool = False) -> Manifest:
        """Persist ``shards`` (one index per shard, in shard order).

        First save (or ``force_full``): one full segment per shard.
        Later saves: per-shard deltas against the persisted state, with
        automatic base rewrite when a shard churned past
        :data:`FULL_REWRITE_FRACTION` of its live size or (vector tier)
        was re-fit.  A save with no changes returns the current manifest
        untouched.  A shard holding a document routed elsewhere
        (``doc_id % len(shards)``) raises
        :class:`~repro.store.SegmentCorruptError` before any file is
        written.  Callers must quiesce writers for the duration (the
        sharded indexes' ``save`` methods hold every shard lock).
        """
        if not shards:
            raise ValueError("save needs at least one shard")
        for shard_id, live in enumerate(shards):
            _check_routing(self._codec.live(live), shard_id, len(shards))
        self.root.mkdir(parents=True, exist_ok=True)

        previous: Manifest | None = None
        persisted: list | None = None
        if not force_full and self.exists():
            previous = self.manifest()
            if previous.num_shards == len(shards):
                persisted = self._load_indexes(previous)
            else:
                previous = None  # shard layout changed: full rewrite

        generation = 1 if previous is None else previous.generation + 1
        refs: list[SegmentRef] = []
        writes: list[tuple[str, bytes]] = []
        changed_any = previous is None

        for shard_id, live in enumerate(shards):
            if previous is None:
                refs.append(self._full_ref(shard_id, generation, live, writes))
                continue
            added, removed, must_rewrite = self._diff_shard(
                persisted[shard_id], live
            )
            if not added and not removed and not must_rewrite:
                refs.extend(previous.chain_for_shard(shard_id))
                continue
            changed_any = True
            live_size = max(1, len(live))
            if must_rewrite or (len(added) + len(removed)) / live_size > FULL_REWRITE_FRACTION:
                refs.append(self._full_ref(shard_id, generation, live, writes))
            else:
                refs.extend(previous.chain_for_shard(shard_id))
                refs.append(
                    self._ref(
                        shard_id, generation, self._codec.delta_kind,
                        self._codec.encode_delta(live, added, removed),
                        (len(added), len(removed)), added + removed, writes,
                    )
                )

        if not changed_any:
            return previous

        manifest = Manifest(
            tier=self.tier,
            num_shards=len(shards),
            generation=generation,
            segments=refs,
            meta=dict(meta if meta is not None else (previous.meta if previous else {})),
        )
        for name, data in writes:
            (self.root / name).write_bytes(data)
        self._write_manifest(manifest)
        return manifest

    # -- load ----------------------------------------------------------------
    def load(self) -> list:
        """Reconstruct every shard's index, fully verified.

        Applies each shard's chain (base, then deltas in generation
        order) with block checksums, manifest payload checksums, the
        manifest's doc-count / id-range records and the routing check
        (``doc_id % num_shards == shard_id``) all enforced.  Returns the
        per-shard index list in shard order.
        """
        return self._load_indexes(self.manifest())

    def load_shard(self, shard_id: int):
        """Reconstruct ONE shard's index from its base+delta chain.

        The worker cold-start path: a shard worker process restores only
        its own partition — O(shard) decode instead of O(store) — with
        the same verification as :meth:`load`, routing check included,
        so a mislabeled or misrouted chain fails the boot instead of
        silently serving another shard's documents.
        """
        manifest = self.manifest()
        if not 0 <= shard_id < manifest.num_shards:
            raise ManifestError(
                f"shard {shard_id} out of range for a "
                f"{manifest.num_shards}-shard store"
            )
        return self._load_shard(manifest, shard_id)

    def _load_indexes(self, manifest: Manifest) -> list:
        return [
            self._load_shard(manifest, shard_id)
            for shard_id in range(manifest.num_shards)
        ]

    def _load_shard(self, manifest: Manifest, shard_id: int):
        """Decode one shard's chain and check every ref and the routing.

        The one shard-chain decoder behind :meth:`load`,
        :meth:`load_shard`, :meth:`compact` and :meth:`save`'s diff.
        """
        codec = self._codec
        base, *deltas = manifest.chain_for_shard(shard_id)
        index = codec.decode_full(
            read_segment_file(self.root / base.name), expected_crc=base.checksum
        )
        self._check_ref(base, len(index), _id_range(codec.live(index)))
        for ref in deltas:
            rows, removed = codec.decode_delta(
                read_segment_file(self.root / ref.name), expected_crc=ref.checksum
            )
            added = [doc_id for doc_id, _ in rows]
            self._check_ref(ref, len(added), _id_range(added + removed), removed=len(removed))
            codec.replay(index, rows, removed)
        _check_routing(codec.live(index), shard_id, manifest.num_shards)
        return index

    @staticmethod
    def _check_ref(ref: SegmentRef, doc_count: int, id_range, *, removed: int = 0) -> None:
        if doc_count != ref.doc_count or removed != ref.removed_count:
            raise SegmentCorruptError(
                f"segment {ref.name!r} decoded {doc_count} docs / {removed} "
                f"removes, manifest records {ref.doc_count} / {ref.removed_count}"
            )
        if id_range != (ref.min_doc_id, ref.max_doc_id):
            raise SegmentCorruptError(
                f"segment {ref.name!r} doc-id range {id_range} does not match "
                f"the manifest record ({ref.min_doc_id}, {ref.max_doc_id})"
            )

    # -- compaction ----------------------------------------------------------
    def compact(self) -> Manifest:
        """Collapse every shard's chain into a fresh base segment.

        Loads the current state, writes one full segment per shard at
        the next generation, swaps the manifest, and deletes every
        ``.seg`` file the new manifest does not reference — both the
        superseded chain and any orphans from earlier base rewrites.
        Returns the new manifest.
        """
        previous = self.manifest()
        indexes = self._load_indexes(previous)
        generation = previous.generation + 1
        writes: list[tuple[str, bytes]] = []
        refs = [
            self._full_ref(shard_id, generation, index, writes)
            for shard_id, index in enumerate(indexes)
        ]
        manifest = Manifest(
            tier=self.tier,
            num_shards=previous.num_shards,
            generation=generation,
            segments=refs,
            meta=dict(previous.meta),
        )
        for name, data in writes:
            (self.root / name).write_bytes(data)
        self._write_manifest(manifest)
        keep = {ref.name for ref in manifest.segments}
        for path in self.root.glob("*.seg"):
            if path.name not in keep:
                path.unlink()
        return manifest

    # -- snapshot shipping ---------------------------------------------------
    def ship_snapshot(self, dest) -> Manifest:
        """Copy the current manifest + referenced segments to ``dest``.

        The replica hand-off path: the router ships a self-contained
        store directory to a respawning worker, which then cold-starts
        via :meth:`load_shard` at the *same generation* the survivors
        serve — that generation equality is what makes post-failover
        results identical.  Every segment's payload checksum is
        re-verified as it is copied (a snapshot taken from a corrupt
        store must fail loudly here, not at the respawned worker), and
        the manifest is written last so a torn ship never looks
        complete.  ``dest`` must not already contain a store.
        """
        manifest = self.manifest()
        dest = Path(dest)
        if (dest / MANIFEST_NAME).exists():
            raise ManifestError(
                f"refusing to ship a snapshot into an existing store at {dest}"
            )
        dest.mkdir(parents=True, exist_ok=True)
        for ref in manifest.segments:
            data = read_segment_file(self.root / ref.name)
            _, sections = unpack_segment(data)
            if payload_checksum(sections) != ref.checksum:
                raise SegmentCorruptError(
                    f"segment {ref.name!r} fails its manifest checksum; "
                    "refusing to ship a corrupt snapshot"
                )
            (dest / ref.name).write_bytes(data)
        tmp = dest / (MANIFEST_NAME + ".tmp")
        tmp.write_text(manifest.to_json(), encoding="utf-8")
        os.replace(tmp, dest / MANIFEST_NAME)
        return manifest

    # -- reporting -----------------------------------------------------------
    def stats(self) -> dict:
        """Size and shape of the store on disk (for benchmarks and docs).

        Returns segment/delta counts, the manifest generation, total
        file bytes (compressed, as stored) and total payload bytes
        (uncompressed, as recorded in the manifest).
        """
        manifest = self.manifest()
        file_bytes = sum(
            (self.root / ref.name).stat().st_size
            for ref in manifest.segments
            if (self.root / ref.name).is_file()
        )
        deltas = sum(1 for ref in manifest.segments if not ref.is_full)
        return {
            "tier": manifest.tier,
            "num_shards": manifest.num_shards,
            "generation": manifest.generation,
            "segments": len(manifest.segments),
            "delta_segments": deltas,
            "file_bytes": int(file_bytes),
            "payload_bytes": sum(ref.payload_bytes for ref in manifest.segments),
            "doc_count": sum(
                ref.doc_count - ref.removed_count for ref in manifest.segments
            ),
        }
