"""Cluster tier: pools, shard backends, worker lifecycle, replica failover.

Unit coverage for :mod:`repro.cluster` and the store primitives it leans
on: the clamped lazy executor shared by every thread fan-out, exception
propagation with shard context from both backends, process-worker
timeouts and kill/respawn (the digest fingerprint must survive a
respawn from segments), replica routing with organic failover and
broadcast writes, and the snapshot-ship path
(:meth:`~repro.store.SegmentStore.ship_snapshot` /
:meth:`~repro.store.SegmentStore.load_shard`).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os

import pytest

from repro.cluster import (
    InprocBackend,
    LazyExecutor,
    NoHealthyReplicaError,
    ProcessBackend,
    ReplicaRouter,
    ShardTimeoutError,
    ShardUnavailableError,
    ShardWorkerError,
    clamp_workers,
)
from repro.search.inverted_index import InvertedIndex
from repro.search.ranking import BM25Ranker
from repro.search.sharded import ShardedIndex
from repro.search.syntax_tree import build_tree, pack
from repro.store import MANIFEST_NAME, ManifestError, SegmentCorruptError, SegmentStore

NUM_DOCS = 20


def lexical_indexes(num_shards: int = 2, docs: int = NUM_DOCS) -> list[InvertedIndex]:
    """Correctly routed shard indexes over a tiny synthetic corpus."""
    indexes = [InvertedIndex() for _ in range(num_shards)]
    for doc_id in range(docs):
        indexes[doc_id % num_shards].add_document(
            doc_id, (f"tok{doc_id % 7}", "common")
        )
    return indexes


def notes_of(error: BaseException) -> str:
    return "\n".join(getattr(error, "__notes__", []))


# -- pool ---------------------------------------------------------------------
class TestLazyExecutor:
    def test_clamp_workers_bounds(self):
        cores = os.cpu_count() or 1
        assert clamp_workers(0) == 1
        assert clamp_workers(-3) == 1
        assert clamp_workers(1) == 1
        assert clamp_workers(10**6) == cores
        assert 1 <= clamp_workers(8) <= max(8, cores)

    def test_lazy_until_first_use_and_ordered_map(self):
        pool = LazyExecutor(4)
        assert not pool.running
        assert list(pool.map(lambda x: x * x, range(6))) == [0, 1, 4, 9, 16, 25]
        assert pool.running
        pool.close()
        assert not pool.running

    def test_close_is_idempotent_and_recreatable(self):
        pool = LazyExecutor(2)
        pool.close()
        pool.close()
        # A closed pool lazily recreates on next use — backends stay
        # usable after an early close.
        assert list(pool.map(lambda x: x + 1, [1, 2])) == [2, 3]
        pool.close()

    def test_context_manager(self):
        with LazyExecutor(2) as pool:
            assert list(pool.map(str, [1])) == ["1"]
        assert not pool.running


# -- inproc backend -----------------------------------------------------------
class TestInprocBackend:
    def test_application_error_carries_shard_context(self):
        backend = InprocBackend("lexical", indexes=lexical_indexes())
        try:
            with pytest.raises(KeyError) as excinfo:
                backend.call(0, "doc", 998)
            assert "shard 0" in notes_of(excinfo.value)
        finally:
            backend.close()

    def test_kill_poisons_every_op(self):
        backend = InprocBackend("lexical", indexes=lexical_indexes())
        try:
            assert backend.call(0, "ping") is True
            backend.kill()
            with pytest.raises(ShardUnavailableError):
                backend.call(0, "ping")
            with pytest.raises(ShardUnavailableError):
                backend.fanout("shard_size")
            with pytest.raises(ShardUnavailableError):
                with backend.quiesce():
                    pass
        finally:
            backend.close()

    def test_fanout_results_in_shard_order(self):
        backend = InprocBackend("lexical", indexes=lexical_indexes(4))
        try:
            assert backend.fanout("shard_size") == [5, 5, 5, 5]
        finally:
            backend.close()


# -- process backend ----------------------------------------------------------
class TestProcessBackend:
    def test_worker_exception_reconstructed_with_context(self):
        backend = ProcessBackend("lexical", indexes=lexical_indexes())
        try:
            with pytest.raises(KeyError) as excinfo:
                backend.call(0, "doc", 998)
            notes = notes_of(excinfo.value)
            assert "shard 0" in notes
            assert "remote traceback" in notes
            # The worker survives an application error.
            assert backend.call(0, "ping") is True
        finally:
            backend.close()

    def test_timeout_kills_the_worker(self):
        backend = ProcessBackend("lexical", indexes=lexical_indexes(), timeout=0.25)
        try:
            with pytest.raises(ShardTimeoutError):
                backend.call(0, "stall", 5.0)
            # After a timeout the pipe is desynchronized: the worker is
            # gone and only a respawn can bring the shard back.
            with pytest.raises(ShardUnavailableError):
                backend.call(0, "ping")
            assert backend.call(1, "ping") is True
        finally:
            backend.close()

    def test_kill_and_respawn_restores_fingerprint(self, tmp_path):
        index = ShardedIndex(num_shards=2, parallel=False)
        for doc_id in range(NUM_DOCS):
            index.add_document(doc_id, (f"tok{doc_id % 7}", "common"))
        index.save(tmp_path / "store")
        index.close()

        backend = ProcessBackend("lexical", store_root=tmp_path / "store")
        try:
            before = backend.fanout("digest")
            backend.kill_worker(0)
            with pytest.raises(ShardUnavailableError):
                backend.call(0, "ping")
            backend.respawn_worker(0)
            # The respawned worker cold-started from its segment chain
            # back to the byte-identical persisted state.
            assert backend.fanout("digest") == before
            assert backend.fanout("shard_size") == [NUM_DOCS // 2, NUM_DOCS // 2]
        finally:
            backend.close()

    def test_respawn_requires_a_store(self):
        backend = ProcessBackend("lexical", indexes=lexical_indexes())
        try:
            backend.kill_worker(0)
            with pytest.raises(ShardWorkerError):
                backend.respawn_worker(0)
        finally:
            backend.close()

    def test_boot_from_missing_store_raises_manifest_error(self, tmp_path):
        with pytest.raises(ManifestError):
            ProcessBackend("lexical", store_root=tmp_path / "nowhere")

    def test_corrupt_shard_fails_the_concurrent_boot_and_leaves_no_worker(self, tmp_path):
        # Both workers boot at once; shard 1's segment is corrupt, so its
        # handshake carries the typed error, and shard 0's worker, which
        # booted fine, is shut down with it.
        root = tmp_path / "store"
        SegmentStore(root, "lexical").save(lexical_indexes())
        (segment,) = root.glob("lexical-s001-*.seg")
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0xFF
        segment.write_bytes(bytes(data))
        before = set(multiprocessing.active_children())
        with pytest.raises(SegmentCorruptError, match="shard 1"):
            ShardedIndex.load(root, backend="process")
        assert set(multiprocessing.active_children()) <= before


# -- the micro-batched search op ------------------------------------------------
@pytest.mark.parametrize("make_backend", [InprocBackend, ProcessBackend])
def test_malformed_request_mid_batch_fails_the_fanout_and_nothing_else(make_backend):
    """One bad request fails its whole fan-out with the worker's own
    error; every shard still answered, so the next search lines up."""
    backend = make_backend("lexical", indexes=lexical_indexes())
    index = ShardedIndex(backend=backend)
    try:
        ranker = BM25Ranker().with_stats(index.stats())
        good = ([pack(build_tree(["common"]))], ["common"])
        not_a_tree = (["common"], ["common"])
        with pytest.raises(AttributeError, match="evaluate") as excinfo:
            backend.fanout("search", [good, not_a_tree, good], ranker, 5)
        assert "shard 0" in notes_of(excinfo.value)
        # a reply left unread would come back here in place of this one
        assert [len(reply) for reply in backend.fanout("search", [good, good], ranker, 5)] == [2, 2]
        assert index.search([["common"]], k=5).doc_ids == [0, 1, 2, 3, 4]
        assert backend.fanout("shard_size") == [NUM_DOCS // 2, NUM_DOCS // 2]
    finally:
        index.close()


# -- replica router -----------------------------------------------------------
def two_replicas() -> ReplicaRouter:
    return ReplicaRouter(
        [InprocBackend("lexical", indexes=lexical_indexes()) for _ in range(2)]
    )


class TestReplicaRouter:
    def test_reads_fail_over_organically(self):
        router = two_replicas()
        try:
            router.kill_replica(0)
            # The router was not told: the next reads that land on the
            # dead replica must discover it and reroute.
            for _ in range(4):
                assert sum(router.fanout("shard_size")) == NUM_DOCS
            stats = router.stats()
            assert stats["failovers"] == 1
            assert stats["healthy_replicas"] == 1
            assert stats["rerouted_requests"] >= 1
        finally:
            router.close()

    def test_writes_broadcast_to_every_healthy_replica(self):
        router = two_replicas()
        try:
            router.call(0, "add", NUM_DOCS, ("fresh", "common"))
            for replica in router.replicas:
                assert replica.call(0, "contains", NUM_DOCS) is True
        finally:
            router.close()

    def test_writes_skip_dead_replicas_counted(self):
        router = two_replicas()
        try:
            router.kill_replica(0)
            router.call(0, "add", NUM_DOCS, ("fresh", "common"))
            stats = router.stats()
            assert stats["writes_skipped"] == 1
            assert stats["failovers"] == 1
            assert router.replicas[1].call(0, "contains", NUM_DOCS) is True
        finally:
            router.close()

    def test_respawn_validates_and_heals(self):
        router = two_replicas()
        try:
            router.kill_replica(0)
            router.fanout("shard_size")  # organic discovery
            with pytest.raises(ValueError):
                router.respawn_replica(
                    0, InprocBackend("lexical", indexes=lexical_indexes(4))
                )
            router.respawn_replica(
                0, InprocBackend("lexical", indexes=lexical_indexes())
            )
            stats = router.stats()
            assert stats["healthy_replicas"] == 2
            assert stats["respawns"] == 1
        finally:
            router.close()

    def test_all_dead_raises_no_healthy_replica(self):
        router = two_replicas()
        try:
            router.kill()
            with pytest.raises(NoHealthyReplicaError):
                router.fanout("shard_size")
            with pytest.raises(NoHealthyReplicaError):
                router.call(0, "add", NUM_DOCS, ("fresh",))
        finally:
            router.close()

    def test_quiesce_fails_over_but_propagates_caller_errors(self):
        router = two_replicas()
        try:
            router.kill_replica(0)
            with router.quiesce() as indexes:
                assert sum(len(index) for index in indexes) == NUM_DOCS
            assert router.stats()["failovers"] >= 0  # entry may or may not hit 0
            # An error raised INSIDE the caller's body must propagate
            # untouched — never be swallowed by entry failover.
            with pytest.raises(RuntimeError, match="caller body"):
                with router.quiesce():
                    raise RuntimeError("caller body")
        finally:
            router.close()

    def test_application_errors_are_not_rerouted(self):
        router = two_replicas()
        try:
            with pytest.raises(KeyError):
                router.call(0, "doc", 998)
            # Every replica would fail identically; nothing was marked.
            assert router.stats()["healthy_replicas"] == 2
        finally:
            router.close()


# -- store primitives ---------------------------------------------------------
class TestStoreClusterPrimitives:
    def save_store(self, tmp_path, num_shards: int = 2):
        store = SegmentStore(tmp_path / "store", "lexical")
        store.save(lexical_indexes(num_shards))
        return store

    def test_load_shard_matches_full_load(self, tmp_path):
        store = self.save_store(tmp_path)
        full = store.load()
        for shard_id, expected in enumerate(full):
            alone = store.load_shard(shard_id)
            assert alone.document_ids() == expected.document_ids()

    def test_load_shard_range_checked(self, tmp_path):
        store = self.save_store(tmp_path)
        with pytest.raises(ManifestError):
            store.load_shard(2)
        with pytest.raises(ManifestError):
            store.load_shard(-1)

    @pytest.mark.parametrize("path", ["load", "load_shard", "compact", "save"])
    def test_every_path_validates_routing(self, tmp_path, path):
        # Swapped shard contents put every doc in the wrong partition.
        # The read paths meet a manifest whose two chains traded shard
        # numbers; save meets the swapped live shard set itself.  Each
        # must refuse, and none may write a file first.
        root = tmp_path / "store"
        store = SegmentStore(root, "lexical")
        if path == "save":
            with pytest.raises(SegmentCorruptError, match="routed to another shard"):
                store.save(lexical_indexes()[::-1])
            assert not root.exists() or not any(root.iterdir())
            return
        manifest = store.save(lexical_indexes())
        manifest.segments = [
            dataclasses.replace(ref, shard=1 - ref.shard) for ref in manifest.segments
        ]
        (root / MANIFEST_NAME).write_text(manifest.to_json())
        before = sorted(p.name for p in root.iterdir())
        with pytest.raises(SegmentCorruptError, match="routed to another shard"):
            if path == "load_shard":
                store.load_shard(0)
            else:
                getattr(store, path)()
        assert sorted(p.name for p in root.iterdir()) == before

    def test_ship_snapshot_round_trip(self, tmp_path):
        store = self.save_store(tmp_path)
        manifest = store.manifest()
        shipped = store.ship_snapshot(tmp_path / "dest")
        assert shipped.generation == manifest.generation
        assert shipped.num_shards == manifest.num_shards
        copied = SegmentStore(tmp_path / "dest", "lexical").load()
        original = store.load()
        for mine, theirs in zip(copied, original):
            assert mine.document_ids() == theirs.document_ids()

    def test_ship_snapshot_refuses_existing_store(self, tmp_path):
        store = self.save_store(tmp_path)
        store.ship_snapshot(tmp_path / "dest")
        with pytest.raises(ManifestError):
            store.ship_snapshot(tmp_path / "dest")
