"""Offline rewrite cache (paper Section III-G, first deployment step).

The paper precomputes rewrites for the top 8 million queries — covering
more than 80% of traffic — and serves them from a key-value store in under
5 ms.  This module reproduces that tier as a *finite* resource, the way a
production key-value store is provisioned:

* **bounded capacity** — the store holds at most ``capacity`` entries and
  evicts in LRU order (a lookup refreshes recency), so the "top 8M
  queries" tier is a budget, not an ever-growing dict;
* **sharding** — entries are spread over ``shards`` independent LRU
  shards by a stable hash of the normalized query, mirroring the
  partitioned deployment and keeping per-shard occupancy/eviction
  counters observable;
* **optional TTL** — precomputed rewrites go stale as the catalog and
  click log drift; entries older than ``ttl_seconds`` are treated as
  misses, deleted (and counted as expirations) on *any* access path that
  discovers them — ``get``, ``__contains__``, or ``put``'s eviction scan —
  and can be swept eagerly with :meth:`RewriteCache.purge_expired`.
  Capacity pressure never evicts a live entry while an expired one is
  still occupying its slot.

The default construction (``RewriteCache()``) remains an unbounded
single-shard store with no TTL, matching the original seed behaviour.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.rewriter import rewrite_many
from repro.text import normalize

#: Heads per stacked decode in :meth:`RewriteCache.populate`.  Warming the
#: repo benchmark's 300 heads (``bench/``, full scale, seed 7, one BLAS
#: thread on a 2-core x86 host) took 1.3-1.5 s one head at a time and
#: 0.27-0.30 / 0.17 / 0.14 / 0.13 s in chunks of 8 / 16 / 32 / 64.  The
#: warm's decode batch is the largest a serving process holds under light
#: traffic, so it sets the peak memory: the warm's traced allocation peak
#: was 0.25 MB one head at a time and 0.54 / 0.87 / 1.55 / 3.05 MB in
#: those chunks, and the open-loop ``mixed_open`` workload's
#: ``peak_rss_mb`` (seeds 331-333) rose over the one-at-a-time warm by
#: 0.2 MB at 8, 0.7-2.7 MB at 16 and 1.7-2.0 MB at 32.  Chunks of 8 take
#: most of the speed-up and keep the peak flat.
_WARM_CHUNK = 8


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Shard:
    """One LRU partition: insertion/refresh order is recency order.

    ``lock`` serializes every access to the shard's entries — writers to
    *different* shards never contend, mirroring the sharded deployment."""

    __slots__ = ("capacity", "entries", "evictions", "earliest_expiry", "lock")

    def __init__(self, capacity: int | None):
        self.capacity = capacity
        #: key -> (rewrites, stored_at); oldest (least recently used) first
        self.entries: OrderedDict[str, tuple[list[str], float]] = OrderedDict()
        self.evictions = 0
        self.lock = threading.Lock()
        #: conservative lower bound on the earliest moment any entry in
        #: this shard can expire — lets expired-entry scans be skipped in
        #: O(1) while nothing can possibly be expired.  Individual
        #: deletions may leave it stale (too low), which only costs one
        #: harmless extra scan; a full purge recomputes it exactly.
        self.earliest_expiry = float("inf")


class RewriteCache:
    """Normalized-query -> precomputed rewrites store (bounded, sharded LRU).

    Parameters
    ----------
    capacity:
        Maximum total number of entries across all shards; ``None`` means
        unbounded.  The bound is split evenly over the shards, so the
        store can never hold more than ``capacity`` entries.
    shards:
        Number of independent LRU partitions (must divide the key space
        reasonably; any ``>= 1`` works).
    ttl_seconds:
        Entries older than this are expired lazily on access; ``None``
        disables expiry.
    clock:
        Monotonic time source, injectable for tests.

    Thread safety: every operation takes the owning shard's mutex (plus a
    separate counter mutex for the shared :class:`CacheStats`), so
    concurrent ``get``/``put``/``delete`` from any number of threads keep
    the LRU structures intact and the hit/miss/eviction/expiration/
    occupancy gauges exactly consistent — each get counts exactly one hit
    or miss, and every entry ever stored is accounted for by exactly one
    of: still live, evicted, expired, or deleted.  Operations on
    different shards never contend (single-writer-per-shard, like the
    partitioned deployment); the clock callable must itself be safe to
    call from multiple threads (``time.monotonic`` and
    :class:`~repro.online.clock.VirtualClock.now` both are).
    """

    def __init__(
        self,
        capacity: int | None = None,
        shards: int = 1,
        ttl_seconds: float | None = None,
        clock=time.monotonic,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if capacity is not None and capacity < shards:
            raise ValueError("capacity must be at least the shard count")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        self._capacity = capacity
        self._ttl = ttl_seconds
        self._clock = clock
        #: namespace prefix prepended to every normalized key ("" for the
        #: root store; see :meth:`tenant_view`)
        self._prefix = ""
        base, extra = (0, 0) if capacity is None else divmod(capacity, shards)
        self._shards = [
            _Shard(None if capacity is None else base + (1 if i < extra else 0))
            for i in range(shards)
        ]
        self.stats = CacheStats()
        # CacheStats is shared across shards; its increments get their own
        # mutex so two shards' operations never race a counter update.
        self._stats_lock = threading.Lock()

    # -- multi-tenancy -------------------------------------------------------
    @property
    def namespace(self) -> str:
        """This view's tenant namespace ("" for the root store)."""
        return self._prefix[:-1] if self._prefix else ""

    def tenant_view(self, namespace: str) -> "RewriteCache":
        """A tenant-scoped view over this cache's *shared* physical store.

        The view shares the shards (capacity, TTL, clock, LRU order, and
        locks) with the root cache, but prefixes every key with
        ``namespace`` + NUL — a byte :func:`~repro.text.normalize` can
        never emit — so two tenants' entries for the *same* query text
        can never collide: one marketplace's precomputed rewrites are
        invisible to every other marketplace, which is the isolation
        invariant the multi-tenant replay scenarios pin.  Each view keeps
        its own :class:`CacheStats`, so per-tenant hit/miss accounting
        stays separable while capacity/eviction pressure remains a shared
        (physical) budget.  Views nest: a view's view prefixes further.

        Expirations/evictions discovered during a view's operations are
        counted on that view's stats — attribution follows whoever did
        the work, the same rule the root cache applies to itself.
        """
        if not namespace:
            raise ValueError("namespace must be non-empty")
        if "\x00" in namespace:
            raise ValueError("namespace must not contain NUL")
        view = RewriteCache.__new__(RewriteCache)
        view._capacity = self._capacity
        view._ttl = self._ttl
        view._clock = self._clock
        view._prefix = self._prefix + namespace + "\x00"
        view._shards = self._shards
        view.stats = CacheStats()
        view._stats_lock = threading.Lock()
        return view

    def _key(self, query: str) -> str:
        """Physical key: the view's namespace prefix + the normalized query."""
        return self._prefix + normalize(query)

    # -- introspection -------------------------------------------------------
    @property
    def clock(self):
        """The cache's time source (zero-argument callable), so freshness
        machinery layered on top can share the exact same notion of now."""
        return self._clock

    @property
    def capacity(self) -> int | None:
        return self._capacity

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def fill_ratio(self) -> float:
        """Occupancy as a fraction of capacity (0.0 when unbounded)."""
        if not self._capacity:
            return 0.0
        return len(self) / self._capacity

    def shard_occupancy(self) -> list[int]:
        return [len(s.entries) for s in self._shards]

    def shard_evictions(self) -> list[int]:
        return [s.evictions for s in self._shards]

    def __len__(self) -> int:
        """Live *physical* entry count (each shard read under its own
        mutex) — on a tenant view this still counts every namespace,
        because capacity is a shared physical budget."""
        return sum(self._shard_len(s) for s in self._shards)

    @staticmethod
    def _shard_len(shard: _Shard) -> int:
        with shard.lock:
            return len(shard.entries)

    def __contains__(self, query: str) -> bool:
        """Whether a *live* entry exists (no hit/miss accounting).

        An expired entry discovered here is deleted and counted as an
        expiration — leaving it in place would let dead entries occupy
        capacity until the next ``get``, which is exactly the state where
        ``put`` used to evict live neighbours instead.
        """
        key = self._key(query)
        shard = self._shard_for(key)
        with shard.lock:
            entry = shard.entries.get(key)
            if entry is None:
                return False
            if self._expired(entry):
                del shard.entries[key]
                with self._stats_lock:
                    self.stats.expirations += 1
                return False
            return True

    # -- core operations ---------------------------------------------------------
    def _shard_for(self, key: str) -> _Shard:
        # zlib.crc32 is stable across processes (unlike ``hash`` on str),
        # so shard placement is deterministic and testable.
        return self._shards[zlib.crc32(key.encode("utf-8")) % len(self._shards)]

    def _expired(self, entry: tuple[list[str], float]) -> bool:
        return self._ttl is not None and self._clock() - entry[1] > self._ttl

    def _purge_shard_expired(self, shard: _Shard) -> int:
        """Delete every expired entry in ``shard``; returns how many.

        Caller must hold ``shard.lock``.  O(1) when nothing can be
        expired yet (the shard's earliest-expiry bound is in the future);
        otherwise one O(shard) sweep that also recomputes the bound
        exactly, so the steady-state write path of a full TTL'd cache
        stays O(1) per insert.
        """
        if self._ttl is None or not shard.entries:
            return 0
        now = self._clock()
        if now <= shard.earliest_expiry:
            return 0
        dead = [k for k, e in shard.entries.items() if now - e[1] > self._ttl]
        for key in dead:
            del shard.entries[key]
        with self._stats_lock:
            self.stats.expirations += len(dead)
        oldest = min((e[1] for e in shard.entries.values()), default=None)
        shard.earliest_expiry = float("inf") if oldest is None else oldest + self._ttl
        return len(dead)

    def put(self, query: str, rewrites: list[str]) -> None:
        """Insert or refresh an entry, evicting LRU entries past capacity.

        When the shard is over budget, expired entries are collected first
        (counted as expirations, not evictions); only if the shard is
        *still* over budget does true LRU eviction of live entries kick
        in.  Before this ordering, an expired entry could survive an
        eviction round while a live one was dropped.
        """
        key = self._key(query)
        shard = self._shard_for(key)
        with shard.lock:
            written = self._clock()
            shard.entries[key] = (list(rewrites), written)
            shard.entries.move_to_end(key)
            if self._ttl is not None:
                shard.earliest_expiry = min(shard.earliest_expiry, written + self._ttl)
            if shard.capacity is not None and len(shard.entries) > shard.capacity:
                self._purge_shard_expired(shard)
            evicted = 0
            while shard.capacity is not None and len(shard.entries) > shard.capacity:
                shard.entries.popitem(last=False)
                shard.evictions += 1
                evicted += 1
            if evicted:
                with self._stats_lock:
                    self.stats.evictions += evicted

    def get(self, query: str) -> list[str] | None:
        """Rewrites for ``query`` or None on a miss (stats are updated).

        A hit refreshes the entry's LRU position; an entry past its TTL is
        removed and counted as both an expiration and a miss.
        """
        key = self._key(query)
        shard = self._shard_for(key)
        with shard.lock:
            entry = shard.entries.get(key)
            if entry is None:
                with self._stats_lock:
                    self.stats.misses += 1
                return None
            if self._expired(entry):
                del shard.entries[key]
                with self._stats_lock:
                    self.stats.expirations += 1
                    self.stats.misses += 1
                return None
            shard.entries.move_to_end(key)
            with self._stats_lock:
                self.stats.hits += 1
            return list(entry[0])

    # -- freshness maintenance ----------------------------------------------
    def delete(self, query: str) -> bool:
        """Invalidate one entry (expired or live); True if it existed.

        Counts neither an eviction nor an expiration — the caller (e.g. a
        freshness controller reacting to catalog churn) owns the
        invalidation accounting.
        """
        key = self._key(query)
        shard = self._shard_for(key)
        with shard.lock:
            return shard.entries.pop(key, None) is not None

    def purge_expired(self) -> int:
        """Sweep every shard, deleting (and counting) all expired entries.

        Returns the number purged.  ``get``/``__contains__``/``put``
        already collect expired entries lazily; this sweep is for a
        freshness controller that wants capacity back *before* the dead
        keys are touched again.
        """
        purged = 0
        for shard in self._shards:
            with shard.lock:
                purged += self._purge_shard_expired(shard)
        return purged

    def stored_at(self, query: str) -> float | None:
        """Write timestamp of the *live* entry for ``query``, else None.

        A pure peek: no hit/miss accounting, no LRU refresh, and expired
        entries read as absent (without being collected).
        """
        key = self._key(query)
        shard = self._shard_for(key)
        with shard.lock:
            entry = shard.entries.get(key)
            if entry is None or self._expired(entry):
                return None
            return entry[1]

    def expiring_within(self, margin_seconds: float) -> list[str]:
        """Normalized keys of live entries whose TTL runs out within
        ``margin_seconds`` — the refresh-ahead set.  Empty when TTL is off.

        A tenant view reports only its own namespace's entries, with the
        namespace prefix stripped, so a freshness controller layered on a
        view sees the same logical keys it manages.
        """
        if self._ttl is None:
            return []
        now = self._clock()
        keys: list[str] = []
        for shard in self._shards:
            with shard.lock:
                for key, (_, written) in shard.entries.items():
                    if not key.startswith(self._prefix):
                        continue
                    remaining = self._ttl - (now - written)
                    if 0.0 <= remaining <= margin_seconds:
                        keys.append(key[len(self._prefix):])
        return keys

    def populate(self, rewriter, queries: list[str], k: int = 3) -> int:
        """Precompute rewrites for head ``queries`` using any rewriter with
        a ``rewrite(query, k) -> list[RewriteResult]`` method.

        The heads are decoded :data:`_WARM_CHUNK` at a time through
        :func:`~repro.core.rewriter.rewrite_many`, the dispatch
        ``ServingPipeline.serve_batch`` uses: one stacked
        ``rewrite_batch`` decode per chunk when the rewriter has one, else
        one ``rewrite`` per head.  Entries are written in input order, so
        the LRU order is the one a per-head warm leaves.

        Returns the number of queries that produced at least one rewrite.
        """
        filled = 0
        for start in range(0, len(queries), _WARM_CHUNK):
            chunk = queries[start:start + _WARM_CHUNK]
            for query, results in zip(chunk, rewrite_many(rewriter, chunk, k=k)):
                if results:
                    self.put(query, [r.text for r in results])
                    filled += 1
        return filled
