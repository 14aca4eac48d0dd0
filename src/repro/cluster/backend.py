"""Pluggable shard backends: threads in-process, or workers over pipes.

A :class:`ShardBackend` owns the per-shard index state of one retrieval
tier and executes the named operations of :mod:`repro.cluster.ops`
against it.  The sharded facades (:class:`~repro.search.sharded.
ShardedIndex`, :class:`~repro.search.vector.ShardedVectorIndex`) hold a
backend instead of executors and locks, so *where* a shard runs — a
thread in this process or a ``multiprocessing`` worker — is a
deployment choice, invisible to relevance:

* :class:`InprocBackend` — today's behavior, byte for byte: one
  single-writer (index, mutex) pair per shard, fan-out through one
  shared clamped :class:`~repro.cluster.pool.LazyExecutor`.
* :class:`ProcessBackend` — one daemon worker *process* per shard,
  breaking the GIL for search fan-out.  Workers boot either from a
  pickled seed index or cold-start from a
  :class:`~repro.store.SegmentStore` shard chain, then serve
  ``(op, args)`` requests over a duplex pipe.  Both backends run the
  exact same handler functions, so results are identical by
  construction.

Failure semantics: application errors (duplicate add, unknown id) cross
the pipe as ``(module, qualname, args, traceback)`` and are re-raised
in the parent with their original type, annotated with the shard id and
remote traceback.  Liveness failures — dead process, broken pipe,
missed deadline — raise :class:`~repro.cluster.errors.
ShardUnavailableError` / :class:`~repro.cluster.errors.
ShardTimeoutError`, the only family the replica router reroutes.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import multiprocessing
import pickle
import time
import threading
import traceback

from repro.cluster.errors import (
    ShardTimeoutError,
    ShardUnavailableError,
    ShardWorkerError,
)
from repro.cluster.ops import OPS
from repro.cluster.pool import LazyExecutor

#: seconds a worker gets to finish booting (segment decode included)
BOOT_TIMEOUT = 120.0
#: seconds a closing backend waits for workers to exit gracefully
SHUTDOWN_TIMEOUT = 5.0


def _annotate(error: BaseException, note: str) -> BaseException:
    """Attach shard context to an exception (no-op before Python 3.11)."""
    if hasattr(error, "add_note"):
        error.add_note(note)
    return error


class ShardBackend:
    """The backend contract shared by in-process and worker deployments.

    A backend exposes its ``tier`` (``"lexical"`` or ``"vector"``), its
    ``num_shards``, and four verbs:

    * :meth:`call` — run one op on one shard.
    * :meth:`fanout` — run one op on every shard, in parallel, returning
      per-shard results in shard order.
    * :meth:`quiesce` — a context manager yielding every shard's index
      object with writes excluded, for persistence snapshots.
    * :meth:`close` — release threads/processes (idempotent).

    ``kill()`` poisons the backend for failure injection: every
    subsequent op raises :class:`ShardUnavailableError`, which is how
    the replica router discovers a dead replica organically.
    """

    #: human-readable backend kind, e.g. ``"inproc"`` / ``"process"``
    name = "abstract"
    tier: str
    num_shards: int

    def call(self, shard_id: int, op: str, *args):
        """Run ``op`` on one shard and return its result."""
        raise NotImplementedError

    def fanout(self, op: str, *args) -> list:
        """Run ``op`` on every shard in parallel; results in shard order."""
        raise NotImplementedError

    def quiesce(self):
        """Context manager yielding the per-shard index list, writes excluded."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the backend's resources (idempotent)."""
        raise NotImplementedError

    def kill(self) -> None:
        """Failure injection: make every subsequent op fail as unavailable."""
        raise NotImplementedError

    def describe(self) -> dict:
        """Deployment counters; ``ServingPipeline.counters`` reads them.

        Routers override this with real failover numbers; a bare backend
        reports itself as one healthy replica.
        """
        return {
            "backend": self.name,
            "num_shards": self.num_shards,
            "replicas": 1,
            "healthy_replicas": 0 if getattr(self, "_dead", False) else 1,
            "failovers": 0,
            "rerouted_requests": 0,
            "respawns": 0,
        }

    def __enter__(self) -> "ShardBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _InprocShard:
    """One single-writer partition: an index plus its mutex."""

    __slots__ = ("index", "lock")

    def __init__(self, index):
        self.index = index
        self.lock = threading.Lock()


class InprocBackend(ShardBackend):
    """Shards as (index, mutex) pairs in this process — the thread fan-out.

    Preserves the pre-backend semantics exactly: writers lock only the
    owning shard, a search holds each shard's mutex for that shard's
    local evaluation, and parallel fan-out runs through one shared
    :class:`LazyExecutor` clamped to the machine's core count.
    """

    name = "inproc"

    def __init__(self, tier: str, *, indexes: list, parallel: bool = True):
        """Wrap ``indexes``, one per shard (the sharded facades build
        their own empty shards)."""
        if tier not in OPS:
            raise ValueError(f"unknown tier {tier!r}; expected one of {sorted(OPS)}")
        if not indexes:
            raise ValueError("indexes must name at least one shard")
        self.tier = tier
        self.num_shards = len(indexes)
        self.parallel = parallel and self.num_shards > 1
        self._shards = [_InprocShard(index) for index in indexes]
        self._pool = LazyExecutor(
            self.num_shards, thread_name_prefix=f"{tier}-shard"
        )
        self._dead = False

    def _check_alive(self) -> None:
        if self._dead:
            raise ShardUnavailableError(
                f"{self.tier} inproc backend was killed"
            )

    def call(self, shard_id: int, op: str, *args):
        """Run ``op`` under the owning shard's mutex.

        Application errors propagate with their original type, annotated
        with the shard id (the satellite fix: no more bare
        ``future.result()`` tracebacks with the shard unidentifiable).
        """
        self._check_alive()
        shard = self._shards[shard_id]
        with shard.lock:
            try:
                return OPS[self.tier][op](shard.index, *args)
            except ShardUnavailableError:
                raise
            except Exception as error:
                raise _annotate(
                    error, f"shard {shard_id} ({self.tier} {op!r}, inproc)"
                )

    def fanout(self, op: str, *args) -> list:
        """Run ``op`` on every shard, through the pool when parallel."""
        self._check_alive()
        run = lambda shard_id: self.call(shard_id, op, *args)  # noqa: E731
        if self.parallel:
            return list(self._pool.map(run, range(self.num_shards)))
        return [run(shard_id) for shard_id in range(self.num_shards)]

    @contextlib.contextmanager
    def quiesce(self):
        """Hold every shard mutex and yield the live index list."""
        self._check_alive()
        with contextlib.ExitStack() as stack:
            for shard in self._shards:
                stack.enter_context(shard.lock)
            yield [shard.index for shard in self._shards]

    def kill(self) -> None:
        """Poison the backend: every later op raises unavailable."""
        self._dead = True

    def close(self) -> None:
        """Shut down the fan-out pool (idempotent)."""
        self._pool.close()


# -- worker process -----------------------------------------------------------
def _encode_error() -> tuple:
    """``(module, qualname, args, traceback)`` of the active exception."""
    import sys

    exc_type, exc, _ = sys.exc_info()
    try:
        args = tuple(exc.args)
        pickle.dumps(args)
    except Exception:
        args = (str(exc),)
    return (exc_type.__module__, exc_type.__qualname__, args, traceback.format_exc())


def _rebuild_error(shard_id: int, op: str, info: tuple) -> BaseException:
    """Re-raise material: the original exception type where possible."""
    module, qualname, args, remote_tb = info
    error: BaseException | None = None
    try:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            error = obj(*args)
    except Exception:
        error = None
    if error is None:
        error = ShardWorkerError(
            f"worker raised {module}.{qualname}{args!r}"
        )
    return _annotate(
        error,
        f"shard {shard_id} ({op!r}) failed in its worker process; "
        f"remote traceback:\n{remote_tb}",
    )


def _boot_index(tier: str, boot: tuple):
    """Materialize a worker's shard index from its boot spec.

    ``("state", index)`` — a seed index shipped from the parent.
    ``("store", root, shard_id)`` — cold start: decode this shard's
    base+delta chain from the segment store (checksums and routing
    verified by the store).
    """
    kind = boot[0]
    if kind == "state":
        return boot[1]
    if kind == "store":
        from repro.store import SegmentStore

        _, root, shard_id = boot
        return SegmentStore(root, tier).load_shard(shard_id)
    raise ValueError(f"unknown worker boot spec {kind!r}")


def _worker_main(conn, tier: str, boot: tuple) -> None:
    """A shard worker: boot, handshake, then serve ``(op, args)`` forever.

    Replies are ``("ok", result)`` or ``("err", encoded)``; a ``None``
    request is the shutdown sentinel.  Any boot failure is reported
    through the handshake so the parent re-raises the real exception
    (e.g. a :class:`~repro.store.SegmentCorruptError`).
    """
    try:
        index = _boot_index(tier, boot)
    except BaseException:
        with contextlib.suppress(Exception):
            conn.send(("err", _encode_error()))
            conn.close()
        return
    # The booted index (and everything a fork inherited) is permanent:
    # out of the collector's sight, the full passes that a micro-batch's
    # trees and replies keep triggering stop walking ~200k live objects
    # to free nothing (18-24 ms each, about one a second while serving).
    gc.freeze()
    conn.send(("ok", ("ready", len(index))))
    handlers = OPS[tier]
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        if request is None:
            break
        op, args = request
        try:
            reply = ("ok", handlers[op](index, *args))
        except BaseException:
            reply = ("err", _encode_error())
        try:
            conn.send(reply)
        except BaseException:
            with contextlib.suppress(Exception):
                conn.send(("err", _encode_error()))
    with contextlib.suppress(Exception):
        conn.close()


class _Worker:
    """Parent-side handle on one shard worker."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn


class ProcessBackend(ShardBackend):
    """Shards as ``multiprocessing`` workers serving RPCs over pipes.

    Each shard runs :func:`_worker_main` in a daemon process.  Workers
    are seeded either from live ``indexes`` (shipped once at spawn) or
    cold-started from a ``store_root`` segment store — the respawn path
    the replica router uses after a failure.  Fan-out sends every
    request before collecting any reply, so shards compute concurrently
    across cores; the request tuple is pickled once and broadcast as raw
    bytes.

    ``timeout`` (seconds, per reply — and one search reply answers a
    whole micro-batch) bounds every reply wait; a missed
    deadline kills that worker — after a timeout the pipe is
    desynchronized, so respawn-from-segments is the only safe recovery —
    and raises :class:`ShardTimeoutError`.
    """

    name = "process"

    def __init__(self, tier: str, *, indexes: list | None = None,
                 store_root=None, timeout: float | None = None,
                 start_method: str | None = None):
        """Boot one worker per shard from ``indexes`` or ``store_root``."""
        if tier not in OPS:
            raise ValueError(f"unknown tier {tier!r}; expected one of {sorted(OPS)}")
        if (indexes is None) == (store_root is None):
            raise ValueError("pass exactly one of indexes / store_root")
        self.tier = tier
        self.timeout = timeout
        self._store_root = None if store_root is None else str(store_root)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        if indexes is not None:
            if not indexes:
                raise ValueError("indexes must name at least one shard")
            self.num_shards = len(indexes)
        else:
            from repro.store import SegmentStore

            self.num_shards = SegmentStore(store_root, tier).manifest().num_shards
        self._workers: list[_Worker | None] = [None] * self.num_shards
        self._dead = False
        # Every worker boots at once; handshakes are then read in shard
        # order, so a failure raises the lowest failing shard's error.
        try:
            for shard_id in range(self.num_shards):
                boot = (
                    ("state", indexes[shard_id])
                    if indexes is not None
                    else ("store", self._store_root, shard_id)
                )
                self._start(shard_id, boot)
            for shard_id in range(self.num_shards):
                self._await_ready(shard_id)
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------------
    def _start(self, shard_id: int, boot: tuple) -> None:
        """Start one worker; it boots while the caller goes on."""
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.tier, boot),
            daemon=True,
            name=f"{self.tier}-shard-{shard_id}",
        )
        process.start()
        child_conn.close()
        self._workers[shard_id] = _Worker(process, parent_conn)

    def _await_ready(self, shard_id: int) -> None:
        """Wait for one started worker's ready handshake."""
        status, payload = self._recv(shard_id, "boot", deadline_seconds=BOOT_TIMEOUT)
        if status != "ok":
            raise _rebuild_error(shard_id, "boot", payload)

    def respawn_worker(self, shard_id: int) -> None:
        """Cold-start a replacement worker from the segment store.

        Only available for store-booted backends: the store root is the
        durable artifact a respawned worker restores from (the
        kill-and-respawn fingerprint tests assert it restores to the
        exact persisted state).
        """
        if self._store_root is None:
            raise ShardWorkerError(
                "respawn requires a store-backed ProcessBackend"
            )
        self.kill_worker(shard_id)
        self._start(shard_id, ("store", self._store_root, shard_id))
        self._await_ready(shard_id)

    def kill_worker(self, shard_id: int) -> None:
        """Hard-kill one worker (failure injection; idempotent)."""
        worker = self._workers[shard_id]
        if worker is None:
            return
        self._workers[shard_id] = None
        with contextlib.suppress(Exception):
            worker.conn.close()
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(SHUTDOWN_TIMEOUT)

    def kill(self) -> None:
        """Failure injection: kill every worker and poison the backend."""
        self._dead = True
        for shard_id in range(self.num_shards):
            self.kill_worker(shard_id)

    def close(self) -> None:
        """Graceful shutdown: sentinel, join, then kill stragglers."""
        for worker in self._workers:
            if worker is not None:
                with contextlib.suppress(Exception):
                    worker.conn.send(None)
        for shard_id, worker in enumerate(self._workers):
            if worker is None:
                continue
            worker.process.join(SHUTDOWN_TIMEOUT)
            self.kill_worker(shard_id)

    # -- request/reply -------------------------------------------------------
    def _worker_for(self, shard_id: int) -> _Worker:
        if self._dead:
            raise ShardUnavailableError(
                f"{self.tier} process backend was killed"
            )
        worker = self._workers[shard_id]
        if worker is None:
            raise ShardUnavailableError(
                f"shard {shard_id} has no live worker"
            )
        return worker

    def _send(self, shard_id: int, payload: bytes) -> None:
        worker = self._worker_for(shard_id)
        try:
            worker.conn.send_bytes(payload)
        except (OSError, ValueError, BrokenPipeError) as error:
            self.kill_worker(shard_id)
            raise _annotate(
                ShardUnavailableError(
                    f"shard {shard_id} worker pipe is down: {error}"
                ),
                f"shard {shard_id} ({self.tier}) send failed",
            ) from None

    def _recv(self, shard_id: int, op: str, *, deadline_seconds: float | None):
        """One reply off the wire; kills the worker on timeout/EOF."""
        worker = self._worker_for(shard_id)
        if deadline_seconds is not None:
            if not worker.conn.poll(deadline_seconds):
                self.kill_worker(shard_id)
                raise ShardTimeoutError(
                    f"shard {shard_id} ({self.tier} {op!r}) missed its "
                    f"{deadline_seconds:.3f}s deadline; worker killed"
                )
        try:
            return worker.conn.recv()
        except (EOFError, OSError) as error:
            self.kill_worker(shard_id)
            raise ShardUnavailableError(
                f"shard {shard_id} worker died mid-request "
                f"({self.tier} {op!r}): {error}"
            ) from None

    def _finish(self, shard_id: int, op: str):
        status, payload = self._recv(
            shard_id, op, deadline_seconds=self.timeout
        )
        if status == "ok":
            return payload
        raise _rebuild_error(shard_id, op, payload)

    def call(self, shard_id: int, op: str, *args):
        """One request/reply round trip with one shard worker."""
        self._send(shard_id, pickle.dumps((op, args), pickle.HIGHEST_PROTOCOL))
        return self._finish(shard_id, op)

    def fanout(self, op: str, *args) -> list:
        """Send to every worker, then collect — shards run concurrently.

        The request is pickled once and broadcast as bytes.  If any
        shard fails, the remaining replies are still drained (keeping
        every surviving pipe request/reply aligned) before the first
        failure is raised.
        """
        payload = pickle.dumps((op, args), pickle.HIGHEST_PROTOCOL)
        sent = []
        first_error: BaseException | None = None
        for shard_id in range(self.num_shards):
            try:
                self._send(shard_id, payload)
            except BaseException as error:
                first_error = first_error or error
            else:
                sent.append(shard_id)
        results = {}
        for shard_id in sent:
            try:
                results[shard_id] = self._finish(shard_id, op)
            except BaseException as error:
                first_error = first_error or error
        if first_error is not None:
            raise first_error
        return [results[shard_id] for shard_id in range(self.num_shards)]

    @contextlib.contextmanager
    def quiesce(self):
        """Yield pickled copies of every shard's index.

        Workers serve requests one at a time, so each copy is a
        consistent shard snapshot; the parent may encode/persist the
        copies without any locking.
        """
        yield self.fanout("get_state")
