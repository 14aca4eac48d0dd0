"""Builder of ``tests/data/golden_scheduler_traces.json`` — the decision pin.

Seeded random traces through :class:`MicroBatchScheduler` under four
policies that between them reach every branch of its bookkeeping: size
and deadline triggers, three priority lanes, queue-full victims taken
from the other kind, arrival sheds, a busy virtual worker, batches whose
pipeline call raises, explicit ``advance_to`` ticks and the final
``drain``.  The fixture records, per trace, the sha256 of
``report.fingerprint()``, of ``pipeline.counters()`` and of the
exact sequence of ``on_batch`` / ``on_shed`` / ``on_failed``
notifications, plus the headline counts in the clear so a reader can see
that each trace does exercise what it is named for.  It was written
*before* the scheduler's pending counts and dispatch search were
reworked; ``tests/test_scheduler.py`` replays the traces, re-counts the
lanes after every operation, and asserts the digests did not move.

Those four run without a cache.  Two more families run the same kind of
trace over a :class:`RewriteCache` on the scheduler's clock:

* ``cache_all_miss`` — the cache holds entries no request asks for, and
  entries for a seeded share of the queries that have expired by the
  time their request arrives: every rewrite is a miss, so this family
  pins that looking a miss up early changes nothing;
* ``cache_hits`` — a seeded share of the queries is cached and live: the
  family that shows what the zero-wait path does to batch formation.

Regenerate (only when a scheduling change is intended) with::

    PYTHONPATH=src python -m tests.golden_scheduler
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from repro.core import RewriteCache, ServingConfig, ServingPipeline
from repro.core.rewriter import RewriteResult
from repro.online import (
    MicroBatchScheduler,
    ScheduledRequest,
    SchedulerConfig,
    VirtualClock,
)
from repro.search.engine import SearchOutcome

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_scheduler_traces.json"

#: operations per trace (submits and ``advance_to`` ticks), then a drain
OPERATIONS = 400
SEEDS = (11, 12, 13)

#: the cache-backed families' shared policy: both triggers, two lanes, a
#: busy worker and a queue short enough to shed
CACHE_POLICY = SchedulerConfig(
    max_batch_size=4, max_wait_seconds=0.1, max_queue_depth=8, num_lanes=2,
    batch_cost_seconds=0.03, request_cost_seconds=0.005,
)
#: TTL of the ``cache_all_miss`` entries, all written at t=0
CACHE_TTL_SECONDS = 1.0
#: share of the eligible queries each cache-backed family caches
CACHED_SHARE = 0.5

#: name -> (policy, mean arrival gap, every n-th pipeline call raises or 0,
#: cache contents: None, "all_miss" or "hits")
TRACES = {
    "size_triggered": (
        SchedulerConfig(
            max_batch_size=4, max_wait_seconds=5.0, max_queue_depth=64, num_lanes=3
        ),
        0.02,
        0,
        None,
    ),
    "deadline_triggered": (
        SchedulerConfig(
            max_batch_size=64, max_wait_seconds=0.05, max_queue_depth=64, num_lanes=2
        ),
        0.02,
        0,
        None,
    ),
    "overloaded": (
        SchedulerConfig(
            max_batch_size=4, max_wait_seconds=0.3, max_queue_depth=6, num_lanes=3,
            batch_cost_seconds=0.2, request_cost_seconds=0.01,
        ),
        0.03,
        0,
        None,
    ),
    "failing_batches": (
        SchedulerConfig(
            max_batch_size=3, max_wait_seconds=0.1, max_queue_depth=5, num_lanes=2,
            batch_cost_seconds=0.05,
        ),
        0.03,
        4,
        None,
    ),
    "cache_all_miss": (CACHE_POLICY, 0.02, 0, "all_miss"),
    "cache_hits": (CACHE_POLICY, 0.02, 0, "hits"),
}


class _EchoRewriter:
    """Every query rewrites to itself plus a marker."""

    def rewrite(self, query, k=3):
        return [RewriteResult(tokens=(query, "rewritten"), log_prob=-1.0)][:k]


class _FakeEngine:
    """Two fixed hits per query; mode-less."""

    def search(self, query, rewrites=None):
        return SearchOutcome(
            query=query, rewrites=list(rewrites or []), doc_ids=[1, 2],
            postings_accessed=3, tree_nodes=1, num_trees=1,
        )


def _failing(call, every: int, calls: list):
    """``call`` wrapped to raise on every ``every``-th use (shared count)."""

    def wrapper(*args, **kwargs):
        calls.append(None)
        if every and len(calls) % every == 0:
            raise RuntimeError(f"pipeline call {len(calls)} fell over")
        return call(*args, **kwargs)

    return wrapper


def trace_operations(name: str, seed: int) -> list:
    """The seeded operations of one trace: ``ScheduledRequest`` submits
    and float ``advance_to`` ticks, in order."""
    config, mean_gap, _, _ = TRACES[name]
    rng = random.Random(seed)
    operations: list = []
    t = 0.0
    for step in range(OPERATIONS):
        t += rng.expovariate(1.0 / mean_gap)
        if rng.random() < 0.1:
            operations.append(t)
        else:
            operations.append(
                ScheduledRequest(
                    query=f"q{step}",
                    arrival_seconds=t,
                    lane=rng.randrange(config.num_lanes),
                    kind="search" if rng.random() < 0.3 else "rewrite",
                )
            )
    return operations


def build_cache(contents: str | None, seed: int, operations: list, clock):
    """The trace's cache on ``clock`` (None for the cache-less families).

    The cached share is drawn from its own seeded stream, so the trace's
    operations are the same with and without a cache."""
    if contents is None:
        return None
    rng = random.Random(f"{contents}:{seed}")
    requests = [op for op in operations if isinstance(op, ScheduledRequest)]
    if contents == "all_miss":
        cache = RewriteCache(ttl_seconds=CACHE_TTL_SECONDS, clock=clock.now)
        for i in range(32):
            cache.put(f"unrequested {i}", ["never read"])
        eligible = [r for r in requests if r.arrival_seconds > CACHE_TTL_SECONDS]
    else:
        cache = RewriteCache(clock=clock.now)
        eligible = requests
    for request in eligible:
        if rng.random() < CACHED_SHARE:
            cache.put(request.query, [f"{request.query} cached"])
    return cache


def run_trace(name: str, seed: int, after_operation=None) -> dict:
    """Replay one seeded trace; returns the record the fixture pins.

    ``after_operation(scheduler)`` runs after every submit, tick and the
    drain — the differential test re-counts the lanes there.
    """
    config, _, fail_every, contents = TRACES[name]
    operations = trace_operations(name, seed)
    clock = VirtualClock()
    pipeline = ServingPipeline(
        build_cache(contents, seed, operations, clock),
        _EchoRewriter(),
        ServingConfig(max_rewrites=3),
        search_engine=_FakeEngine(),
    )
    calls: list = []
    pipeline.serve_batch = _failing(pipeline.serve_batch, fail_every, calls)
    pipeline.search_batch = _failing(pipeline.search_batch, fail_every, calls)
    events: list = []
    scheduler = MicroBatchScheduler(
        pipeline,
        clock,
        config,
        on_batch=lambda done: events.append(
            ("batch", [(c.request.query, c.dispatched_at, c.batch_size) for c in done])
        ),
        on_shed=lambda request: events.append(("shed", request.query)),
        on_failed=lambda request, error: events.append(
            ("failed", request.query, str(error))
        ),
    )
    for operation in operations:
        if isinstance(operation, ScheduledRequest):
            scheduler.submit(operation)
        else:
            scheduler.advance_to(operation)
        if after_operation is not None:
            after_operation(scheduler)
    report = scheduler.drain()
    if after_operation is not None:
        after_operation(scheduler)

    def digest(value) -> str:
        return hashlib.sha256(repr(value).encode()).hexdigest()

    return {
        "admitted": report.admitted,
        "shed": report.shed,
        "shed_by_lane": report.shed_by_lane,
        "completed": report.completed,
        "size_triggered": report.size_triggered,
        "deadline_triggered": report.deadline_triggered,
        "failed": sum(event[0] == "failed" for event in events),
        "peak_queue_depth": report.peak_queue_depth,
        "fingerprint_sha256": digest(report.fingerprint()),
        "counters_sha256": digest(sorted(pipeline.counters().items())),
        "events_sha256": digest(events),
    }


def compute() -> dict:
    """The full fixture, recomputed from the current code."""
    return {
        name: {str(seed): run_trace(name, seed) for seed in SEEDS} for name in TRACES
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
