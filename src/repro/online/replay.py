"""Live-traffic replay with catalog churn.

:class:`TrafficReplay` turns a simulated click log into the workload the
paper's serving tier actually faces: a head-skewed request stream (head
queries dominate, a long tail trickles) interleaved with **catalog churn
events** — products listed and delisted while traffic is in flight.  The
schedule (request batches, churn payloads, removal targets) is
precomputed once from a seed, so two serving stacks can replay the *same*
stream and differ only in policy — e.g. a no-freshness baseline versus a
:class:`~repro.online.freshness.FreshnessController` arm.

Per request the driver records, into a
:class:`~repro.online.stats.WindowedStats`:

* **hit** — served from the cache tier;
* **stale** — served from cache by an entry written *before* the last
  churn event that touched the query's category (the rewrites predate the
  catalog the user is searching);
* **empty** — no tier produced rewrites.

Churn is applied through
:meth:`~repro.search.sharded.ShardedSearchEngine.add_product` /
``remove_product``, so the catalog and the live sharded index move in
lockstep; periodic end-to-end probes (``search_batch``) verify that
retrieval never surfaces a delisted product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.serving import ServedSearch, ServingPipeline
from repro.data.catalog import CATEGORY_SPECS, CatalogGenerator
from repro.data.clicklog import ClickLog
from repro.data.domain import Product
from repro.online.clock import VirtualClock
from repro.online.freshness import FreshnessController, FreshnessReport
from repro.online.scheduler import (
    MicroBatchScheduler,
    ScheduledRequest,
    SchedulerConfig,
    SchedulerReport,
)
from repro.online.stats import WindowedStats


@dataclass(frozen=True)
class ReplayConfig:
    """Shape of the replayed stream."""

    num_requests: int = 10_000
    #: requests per serving batch (misses share one stacked decode)
    batch_size: int = 32
    #: a churn event lands after every this-many requests
    churn_every: int = 1_000
    #: products listed / delisted per churn event
    churn_adds: int = 6
    churn_removes: int = 6
    #: top fraction of click-ranked queries treated as the head set
    head_fraction: float = 0.5
    #: virtual seconds the clock advances per request
    seconds_per_request: float = 0.05
    #: every Nth batch goes end-to-end through retrieval (search_batch)
    search_every: int = 8
    #: sliding-window size for the streaming gauges
    window: int = 2048
    seed: int = 0


@dataclass(frozen=True)
class Request:
    """One serving request plus its ground-truth category."""

    query: str
    category: str


@dataclass(frozen=True)
class ChurnEvent:
    """One catalog change: products listed and delisted atomically."""

    added: tuple[Product, ...]
    #: (product_id, category) of delisted products
    removed: tuple[tuple[int, str], ...]

    @property
    def categories(self) -> frozenset[str]:
        """Every category this event touched (drives cache invalidation)."""
        return frozenset(p.category for p in self.added) | frozenset(
            category for _, category in self.removed
        )


@dataclass
class ReplayReport:
    """Outcome of one replay arm."""

    arm: str
    requests: int
    churn_events: int
    stats: WindowedStats
    #: tier counters read from the pipeline at end of run
    cache_served: int = 0
    model_served: int = 0
    unserved: int = 0
    cache_expirations: int = 0
    cache_evictions: int = 0
    #: end-to-end retrieval probes and delisted products they surfaced
    searches: int = 0
    dead_doc_hits: int = 0
    freshness: FreshnessReport | None = None
    #: micro-batching/admission accounting when the arm ran through
    #: :meth:`TrafficReplay.run_scheduled` (None for pre-batched arms)
    scheduler: SchedulerReport | None = None
    #: retained for introspection/rendering
    notes: dict = field(default_factory=dict)

    @property
    def stale_rate(self) -> float:
        """Lifetime stale-serve fraction (see :class:`WindowedStats`)."""
        return self.stats.lifetime_stale_rate

    @property
    def empty_rate(self) -> float:
        """Lifetime empty-serve fraction."""
        return self.stats.lifetime_empty_rate

    @property
    def stale_or_empty_rate(self) -> float:
        """Lifetime degraded-serve fraction (stale OR empty counts once)."""
        return self.stats.lifetime_stale_or_empty_rate


class TrafficReplay:
    """Deterministic head/tail traffic + churn schedule, replayable N times.

    Parameters
    ----------
    click_log:
        The simulated click log; its queries (with click counts and
        ground-truth categories) become the request universe, and its
        catalog defines the initial live product set.
    generator:
        The catalog generator used to sample churn products.  Arms must
        build their catalogs from the *same* generator config/seed so the
        precomputed removal targets exist in every arm.
    config:
        Stream shape (length, batching, churn cadence, head fraction).
    """

    def __init__(
        self,
        click_log: ClickLog,
        generator: CatalogGenerator,
        config: ReplayConfig | None = None,
    ):
        self.config = config or ReplayConfig()
        cfg = self.config
        if cfg.num_requests < 1 or cfg.batch_size < 1:
            raise ValueError("num_requests and batch_size must be >= 1")

        traffic = click_log.traffic()
        if not traffic:
            raise ValueError("click log has no queries to replay")
        self._texts = [text for text, _, _ in traffic]
        self._categories = {text: category for text, category, _ in traffic}
        clicks = np.array([max(c, 1) for _, _, c in traffic], dtype=float)
        self._weights = clicks / clicks.sum()

        head_count = max(1, int(len(traffic) * cfg.head_fraction))
        self._head = {text: self._categories[text] for text in self._texts[:head_count]}

        self._schedule = self._build_schedule(click_log, generator)

    # -- derived views -------------------------------------------------------
    def head_queries(self) -> dict[str, str]:
        """query text -> category for the head set (cache pre-population
        and the freshness controller's managed set)."""
        return dict(self._head)

    @property
    def num_churn_events(self) -> int:
        """Churn events in the precomputed schedule."""
        return sum(1 for kind, _ in self._schedule if kind == "churn")

    # -- schedule ------------------------------------------------------------
    def _build_schedule(self, click_log: ClickLog, generator: CatalogGenerator):
        """Precompute the full event stream: request batches + churn.

        Removal targets are drawn against a simulated live-id set that
        starts from the base catalog and follows the schedule's own
        adds/removes, so every removal is valid in any arm that starts
        from an identical catalog and applies events in order.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        names = sorted(CATEGORY_SPECS)
        live: dict[int, str] = {
            p.product_id: p.category for p in click_log.catalog.products
        }
        next_id = click_log.catalog.next_product_id()

        schedule: list[tuple[str, object]] = []
        emitted = 0
        since_churn = 0
        while emitted < cfg.num_requests:
            size = min(cfg.batch_size, cfg.num_requests - emitted)
            picks = rng.choice(len(self._texts), size=size, p=self._weights)
            batch = [
                Request(query=self._texts[int(i)], category=self._categories[self._texts[int(i)]])
                for i in picks
            ]
            schedule.append(("batch", batch))
            emitted += size
            since_churn += size
            if since_churn >= cfg.churn_every and emitted < cfg.num_requests:
                since_churn = 0
                added = []
                for _ in range(cfg.churn_adds):
                    category = str(rng.choice(names))
                    added.append(generator.sample_product(category, next_id, rng))
                    live[next_id] = category
                    next_id += 1
                removed = []
                if cfg.churn_removes and live:
                    ids = np.array(sorted(live), dtype=np.int64)
                    count = min(cfg.churn_removes, len(ids))
                    for doc_id in rng.choice(ids, size=count, replace=False):
                        doc_id = int(doc_id)
                        removed.append((doc_id, live.pop(doc_id)))
                schedule.append(
                    ("churn", ChurnEvent(added=tuple(added), removed=tuple(removed)))
                )
        return schedule

    # -- shared replay mechanics ----------------------------------------------
    def apply_churn(
        self,
        engine,
        event: ChurnEvent,
        clock: VirtualClock,
        last_churn: dict[str, float],
        removed_ids: set[int],
        controller: FreshnessController | None,
    ) -> None:
        """Apply one churn event to catalog + live index in lockstep, stamp
        the affected categories, and notify the controller.  Shared by the
        pre-batched and scheduled replay paths — and by the scenario
        library's drivers (:mod:`repro.online.scenarios`) — so churn (and
        thus staleness) semantics can never diverge between harnesses."""
        for product in event.added:
            engine.add_product(product)
        for doc_id, _ in event.removed:
            engine.remove_product(doc_id)
            removed_ids.add(doc_id)
        now = clock.now()
        for category in event.categories:
            last_churn[category] = now
        if controller is not None:
            controller.on_churn(event.categories)

    def record_serve(
        self,
        pipeline: ServingPipeline,
        stats: WindowedStats,
        served,
        query: str,
        last_churn: dict[str, float],
    ) -> None:
        """Record one served request's hit/stale/empty gauges.

        A *stale* serve is a cache hit whose entry was written before the
        last churn event touching the query's category (an entry that
        vanished since — ``stored_at`` None — also counts).  One
        definition, used by both replay paths and by the scenario
        drivers."""
        hit = served.source == "cache"
        empty = not served.rewrites
        stale = False
        if hit:
            category = self._categories.get(query)
            churned_at = last_churn.get(category) if category is not None else None
            if churned_at is not None:
                written_at = pipeline.cache.stored_at(query)
                stale = written_at is None or written_at < churned_at
        stats.record(served.latency_ms, hit=hit, stale=stale, empty=empty)

    # -- replay --------------------------------------------------------------
    def run(
        self,
        pipeline: ServingPipeline,
        clock: VirtualClock,
        controller: FreshnessController | None = None,
        *,
        arm: str = "",
    ) -> ReplayReport:
        """Replay the schedule through one serving stack.

        ``pipeline`` must be constructed with a churn-capable search
        engine (``ShardedSearchEngine``) and a cache whose clock is
        ``clock.now``; ``controller`` is optional — omit it for the
        no-freshness baseline.  The controller's own work is counted in
        its :class:`~repro.online.freshness.FreshnessReport`.
        """
        engine = pipeline.search_engine
        if engine is None or not hasattr(engine, "add_product"):
            raise ValueError(
                "replay needs a churn-capable engine on the pipeline "
                "(ShardedSearchEngine with add_product/remove_product)"
            )
        cfg = self.config
        stats = WindowedStats(cfg.window)
        last_churn: dict[str, float] = {}
        removed_ids: set[int] = set()
        churn_events = 0
        searches = 0
        dead_doc_hits = 0
        batch_index = 0

        for kind, payload in self._schedule:
            if kind == "churn":
                self.apply_churn(
                    engine, payload, clock, last_churn, removed_ids, controller
                )
                churn_events += 1
                continue

            clock.advance(len(payload) * cfg.seconds_per_request)
            if controller is not None:
                controller.tick()
            queries = [request.query for request in payload]
            if batch_index % cfg.search_every == 0:
                outcomes = pipeline.search_batch(queries)
                served_batch = [outcome.served for outcome in outcomes]
                searches += len(outcomes)
                for outcome in outcomes:
                    dead_doc_hits += sum(
                        1 for doc_id in outcome.doc_ids if doc_id in removed_ids
                    )
            else:
                served_batch = pipeline.serve_batch(queries)
            batch_index += 1

            for request, served in zip(payload, served_batch):
                self.record_serve(pipeline, stats, served, request.query, last_churn)

        serving = pipeline.counters()
        return ReplayReport(
            arm=arm,
            requests=stats.total_requests,
            churn_events=churn_events,
            stats=stats,
            cache_served=serving["cache_served"],
            model_served=serving["model_served"],
            unserved=serving["unserved"],
            cache_expirations=serving["cache_expirations"],
            cache_evictions=serving["cache_evictions"],
            searches=searches,
            dead_doc_hits=dead_doc_hits,
            freshness=controller.report if controller is not None else None,
        )

    # -- scheduled replay ------------------------------------------------------
    def arrival_trace(self) -> list[tuple[str, float, object]]:
        """The schedule as timed single-request arrivals, oldest first.

        Flattens the precomputed request batches into ``("request", t,
        Request)`` events with exponential (Poisson-process) inter-arrival
        gaps of mean ``seconds_per_request``, drawn from their own seeded
        stream so the request *content* is identical to the pre-batched
        schedule.  Churn events become ``("churn", t, ChurnEvent)`` pinned
        at the arrival time of the request they followed.  This is the
        workload shape a :class:`~repro.online.scheduler.MicroBatchScheduler`
        faces: nobody hands it batches, traffic just arrives.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 1)
        events: list[tuple[str, float, object]] = []
        t = 0.0
        for kind, payload in self._schedule:
            if kind == "batch":
                gaps = rng.exponential(cfg.seconds_per_request, size=len(payload))
                for request, gap in zip(payload, gaps):
                    t += float(gap)
                    events.append(("request", t, request))
            else:
                events.append(("churn", t, payload))
        return events

    def run_scheduled(
        self,
        pipeline: ServingPipeline,
        clock: VirtualClock,
        scheduler_config: SchedulerConfig | None = None,
        controller: FreshnessController | None = None,
        *,
        arm: str = "",
    ) -> ReplayReport:
        """Replay the arrival trace through a micro-batch scheduler.

        Same serving-stack requirements as :meth:`run`, but requests
        enter one at a time through a
        :class:`~repro.online.scheduler.MicroBatchScheduler` that forms
        batches under ``scheduler_config``'s policy.  Head queries ride
        lane 0, tail queries the lowest-priority lane; a deterministic
        ``1/search_every`` fraction of requests goes end-to-end through
        retrieval (``kind="search"``), mirroring :meth:`run`'s probe
        cadence.  Staleness/hit accounting happens per dispatched batch,
        at the virtual time each request is actually served, and the
        returned report carries the scheduler's own
        :class:`~repro.online.scheduler.SchedulerReport` (queue delays,
        batch sizes, admission counters).
        """
        engine = pipeline.search_engine
        if engine is None or not hasattr(engine, "add_product"):
            raise ValueError(
                "replay needs a churn-capable engine on the pipeline "
                "(ShardedSearchEngine with add_product/remove_product)"
            )
        cfg = self.config
        sched_cfg = scheduler_config or SchedulerConfig()
        stats = WindowedStats(cfg.window)
        last_churn: dict[str, float] = {}
        removed_ids: set[int] = set()
        churn_events = 0
        searches = 0
        dead_doc_hits = 0
        tail_lane = min(1, sched_cfg.num_lanes - 1)

        def on_batch(completions) -> None:
            nonlocal searches, dead_doc_hits
            if controller is not None:
                controller.tick()
            for completion in completions:
                outcome = completion.outcome
                if isinstance(outcome, ServedSearch):
                    served = outcome.served
                    searches += 1
                    dead_doc_hits += sum(
                        1 for doc_id in outcome.doc_ids if doc_id in removed_ids
                    )
                else:
                    served = outcome
                self.record_serve(
                    pipeline, stats, served, completion.request.query, last_churn
                )

        scheduler = MicroBatchScheduler(pipeline, clock, sched_cfg, on_batch=on_batch)
        # Its own stream: the end-to-end probe picks must not perturb the
        # arrival-gap draws (or the schedule's), so replays stay comparable.
        probe_rng = np.random.default_rng(cfg.seed + 2)
        for kind, at, payload in self.arrival_trace():
            if kind == "churn":
                # Serve everything due strictly before the churn lands,
                # then apply it to catalog + index in lockstep.
                scheduler.advance_to(at)
                self.apply_churn(
                    engine, payload, clock, last_churn, removed_ids, controller
                )
                churn_events += 1
                continue
            probe = probe_rng.random() < 1.0 / cfg.search_every
            scheduler.submit(
                ScheduledRequest(
                    query=payload.query,
                    arrival_seconds=at,
                    lane=0 if payload.query in self._head else tail_lane,
                    kind="search" if probe else "rewrite",
                )
            )
        scheduler_report = scheduler.drain()

        serving = pipeline.counters()
        return ReplayReport(
            arm=arm,
            requests=stats.total_requests,
            churn_events=churn_events,
            stats=stats,
            cache_served=serving["cache_served"],
            model_served=serving["model_served"],
            unserved=serving["unserved"],
            cache_expirations=serving["cache_expirations"],
            cache_evictions=serving["cache_evictions"],
            searches=searches,
            dead_doc_hits=dead_doc_hits,
            freshness=controller.report if controller is not None else None,
            scheduler=scheduler_report,
        )
