"""Live-traffic replay with catalog churn.

:class:`TrafficReplay` turns a simulated click log into the workload the
paper's serving tier actually faces: a head-skewed request stream (head
queries dominate, a long tail trickles) interleaved with **catalog churn
events** — products listed and delisted while traffic is in flight.  The
schedule (request draws, churn payloads, removal targets) is
precomputed once from a seed, so two serving stacks can replay the *same*
stream and differ only in policy — e.g. a no-freshness baseline versus a
:class:`~repro.online.freshness.FreshnessController` arm.

:func:`replay_traces` is the one loop that drives traces into serving
stacks, one request at a time through a
:class:`~repro.online.scheduler.MicroBatchScheduler` per tenant, as every
deployment serves.  Per completion, a :class:`ReplayTenant` records into
a :class:`~repro.online.stats.WindowedStats`:

* **hit** — served from the cache tier;
* **stale** — served from cache by an entry written *before* the last
  churn event that touched the query's category (the rewrites predate the
  catalog the user is searching);
* **empty** — no tier produced rewrites.

Churn is applied through
:meth:`~repro.search.sharded.ShardedSearchEngine.add_product` /
``remove_product``, so the catalog and the live sharded index move in
lockstep; every :data:`SEARCH_EVERY`-th request goes end to end through
retrieval, verifying that it never surfaces a delisted product.
"""

from __future__ import annotations

from collections.abc import Container, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.serving import ServedRewrite, ServedSearch, ServingPipeline
from repro.data.catalog import CATEGORY_SPECS, CatalogGenerator
from repro.data.clicklog import ClickLog
from repro.data.domain import Product
from repro.online.clock import VirtualClock
from repro.online.freshness import FreshnessController, FreshnessReport
from repro.online.scheduler import (
    CompletedRequest,
    MicroBatchScheduler,
    ScheduledRequest,
    SchedulerConfig,
    SchedulerReport,
)
from repro.online.stats import WindowedStats

#: requests 0, N, 2N, ... of each tenant go end to end through retrieval
SEARCH_EVERY = 8


@dataclass(frozen=True)
class ReplayConfig:
    """Shape of the replayed stream."""

    num_requests: int = 10_000
    #: requests per draw of the schedule; churn is due only between
    #: draws (the scheduler, not this, forms the serving batches)
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

    churn_events: int
    #: request count and gauges (``stats.total_requests``, ``lifetime_*``)
    stats: WindowedStats
    #: :meth:`~repro.core.serving.ServingPipeline.counters` at end of run
    counters: dict
    #: end-to-end retrieval probes and delisted products they surfaced
    searches: int
    dead_doc_hits: int
    #: the scheduler's micro-batching and admission accounting
    scheduler: SchedulerReport
    freshness: FreshnessReport | None = None


@dataclass(kw_only=True)
class ReplayTenant:
    """One tenant of a replay: its serving stack, its trace and what its
    completions counted (a scheduler built with
    ``on_batch=tenant.on_batch`` tallies each one through :meth:`record`).
    """

    pipeline: ServingPipeline
    #: ``(kind, at, payload)`` events, times non-decreasing: ``"request"``
    #: (the payload has a ``query``), ``"churn"`` (a :class:`ChurnEvent`),
    #: or a kind the replay's ``on_event`` handles
    trace: list
    #: queries that ride lane 0; the rest ride the lowest-priority lane
    head: Container[str]
    scheduler: MicroBatchScheduler | None = None
    controller: FreshnessController | None = None
    #: query -> category for the stale test (empty: nothing is stale)
    categories: Mapping[str, str] = field(default_factory=dict)
    stats: WindowedStats = field(default_factory=WindowedStats)
    #: category -> virtual time of the last churn touching it
    last_churn: dict[str, float] = field(default_factory=dict)
    #: document ids delisted so far (dead-document detection)
    removed_ids: set[int] = field(default_factory=set)
    churn_events: int = 0
    searches: int = 0
    dead_doc_hits: int = 0
    #: requests submitted so far: the next request's sequence number
    submitted: int = 0

    def on_batch(self, completions: list[CompletedRequest]) -> None:
        """The scheduler's ``on_batch``: one controller tick per
        dispatched batch, then :meth:`record` per completion."""
        if self.controller is not None:
            self.controller.tick()
        for completion in completions:
            self.record(completion)

    def submit(self, request: ScheduledRequest) -> None:
        """Hand request number ``submitted`` to the scheduler."""
        self.submitted += 1
        self.scheduler.submit(request)

    def record(self, completion: CompletedRequest) -> ServedRewrite:
        """Tally one completion (a search and each delisted document it
        retrieved, then the gauges) and return its served rewrite.  A
        *stale* serve is a cache hit whose entry was written before the
        last churn touching the query's category, or has vanished since.
        """
        served = completion.outcome
        if isinstance(served, ServedSearch):
            self.searches += 1
            self.dead_doc_hits += sum(
                doc_id in self.removed_ids for doc_id in served.doc_ids
            )
            served = served.served
        query = completion.request.query
        hit = served.source == "cache"
        stale = False
        if hit:
            churned_at = self.last_churn.get(self.categories.get(query))
            if churned_at is not None:
                written_at = self.pipeline.cache.stored_at(query)
                stale = written_at is None or written_at < churned_at
        self.stats.record(
            served.latency_ms, hit=hit, stale=stale, empty=not served.rewrites
        )
        return served

    def churn(self, event: ChurnEvent) -> None:
        """Apply one churn event to the catalog and the live index in
        lockstep, stamp the categories it touched with the scheduler's
        clock, and notify the controller."""
        engine = self.pipeline.search_engine
        for product in event.added:
            engine.add_product(product)
        for doc_id, _ in event.removed:
            engine.remove_product(doc_id)
            self.removed_ids.add(doc_id)
        now = self.scheduler.clock.now()
        for category in event.categories:
            self.last_churn[category] = now
        if self.controller is not None:
            self.controller.on_churn(event.categories)
        self.churn_events += 1


def route(seq: int, query: str, head: Container[str], num_lanes: int):
    """``(kind, lane)`` of a tenant's request ``seq`` (counting from 0):
    a ``"search"`` end to end through retrieval when ``seq %``
    :data:`SEARCH_EVERY` ``== 0``, else a ``"rewrite"``; lane 0 for a
    head query, else the lowest-priority lane ``num_lanes - 1``."""
    kind = "search" if seq % SEARCH_EVERY == 0 else "rewrite"
    return kind, 0 if query in head else num_lanes - 1


def replay_traces(tenants: Sequence[ReplayTenant], on_event=None) -> None:
    """The one replay loop: every tenant's trace through its scheduler.

    The traces merge in ``(at, tenant, position)`` order.  Before each
    event every scheduler serves what is due, in tenant order, so batches
    dispatch at their own trigger times whichever tenant's traffic moves
    the shared clock, and the interleaving is deterministic.  A request
    goes to :meth:`ReplayTenant.submit` with the kind and lane of
    :func:`route`, a churn event to :meth:`ReplayTenant.churn`, any other
    event to ``on_event(tenant, kind, payload)``.  Every scheduler drains
    at the end.
    """
    merged = sorted(
        (
            (at, index, position, kind, payload)
            for index, tenant in enumerate(tenants)
            for position, (kind, at, payload) in enumerate(tenant.trace)
        ),
        key=lambda event: event[:3],
    )
    for at, index, _, kind, payload in merged:
        for tenant in tenants:
            tenant.scheduler.advance_to(at)
        tenant = tenants[index]
        if kind == "request":
            request_kind, lane = route(
                tenant.submitted,
                payload.query,
                tenant.head,
                tenant.scheduler.config.num_lanes,
            )
            tenant.submit(
                ScheduledRequest(
                    query=payload.query,
                    arrival_seconds=at,
                    lane=lane,
                    kind=request_kind,
                )
            )
        elif kind == "churn":
            tenant.churn(payload)
        else:
            on_event(tenant, kind, payload)
    for tenant in tenants:
        tenant.scheduler.drain()


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
        #: query text -> ground-truth category, over the request universe
        self.categories = {text: category for text, category, _ in traffic}
        clicks = np.array([max(c, 1) for _, _, c in traffic], dtype=float)
        self._weights = clicks / clicks.sum()

        head_count = max(1, int(len(traffic) * cfg.head_fraction))
        self._head = {text: self.categories[text] for text in self._texts[:head_count]}

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
                Request(query=text, category=self.categories[text])
                for text in (self._texts[int(i)] for i in picks)
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

    # -- replay --------------------------------------------------------------
    def arrival_trace(self) -> list[tuple[str, float, object]]:
        """The schedule as timed single-request arrivals, oldest first.

        Flattens the precomputed request draws into ``("request", t,
        Request)`` events with exponential (Poisson-process) inter-arrival
        gaps of mean ``seconds_per_request``, drawn from their own seeded
        stream so the gaps never perturb the request content.  Churn
        events become ``("churn", t, ChurnEvent)`` pinned at the arrival
        time of the request they followed.  This is the
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
    ) -> ReplayReport:
        """Replay the arrival trace through one serving stack.

        ``pipeline`` must be constructed with a churn-capable search
        engine (``ShardedSearchEngine``) and a cache whose clock is
        ``clock.now``; ``controller`` is optional — omit it for the
        no-freshness baseline (its work is counted in its
        :class:`~repro.online.freshness.FreshnessReport`).
        :func:`replay_traces` submits the requests to a
        :class:`~repro.online.scheduler.MicroBatchScheduler` batching
        under ``scheduler_config`` (default ``SchedulerConfig()``), and
        each is accounted at the virtual time it is actually served.
        """
        if not hasattr(pipeline.search_engine, "add_product"):
            raise ValueError(
                "replay needs a churn-capable engine on the pipeline "
                "(ShardedSearchEngine with add_product/remove_product)"
            )
        tenant = ReplayTenant(
            pipeline=pipeline,
            trace=self.arrival_trace(),
            head=self._head,
            controller=controller,
            categories=self.categories,
            stats=WindowedStats(self.config.window),
        )
        tenant.scheduler = MicroBatchScheduler(
            pipeline, clock, scheduler_config, on_batch=tenant.on_batch
        )
        replay_traces([tenant])
        return ReplayReport(
            churn_events=tenant.churn_events,
            stats=tenant.stats,
            counters=pipeline.counters(),
            searches=tenant.searches,
            dead_doc_hits=tenant.dead_doc_hits,
            scheduler=tenant.scheduler.report,
            freshness=controller.report if controller is not None else None,
        )
