"""Multi-tenant scenario library with adversarial replay arms.

Every online harness so far answered one question well ("does freshness
beat no-freshness", "does admission control shed under overload") but
each invented its own driver.  This module turns those one-off drivers
into a **library of pinned scenarios**: a :class:`Scenario` couples a
deterministic trace builder with a set of pass/fail **invariants** whose
bars are pinned in code, so any regression in the serving stack — a
cache leak across tenants, a dead document served after delisting, a
batch scheduler stall — fails a named bar instead of shifting a number
nobody is watching.

The library drives the *existing* stack — :class:`~repro.online.replay.
TrafficReplay` builds each tenant's schedule, a per-tenant
:class:`~repro.online.scheduler.MicroBatchScheduler` forms batches over
one shared :class:`~repro.online.clock.VirtualClock`, and a per-tenant
:class:`~repro.online.freshness.FreshnessController` keeps head entries
fresh — through the one replay loop,
:func:`~repro.online.replay.replay_traces`, and its per-tenant tally, so
scenario semantics (churn lockstep, staleness definition, probe rule)
can never diverge from the single-arm harnesses.

An arm is a declaration the one :class:`ScenarioRunner` reads — how
many tenants, which incidents land at which fraction of the trace, which
window of requests it rewrites, and the bars it adds; the registered
arms (:data:`SCENARIOS`) and their bars are tabled in
``docs/SCENARIOS.md``.

Isolation is modelled physically: tenants share one physical
:class:`~repro.core.cache.RewriteCache` through
:meth:`~repro.core.cache.RewriteCache.tenant_view` namespacing, and
tenant catalogs live in disjoint document-id ranges
(``CatalogConfig.product_id_base``).  Setting
``ScenarioConfig.namespace_cache=False`` removes the namespacing — the
deliberately broken deployment whose isolation invariant must FAIL,
which is how ``benchmarks/test_scenarios.py`` proves the gates can
actually catch a regression.  See ``docs/SCENARIOS.md``.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.baselines.rule_based import RuleBasedRewriter
from repro.cluster import ReplicaRouter
from repro.core.cache import RewriteCache
from repro.core.serving import (
    ServedRewrite,
    ServedSearch,
    ServingConfig,
    ServingPipeline,
    sum_counters,
)
from repro.data.catalog import CATEGORY_SPECS, CatalogConfig, CatalogGenerator
from repro.data.clicklog import ClickLogConfig
from repro.data.domain import Product
from repro.data.marketplace import MarketplaceConfig, generate_marketplace
from repro.data.synonyms import build_rule_dictionary
from repro.online.clock import VirtualClock
from repro.online.freshness import FreshnessController
from repro.online.replay import (
    DRAW_CHUNK,
    ChurnEvent,
    ReplayConfig,
    ReplayTenant,
    Request,
    TrafficReplay,
    replay_traces,
)
from repro.online.scheduler import MicroBatchScheduler, SchedulerConfig
from repro.online.stats import WindowedStats
from repro.search.engine import SearchConfig
from repro.search.sharded import ShardedIndex, ShardedSearchEngine, resolve_backend
from repro.store import SegmentStore
from repro.text import normalize


#: top fraction of click-ranked queries treated as the head set
_HEAD_FRACTION = 0.4
#: physical cache capacity shared by ALL tenants (views share the store)
_CACHE_CAPACITY = 512
#: cache TTL in virtual seconds
_CACHE_TTL_SECONDS = 6.0
#: shards of the physical cache
_CACHE_SHARDS = 4
#: scheduler deadline trigger (virtual seconds)
_MAX_WAIT_SECONDS = 0.25
#: scheduler admission bound (per tenant)
_MAX_QUEUE_DEPTH = 256
#: mean Poisson inter-arrival gap (virtual seconds)
_SECONDS_PER_REQUEST = 0.02
#: sliding window of the streaming gauges
_WINDOW = 512
#: refresh-ahead margin of the per-tenant freshness controller
_REFRESH_MARGIN_SECONDS = 1.0
#: minimum virtual time between controller maintenance scans
_TICK_INTERVAL_SECONDS = 0.5
#: document-id stride separating tenant catalogs; tenant ``i`` owns ids
#: in ``[i * stride, (i+1) * stride)``
_TENANT_ID_STRIDE = 1_000_000


@dataclass(frozen=True)
class ScenarioConfig:
    """Shared knobs of every scenario (arms override via :meth:`Scenario.adjust`).

    One config drives tenant construction (marketplace size), the
    replayed stream (length, churn cadence), cache namespacing and the
    scheduler's size trigger, so a scenario is reproducible from
    ``(scenario name, config)`` alone.  The policy every arm shares
    (cache size and TTL, deadlines, probe cadence, id striping) is the
    module's ``_``-prefixed constants.
    """

    #: marketplaces replayed concurrently (arms may pin this to 1)
    num_tenants: int = 2
    #: requests each tenant's schedule emits
    requests_per_tenant: int = 400
    #: catalog size knob per tenant (products per category)
    products_per_category: int = 4
    #: click-log sessions simulated per tenant
    num_sessions: int = 300
    #: zipf-weighted query-universe size per tenant
    intent_pool_size: int = 60
    #: scheduler size trigger
    max_batch_size: int = 16
    #: a churn event lands after every this-many requests (per tenant)
    churn_every: int = 120
    #: products listed / delisted per churn event
    churn_adds: int = 3
    churn_removes: int = 3
    #: True: per-tenant namespaced views over the shared physical cache.
    #: False: every tenant uses the raw shared store — the deliberately
    #: broken deployment whose isolation invariant must fail.
    namespace_cache: bool = True
    seed: int = 0

    def __post_init__(self):
        """Reject configurations that cannot produce a meaningful run."""
        if self.num_tenants < 1:
            raise ValueError(f"num_tenants must be >= 1, got {self.num_tenants}")
        if self.requests_per_tenant < 1:
            raise ValueError(
                f"requests_per_tenant must be >= 1, got {self.requests_per_tenant}"
            )

    def scaled(self, factor: float) -> "ScenarioConfig":
        """This config with its workload shrunk/grown by ``factor``.

        Scales the per-tenant request count, marketplace size and churn
        cadence together (with floors that keep every scenario's windows
        non-degenerate), leaving policy knobs and bars untouched — the
        smoke-scale path of the experiments CLI.
        """
        if factor <= 0:
            raise ValueError(f"factor must be > 0, got {factor}")
        return dataclasses.replace(
            self,
            requests_per_tenant=max(120, int(self.requests_per_tenant * factor)),
            num_sessions=max(120, int(self.num_sessions * factor)),
            intent_pool_size=max(30, int(self.intent_pool_size * factor)),
            products_per_category=max(3, int(self.products_per_category * factor)),
            churn_every=max(30, int(self.churn_every * factor)),
        )


@dataclass(frozen=True)
class InvariantResult:
    """One pinned pass/fail bar, evaluated against an observed value."""

    #: stable invariant identifier (regression gates key on this)
    name: str
    passed: bool
    #: the measured quantity the bar was compared against
    observed: float
    #: human-readable bar, e.g. ``"== 0"`` or ``">= 0.90"``
    bar: str
    #: what the invariant protects (shown on failure)
    detail: str = ""

    def __str__(self) -> str:
        """``name: observed vs bar [PASS|FAIL]`` one-liner."""
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {self.observed:g} vs {self.bar} [{status}]"


def _freeze(value):
    """Recursively convert dicts/lists into hashable sorted tuples."""
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(val)) for key, val in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(val) for val in value)
    return value


@dataclass
class ScenarioOutcome:
    """Everything one scenario run produced: telemetry + judged invariants."""

    scenario: str
    config: ScenarioConfig
    invariants: list[InvariantResult]
    #: tenant name -> deterministic telemetry (serving counters, scheduler
    #: fingerprint, isolation tallies, streaming-gauge summaries)
    per_tenant: dict[str, dict]
    #: scenario-specific extras (drift adoption fractions, window rates, ...)
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True when every pinned invariant held."""
        return all(result.passed for result in self.invariants)

    def failures(self) -> list[InvariantResult]:
        """The invariants that did NOT hold (empty on a clean run)."""
        return [result for result in self.invariants if not result.passed]

    def fingerprint(self) -> tuple:
        """Hashable digest of every deterministic quantity in this outcome.

        Two same-seed runs of the same scenario/config must produce equal
        fingerprints — the scenario determinism acceptance.  Includes the
        per-tenant scheduler fingerprints and serving counters, so any
        divergence in batching, admission, tiering or retrieval shows up.
        """
        return (self.scenario, _freeze(self.per_tenant))

    def totals(self) -> dict:
        """Micro-batch-size-invariant projection of the run.

        Batch grouping legitimately changes cache-hit/model splits and
        batch counts (duplicates sharing a batch all miss together), so
        full :meth:`fingerprint` equality only holds for identical
        configs.  These totals — work admitted, completed, shed, churn
        applied, and the isolation/dead-document tallies — must be
        identical across ``max_batch_size`` settings for non-adversarial
        traffic, which is what the determinism gate sweeps.
        """
        tenants = self.per_tenant.values()
        totals = {
            key: sum(tenant[key] for tenant in tenants)
            for key in (
                "requests",
                "submitted",
                "churn_events",
                "dead_doc_hits",
                "cross_tenant_cache_hits",
                "cross_tenant_doc_serves",
            )
        }
        for key in ("admitted", "shed"):
            totals[key] = sum(tenant["counters"][key] for tenant in tenants)
        return totals


@dataclass(kw_only=True)
class TenantState(ReplayTenant):
    """Everything one marketplace tenant owns during a scenario run: the
    replay's per-tenant tally plus the isolation checks and logs the
    arms' invariants read."""

    index: int
    #: tenant label (cache namespace, pipeline telemetry tag)
    name: str
    #: first document id of this tenant's disjoint id range
    id_base: int
    market: object
    #: normalized queries THIS tenant has written into its cache view
    wrote: set[str]
    adds_applied: int = 0
    removes_applied: int = 0
    #: cache serves of queries this tenant never wrote (leaks, live)
    cross_tenant_cache_hits: int = 0
    #: retrieved documents outside this tenant's id range
    cross_tenant_doc_serves: int = 0
    #: (request sequence, served-from-cache, query) per completion,
    #: dispatch order
    serve_log: list = field(default_factory=list)
    #: (query, retrieved doc-id tuple) per search completion, dispatch
    #: order — the byte-identity surface for failover arms
    search_log: list = field(default_factory=list)
    #: ``len(serve_log)`` as each churn event landed, in trace order
    serve_log_at_churn: list = field(default_factory=list)
    initial_products: int = 0
    #: request sequence at which the cache node restarted (cold_restart)
    restarted_at: int | None = None
    #: scenario-specific scratch (drift queries, hot keys, ...)
    notes: dict = field(default_factory=dict)
    #: arrival time -> sequence number of each submitted request
    seq_of: dict[float, int] = field(default_factory=dict)

    def submit(self, request) -> None:
        """The replay's submit, noting the request's sequence number."""
        self.seq_of[request.arrival_seconds] = self.submitted
        super().submit(request)

    def record(self, completion) -> ServedRewrite:
        """The replay's tally, then this tenant's isolation checks."""
        served = super().record(completion)
        outcome = completion.outcome
        if isinstance(outcome, ServedSearch):
            self.search_log.append((outcome.query, tuple(outcome.doc_ids)))
            upper = self.id_base + _TENANT_ID_STRIDE
            self.cross_tenant_doc_serves += sum(
                not self.id_base <= doc_id < upper for doc_id in outcome.doc_ids
            )
        query = completion.request.query
        key = normalize(query)
        if served.source == "cache":
            # Head entries are legitimately (re)written by the tenant's
            # own freshness controller at any time (e.g. after a cold
            # restart), so only non-head hits that this tenant never
            # wrote count as foreign.
            if key not in self.wrote and query not in self.head:
                self.cross_tenant_cache_hits += 1
        elif (
            served.source == "model"
            and served.rewrites
            and self.pipeline.config.cache_model_results
        ):
            self.wrote.add(key)
        seq = self.seq_of[completion.request.arrival_seconds]
        self.serve_log.append((seq, 1 if served.source == "cache" else 0, query))
        return served

    def churn(self, event: ChurnEvent) -> None:
        """The replay's churn, logged where it landed in dispatch order."""
        self.serve_log_at_churn.append(len(self.serve_log))
        super().churn(event)
        self.adds_applied += len(event.added)
        self.removes_applied += len(event.removed)


class Scenario:
    """One named, deterministic serving scenario with pinned invariants.

    An arm is a declaration the :class:`ScenarioRunner` reads: class
    attributes say how many tenants it runs and which incidents it
    injects, and a few methods choose the engine, rewrite one window of
    requests and judge the arm's own bars.  A scenario is **stateless**:
    all run state lives on the runner and its :class:`TenantState`
    objects, so one registered instance can be run any number of times
    from any config.
    """

    #: registry key (stable; regression gates and the CLI key on it)
    name = "base"
    #: one-line summary shown by the experiments CLI
    description = "abstract scenario"
    #: True pins ``num_tenants`` to 1 (a per-node or per-tenant incident)
    single_tenant = False
    #: ``(request fraction, action)`` pairs: ``action(runner, tenant)``
    #: runs as an ``"incident"`` event just before request
    #: ``int(fraction * requests_per_tenant)`` of every tenant's trace
    incidents: tuple = ()
    #: True moves each incident to just after the first churn once its
    #: request has arrived (see :func:`_walk_trace`)
    incidents_after_churn = False

    def adjust(self, config: ScenarioConfig) -> ScenarioConfig:
        """Pin scenario-specific knobs onto the caller's config."""
        if self.single_tenant:
            return dataclasses.replace(config, num_tenants=1)
        return config

    def build_engine(self, market, runner: "ScenarioRunner"):
        """The per-tenant retrieval engine (default: sharded BM25)."""
        return ShardedSearchEngine(
            market.catalog,
            SearchConfig(ranker="bm25"),
            num_shards=2,
            parallel=False,
        )

    def request_window(self, tenant: TenantState, config: ScenarioConfig):
        """The one window of requests this arm rewrites, or None.

        ``(lo, hi, payload_of)``: request ``seq`` with ``lo <= seq < hi``
        carries ``payload_of(seq)`` instead of its replayed request.
        """
        return None

    def invariants(self, runner: "ScenarioRunner") -> list[InvariantResult]:
        """Arm-specific pinned bars, appended to the common invariants."""
        return []

    def run(self, config: ScenarioConfig | None = None) -> "ScenarioOutcome":
        """Run this arm once from ``config`` and judge it.

        Trace arms replay through a :class:`ScenarioRunner`.  An arm
        whose harness is not a virtual-clock trace (``gateway_soak``)
        overrides this; its outcome's ``per_tenant`` entries must still
        carry the keys :meth:`ScenarioOutcome.totals` reads.
        """
        return ScenarioRunner(self, config).run()


def _walk_trace(events, inserts=None, window=None, *, after_churn=False) -> list:
    """One tenant's trace with events inserted and one window replaced.

    The one walk that counts a trace's requests by sequence number.
    ``inserts`` maps a request seq to ``(kind, payload)`` events that
    land immediately before that request, at its arrival time.  With
    ``after_churn`` they land instead immediately after the first churn
    once that many requests have arrived, at the churn's time — the
    widest churn-free window behind them at every scale; if any insert
    finds no such churn, every insert takes the default placement.
    ``window`` is ``(lo, hi, payload_of)``: request ``seq`` with
    ``lo <= seq < hi`` carries ``payload_of(seq)``.  Requests keep their
    order, count and times, so times never decrease.
    """
    pending = dict(inserts or {})
    out = []
    seq = 0
    for kind, at, payload in events:
        if kind == "request":
            if not after_churn:
                out.extend((extra, at, data) for extra, data in pending.pop(seq, ()))
            if window is not None and window[0] <= seq < window[1]:
                payload = window[2](seq)
            seq += 1
        out.append((kind, at, payload))
        if after_churn and kind == "churn":
            for key in sorted(key for key in pending if key <= seq):
                out.extend((extra, at, data) for extra, data in pending.pop(key))
    if after_churn and pending:
        return _walk_trace(events, inserts, window)
    return out


def _engine_doc_ids(engine) -> list[int]:
    """Sorted live document ids of any scenario engine (hybrid or sharded)."""
    if hasattr(engine, "document_ids"):
        return engine.document_ids()
    return engine.lexical.document_ids()


def _zero_bar(name: str, count, detail: str) -> InvariantResult:
    """The pinned ``== 0`` bar over ``count``."""
    return InvariantResult(
        name=name, passed=count == 0, observed=float(count), bar="== 0", detail=detail
    )


def _stale_bar(
    name: str, tenants: list[TenantState], ceiling: float, slack: float, detail: str
) -> InvariantResult:
    """Pooled lifetime stale-serve fraction vs ``ceiling``, plus a
    finite-sample allowance of ``slack`` requests."""
    total = sum(tenant.stats.total_requests for tenant in tenants)
    stale = sum(t.stats.total_stale for t in tenants) / total if total else 0.0
    bar = ceiling + slack / (total or 1)
    return InvariantResult(
        name=name,
        passed=stale <= bar,
        observed=stale,
        bar=f"<= {bar:.4f}",
        detail=detail,
    )


def _window_rate(tenant: TenantState, lo: int, hi: int) -> float:
    """Cache-hit rate over the serves of requests ``lo <= seq < hi``."""
    window = [hit for seq, hit, _ in tenant.serve_log if lo <= seq < hi]
    return sum(window) / len(window) if window else 0.0


class ScenarioRunner:
    """Drives one trace arm: builds tenants, replays the merged trace,
    judges the invariants, and returns a :class:`ScenarioOutcome`.

    Per-tenant schedulers share ONE virtual clock, and
    :func:`~repro.online.replay.replay_traces` walks the merged trace,
    advancing every scheduler to each event's time in fixed tenant order
    — the property that makes the interleaved replay deterministic.
    Trace events are ``"request"``, ``"churn"`` and ``"incident"`` (an
    arm's declared action, run as ``action(runner, tenant)``).
    """

    def __init__(self, scenario: Scenario, config: ScenarioConfig | None = None):
        """``config`` is the caller's base; the scenario may pin knobs
        on top of it through :meth:`Scenario.adjust`."""
        self.scenario = scenario
        self.config = scenario.adjust(config or ScenarioConfig())
        self.clock = VirtualClock()
        self.tenants: list[TenantState] = []
        self.outcome: ScenarioOutcome | None = None
        #: the run's scratch directory (segment stores), removed when
        #: :meth:`run` returns or raises
        self._scratch: Path | None = None

    # -- construction --------------------------------------------------------
    def _new_cache(self) -> RewriteCache:
        return RewriteCache(
            capacity=_CACHE_CAPACITY,
            ttl_seconds=_CACHE_TTL_SECONDS,
            shards=_CACHE_SHARDS,
            clock=self.clock.now,
        )

    def _build_tenant(self, index: int, physical: RewriteCache) -> TenantState:
        cfg = self.config
        name = f"tenant{index}"
        id_base = index * _TENANT_ID_STRIDE
        market = generate_marketplace(
            MarketplaceConfig(
                catalog=CatalogConfig(
                    products_per_category=cfg.products_per_category,
                    product_id_base=id_base,
                ),
                clicks=ClickLogConfig(
                    num_sessions=cfg.num_sessions,
                    intent_pool_size=cfg.intent_pool_size,
                ),
                seed=cfg.seed + index * 1000,
            )
        )
        engine = self.scenario.build_engine(market, self)
        cache = physical.tenant_view(name) if cfg.namespace_cache else physical
        rewriter = RuleBasedRewriter(build_rule_dictionary())
        pipeline = ServingPipeline(
            cache,
            rewriter,
            ServingConfig(cache_model_results=True),
            search_engine=engine,
            tenant=name,
        )
        replay = TrafficReplay(
            market.click_log,
            CatalogGenerator(market.config.catalog),
            ReplayConfig(
                num_requests=cfg.requests_per_tenant,
                batch_size=DRAW_CHUNK,
                churn_every=cfg.churn_every,
                churn_adds=cfg.churn_adds,
                churn_removes=cfg.churn_removes,
                head_fraction=_HEAD_FRACTION,
                seconds_per_request=_SECONDS_PER_REQUEST,
                seed=cfg.seed + 7 + index,
            ),
        )
        head = replay.head_queries()
        cache.populate(rewriter, list(head))
        wrote = {
            normalize(query) for query in head if cache.stored_at(query) is not None
        }
        controller = FreshnessController(
            cache,
            rewriter,
            head,
            refresh_margin_seconds=_REFRESH_MARGIN_SECONDS,
            tick_interval_seconds=_TICK_INTERVAL_SECONDS,
        )
        tenant = TenantState(
            index=index,
            name=name,
            id_base=id_base,
            market=market,
            pipeline=pipeline,
            trace=replay.arrival_trace(),
            controller=controller,
            categories=replay.categories,
            stats=WindowedStats(_WINDOW),
            head=head,
            wrote=wrote,
            initial_products=len(market.catalog.products),
        )
        tenant.scheduler = MicroBatchScheduler(
            pipeline,
            self.clock,
            SchedulerConfig(
                max_batch_size=cfg.max_batch_size,
                max_wait_seconds=_MAX_WAIT_SECONDS,
                max_queue_depth=_MAX_QUEUE_DEPTH,
            ),
            on_batch=tenant.on_batch,
        )
        return tenant

    def _trace(self, tenant: TenantState) -> list:
        """The tenant's arrival trace with the arm's window and incidents."""
        n = self.config.requests_per_tenant
        inserts: dict[int, list] = {}
        for fraction, action in self.scenario.incidents:
            inserts.setdefault(int(n * fraction), []).append(("incident", action))
        return _walk_trace(
            tenant.trace,
            inserts,
            self.scenario.request_window(tenant, self.config),
            after_churn=self.scenario.incidents_after_churn,
        )

    # -- events --------------------------------------------------------------
    def swap_cache(self, tenant: TenantState) -> None:
        """Swap the tenant onto a fresh, empty cache (a node restart).

        The incident every restart arm shares; the persistent arm also
        swaps the retrieval engine for one restored from disk segments.
        """
        root = self._new_cache()
        fresh = root.tenant_view(tenant.name) if self.config.namespace_cache else root
        tenant.pipeline.cache = fresh
        tenant.controller.cache = fresh
        tenant.wrote = set()
        tenant.restarted_at = tenant.submitted
        # Cold-window bookkeeping is in DISPATCH order: requests already
        # queued at restart are served (and written back) against the
        # fresh cache, so seq-based windows would miss them.
        tenant.notes["serve_log_at_restart"] = len(tenant.serve_log)
        tenant.notes["churns_at_restart"] = tenant.churn_events

    # -- replay --------------------------------------------------------------
    def run(self) -> ScenarioOutcome:
        """Build the tenants, replay the merged trace, judge the bars."""
        self._scratch = Path(tempfile.mkdtemp(prefix="repro-scenario-"))
        try:
            return self._replay()
        finally:
            shutil.rmtree(self._scratch, ignore_errors=True)

    def _replay(self) -> ScenarioOutcome:
        cfg = self.config
        physical = self._new_cache()
        self.tenants = [
            self._build_tenant(index, physical) for index in range(cfg.num_tenants)
        ]
        for tenant in self.tenants:
            tenant.trace = self._trace(tenant)
        replay_traces(self.tenants, lambda tenant, _, action: action(self, tenant))

        invariants = self._common_invariants()
        invariants.extend(self.scenario.invariants(self))
        self.outcome = ScenarioOutcome(
            scenario=self.scenario.name,
            config=cfg,
            invariants=invariants,
            per_tenant={
                tenant.name: self._tenant_telemetry(tenant)
                for tenant in self.tenants
            },
        )
        return self.outcome

    def _tenant_telemetry(self, tenant: TenantState) -> dict:
        return {
            "counters": tenant.pipeline.counters(),
            "scheduler_fingerprint": tenant.scheduler.report.fingerprint(),
            "requests": tenant.stats.total_requests,
            "hits": tenant.stats.total_hits,
            "stale": tenant.stats.total_stale,
            "empty": tenant.stats.total_empty,
            "submitted": tenant.submitted,
            "churn_events": tenant.churn_events,
            "adds_applied": tenant.adds_applied,
            "removes_applied": tenant.removes_applied,
            "searches": tenant.searches,
            "dead_doc_hits": tenant.dead_doc_hits,
            "cross_tenant_cache_hits": tenant.cross_tenant_cache_hits,
            "cross_tenant_doc_serves": tenant.cross_tenant_doc_serves,
        }

    # -- invariants ----------------------------------------------------------
    def _audit_foreign_cache_entries(self) -> int:
        """Entries of tenant A's head visible through tenant B's cache
        that B never wrote — the post-run leak audit.  Zero under
        namespaced views; positive when namespacing is stripped."""
        return sum(
            1
            for owner in self.tenants
            for query in owner.head
            for other in self.tenants
            if other is not owner
            and other.pipeline.cache.stored_at(query) is not None
            and normalize(query) not in other.wrote
            and query not in other.head
        )

    def _common_invariants(self) -> list[InvariantResult]:
        live_leaks = sum(t.cross_tenant_cache_hits for t in self.tenants)
        audit_leaks = self._audit_foreign_cache_entries()
        foreign_index = sum(
            1
            for tenant in self.tenants
            for doc_id in _engine_doc_ids(tenant.pipeline.search_engine)
            if not tenant.id_base <= doc_id < tenant.id_base + _TENANT_ID_STRIDE
        )
        totals = sum_counters([t.pipeline.counters() for t in self.tenants])
        served = totals["cache_served"] + totals["model_served"] + totals["unserved"]
        submitted = sum(t.submitted for t in self.tenants)
        completed = sum(t.scheduler.report.completed for t in self.tenants)
        consistent = (
            served == totals["admitted"] == completed
            and totals["admitted"] + totals["shed"] == submitted
        )
        return [
            _zero_bar(
                "zero_cross_tenant_cache_serves",
                live_leaks + audit_leaks,
                f"{live_leaks} live cache serves of foreign entries + "
                f"{audit_leaks} foreign entries visible in the post-run audit",
            ),
            _zero_bar(
                "zero_cross_tenant_doc_serves",
                sum(t.cross_tenant_doc_serves for t in self.tenants),
                "retrieved document ids outside the serving tenant's id range",
            ),
            _zero_bar(
                "index_id_ranges_disjoint",
                foreign_index,
                "indexed documents outside the owning tenant's id range",
            ),
            InvariantResult(
                name="tenant_counters_sum_to_global",
                passed=consistent,
                observed=float(served),
                bar=f"served == admitted == completed, admitted + shed == {submitted}",
                detail=(
                    f"served={served} admitted={totals['admitted']} "
                    f"completed={completed} shed={totals['shed']} submitted={submitted}"
                ),
            ),
            _zero_bar(
                "zero_dead_document_serves",
                sum(t.dead_doc_hits for t in self.tenants),
                "end-to-end probes surfacing delisted products",
            ),
        ]


# ---------------------------------------------------------------------------
# Scenario arms
# ---------------------------------------------------------------------------
class MultiTenantScenario(Scenario):
    """Baseline multi-tenant interleave: isolation + accounting bars.

    N tenants with disjoint catalogs and namespaced cache views replay
    interleaved traffic with churn; on top of the common isolation
    invariants it pins the freshness controller's stale-serve ceiling
    and that the baseline load sheds nothing.
    """

    name = "multi_tenant"
    description = "interleaved tenants; isolation, accounting and staleness bars"
    #: pooled lifetime stale-serve ceiling (controller active).  The
    #: controller keeps head entries fresh; the residual comes from tail
    #: write-backs churned before they expire (~2% at baseline cadence).
    STALE_BAR = 0.03
    #: finite-sample allowance, in requests: on short smoke-scale streams
    #: a couple of residual stale serves are quantization, not regression
    STALE_SLACK_REQUESTS = 4.0

    def invariants(self, runner: ScenarioRunner) -> list[InvariantResult]:
        """Stale-rate ceiling + zero shedding at baseline load."""
        return [
            _stale_bar(
                "stale_serve_rate_bounded",
                runner.tenants,
                self.STALE_BAR,
                self.STALE_SLACK_REQUESTS,
                "pooled lifetime stale-serve fraction under the controller",
            ),
            _zero_bar(
                "no_shedding_at_baseline_load",
                sum(t.scheduler.report.shed for t in runner.tenants),
                "admission control must not shed at baseline arrival rates",
            ),
        ]


class HotKeyStormScenario(Scenario):
    """Hot-key query storm: a window of traffic collapses onto one head key.

    The middle fifth of the trace is replaced by the hottest head query
    that has precomputed rewrites.  The cache tier must absorb the storm:
    no shedding, a near-total storm-window hit rate, and the scheduler's
    deadline bound intact.
    """

    name = "hot_key_storm"
    description = "mid-trace traffic collapses onto one hot head query"
    single_tenant = True
    STORM_START = 0.4
    STORM_END = 0.6
    #: storm-window cache-hit floor
    HIT_BAR = 0.90

    def _storm_window(self, config: ScenarioConfig) -> tuple[int, int]:
        n = config.requests_per_tenant
        return int(n * self.STORM_START), int(n * self.STORM_END)

    def request_window(self, tenant: TenantState, config: ScenarioConfig):
        """The storm window's requests all ask for the hot key."""
        hot = next(
            (q for q in tenant.head if normalize(q) in tenant.wrote),
            next(iter(tenant.head)),
        )
        tenant.notes["hot_query"] = hot
        storm = Request(query=hot, category=tenant.head[hot])
        return (*self._storm_window(config), lambda seq: storm)

    def invariants(self, runner: ScenarioRunner) -> list[InvariantResult]:
        """Cache absorption bars: hit floor, zero shed, delay bound."""
        tenant = runner.tenants[0]
        start, end = self._storm_window(runner.config)
        rate = _window_rate(tenant, start, end)
        p95 = tenant.scheduler.report.p95_queue_delay_seconds()
        bound = _MAX_WAIT_SECONDS + 1e-9
        return [
            InvariantResult(
                name="storm_window_absorbed_by_cache",
                passed=rate >= self.HIT_BAR,
                observed=rate,
                bar=f">= {self.HIT_BAR}",
                detail=f"cache-hit rate over storm requests [{start}, {end})",
            ),
            _zero_bar(
                "no_shedding_under_storm",
                tenant.scheduler.report.shed,
                "a cache-absorbed storm must not trip admission control",
            ),
            InvariantResult(
                name="queue_delay_bound_holds",
                passed=p95 <= bound,
                observed=p95,
                bar=f"<= {bound:g}",
                detail="p95 virtual queueing delay vs the deadline trigger",
            ),
        ]


class ChurnStormScenario(Scenario):
    """Churn storm: churn cadence quadrupled, payloads amplified.

    The index and catalog must stay in lockstep (size accounting exact,
    zero dead-document serves) and the freshness controller must hold a
    stale-serve ceiling even with categories churning several times per
    TTL window.
    """

    name = "churn_storm"
    description = "aggressive listing/delisting; lockstep + staleness bars"
    single_tenant = True
    #: stale ceiling under storm churn (looser than baseline, still pinned)
    STALE_BAR = 0.06
    #: finite-sample allowance, in requests: smoke-scale streams see the
    #: same storm cadence over far fewer serves, so each residual stale
    #: serve moves the fraction by ~1%
    STALE_SLACK_REQUESTS = 8.0
    ADDS = 8
    REMOVES = 8

    def adjust(self, config: ScenarioConfig) -> ScenarioConfig:
        """Churn every ~eighth of the trace length, amplified payloads."""
        return dataclasses.replace(
            super().adjust(config),
            churn_every=max(20, config.requests_per_tenant // 8),
            churn_adds=self.ADDS,
            churn_removes=self.REMOVES,
        )

    def invariants(self, runner: ScenarioRunner) -> list[InvariantResult]:
        """Index-size lockstep + stale ceiling + full completion."""
        tenant = runner.tenants[0]
        expected = (
            tenant.initial_products + tenant.adds_applied - tenant.removes_applied
        )
        observed = len(_engine_doc_ids(tenant.pipeline.search_engine))
        return [
            InvariantResult(
                name="index_size_lockstep",
                passed=observed == expected,
                observed=float(observed),
                bar=f"== {expected}",
                detail="live index size vs initial + adds - removes",
            ),
            InvariantResult(
                name="churned_some_catalog",
                passed=tenant.churn_events >= 2,
                observed=float(tenant.churn_events),
                bar=">= 2",
                detail="the storm must actually churn (guards trace construction)",
            ),
            _stale_bar(
                "stale_serve_rate_bounded_under_storm",
                runner.tenants,
                self.STALE_BAR,
                self.STALE_SLACK_REQUESTS,
                "lifetime stale-serve fraction under storm churn",
            ),
        ]


class ColdRestartScenario(Scenario):
    """Cache-cold restart mid-trace: crater then recover.

    Right after the first churn past the halfway request (or, with no
    churn after it, just before that request) the tenant's cache node is
    replaced by a fresh, empty one.  Anchoring the restart to a churn
    boundary gives the coldness bar a full churn period of quiet at
    every scale.  The bars pin both sides of the incident: the
    post-restart window must actually crater (proving the swap is real)
    and the final window must recover as write-back and the freshness
    controller refill the head set.
    """

    name = "cold_restart"
    description = "fresh empty cache swaps in mid-trace; coldness + recovery bars"
    single_tenant = True
    incidents = ((0.5, ScenarioRunner.swap_cache),)
    incidents_after_churn = True
    #: final-window hit-rate floor after recovery
    RECOVERY_BAR = 0.40

    def invariants(self, runner: ScenarioRunner) -> list[InvariantResult]:
        """Coldness + recovery bars around the restart point.

        Coldness is judged deterministically: between the restart and the
        first post-restart churn event (which repopulates head entries),
        the ONLY writer to the fresh cache is this tenant's own
        write-back, so the *first* serve of every distinct query in that
        window must be a cache miss.  A restart swap that silently keeps
        the old store fails this bar immediately.
        """
        tenant = runner.tenants[0]
        n = runner.config.requests_per_tenant
        restart = tenant.restarted_at if tenant.restarted_at is not None else n // 2
        width = max(20, n // 8)
        cold_start = tenant.notes.get("serve_log_at_restart", len(tenant.serve_log))
        later_churns = tenant.serve_log_at_churn[
            tenant.notes.get("churns_at_restart", len(tenant.serve_log_at_churn)) :
        ]
        cold_end = later_churns[0] if later_churns else len(tenant.serve_log)
        first_hit: dict[str, int] = {}  # query -> hit flag of its first serve
        for _, hit, query in tenant.serve_log[cold_start:cold_end]:
            first_hit.setdefault(query, hit)
        first_total, first_hits = len(first_hit), sum(first_hit.values())
        post_rate = _window_rate(tenant, restart, restart + width)
        final_rate = _window_rate(tenant, n - width, n)
        return [
            InvariantResult(
                name="restart_applied",
                passed=tenant.restarted_at is not None and first_total >= 5,
                observed=float(first_total),
                bar="restart executed, >= 5 distinct cold-window queries",
                detail="the trace must actually swap the cache mid-run",
            ),
            _zero_bar(
                "cold_cache_serves_nothing_unseen",
                first_hits,
                f"first serves of {first_total} distinct queries dispatched "
                "between the restart and the next churn must all miss",
            ),
            InvariantResult(
                name="hit_rate_recovers",
                passed=final_rate >= self.RECOVERY_BAR,
                observed=final_rate,
                bar=f">= {self.RECOVERY_BAR}",
                detail=(
                    "write-back + freshness refill must recover the final-"
                    f"window hit rate (post-restart window: {post_rate:.3f})"
                ),
            ),
        ]


class ColdRestartPersistentScenario(ColdRestartScenario):
    """Cold restart where the node restores its index from disk segments.

    Same incident shape as ``cold_restart`` — the cache node dies
    mid-trace and a fresh, empty cache swaps in — but this node also
    loses its in-memory retrieval index and recovers it from
    :mod:`repro.store` segments instead of re-adding every catalog
    document.  On top of the inherited crater/recovery bars, two new
    bars pin the recovery path itself: the restored index must match
    the live one *exactly* (same documents, same ranked results with
    identical scores — churn included, which a catalog rebuild would
    miss), and the save must actually have produced per-shard segment
    files.  That a restore does no rebuild work is counted at 50k
    documents by ``benchmarks/test_persistence.py``.
    """

    name = "cold_restart_persistent"
    description = "restart restores the index from on-disk segments; equality bars"
    #: head queries probed for exact result equality after the restore
    PROBE_QUERIES = 5

    @staticmethod
    def _restart_from_segments(runner: ScenarioRunner, tenant: TenantState) -> None:
        """Swap the cache, then save + restore the retrieval index.

        The live engine (with all churn applied) is saved to the run's
        scratch :class:`~repro.store.SegmentStore`, a fresh engine is
        restored from those segments, and the tenant is swapped onto the
        restored engine for the rest of the trace — so every
        post-restart search bar in the suite exercises the *restored*
        index, not the one that "survived" the crash.  The checks land
        in ``tenant.notes`` (never in the per-tenant telemetry).
        """
        arm = runner.scenario
        runner.swap_cache(tenant)
        live = tenant.pipeline.search_engine
        live_docs = _engine_doc_ids(live)
        probes = sorted(tenant.head)[: arm.PROBE_QUERIES]
        expected = {query: live.search(query) for query in probes}

        root = runner._scratch / "store"
        live.save(root)
        restored = ShardedSearchEngine.load(
            tenant.market.catalog,
            root,
            SearchConfig(ranker="bm25"),
            parallel=False,
        )

        mismatches = 0
        if _engine_doc_ids(restored) != live_docs:
            mismatches += 1
        for query, want in expected.items():
            got = restored.search(query)
            if got.doc_ids != want.doc_ids or got.scores != want.scores:
                mismatches += 1

        segment_files = sorted(root.glob("*.seg"))
        tenant.notes["persist_mismatches"] = mismatches
        tenant.notes["persist_segment_files"] = len(segment_files)
        tenant.notes["persist_segment_bytes"] = sum(
            path.stat().st_size for path in segment_files
        )
        tenant.notes["persist_num_shards"] = restored.index.num_shards
        tenant.pipeline.search_engine = restored

    incidents = ((0.5, _restart_from_segments),)

    def invariants(self, runner: ScenarioRunner) -> list[InvariantResult]:
        """Inherited crater/recovery bars plus the recovery-path bars."""
        notes = runner.tenants[0].notes
        files = notes.get("persist_segment_files", 0)
        shards = notes.get("persist_num_shards", 1)
        return super().invariants(runner) + [
            _zero_bar(
                "restore_matches_live_index",
                notes.get("persist_mismatches", -1),
                "restored engine must hold the exact live document set and "
                f"rank {self.PROBE_QUERIES} probe queries with identical "
                "scores (churn included)",
            ),
            InvariantResult(
                name="segments_persisted",
                passed=files >= shards,
                observed=float(files),
                bar=f">= {shards} (one full segment per shard)",
                detail="the save must write at least one segment per shard",
            ),
        ]


class VocabDriftScenario(Scenario):
    """New-brand vocabulary drift stressing the semantic-capable tier.

    A brand unseen at build time ("zephyrion") floods a late window of
    the query stream; its products list mid-trace through an ADD-only
    churn.  The tenant runs the hybrid lexical+vector engine, and the
    bars pin end-to-end adoption: post-listing, drift queries must
    surface the new products, and both retrieval tiers must track the
    catalog in lockstep.
    """

    name = "vocab_drift"
    description = "unseen brand floods queries while its products list mid-trace"
    single_tenant = True
    BRAND = "zephyrion"
    #: listing lands before this fraction of the trace
    ADOPT_AT = 0.6
    DRIFT_START = 0.65
    DRIFT_END = 0.85
    #: categories the new brand launches in
    NUM_CATEGORIES = 3
    PRODUCTS_PER_CATEGORY = 2
    #: post-listing fraction of drift queries that must surface the brand
    ADOPTION_BAR = 1.0

    def build_engine(self, market, runner: ScenarioRunner):
        """Hybrid BM25 + IVF-vector engine over an (untrained) dual encoder."""
        from repro.embedding import DualEncoder
        from repro.search.hybrid import HybridSearchEngine

        return HybridSearchEngine(
            market.catalog,
            DualEncoder(market.vocab),
            SearchConfig(ranker="bm25"),
            num_shards=2,
            num_clusters=4,
            parallel=False,
            seed=runner.config.seed,
        )

    def _drift_catalog(self, tenant: TenantState):
        """The new brand's products + the queries that look for them."""
        categories = sorted(CATEGORY_SPECS)[: self.NUM_CATEGORIES]
        base = tenant.id_base + _TENANT_ID_STRIDE - 1000
        products = []
        queries = []
        pid = base
        for category in categories:
            canon = CATEGORY_SPECS[category].canonical
            queries.append((f"{self.BRAND} {' '.join(canon)}", category))
            for _ in range(self.PRODUCTS_PER_CATEGORY):
                products.append(
                    Product(
                        product_id=pid,
                        category=category,
                        brand=self.BRAND,
                        audience=None,
                        features=(),
                        title_tokens=(self.BRAND, *canon),
                        price=99.0,
                    )
                )
                pid += 1
        return products, queries

    @staticmethod
    def _list_brand(runner: ScenarioRunner, tenant: TenantState) -> None:
        """The ADD-only churn that lists the new brand's products."""
        products, _ = runner.scenario._drift_catalog(tenant)
        tenant.churn(ChurnEvent(added=tuple(products), removed=()))

    incidents = ((ADOPT_AT, _list_brand),)

    def request_window(self, tenant: TenantState, config: ScenarioConfig):
        """The drift window's requests look for the new brand."""
        n = config.requests_per_tenant
        products, queries = self._drift_catalog(tenant)
        tenant.notes["drift_queries"] = [q for q, _ in queries]
        tenant.notes["drift_ids"] = {p.product_id for p in products}
        return (
            int(n * self.DRIFT_START),
            int(n * self.DRIFT_END),
            lambda seq: Request(*queries[seq % len(queries)]),
        )

    def invariants(self, runner: ScenarioRunner) -> list[InvariantResult]:
        """Adoption + two-tier lockstep bars."""
        tenant = runner.tenants[0]
        engine = tenant.pipeline.search_engine
        drift_queries = tenant.notes.get("drift_queries", [])
        drift_ids = tenant.notes.get("drift_ids", set())
        adopted = 0
        for query in drift_queries:
            outcome = engine.search(query, [])
            if any(doc_id in drift_ids for doc_id in outcome.doc_ids):
                adopted += 1
        fraction = adopted / len(drift_queries) if drift_queries else 0.0
        lexical_docs = len(_engine_doc_ids(engine))
        vector_docs = len(engine.vector)
        catalog_docs = len(engine.catalog.products)
        return [
            InvariantResult(
                name="new_brand_adopted_end_to_end",
                passed=fraction >= self.ADOPTION_BAR,
                observed=fraction,
                bar=f">= {self.ADOPTION_BAR}",
                detail="post-listing drift queries surfacing a new-brand product",
            ),
            InvariantResult(
                name="retrieval_tiers_in_lockstep",
                passed=lexical_docs == vector_docs == catalog_docs,
                observed=float(vector_docs),
                bar=f"lexical == vector == catalog == {catalog_docs}",
                detail=(
                    f"lexical={lexical_docs} vector={vector_docs} "
                    f"catalog={catalog_docs}"
                ),
            ),
        ]


class ShardFailoverScenario(Scenario):
    """Replica death and snapshot respawn under live traffic.

    The tenant serves through a two-replica
    :class:`~repro.cluster.ReplicaRouter` (both replicas restored from
    the same segment-store generation, kept in lockstep by broadcast
    writes).  Mid-trace one replica is killed — the router must discover
    the death organically and fail over — and later respawned from a
    snapshot quiesced off the surviving replica and shipped with
    :meth:`~repro.store.SegmentStore.ship_snapshot`.  The bars pin what
    "transparent" means: every retrieval result in the whole trace is
    byte-identical to a healthy twin run (the same arm with its
    incidents dropped), the scheduler sheds nothing, and the respawned
    replica carries the shipped generation with per-shard digests equal
    to the survivor's.
    """

    name = "shard_failover"
    description = (
        "a replica dies mid-trace and respawns from a shipped snapshot; "
        "byte-identity + zero-shed bars"
    )
    single_tenant = True
    #: request-sequence fractions where the injected incidents land
    KILL_AT = 0.45
    RESPAWN_AT = 0.75
    NUM_REPLICAS = 2

    def build_engine(self, market, runner: ScenarioRunner):
        """Two state-identical inproc replicas behind a router.

        The catalog is indexed once, saved to the run's scratch segment
        store, and both replicas are restored from that one generation —
        the same-state precondition failover correctness rests on.
        """
        seed = ShardedSearchEngine(
            market.catalog, SearchConfig(ranker="bm25"), num_shards=2, parallel=False
        )
        generation = runner._scratch / "gen"
        seed.save(generation)
        seed.close()
        replicas = [
            resolve_backend("lexical", "inproc", generation, parallel=False)
            for _ in range(self.NUM_REPLICAS)
        ]
        return ShardedSearchEngine(
            market.catalog,
            SearchConfig(ranker="bm25"),
            index=ShardedIndex(backend=ReplicaRouter(replicas)),
        )

    @staticmethod
    def _kill(runner: ScenarioRunner, tenant: TenantState) -> None:
        """Kill replica 0 without telling the router: the next request
        that touches it must discover the death and fail over."""
        tenant.pipeline.search_engine.index.backend.kill_replica(0)

    @staticmethod
    def _respawn(runner: ScenarioRunner, tenant: TenantState) -> None:
        """Respawn replica 0 from a shipped snapshot of the survivor.

        The full production path: quiesce a healthy replica (itself
        failover-protected), save its shards, ship the snapshot with
        per-segment checksum re-verification, restore a fresh backend
        from the shipped copy, and attach it.  Digest/generation
        evidence lands in ``tenant.notes`` (never in telemetry, which
        must stay fingerprint-identical run to run).
        """
        router = tenant.pipeline.search_engine.index.backend
        save_dir = runner._scratch / "respawn-save"
        saved = tenant.pipeline.search_engine.save(save_dir)
        shipped = SegmentStore(save_dir, "lexical").ship_snapshot(
            runner._scratch / "respawn-dest"
        )
        replacement = resolve_backend(
            "lexical", "inproc", runner._scratch / "respawn-dest", parallel=False
        )
        survivor_digests = router.fanout("digest")
        respawn_digests = replacement.fanout("digest")
        router.respawn_replica(0, replacement)
        tenant.notes["failover_generation_match"] = (
            shipped.generation == saved.generation
        )
        tenant.notes["failover_digest_match"] = survivor_digests == respawn_digests

    incidents = ((KILL_AT, _kill), (RESPAWN_AT, _respawn))

    def invariants(self, runner: ScenarioRunner) -> list[InvariantResult]:
        """Transparency bars: discovery, zero sheds, restore, byte-identity.

        The byte-identity bar replays the healthy twin (this arm with no
        incidents, same config) and compares the full per-search
        ``(query, doc_ids)`` logs — rerouted retrievals must be
        indistinguishable from never having failed at all.  The twin
        judges nothing arm-specific.
        """
        if not self.incidents:
            return []
        tenant = runner.tenants[0]
        stats = tenant.pipeline.search_engine.index.backend.stats()
        twin = ShardFailoverScenario()
        twin.incidents = ()
        twin_runner = ScenarioRunner(twin, runner.config)
        twin_runner.run()
        twin_log = twin_runner.tenants[0].search_log
        mismatches = sum(
            1 for mine, theirs in zip(tenant.search_log, twin_log) if mine != theirs
        ) + abs(len(tenant.search_log) - len(twin_log))
        totals = sum_counters([t.pipeline.counters() for t in runner.tenants])
        notes = tenant.notes
        return [
            InvariantResult(
                name="failover_discovered_organically",
                passed=stats["failovers"] >= 1
                and stats["respawns"] == 1
                and stats["healthy_replicas"] == self.NUM_REPLICAS,
                observed=float(stats["failovers"]),
                bar=">= 1 failover, 1 respawn, all replicas healthy at end",
                detail=(
                    f"failovers={stats['failovers']} respawns={stats['respawns']} "
                    f"healthy={stats['healthy_replicas']}/{stats['replicas']} "
                    f"rerouted={stats['rerouted_requests']}"
                ),
            ),
            _zero_bar(
                "failover_sheds_nothing",
                totals["shed"],
                "a replica death must not push the scheduler into shedding",
            ),
            InvariantResult(
                name="respawn_restores_generation",
                passed=notes.get("failover_generation_match", False)
                and notes.get("failover_digest_match", False),
                observed=float(notes.get("failover_digest_match", False)),
                bar="shipped generation + per-shard digests match the survivor",
                detail=(
                    f"generation_match={notes.get('failover_generation_match')} "
                    f"digest_match={notes.get('failover_digest_match')}"
                ),
            ),
            InvariantResult(
                name="rerouted_results_byte_identical",
                passed=mismatches == 0 and len(tenant.search_log) > 0,
                observed=float(mismatches),
                bar="== 0 (against a healthy twin replay)",
                detail=(
                    f"{len(tenant.search_log)} retrievals compared against the "
                    "no-injection twin; every (query, doc_ids) pair must match"
                ),
            ),
        ]


class GatewaySoakScenario(Scenario):
    """Socket-path soak: live HTTP gateway vs in-process twin replay.

    The only arm that leaves virtual time: it boots a real
    :class:`~repro.gateway.app.Gateway` on an ephemeral loopback port
    (wall-clock scheduling, asyncio sockets, concurrent clients) and
    replays a deterministic churn-free trace through it, then replays
    the *same* trace in process on a :class:`VirtualClock` and demands
    the two arms' deterministic serving counters be **byte-identical** —
    plus zero HTTP 500s, schema-valid responses throughout, and a
    drain receipt conserving every admitted request.  Overrides
    :meth:`Scenario.run` with :func:`repro.gateway.soak.run_soak`.
    """

    name = "gateway_soak"
    description = "live HTTP soak; socket-path counters byte-match the virtual twin"

    def run(self, config: ScenarioConfig | None = None) -> ScenarioOutcome:
        """Run both soak arms and judge the conformance bars."""
        # Imported lazily: repro.gateway imports this package at module
        # load, so a top-level import here would be circular.
        from repro.gateway.soak import run_soak

        return run_soak(self.adjust(config or ScenarioConfig()))


#: registry of every pinned scenario, keyed by stable name
SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        MultiTenantScenario(),
        HotKeyStormScenario(),
        ChurnStormScenario(),
        ColdRestartScenario(),
        ColdRestartPersistentScenario(),
        VocabDriftScenario(),
        ShardFailoverScenario(),
        GatewaySoakScenario(),
    )
}


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name (ValueError on unknown)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; registered: {', '.join(sorted(SCENARIOS))}"
        ) from None


def run_scenario(name: str, config: ScenarioConfig | None = None) -> ScenarioOutcome:
    """Run one registered scenario end to end and return its outcome."""
    return get_scenario(name).run(config)
