"""The online freshness subsystem: clock, windowed gauges, controller, replay."""

import hashlib
import math
import time

import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as hyp_st

from repro.baselines import RuleBasedRewriter
from repro.core import RewriteCache, ServingConfig, ServingPipeline
from repro.core.rewriter import RewriteResult
from repro.data.catalog import CatalogConfig, CatalogGenerator, alias_to_canonical
from repro.data.clicklog import ClickLogConfig, ClickLogSimulator
from repro.online import (
    FreshnessController,
    ReplayConfig,
    SchedulerConfig,
    TrafficReplay,
    VirtualClock,
    WallClock,
    WindowedStats,
)
from repro.search import SearchConfig, ShardedSearchEngine


class CountingRewriter:
    """Deterministic rewriter that counts invocations."""

    def __init__(self, mapping=None):
        self.mapping = mapping or {}
        self.calls = 0

    def rewrite(self, query, k=3):
        self.calls += 1
        return [
            RewriteResult(tokens=tuple(text.split()), log_prob=-1.0)
            for text in self.mapping.get(query, [])[:k]
        ]


class TestVirtualClock:
    def test_advances_monotonically(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        assert clock.advance(2.5) == 2.5
        assert clock.advance(0.0) == 2.5
        assert clock.now() == 2.5

    def test_never_goes_backwards(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_custom_start(self):
        assert VirtualClock(start=10.0).now() == 10.0


class TestWindowedStats:
    def test_rates_and_counts(self):
        stats = WindowedStats(window=100)
        stats.record(1.0, hit=True)
        stats.record(2.0, hit=True, stale=True)
        stats.record(3.0, empty=True)
        assert len(stats) == 3
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.stale_rate == pytest.approx(1 / 3)
        assert stats.empty_rate == pytest.approx(1 / 3)
        assert stats.total_requests == 3

    def test_window_slides(self):
        stats = WindowedStats(window=2)
        stats.record(1.0, hit=True)
        stats.record(2.0, hit=True)
        stats.record(100.0)  # evicts the first hit
        assert len(stats) == 2
        assert stats.hit_rate == pytest.approx(0.5)
        assert stats.mean_latency_ms() == pytest.approx(51.0)
        # Lifetime counters keep the full history.
        assert stats.total_requests == 3
        assert stats.total_hits == 2
        assert stats.lifetime_hit_rate == pytest.approx(2 / 3)

    def test_percentiles_nearest_rank_over_window(self):
        stats = WindowedStats(window=10)
        for latency in range(1, 101):  # only 91..100 stay in the window
            stats.record(float(latency))
        assert stats.p50_latency_ms() == 95.0
        assert stats.p99_latency_ms() == 100.0
        assert stats.percentile_latency_ms(0.1) == 91.0

    def test_percentiles_match_full_sort_semantics(self):
        latencies = [7.0, 1.0, 3.0, 3.0, 9.0, 2.0]
        stats = WindowedStats(window=100)
        for latency in latencies:
            stats.record(latency)
        ordered = sorted(latencies)
        for q in (0.5, 0.9, 0.95, 1.0):
            expected = ordered[math.ceil(q * len(ordered)) - 1]
            assert stats.percentile_latency_ms(q) == expected

    def test_stale_and_empty_serve_counts_once_in_union_rate(self):
        # A cached-empty entry in a churned category is ONE degraded
        # serve; the union rate must not double-count (or exceed 1.0).
        stats = WindowedStats()
        stats.record(1.0, hit=True, stale=True, empty=True)
        assert stats.lifetime_stale_or_empty_rate == 1.0
        stats.record(1.0)
        assert stats.lifetime_stale_or_empty_rate == 0.5
        assert stats.total_stale == stats.total_empty == stats.total_stale_or_empty == 1

    def test_empty_and_invalid(self):
        stats = WindowedStats()
        assert stats.p99_latency_ms() == 0.0
        assert stats.mean_latency_ms() == 0.0
        assert stats.hit_rate == 0.0
        assert stats.lifetime_stale_or_empty_rate == 0.0
        with pytest.raises(ValueError):
            stats.percentile_latency_ms(0.0)
        with pytest.raises(ValueError):
            WindowedStats(window=0)


class TestFreshnessController:
    def make_cache(self, clock, ttl=10.0):
        return RewriteCache(ttl_seconds=ttl, clock=clock.now)

    def test_on_churn_invalidates_and_repopulates_affected_category(self):
        clock = VirtualClock()
        cache = self.make_cache(clock)
        rewriter = CountingRewriter({"old phone": ["mobile phone"], "red shoe": ["sneaker"]})
        head = {"old phone": "phone", "red shoe": "shoe"}
        cache.put("old phone", ["stale rewrite"])
        cache.put("red shoe", ["stale rewrite"])
        controller = FreshnessController(cache, rewriter, head)

        clock.advance(5.0)
        assert controller.on_churn({"phone"}) == 1
        # The phone entry was re-populated with a fresh stamp...
        assert cache.get("old phone") == ["mobile phone"]
        assert cache.stored_at("old phone") == 5.0
        # ...the shoe entry was left alone.
        assert cache.get("red shoe") == ["stale rewrite"]
        assert cache.stored_at("red shoe") == 0.0
        assert controller.report.invalidated == 1
        assert controller.report.refreshed == 1

    def test_repopulate_never_stores_unservable_entries(self):
        clock = VirtualClock()
        cache = self.make_cache(clock)
        rewriter = CountingRewriter({})  # no rewrites for anything
        cache.put("old phone", ["stale"])
        controller = FreshnessController(cache, rewriter, {"old phone": "phone"})
        controller.on_churn({"phone"})
        assert cache.get("old phone") is None  # invalidated, not re-stored
        assert controller.report.invalidated == 1
        assert controller.report.refreshed == 0

    def test_tick_purges_and_refreshes_ahead(self):
        clock = VirtualClock()
        cache = self.make_cache(clock, ttl=10.0)
        rewriter = CountingRewriter({"head": ["fresh rewrite"]})
        controller = FreshnessController(
            cache, rewriter, {"head": "phone"}, refresh_margin_seconds=3.0
        )
        cache.put("head", ["old rewrite"])   # expires at t=10
        cache.put("orphan", ["whatever"])    # not managed; expires at t=10

        clock.advance(5.0)
        controller.tick()  # far from expiry: nothing happens
        assert controller.report.proactive_refreshed == 0
        assert cache.get("head") == ["old rewrite"]

        clock.advance(3.0)  # t=8, inside the 3s margin
        controller.tick()
        assert controller.report.proactive_refreshed == 1
        assert cache.stored_at("head") == 8.0  # re-stamped ahead of expiry

        clock.advance(4.0)  # t=12: orphan expired, head still live
        controller.tick()
        assert controller.report.purged_expired == 1
        assert cache.get("head") == ["fresh rewrite"]

    def test_tick_interval_rate_limits_scans(self):
        clock = VirtualClock()
        cache = self.make_cache(clock, ttl=100.0)
        rewriter = CountingRewriter({"head": ["r"]})
        controller = FreshnessController(
            cache,
            rewriter,
            {"head": "phone"},
            refresh_margin_seconds=1000.0,  # every tick would refresh
            tick_interval_seconds=10.0,
        )
        cache.put("head", ["r"])
        controller.tick()  # does work, schedules next at t=10
        calls_after_first = rewriter.calls
        clock.advance(5.0)
        controller.tick()  # inside the interval: no scan
        assert rewriter.calls == calls_after_first
        clock.advance(5.0)
        controller.tick()  # t=10: scans again
        assert rewriter.calls > calls_after_first

    def test_invalid_construction(self):
        clock = VirtualClock()
        cache = self.make_cache(clock)
        with pytest.raises(ValueError):
            FreshnessController(cache, CountingRewriter(), {}, refresh_margin_seconds=-1)
        with pytest.raises(ValueError):
            FreshnessController(cache, CountingRewriter(), {}, tick_interval_seconds=-1)


def build_small_replay(seed=0):
    generator = CatalogGenerator(CatalogConfig(products_per_category=4, seed=seed))
    catalog = generator.generate()
    click_log = ClickLogSimulator(
        catalog,
        config=ClickLogConfig(num_sessions=300, intent_pool_size=60, seed=seed),
    ).simulate()
    config = ReplayConfig(
        num_requests=400,
        batch_size=16,
        churn_every=100,
        churn_adds=3,
        churn_removes=3,
        seconds_per_request=0.5,
        seed=seed,
    )
    return generator, click_log, TrafficReplay(click_log, generator, config)


def build_stack(generator, replay, ttl=60.0, with_freshness=False):
    catalog = generator.generate()
    engine = ShardedSearchEngine(
        catalog, SearchConfig(max_candidates=10), num_shards=2, parallel=False
    )
    clock = VirtualClock()
    cache = RewriteCache(ttl_seconds=ttl, clock=clock.now)
    rewriter = RuleBasedRewriter(alias_to_canonical())
    cache.populate(rewriter, list(replay.head_queries()), k=3)
    pipeline = ServingPipeline(
        cache,
        rewriter,
        ServingConfig(cache_model_results=True),
        search_engine=engine,
    )
    controller = (
        FreshnessController(cache, rewriter, replay.head_queries())
        if with_freshness
        else None
    )
    return engine, clock, pipeline, controller


class TestTrafficReplay:
    def test_schedule_is_deterministic(self):
        _, _, first = build_small_replay(seed=3)
        _, _, second = build_small_replay(seed=3)
        assert first.head_queries() == second.head_queries()
        assert first.num_churn_events == second.num_churn_events
        first_events = [
            (kind, [r.query for r in payload]) if kind == "batch"
            else (kind, payload.removed, tuple(p.product_id for p in payload.added))
            for kind, payload in first._schedule
        ]
        second_events = [
            (kind, [r.query for r in payload]) if kind == "batch"
            else (kind, payload.removed, tuple(p.product_id for p in payload.added))
            for kind, payload in second._schedule
        ]
        assert first_events == second_events

    def test_replay_end_to_end_baseline_vs_freshness(self):
        generator, _, replay = build_small_replay()
        engine, clock, pipeline, _ = build_stack(generator, replay)
        baseline = replay.run(pipeline, clock, arm="baseline")
        engine.close()
        engine, clock, pipeline, controller = build_stack(
            generator, replay, with_freshness=True
        )
        fresh = replay.run(pipeline, clock, controller, arm="freshness")
        engine.close()

        assert baseline.requests == fresh.requests == 400
        assert baseline.churn_events == fresh.churn_events == replay.num_churn_events > 0
        # The sharded index followed churn: probes never surface delisted docs.
        assert baseline.dead_doc_hits == 0
        assert fresh.dead_doc_hits == 0
        assert baseline.searches > 0
        # Tier counters account every request exactly once.
        assert (
            baseline.cache_served + baseline.model_served + baseline.unserved
            == baseline.requests
        )
        # The controller can only reduce stale serves on the same stream.
        assert fresh.stats.total_stale <= baseline.stats.total_stale
        assert fresh.freshness is not None
        assert baseline.freshness is None

    def test_arrival_trace_is_monotone_and_deterministic(self):
        _, _, replay = build_small_replay(seed=5)
        trace = replay.arrival_trace()
        assert trace == replay.arrival_trace()
        times = [at for _, at, _ in trace]
        assert times == sorted(times)
        kinds = [kind for kind, _, _ in trace]
        assert kinds.count("request") == replay.config.num_requests
        assert kinds.count("churn") == replay.num_churn_events
        # Same request content as the pre-batched schedule, in order.
        batched = [
            request.query
            for kind, payload in replay._schedule
            if kind == "batch"
            for request in payload
        ]
        assert [p.query for k, _, p in trace if k == "request"] == batched

    def test_scheduled_replay_end_to_end(self):
        generator, _, replay = build_small_replay()
        engine, clock, pipeline, _ = build_stack(generator, replay)
        report = replay.run_scheduled(
            pipeline,
            clock,
            SchedulerConfig(max_batch_size=16, max_wait_seconds=1.0),
            arm="scheduled",
        )
        engine.close()
        assert report.requests == 400
        assert report.scheduler is not None
        assert report.scheduler.completed == 400
        assert report.scheduler.admitted == 400
        assert report.scheduler.shed == 0
        assert report.scheduler.batches > 400 / 16 - 1
        # Worker is infinitely fast (no service model), so the deadline
        # bound is exact for every request.
        assert (
            max(report.scheduler.queue_delays_seconds) <= 1.0 + 1e-12
        )
        assert report.searches > 0
        assert report.dead_doc_hits == 0
        assert report.churn_events == replay.num_churn_events
        assert (
            report.cache_served + report.model_served + report.unserved
            == report.requests
        )
        assert pipeline.stats.admitted == 400
        assert pipeline.stats.shed == 0

    def test_scheduled_replay_is_deterministic(self):
        def run_once():
            generator, _, replay = build_small_replay(seed=11)
            engine, clock, pipeline, _ = build_stack(generator, replay)
            report = replay.run_scheduled(
                pipeline,
                clock,
                SchedulerConfig(max_batch_size=8, max_wait_seconds=0.8),
            )
            engine.close()
            return report.scheduler.fingerprint(), pipeline.stats.counters()

        first_fp, first_counters = run_once()
        second_fp, second_counters = run_once()
        assert first_fp == second_fp
        assert first_counters == second_counters

    def test_replay_requires_churn_capable_engine(self):
        generator, _, replay = build_small_replay()
        pipeline = ServingPipeline(RewriteCache(), None)  # no engine at all
        with pytest.raises(ValueError):
            replay.run(pipeline, VirtualClock())
        with pytest.raises(ValueError):
            replay.run_scheduled(pipeline, VirtualClock())

    def test_invalid_config_rejected(self):
        generator, click_log, _ = build_small_replay()
        with pytest.raises(ValueError):
            TrafficReplay(click_log, generator, ReplayConfig(num_requests=0))


class TestClockConformance:
    """Property suite for the clock protocol, over BOTH implementations.

    ``WallClock`` must be a drop-in for ``VirtualClock`` wherever the
    caller drives time explicitly: latched ``now()`` reads are stable
    between mutations, ``advance`` is exact, and negative deltas raise.
    Only ``sync()`` (WallClock's own extension) folds real time in.
    """

    @pytest.mark.parametrize("clock_cls", [VirtualClock, WallClock])
    def test_negative_advance_raises(self, clock_cls):
        with pytest.raises(ValueError):
            clock_cls().advance(-1e-9)

    @pytest.mark.parametrize("clock_cls", [VirtualClock, WallClock])
    def test_custom_start_anchors_now(self, clock_cls):
        assert clock_cls(start=10.0).now() == 10.0

    @given(
        deltas=hyp_st.lists(
            hyp_st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            max_size=30,
        )
    )
    @hyp_settings(max_examples=100, deadline=None)
    def test_advance_is_exact_and_monotone_for_both(self, deltas):
        virtual, wall = VirtualClock(), WallClock()
        for clock in (virtual, wall):
            expected = 0.0
            for delta in deltas:
                before = clock.now()
                after = clock.advance(delta)
                expected += delta
                assert after == clock.now()
                assert after >= before
                assert after == pytest.approx(expected, abs=1e-6)
        # the two implementations agree step for step under advance()
        assert virtual.now() == pytest.approx(wall.now(), abs=1e-6)

    def test_wall_clock_reads_are_latched(self):
        clock = WallClock()
        first = clock.now()
        # real time moves; the latch must not (until a sync)
        time.sleep(0.002)
        assert clock.now() == first

    def test_wall_clock_sync_is_monotone_and_folds_real_time(self):
        clock = WallClock()
        a = clock.sync()
        time.sleep(0.002)
        b = clock.sync()
        assert b >= a
        assert b > 0.0
        assert clock.now() == b

    def test_wall_clock_advance_ahead_of_real_time_wins(self):
        """The drain path: advance() may outrun real time; sync() then
        holds the latch until real time catches up (never backwards)."""
        clock = WallClock()
        far = clock.advance(3600.0)
        assert clock.sync() == far
        assert clock.now() == far


class TestFingerprintRegression:
    """Hard-pinned digests: the refactor-proof byte-identity gates.

    These digests were recorded when the ``WallClock`` front door landed
    and re-pinned once when cache hits stopped waiting on a batching
    deadline (hit delays went to 0, more and smaller batches; the tier
    counts did not move); any change to scheduler batching, admission,
    serving tiers, replay trace generation or scenario accounting that
    shifts a single counter will break them.  If a change is
    *intentional*, re-pin the digests in the same commit that changes
    the behaviour."""

    SCHEDULER_DIGEST = (
        "0a9bf3725b278298bfe190474ec5b2d3c0f632f119afd1e63f6bd7fabb4d9dfc"
    )
    COUNTERS_DIGEST = (
        "0e391b1685d0dc505c3f3d8f7aa8f73c809fadcb86130ac3f381e8e8be2cd91d"
    )
    SCENARIO_DIGEST = (
        "3b471a8a84f29b572e78aa2af72eda1261cffe7297d83282b77bfcd6afe80854"
    )

    @staticmethod
    def _digest(value) -> str:
        return hashlib.sha256(repr(value).encode()).hexdigest()

    def test_scheduled_replay_fingerprint_is_pinned(self):
        generator, _, replay = build_small_replay(seed=11)
        engine, clock, pipeline, _ = build_stack(generator, replay)
        report = replay.run_scheduled(
            pipeline,
            clock,
            SchedulerConfig(max_batch_size=8, max_wait_seconds=0.8),
        )
        engine.close()
        assert self._digest(report.scheduler.fingerprint()) == (
            self.SCHEDULER_DIGEST
        )
        counters = sorted(
            pipeline.stats.counters().items(), key=lambda kv: kv[0]
        )
        assert self._digest(counters) == self.COUNTERS_DIGEST

    def test_multi_tenant_scenario_fingerprint_is_pinned(self):
        from repro.online import ScenarioConfig, run_scenario

        outcome = run_scenario("multi_tenant", ScenarioConfig().scaled(0.04))
        assert self._digest(outcome.fingerprint()) == self.SCENARIO_DIGEST
