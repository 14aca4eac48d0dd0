"""The deterministic micro-batch scheduler: batch formation, priority
lanes, admission control, the virtual service model, and determinism."""

import gc
import json

import numpy as np
import pytest

from repro.core import RewriteCache, ServingConfig, ServingPipeline
from repro.core.rewriter import RewriteResult
from repro.core.serving import ServedRewrite, ServedSearch
from repro.online import (
    MicroBatchScheduler,
    ScheduledRequest,
    SchedulerConfig,
    VirtualClock,
)
from repro.online.scheduler import REQUEST_KINDS, CompletedRequest
from repro.search.engine import SearchOutcome
from tests import golden_scheduler


class EchoRewriter:
    """Deterministic fallback: every query rewrites to itself + a suffix."""

    def __init__(self):
        self.calls = 0

    def rewrite(self, query, k=3):
        self.calls += 1
        return [RewriteResult(tokens=(query, "rewritten"), log_prob=-1.0)][:k]


class FakeEngine:
    """Minimal mode-less search engine (two fixed hits per query)."""

    def search(self, query, rewrites=None):
        return SearchOutcome(
            query=query,
            rewrites=list(rewrites or []),
            doc_ids=[1, 2],
            postings_accessed=3,
            tree_nodes=1,
            num_trees=1,
        )


def make_stack(config, *, with_engine=False, cache=None):
    clock = VirtualClock()
    pipeline = ServingPipeline(
        cache,
        EchoRewriter(),
        ServingConfig(max_rewrites=3),
        search_engine=FakeEngine() if with_engine else None,
    )
    batches = []
    scheduler = MicroBatchScheduler(
        pipeline, clock, config, on_batch=batches.append
    )
    return clock, pipeline, scheduler, batches


def submit_at(scheduler, arrivals, *, lane=0, kind="rewrite"):
    return [
        scheduler.submit(
            ScheduledRequest(
                query=f"query {i}", arrival_seconds=t, lane=lane, kind=kind
            )
        )
        for i, t in enumerate(arrivals)
    ]


class TestBatchFormation:
    def test_size_trigger_forms_full_batches(self):
        clock, pipeline, scheduler, batches = make_stack(
            SchedulerConfig(max_batch_size=4, max_wait_seconds=10.0)
        )
        submit_at(scheduler, [0.1 * i for i in range(8)])
        report = scheduler.drain()
        assert report.batches == 2
        assert report.batch_sizes == [4, 4]
        assert report.size_triggered == 2
        assert report.deadline_triggered == 0
        assert report.completed == 8
        assert pipeline.stats.batches == 2
        assert pipeline.stats.admitted == 8
        assert pipeline.stats.shed == 0
        # Size-triggered batches dispatch the instant they fill: the 4th
        # arrival completes the first batch, so its own delay is zero.
        assert report.queue_delays_seconds[3] == 0.0
        assert max(report.queue_delays_seconds) < 10.0

    def test_deadline_trigger_flushes_partial_batch(self):
        clock, _, scheduler, _ = make_stack(
            SchedulerConfig(max_batch_size=100, max_wait_seconds=1.0)
        )
        submit_at(scheduler, [0.0, 0.1, 0.2])
        report = scheduler.drain()
        assert report.batches == 1
        assert report.batch_sizes == [3]
        assert report.deadline_triggered == 1
        # Flushed exactly when the oldest request hit max_wait.
        assert clock.now() == 1.0
        assert report.queue_delays_seconds == [1.0, 0.9, pytest.approx(0.8)]

    def test_deadline_fires_between_arrivals(self):
        clock, _, scheduler, batches = make_stack(
            SchedulerConfig(max_batch_size=100, max_wait_seconds=0.5)
        )
        scheduler.submit(ScheduledRequest(query="early", arrival_seconds=0.0))
        # The next arrival is far in the future; submitting it must first
        # flush the overdue batch at t=0.5, not at t=10.
        scheduler.submit(ScheduledRequest(query="late", arrival_seconds=10.0))
        assert len(batches) == 1
        assert batches[0][0].dispatched_at == 0.5
        assert batches[0][0].queue_delay_seconds == 0.5
        scheduler.drain()

    def test_max_wait_bounds_every_delay_with_idle_worker(self):
        rng = np.random.default_rng(7)
        config = SchedulerConfig(max_batch_size=8, max_wait_seconds=0.5)
        _, _, scheduler, _ = make_stack(config)
        arrivals = np.cumsum(rng.exponential(0.05, size=200))
        for i, t in enumerate(arrivals):
            lane = int(rng.integers(0, config.num_lanes))
            scheduler.submit(
                ScheduledRequest(query=f"q{i}", arrival_seconds=float(t), lane=lane)
            )
        report = scheduler.drain()
        assert report.completed == 200
        assert max(report.queue_delays_seconds) <= config.max_wait_seconds + 1e-12


class TestPriorityLanes:
    def test_high_priority_lane_drains_first(self):
        _, _, scheduler, batches = make_stack(
            SchedulerConfig(max_batch_size=4, max_wait_seconds=5.0, num_lanes=2)
        )
        scheduler.submit(ScheduledRequest(query="low a", arrival_seconds=0.0, lane=1))
        scheduler.submit(ScheduledRequest(query="low b", arrival_seconds=0.1, lane=1))
        scheduler.submit(ScheduledRequest(query="high a", arrival_seconds=0.2, lane=0))
        scheduler.drain()
        order = [c.request.query for c in batches[0]]
        assert order == ["high a", "low a", "low b"]

    def test_full_batch_prefers_high_lane_backlog(self):
        _, _, scheduler, batches = make_stack(
            SchedulerConfig(max_batch_size=2, max_wait_seconds=5.0, num_lanes=2)
        )
        scheduler.submit(ScheduledRequest(query="low a", arrival_seconds=0.0, lane=1))
        scheduler.submit(ScheduledRequest(query="high a", arrival_seconds=0.1, lane=0))
        # Two pending -> size trigger; the batch takes lane 0 first.
        assert [c.request.query for c in batches[0]] == ["high a", "low a"]
        scheduler.drain()


class TestAdmissionControl:
    def test_sheds_arrival_when_queue_full_of_equal_priority(self):
        _, pipeline, scheduler, _ = make_stack(
            SchedulerConfig(
                max_batch_size=100, max_wait_seconds=50.0, max_queue_depth=2
            )
        )
        admitted = submit_at(scheduler, [0.0, 0.1, 0.2])
        assert admitted == [True, True, False]
        report = scheduler.drain()
        assert report.admitted == 2
        assert report.shed == 1
        assert report.shed_by_lane == [1, 0]
        assert report.completed == 2
        assert pipeline.stats.shed == 1
        assert pipeline.stats.admitted == 2

    def test_high_priority_arrival_evicts_lowest_lane_youngest(self):
        _, _, scheduler, batches = make_stack(
            SchedulerConfig(
                max_batch_size=100,
                max_wait_seconds=50.0,
                max_queue_depth=2,
                num_lanes=2,
            )
        )
        scheduler.submit(ScheduledRequest(query="low old", arrival_seconds=0.0, lane=1))
        scheduler.submit(ScheduledRequest(query="low new", arrival_seconds=0.1, lane=1))
        assert scheduler.submit(
            ScheduledRequest(query="high", arrival_seconds=0.2, lane=0)
        )
        report = scheduler.drain()
        served = [c.request.query for c in batches[0]]
        assert served == ["high", "low old"]  # youngest low-lane request shed
        assert report.shed == 1
        assert report.shed_by_lane == [0, 1]

    def test_high_priority_arrival_evicts_low_lane_of_other_kind(self):
        # The queue bound is global across kinds, so the victim search is
        # too: a head search probe must not be shed while strictly
        # lower-priority rewrite requests hold every slot.
        _, _, scheduler, batches = make_stack(
            SchedulerConfig(
                max_batch_size=100,
                max_wait_seconds=50.0,
                max_queue_depth=2,
                num_lanes=2,
            ),
            with_engine=True,
        )
        scheduler.submit(ScheduledRequest(query="tail a", arrival_seconds=0.0, lane=1))
        scheduler.submit(ScheduledRequest(query="tail b", arrival_seconds=0.1, lane=1))
        assert scheduler.submit(
            ScheduledRequest(
                query="head probe", arrival_seconds=0.2, lane=0, kind="search"
            )
        )
        report = scheduler.drain()
        served = [c.request.query for batch in batches for c in batch]
        assert "head probe" in served
        assert "tail b" not in served  # youngest low-priority request shed
        assert report.shed_by_lane == [0, 1]

    def test_low_priority_arrival_never_evicts_high_lane(self):
        _, _, scheduler, batches = make_stack(
            SchedulerConfig(
                max_batch_size=100,
                max_wait_seconds=50.0,
                max_queue_depth=1,
                num_lanes=2,
            )
        )
        scheduler.submit(ScheduledRequest(query="high", arrival_seconds=0.0, lane=0))
        assert not scheduler.submit(
            ScheduledRequest(query="low", arrival_seconds=0.1, lane=1)
        )
        scheduler.drain()
        assert [c.request.query for c in batches[0]] == ["high"]

    def test_peak_queue_depth_tracked(self):
        _, _, scheduler, _ = make_stack(
            SchedulerConfig(max_batch_size=3, max_wait_seconds=50.0)
        )
        submit_at(scheduler, [0.0, 0.1, 0.2, 0.3, 0.4])
        report = scheduler.drain()
        # Depth peaks at 3 right before the size-triggered flush.
        assert report.peak_queue_depth == 3


class TestServiceModel:
    def test_busy_worker_defers_dispatch(self):
        clock, _, scheduler, batches = make_stack(
            SchedulerConfig(
                max_batch_size=1, max_wait_seconds=0.0, batch_cost_seconds=5.0
            )
        )
        scheduler.submit(ScheduledRequest(query="first", arrival_seconds=0.0))
        scheduler.submit(ScheduledRequest(query="second", arrival_seconds=1.0))
        report = scheduler.drain()
        assert batches[0][0].dispatched_at == 0.0
        # The worker is busy until t=5; the second request queues 4s even
        # though its deadline (max_wait=0) fired at its arrival.
        assert batches[1][0].dispatched_at == 5.0
        assert report.queue_delays_seconds == [0.0, 4.0]
        assert clock.now() == 5.0

    def test_per_request_cost_scales_with_batch_size(self):
        clock, _, scheduler, _ = make_stack(
            SchedulerConfig(
                max_batch_size=4,
                max_wait_seconds=1.0,
                batch_cost_seconds=1.0,
                request_cost_seconds=0.5,
            )
        )
        submit_at(scheduler, [0.0, 0.0, 0.0, 0.0])
        scheduler.drain()
        # The 4th simultaneous arrival size-triggers one batch at t=0,
        # which costs 1.0 + 4*0.5 of virtual worker time.
        assert scheduler._busy_until == 3.0


class TestKindsAndRouting:
    def test_search_requests_go_end_to_end(self):
        _, pipeline, scheduler, batches = make_stack(
            SchedulerConfig(max_batch_size=2, max_wait_seconds=1.0),
            with_engine=True,
        )
        scheduler.submit(
            ScheduledRequest(query="red shoe", arrival_seconds=0.0, kind="search")
        )
        scheduler.submit(
            ScheduledRequest(query="blue shoe", arrival_seconds=0.1, kind="search")
        )
        scheduler.drain()
        outcomes = [c.outcome for c in batches[0]]
        assert all(isinstance(o, ServedSearch) for o in outcomes)
        assert outcomes[0].doc_ids == [1, 2]
        assert pipeline.stats.search_requests == 2

    def test_batches_are_homogeneous_per_kind(self):
        _, _, scheduler, batches = make_stack(
            SchedulerConfig(max_batch_size=4, max_wait_seconds=1.0),
            with_engine=True,
        )
        scheduler.submit(ScheduledRequest(query="a", arrival_seconds=0.0))
        scheduler.submit(
            ScheduledRequest(query="b", arrival_seconds=0.1, kind="search")
        )
        scheduler.submit(ScheduledRequest(query="c", arrival_seconds=0.2))
        scheduler.drain()
        for batch in batches:
            kinds = {c.request.kind for c in batch}
            assert len(kinds) == 1
        types = {type(c.outcome) for batch in batches for c in batch}
        assert types == {ServedRewrite, ServedSearch}

    def test_rewrites_flow_through_cache_tier(self):
        cache = RewriteCache()
        cache.put("cached query", ["precomputed"])
        _, pipeline, scheduler, batches = make_stack(
            SchedulerConfig(max_batch_size=2, max_wait_seconds=1.0), cache=cache
        )
        scheduler.submit(ScheduledRequest(query="cached query", arrival_seconds=0.0))
        scheduler.submit(ScheduledRequest(query="tail query", arrival_seconds=0.1))
        scheduler.drain()
        # The hit leaves alone at its arrival; the tail waits out its deadline.
        assert [
            [(c.request.query, c.dispatched_at, c.queue_delay_seconds) for c in batch]
            for batch in batches
        ] == [[("cached query", 0.0, 0.0)], [("tail query", 1.1, 1.0)]]
        by_query = {c.request.query: c.outcome for batch in batches for c in batch}
        assert by_query["cached query"].source == "cache"
        assert by_query["cached query"].rewrites == ["precomputed"]
        assert by_query["tail query"].source == "model"


class TestDeterminism:
    @staticmethod
    def run_once():
        rng = np.random.default_rng(123)
        config = SchedulerConfig(
            max_batch_size=4,
            max_wait_seconds=0.3,
            max_queue_depth=6,
            batch_cost_seconds=0.2,
            request_cost_seconds=0.01,
        )
        _, pipeline, scheduler, _ = make_stack(config, with_engine=True)
        t = 0.0
        for i in range(120):
            t += float(rng.exponential(0.04))
            scheduler.submit(
                ScheduledRequest(
                    query=f"q{int(rng.integers(0, 20))}",
                    arrival_seconds=t,
                    lane=int(rng.integers(0, 2)),
                    kind="search" if i % 7 == 0 else "rewrite",
                )
            )
        report = scheduler.drain()
        return report.fingerprint(), pipeline.counters()

    def test_same_trace_same_fingerprint_and_counters(self):
        first_fp, first_counters = self.run_once()
        second_fp, second_counters = self.run_once()
        assert first_fp == second_fp
        assert first_counters == second_counters
        # Overload is actually exercised: this trace sheds some requests.
        assert first_fp[1] > 0


class TestValidation:
    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            SchedulerConfig(max_wait_seconds=-1.0)
        with pytest.raises(ValueError):
            SchedulerConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            SchedulerConfig(num_lanes=0)
        with pytest.raises(ValueError):
            SchedulerConfig(batch_cost_seconds=-0.1)

    def test_rejects_bad_requests(self):
        _, _, scheduler, _ = make_stack(SchedulerConfig(num_lanes=2))
        # the zero-wait queue of cache hits is internal, not a kind
        assert REQUEST_KINDS == ("rewrite", "search")
        for kind in ("mystery", "hit"):
            with pytest.raises(ValueError):
                scheduler.submit(
                    ScheduledRequest(query="q", arrival_seconds=0.0, kind=kind)
                )
        with pytest.raises(ValueError):
            scheduler.submit(
                ScheduledRequest(query="q", arrival_seconds=0.0, lane=2)
            )
        scheduler.submit(ScheduledRequest(query="q", arrival_seconds=5.0))
        with pytest.raises(ValueError):
            scheduler.submit(ScheduledRequest(query="q", arrival_seconds=4.0))
        scheduler.drain()

    def test_empty_drain_is_a_noop(self):
        clock, _, scheduler, _ = make_stack(SchedulerConfig())
        report = scheduler.drain()
        assert report.batches == 0
        assert clock.now() == 0.0
        assert report.p95_queue_delay_seconds() == 0.0
        assert report.mean_batch_size() == 0.0


class TestShedCallback:
    """The ``on_shed`` half of the completion contract.

    Every submitted request triggers exactly one ``on_batch`` completion
    OR one ``on_shed`` notification — the property the gateway's
    future-per-request bridge is built on — and registering callbacks
    must not perturb the deterministic fingerprint."""

    def _stack_with_sheds(self, config):
        clock = VirtualClock()
        pipeline = ServingPipeline(
            None, EchoRewriter(), ServingConfig(max_rewrites=3)
        )
        batches, sheds = [], []
        scheduler = MicroBatchScheduler(
            pipeline, clock, config, on_batch=batches.append, on_shed=sheds.append
        )
        return scheduler, batches, sheds

    def test_arrival_shed_fires_once_with_the_arrival(self):
        scheduler, batches, sheds = self._stack_with_sheds(
            SchedulerConfig(
                max_batch_size=100, max_wait_seconds=50.0, max_queue_depth=2
            )
        )
        requests = [
            ScheduledRequest(query=f"q{i}", arrival_seconds=i * 0.1)
            for i in range(3)
        ]
        for request in requests:
            scheduler.submit(request)
        # the third arrival found the queue full of equal-priority work
        assert sheds == [requests[2]]
        scheduler.drain()
        assert sheds == [requests[2]]  # the drain sheds nothing further
        completed = [c.request for batch in batches for c in batch]
        assert completed == requests[:2]

    def test_eviction_fires_once_with_the_victim(self):
        scheduler, batches, sheds = self._stack_with_sheds(
            SchedulerConfig(
                max_batch_size=100,
                max_wait_seconds=50.0,
                max_queue_depth=2,
                num_lanes=2,
            )
        )
        low_old = ScheduledRequest(query="low old", arrival_seconds=0.0, lane=1)
        low_new = ScheduledRequest(query="low new", arrival_seconds=0.1, lane=1)
        high = ScheduledRequest(query="high", arrival_seconds=0.2, lane=0)
        for request in (low_old, low_new, high):
            scheduler.submit(request)
        assert sheds == [low_new]  # the youngest low-lane request
        scheduler.drain()
        completed = [c.request for batch in batches for c in batch]
        assert completed == [high, low_old]
        assert sheds == [low_new]

    def test_every_submission_completes_or_sheds_exactly_once(self):
        scheduler, batches, sheds = self._stack_with_sheds(
            SchedulerConfig(
                max_batch_size=4,
                max_wait_seconds=0.3,
                max_queue_depth=3,
                num_lanes=2,
            )
        )
        submitted = []
        for i in range(40):  # lanes + timing chosen to force both shed kinds
            request = ScheduledRequest(
                query=f"q{i % 5}", arrival_seconds=i * 0.01, lane=i % 2
            )
            submitted.append(request)
            scheduler.submit(request)
        scheduler.drain()
        completed = [c.request for batch in batches for c in batch]
        outcomes = completed + sheds
        assert len(outcomes) == len(submitted)
        # identity check, not equality: duplicate queries are distinct
        assert {id(r) for r in outcomes} == {id(r) for r in submitted}
        report = scheduler.report
        assert report.completed == len(completed)
        assert report.shed == len(sheds)

    def test_callbacks_do_not_change_the_fingerprint(self):
        def run(with_callbacks):
            clock = VirtualClock()
            pipeline = ServingPipeline(
                None, EchoRewriter(), ServingConfig(max_rewrites=3)
            )
            sink: list = []
            kwargs = (
                {"on_batch": sink.append, "on_shed": sink.append}
                if with_callbacks
                else {}
            )
            scheduler = MicroBatchScheduler(
                pipeline,
                clock,
                SchedulerConfig(
                    max_batch_size=4, max_wait_seconds=0.3, max_queue_depth=3
                ),
                **kwargs,
            )
            for i in range(30):
                scheduler.submit(
                    ScheduledRequest(query=f"q{i % 7}", arrival_seconds=i * 0.05)
                )
            return scheduler.drain().fingerprint()

        assert run(True) == run(False)


class FailingOnce(EchoRewriter):
    """Raises on its second ``rewrite`` call, then behaves."""

    def rewrite(self, query, k=3):
        if self.calls == 1:
            self.calls += 1
            raise RuntimeError("decoder fell over")
        return super().rewrite(query, k)


class TestFailedBatch:
    """A batch whose pipeline call raises is accounted, not lost."""

    CONFIG = SchedulerConfig(max_batch_size=3, max_wait_seconds=10.0)

    def _stack(self, **callbacks):
        pipeline = ServingPipeline(None, FailingOnce(), ServingConfig(max_rewrites=3))
        return pipeline, MicroBatchScheduler(
            pipeline, VirtualClock(), self.CONFIG, **callbacks
        )

    def test_each_request_fails_once_and_the_next_batch_is_served(self):
        batches, sheds, failures = [], [], []
        pipeline, scheduler = self._stack(
            on_batch=batches.append,
            on_shed=sheds.append,
            on_failed=lambda request, error: failures.append((request.query, error)),
        )
        # the third arrival fills the batch: its submit triggers the dispatch
        assert submit_at(scheduler, [0.1 * i for i in range(7)]) == [True] * 7
        report = scheduler.drain()
        assert [query for query, _ in failures] == ["query 0", "query 1", "query 2"]
        assert {str(error) for _, error in failures} == {"decoder fell over"}
        assert sheds == []
        assert [c.request.query for batch in batches for c in batch] == [
            f"query {i}" for i in range(3, 7)
        ]
        assert (report.admitted, report.completed, report.shed) == (7, 4, 3)
        assert report.shed_by_lane == [3, 0]
        assert report.batch_sizes == [3, 1]
        assert pipeline.stats.shed == 3 and scheduler.queue_depth == 0

    def test_without_a_callback_the_error_is_raised_after_accounting(self):
        pipeline, scheduler = self._stack()
        submit_at(scheduler, [0.0, 0.1])
        with pytest.raises(RuntimeError, match="decoder fell over"):
            scheduler.submit(ScheduledRequest(query="query 2", arrival_seconds=0.2))
        assert scheduler.queue_depth == 0
        assert (scheduler.report.admitted, scheduler.report.shed) == (3, 3)
        # the scheduler is still usable: nothing of the failed batch lingers
        submit_at(scheduler, [0.3])
        assert scheduler.drain().completed == 1


class TestWallClockDropIn:
    """A scheduler driven by explicit time is clock-implementation-blind.

    ``WallClock`` without any ``sync()`` calls must behave exactly like
    ``VirtualClock`` — arrivals advance the latch through ``submit`` and
    the fingerprints agree byte for byte."""

    def _run(self, clock):
        pipeline = ServingPipeline(
            None, EchoRewriter(), ServingConfig(max_rewrites=3)
        )
        scheduler = MicroBatchScheduler(
            pipeline,
            clock,
            SchedulerConfig(max_batch_size=8, max_wait_seconds=0.5),
        )
        for i in range(50):
            scheduler.submit(
                ScheduledRequest(query=f"q{i % 9}", arrival_seconds=i * 0.07)
            )
        return scheduler.drain().fingerprint(), pipeline.counters()

    def test_wall_clock_matches_virtual_clock_exactly(self):
        from repro.online import WallClock

        virtual_fp, virtual_counters = self._run(VirtualClock())
        wall_fp, wall_counters = self._run(WallClock())
        assert wall_fp == virtual_fp
        assert wall_counters == virtual_counters


class TestBookkeepingDifferential:
    """The O(1) pending counts against a recount of the lanes, and every
    decision against the digests recorded before the counts existed
    (``tests/golden_scheduler.py`` -> ``golden_scheduler_traces.json``)."""

    GOLDEN = json.loads(golden_scheduler.GOLDEN_PATH.read_text())

    def test_fixture_reaches_every_branch(self):
        assert set(self.GOLDEN) == set(golden_scheduler.TRACES)
        runs = {name: list(by_seed.values()) for name, by_seed in self.GOLDEN.items()}
        assert all(r["size_triggered"] > 20 for r in runs["size_triggered"])
        assert all(
            r["deadline_triggered"] > 100 and r["size_triggered"] == 0
            for r in runs["deadline_triggered"]
        )
        for r in runs["overloaded"]:  # victims in two lanes, and arrival sheds
            assert r["shed"] > 100 and all(r["shed_by_lane"])
            assert r["size_triggered"] and r["deadline_triggered"]
        for r in runs["failing_batches"]:
            assert r["failed"] > 50 and r["shed"] >= r["failed"]
        assert any(r["shed"] > r["failed"] for r in runs["failing_batches"])
        for miss, hit in zip(runs["cache_all_miss"], runs["cache_hits"]):
            assert miss["size_triggered"] and miss["deadline_triggered"] and miss["shed"]
            # hits leave in batches of their own, at their arrival
            assert hit["deadline_triggered"] > miss["deadline_triggered"]

    def test_the_all_miss_family_finds_expired_entries_and_no_hit(self):
        for seed in golden_scheduler.SEEDS:
            last: list = []
            golden_scheduler.run_trace("cache_all_miss", seed, after_operation=last.append)
            stats = last[-1].pipeline.cache.stats
            assert stats.hits == 0 and stats.expirations > 50

    @pytest.mark.parametrize("name", sorted(golden_scheduler.TRACES))
    @pytest.mark.parametrize("seed", golden_scheduler.SEEDS)
    def test_counts_match_a_recount_and_digests_match_golden(self, name, seed):
        operations = 0

        def recount(scheduler):
            nonlocal operations
            operations += 1
            per_queue = {
                queue: sum(len(lane.pending) for lane in lanes)
                for queue, lanes in scheduler._lanes.items()
            }
            # the zero-wait hits are rewrites still waiting to be served
            assert scheduler.pending_of("rewrite") == (
                per_queue["rewrite"] + per_queue["hit"]
            )
            assert scheduler.pending_of("search") == per_queue["search"]
            assert scheduler.queue_depth == sum(per_queue.values())
            assert scheduler.queue_depth <= scheduler.config.max_queue_depth

        record = golden_scheduler.run_trace(name, seed, after_operation=recount)
        assert operations == golden_scheduler.OPERATIONS + 1
        assert record == self.GOLDEN[name][str(seed)]

    def test_nothing_is_retained_once_a_batch_is_handed_over(self):
        retained = (CompletedRequest, ScheduledRequest, ServedRewrite, ServedSearch)

        def live() -> int:  # a delta, so another test's leftovers do not count
            gc.collect()
            return sum(isinstance(o, retained) for o in gc.get_objects())

        before = live()
        _, _, scheduler, batches = make_stack(
            SchedulerConfig(max_batch_size=4, max_wait_seconds=0.5), with_engine=True
        )
        for i in range(200):
            scheduler.submit(
                ScheduledRequest(
                    query=f"q{i}", arrival_seconds=0.01 * i,
                    kind="search" if i % 3 == 0 else "rewrite",
                )
            )
        assert scheduler.drain().completed == 200
        assert not hasattr(scheduler, "completed")
        assert live() >= before + 600
        batches.clear()  # the observer's copy was the only one
        assert live() == before


def cached(*queries, **cache_options):
    """A cache holding one precomputed rewrite for each of ``queries``."""
    cache = RewriteCache(**cache_options)
    for query in queries:
        cache.put(query, [f"{query} cached"])
    return cache


class TestZeroWaitHits:
    """A rewrite the cache already answers never waits on a batching
    deadline: when the clock moves past its arrival instant it is probed
    once and dispatched with the other hits of that instant."""

    def test_a_lone_hit_is_served_at_its_arrival(self):
        clock, _, scheduler, batches = make_stack(
            SchedulerConfig(max_batch_size=8, max_wait_seconds=1.0),
            cache=cached("head"),
        )
        scheduler.submit(ScheduledRequest(query="head", arrival_seconds=0.5))
        scheduler.advance_to(0.5)
        assert batches == []  # the instant is still open: more may arrive
        scheduler.advance_to(0.501)
        [[done]] = batches
        assert (done.dispatched_at, done.queue_delay_seconds, done.batch_size) == (
            0.5, 0.0, 1,
        )
        assert done.outcome.source == "cache"
        assert done.outcome.rewrites == ["head cached"]
        report = scheduler.drain()
        assert (report.deadline_triggered, report.size_triggered) == (1, 0)
        assert clock.now() == 0.501

    def test_the_hits_of_one_instant_ride_one_batch_capped_by_size(self):
        heads = [f"head {i}" for i in range(9)]
        _, _, scheduler, batches = make_stack(
            SchedulerConfig(
                max_batch_size=5, max_wait_seconds=10.0, batch_cost_seconds=1.0
            ),
            cache=cached(*heads),
        )
        submit_at(scheduler, [0.0])  # a miss: it waits for its deadline
        for query in heads[:3]:
            scheduler.submit(ScheduledRequest(query=query, arrival_seconds=0.1))
        scheduler.advance_to(0.2)
        # the instant's three hits, one batch, at their arrival; no miss joins
        assert [[c.request.query for c in batch] for batch in batches] == [heads[:3]]
        assert {c.queue_delay_seconds for c in batches[0]} == {0.0}
        # that batch holds the worker until 1.1, so the six hits of the next
        # instant queue up past the size cap
        for query in heads[3:]:
            scheduler.submit(ScheduledRequest(query=query, arrival_seconds=0.3))
        report = scheduler.drain()
        assert [[c.request.query for c in batch] for batch in batches[1:]] == [
            heads[3:8], heads[8:], ["query 0"]
        ]
        assert [batch[0].dispatched_at for batch in batches] == [0.1, 1.1, 2.1, 10.0]
        assert report.size_triggered == 1

    @pytest.mark.parametrize("name", ["size_triggered", "deadline_triggered"])
    @pytest.mark.parametrize("seed", [11, 12, 13, 21, 22])
    def test_hits_never_wait_and_the_rest_keep_the_deadline_bound(self, name, seed):
        config = golden_scheduler.TRACES[name][0]
        operations = golden_scheduler.trace_operations(name, seed)
        clock = VirtualClock()
        cache = golden_scheduler.build_cache("hits", seed, operations, clock)
        pipeline = ServingPipeline(
            cache, EchoRewriter(), ServingConfig(max_rewrites=3),
            search_engine=FakeEngine(),
        )
        done = []
        scheduler = MicroBatchScheduler(
            pipeline, clock, config, on_batch=done.extend
        )
        for operation in operations:
            if isinstance(operation, ScheduledRequest):
                scheduler.submit(operation)
            else:
                scheduler.advance_to(operation)
        report = scheduler.drain()
        assert report.shed == 0 and report.completed == len(done)
        hits = [
            c for c in done
            if c.request.kind == "rewrite" and c.outcome.source == "cache"
        ]
        assert len(hits) > 50
        assert {c.queue_delay_seconds for c in hits} == {0.0}
        assert all(
            c.queue_delay_seconds <= config.max_wait_seconds + 1e-12 for c in done
        )

    def test_an_expired_entry_waits_as_a_miss(self):
        clock, pipeline, scheduler, batches = make_stack(
            SchedulerConfig(max_batch_size=8, max_wait_seconds=1.0)
        )
        pipeline.cache = cached("head", ttl_seconds=1.0, clock=clock.now)
        scheduler.submit(ScheduledRequest(query="head", arrival_seconds=2.0))
        scheduler.advance_to(2.5)
        assert batches == []
        # the probe collected the dead entry and counted neither hit nor miss
        stats = pipeline.cache.stats
        assert (stats.hits, stats.misses, stats.expirations) == (0, 0, 1)
        scheduler.drain()
        [[done]] = batches
        assert (done.dispatched_at, done.queue_delay_seconds) == (3.0, 1.0)
        assert done.outcome.source == "model"
        assert (stats.hits, stats.misses, stats.expirations) == (0, 1, 1)

    def test_a_pending_hit_can_be_the_shed_victim(self):
        clock = VirtualClock()
        pipeline = ServingPipeline(
            cached("warm", "head"), EchoRewriter(), ServingConfig(max_rewrites=3)
        )
        batches, sheds = [], []
        scheduler = MicroBatchScheduler(
            pipeline,
            clock,
            SchedulerConfig(
                max_batch_size=8, max_wait_seconds=10.0, max_queue_depth=2,
                num_lanes=2, batch_cost_seconds=5.0,
            ),
            on_batch=batches.append,
            on_shed=sheds.append,
        )
        arrivals = [("warm", 0.0, 0), ("tail", 0.2, 1), ("head", 0.3, 1)]
        for query, t, lane in arrivals:
            scheduler.submit(ScheduledRequest(query=query, arrival_seconds=t, lane=lane))
        # "warm" went at 0.0 and holds the worker until 5.0; the urgent
        # arrival closes the 0.3 instant and finds the queue full
        urgent = ScheduledRequest(query="urgent", arrival_seconds=0.4)
        assert scheduler.submit(urgent)
        assert [request.query for request in sheds] == ["head"]
        report = scheduler.drain()
        assert report.admitted == report.completed + report.shed == 4
        served = [c.request.query for batch in batches for c in batch]
        assert served == ["warm", "urgent", "tail"]


class TestProbeWork:
    """The probe is paid only where it can save a wait: never for a
    request the size trigger already dispatched, at most once per
    admitted rewrite, and never for a search."""

    @pytest.fixture
    def probes(self, monkeypatch):
        probed: list[str] = []
        contains = RewriteCache.__contains__

        def counting(cache, query):
            probed.append(query)
            return contains(cache, query)

        monkeypatch.setattr(RewriteCache, "__contains__", counting)
        return probed

    def test_full_instants_make_no_probes(self, probes):
        heads = [f"head {i}" for i in range(40)]
        _, _, scheduler, _ = make_stack(
            SchedulerConfig(max_batch_size=16, max_wait_seconds=0.002),
            cache=cached(*heads),
        )
        for instant in range(200):
            for i in range(16):
                scheduler.submit(
                    ScheduledRequest(
                        query=heads[(instant + i) % 40], arrival_seconds=instant * 0.01
                    )
                )
        report = scheduler.drain()
        assert probes == []
        assert (report.batches, report.size_triggered) == (200, 200)
        assert report.batch_sizes == [16] * 200

    def test_single_request_instants_make_one_probe_each(self, probes):
        _, _, scheduler, _ = make_stack(
            SchedulerConfig(max_batch_size=16, max_wait_seconds=0.002),
            cache=cached("head"),
        )
        queries = ["head" if i % 2 else f"tail {i}" for i in range(200)]
        for i, query in enumerate(queries):
            scheduler.submit(ScheduledRequest(query=query, arrival_seconds=i * 0.001))
        scheduler.drain()
        assert probes == queries

    @pytest.mark.parametrize("seed", golden_scheduler.SEEDS)
    def test_at_most_one_probe_per_admitted_rewrite(self, probes, seed):
        operations = iter(golden_scheduler.trace_operations("cache_hits", seed))
        admitted_rewrites: set[str] = set()
        admitted = 0

        def track(scheduler):  # runs after every operation, in order
            nonlocal admitted
            operation = next(operations, None)
            if scheduler.report.admitted > admitted:
                admitted = scheduler.report.admitted
                if operation.kind == "rewrite":
                    admitted_rewrites.add(operation.query)

        golden_scheduler.run_trace("cache_hits", seed, after_operation=track)
        assert len(probes) == len(set(probes)) > 100  # queries are unique
        assert set(probes) <= admitted_rewrites
