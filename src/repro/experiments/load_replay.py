"""Load replay through the micro-batch scheduler: model calls vs p95 delay.

Every serving benchmark so far hand-formed its batches; this one feeds
the serving tier the way production does — single requests arriving on a
Poisson clock — and lets the
:class:`~repro.online.scheduler.MicroBatchScheduler` form the batches.
One arrival trace (head-skewed traffic + catalog churn, from
:meth:`~repro.online.replay.TrafficReplay.arrival_trace`) is replayed through
identical two-tier stacks (bounded cache + untrained-hybrid
``DirectRewriter`` + sharded retrieval) under a sweep of batch policies:

* **serial** — ``max_batch_size=1``: every request pays its own model
  decode, the no-scheduler baseline;
* **micro-N** — dynamic micro-batches under ``max_batch_size=N`` /
  ``max_wait`` so cache misses share one stacked decode; larger N saves
  model calls at (bounded) queueing delay;
* **overload** — a deliberately slow virtual worker behind a short
  queue, showing admission control shedding load instead of letting the
  queue (and delays) grow without bound.

The claims under test (``benchmarks/test_load_replay.py``): micro-
batching stacks the cache misses into few model calls — more than four
misses per ``rewrite_batch`` call at micro-32, and at most a quarter of
the serial arm's calls — p95 *virtual* queueing delay stays under each
policy's ``max_wait`` bound whenever the worker keeps up, only the
overload arm sheds, and two replays of the same seed produce
byte-identical deterministic counters
(:meth:`~repro.core.serving.ServingStats.counters` and the scheduler
fingerprint).  Every number here is a count or a virtual-clock reading;
wall-clock throughput is ``bench/``'s to measure.

The fallback model is untrained — decode cost per token matches a
trained one, and scheduling is a property of the serving machinery, not
model quality.
"""

from __future__ import annotations

from repro.core import DirectRewriter, RewriteCache, RewriterConfig, ServingConfig, ServingPipeline
from repro.data.catalog import CatalogConfig, CatalogGenerator
from repro.data.clicklog import ClickLogConfig
from repro.data.marketplace import MarketplaceConfig, generate_marketplace
from repro.experiments.rendering import ascii_table
from repro.experiments.result import ExperimentResult
from repro.experiments.scale import ExperimentScale, SMALL
from repro.models import HybridNMT, ModelConfig
from repro.online import SchedulerConfig, VirtualClock
from repro.online.replay import ReplayConfig, ReplayReport, TrafficReplay
from repro.search import SearchConfig, ShardedSearchEngine

#: catalog/traffic shape — a serving-layer workload, independent of
#: ExperimentScale (only the seed comes from the scale preset)
PRODUCTS_PER_CATEGORY = 30
NUM_SESSIONS = 1_500
NUM_REQUESTS = 2_000
CHURN_EVERY = 500
#: mean inter-arrival gap of the Poisson trace (100 req/s of virtual time)
SECONDS_PER_REQUEST = 0.01
#: deliberately small head + undersized cache: the model tier must absorb
#: a real miss stream, which is where batching pays
HEAD_FRACTION = 0.25
#: cache tier and retrieval fan-out
CACHE_SHARDS = 4
NUM_SHARDS = 4
TOP_K = 20
MAX_REWRITES = 3

#: the batch-policy sweep; (key, label, SchedulerConfig)
POLICIES: list[tuple[str, str, SchedulerConfig]] = [
    (
        "serial",
        "B=1 (no batching)",
        SchedulerConfig(max_batch_size=1, max_wait_seconds=0.0),
    ),
    (
        "micro8",
        "B≤8, wait≤0.25s",
        SchedulerConfig(max_batch_size=8, max_wait_seconds=0.25),
    ),
    (
        "micro32",
        "B≤32, wait≤0.5s",
        SchedulerConfig(max_batch_size=32, max_wait_seconds=0.5),
    ),
    (
        "micro64",
        "B≤64, wait≤1.0s",
        SchedulerConfig(max_batch_size=64, max_wait_seconds=1.0),
    ),
    (
        "overload",
        "B≤32, slow worker, queue≤48",
        SchedulerConfig(
            max_batch_size=32,
            max_wait_seconds=0.5,
            max_queue_depth=48,
            batch_cost_seconds=1.5,
            request_cost_seconds=0.01,
        ),
    ),
]


def _build_workload(scale: ExperimentScale):
    """One marketplace (for the vocab + click log) and the shared replay.

    A sub-1.0 ``workload_factor`` (the TINY smoke preset) shrinks the
    stream; at 1.0 this is the acceptance workload of
    ``benchmarks/test_load_replay.py``."""
    market = generate_marketplace(
        MarketplaceConfig(
            catalog=CatalogConfig(products_per_category=PRODUCTS_PER_CATEGORY),
            clicks=ClickLogConfig(
                num_sessions=scale.scaled(NUM_SESSIONS, 400),
                intent_pool_size=250,
            ),
            seed=scale.seed,
        )
    )
    # Same CatalogConfig (and seed) the marketplace catalog was generated
    # from, so every arm's `generator.generate()` catalog copy matches the
    # click log's product universe and the schedule's removal targets.
    generator = CatalogGenerator(market.config.catalog)
    num_requests = scale.scaled(NUM_REQUESTS, 300)
    replay = TrafficReplay(
        market.click_log,
        generator,
        ReplayConfig(
            num_requests=num_requests,
            churn_every=scale.scaled(CHURN_EVERY, 100),
            head_fraction=HEAD_FRACTION,
            seconds_per_request=SECONDS_PER_REQUEST,
            seed=scale.seed,
        ),
    )
    return market, generator, replay


def _run_arm(
    market,
    generator: CatalogGenerator,
    replay: TrafficReplay,
    scale: ExperimentScale,
    policy: SchedulerConfig,
) -> tuple[ReplayReport, dict[str, int]]:
    """A fresh serving stack replaying the shared trace under one policy.

    Returns the replay report and the model tier's batched decodes:
    ``{"calls": rewrite_batch calls, "misses": queries they decoded}``.
    """
    model = HybridNMT(
        ModelConfig(
            vocab_size=len(market.vocab),
            d_model=32,
            num_heads=4,
            d_ff=64,
            encoder_layers=1,
            decoder_layers=1,
            dropout=0.0,
            seed=scale.seed,
        )
    )
    model.eval()
    fallback = DirectRewriter(
        model,
        market.vocab,
        RewriterConfig(k=MAX_REWRITES, top_n=5, max_query_len=10, seed=scale.seed),
    )
    engine = ShardedSearchEngine(
        generator.generate(),
        SearchConfig(max_candidates=TOP_K, ranker="bm25"),
        num_shards=NUM_SHARDS,
        parallel=False,
    )
    clock = VirtualClock()
    head = replay.head_queries()
    # Undersized on purpose: only part of the head fits, so write-backs
    # keep LRU pressure on and the tail faults through the model tier.
    capacity = max(CACHE_SHARDS, len(head) // 2)
    cache = RewriteCache(capacity=capacity, shards=CACHE_SHARDS, clock=clock.now)
    cache.populate(fallback, list(head), k=MAX_REWRITES)
    decodes = {"calls": 0, "misses": 0}
    rewrite_batch = fallback.rewrite_batch

    def counted_rewrite_batch(queries, k):
        decodes["calls"] += 1
        decodes["misses"] += len(queries)
        return rewrite_batch(queries, k=k)

    fallback.rewrite_batch = counted_rewrite_batch
    pipeline = ServingPipeline(
        cache,
        fallback,
        ServingConfig(max_rewrites=MAX_REWRITES, cache_model_results=True),
        search_engine=engine,
    )
    try:
        return replay.run_scheduled(pipeline, clock, policy), decodes
    finally:
        engine.close()


def run(scale: ExperimentScale = SMALL) -> ExperimentResult:
    market, generator, replay = _build_workload(scale)
    num_requests = replay.config.num_requests

    # The full policy sweep, one arm per policy on fresh stacks.
    reports: dict[str, ReplayReport] = {}
    decodes: dict[str, dict[str, int]] = {}
    for key, _, policy in POLICIES:
        reports[key], decodes[key] = _run_arm(market, generator, replay, scale, policy)

    # Determinism: a second replay of the micro-32 arm on a fresh stack
    # must reproduce every deterministic counter byte for byte.
    rerun, _ = _run_arm(
        market,
        generator,
        replay,
        scale,
        next(p for k, _, p in POLICIES if k == "micro32"),
    )
    first = reports["micro32"]
    deterministic = rerun.scheduler.fingerprint() == first.scheduler.fingerprint()
    deterministic = deterministic and all(
        rerun.counters[key] == first.counters[key]
        for key in ("cache_served", "model_served", "unserved")
    )

    measured: dict[str, object] = {
        "requests": num_requests,
        "churn_events": reports["serial"].churn_events,
        "head_queries": len(replay.head_queries()),
        "deterministic": deterministic,
    }
    for key, _, policy in POLICIES:
        report = reports[key]
        sched = report.scheduler
        measured[f"{key}_completed"] = sched.completed
        measured[f"{key}_shed"] = sched.shed
        measured[f"{key}_batches"] = sched.batches
        measured[f"{key}_mean_batch"] = sched.mean_batch_size()
        measured[f"{key}_model_calls"] = decodes[key]["calls"]
        measured[f"{key}_misses_per_model_call"] = decodes[key]["misses"] / max(
            1, decodes[key]["calls"]
        )
        measured[f"{key}_p95_queue_delay_s"] = sched.p95_queue_delay_seconds()
        measured[f"{key}_max_queue_delay_s"] = (
            max(sched.queue_delays_seconds) if sched.queue_delays_seconds else 0.0
        )
        measured[f"{key}_max_wait_s"] = policy.max_wait_seconds
        measured[f"{key}_peak_queue_depth"] = sched.peak_queue_depth
        measured[f"{key}_hit_rate"] = report.stats.lifetime_hit_rate
        measured[f"{key}_dead_doc_hits"] = report.dead_doc_hits

    rows = []
    for key, label, policy in POLICIES:
        report = reports[key]
        sched = report.scheduler
        rows.append(
            [
                label,
                f"{decodes[key]['calls']}",
                f"{sched.p95_queue_delay_seconds() * 1000:.0f} ms",
                f"{sched.mean_batch_size():.1f}",
                f"{measured[f'{key}_misses_per_model_call']:.1f}",
                f"{sched.shed}",
            ]
        )
    rendered = ascii_table(
        [
            "policy",
            "model calls",
            "p95 queue delay (virtual)",
            "mean batch",
            "misses / model call",
            "shed",
        ],
        rows,
        float_format="{:.3f}",
    )
    return ExperimentResult(
        experiment_id="load_replay",
        title="Micro-batch scheduling under load (model calls vs queueing delay)",
        measured=measured,
        paper={
            "claim": "the serving tier absorbs bursty single-request traffic",
            "setting": "Section III-G deployment behind a batching scheduler",
        },
        rendered=rendered,
        notes=(
            "One Poisson arrival trace (head-skewed + churn) replayed under "
            "each batch policy on identical fresh stacks; virtual-clock "
            "scheduling makes every counter reproducible.  Larger "
            "micro-batches stack more misses into each model call at "
            "bounded queueing delay; the overload arm shows backpressure "
            "shedding instead of unbounded queues."
        ),
    )
