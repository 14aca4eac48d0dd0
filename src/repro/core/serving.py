"""Online serving pipeline (paper Section III-G).

Two tiers, as deployed at JD:

1. **Cache tier** — head queries hit the precomputed key-value store
   (paper: <5 ms, >80% of traffic).
2. **Model tier** — long-tail queries fall through to a fast direct
   query-to-query model (the hybrid transformer-encoder/RNN-decoder, about
   30 ms on a 32-core CPU in the paper).

Two serving modes:

* :meth:`ServingPipeline.serve` — one request at a time, the seed path.
* :meth:`ServingPipeline.serve_batch` — the throughput path: a batch of
  requests is partitioned into cache hits and model-tier misses, and all
  misses are decoded in **one** batched model pass (``rewrite_batch``),
  so the per-call model overhead is paid once per batch instead of once
  per miss.

The pipeline measures wall-clock latency per request and keeps per-tier
counters, so the cache-coverage / latency tradeoff of Section III-G can be
reproduced quantitatively.  When the cache tier is bounded
(:class:`~repro.core.cache.RewriteCache` with a capacity), its eviction
count, fill ratio, and per-shard occupancy are mirrored into
:class:`ServingStats` after every serve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.core.cache import RewriteCache
from repro.text import tokenize


@dataclass
class ServingConfig:
    """Serving knobs (paper: at most 3 rewrites per query)."""

    max_rewrites: int = 3
    #: soft latency budget in ms (the paper's backend budget is ~50 ms);
    #: requests are not cut off, but breaches are counted.
    latency_budget_ms: float = 50.0
    #: write model-tier results back into the cache tier, so repeated tail
    #: queries promote themselves into the key-value store (the bounded
    #: LRU cache then evicts whatever went cold).
    cache_model_results: bool = False


@dataclass
class ServedRewrite:
    """Outcome of one serving request.

    For requests served through :meth:`ServingPipeline.serve_batch`,
    ``latency_ms`` of model-tier requests is the batch's model time
    amortized evenly over its misses (plus the request's own cache-lookup
    time); the batch decode is shared work with no meaningful per-request
    attribution.
    """

    query: str
    rewrites: list[str]
    source: str  # "cache" | "model" | "none"
    latency_ms: float


@dataclass
class ServedSearch:
    """Outcome of one end-to-end request: rewrite tiers plus retrieval.

    ``latency_ms`` covers the whole request (cache lookup, amortized
    model decode if any, and the retrieval fan-out — amortized evenly
    over the requests that shared one ``search_many`` call)."""

    served: ServedRewrite
    doc_ids: list[int]
    postings_accessed: int
    latency_ms: float

    @property
    def query(self) -> str:
        return self.served.query

    @property
    def rewrites(self) -> list[str]:
        return self.served.rewrites


@dataclass
class ServingStats:
    cache_served: int = 0
    model_served: int = 0
    unserved: int = 0
    budget_breaches: int = 0
    batches: int = 0
    #: requests accepted into a scheduler's queue (0 when no scheduler
    #: fronts the pipeline; see :mod:`repro.online.scheduler`)
    admitted: int = 0
    #: requests rejected by scheduler admission control (load shedding)
    shed: int = 0
    #: end-to-end retrievals performed through :meth:`ServingPipeline.search_batch`
    search_requests: int = 0
    #: cumulative postings touched by those retrievals (paper's CPU-cost proxy)
    search_postings_accessed: int = 0
    #: retrievals per mode ("lexical" | "semantic" | "hybrid")
    search_by_mode: dict = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)
    #: cache-tier gauges, mirrored from the bounded cache after each serve
    cache_evictions: int = 0
    cache_expirations: int = 0
    cache_fill_ratio: float = 0.0
    cache_shard_occupancy: list[int] = field(default_factory=list)
    #: cluster-tier gauges, mirrored from the engine's shard backend
    #: after each retrieval batch ("" / zeros when the engine has no
    #: backend; see :mod:`repro.cluster`)
    search_backend: str = ""
    failovers: int = 0
    rerouted_requests: int = 0
    #: model-tier decode gauges, mirrored from the fallback rewriter's
    #: model after each serve (zeros without a neural fallback):
    #: cumulative ``step`` calls and rows stepped.  With active-row
    #: compaction ``decode_rows`` grows slower than steps × batch width —
    #: the visible work saving.  Deliberately NOT part of
    #: :meth:`counters`: the replay digests pin that dict's exact shape,
    #: and these are work accounting, not request accounting.
    decode_steps: int = 0
    decode_rows: int = 0

    @property
    def total(self) -> int:
        return self.cache_served + self.model_served + self.unserved

    def counters(self) -> dict:
        """The deterministic projection of these stats.

        Everything except wall-clock-derived values (the latency samples
        and the budget breaches computed from them): two replays of the
        same virtual-clocked schedule must agree on this dict exactly,
        which is what the load-replay determinism acceptance compares.
        """
        return {
            "cache_served": self.cache_served,
            "model_served": self.model_served,
            "unserved": self.unserved,
            "batches": self.batches,
            "admitted": self.admitted,
            "shed": self.shed,
            "search_requests": self.search_requests,
            "search_postings_accessed": self.search_postings_accessed,
            "search_by_mode": dict(self.search_by_mode),
            "cache_evictions": self.cache_evictions,
            "cache_expirations": self.cache_expirations,
            "cache_fill_ratio": self.cache_fill_ratio,
            "cache_shard_occupancy": list(self.cache_shard_occupancy),
            "search_backend": self.search_backend,
            "failovers": self.failovers,
            "rerouted_requests": self.rerouted_requests,
        }

    def mean_latency_ms(self) -> float:
        return sum(self.latencies_ms) / len(self.latencies_ms) if self.latencies_ms else 0.0

    def percentile_latency_ms(self, q: float) -> float:
        """Nearest-rank percentile: the ``ceil(q·n)``-th smallest latency."""
        if not (0.0 < q <= 1.0):
            raise ValueError("q must be in (0, 1]")
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        return ordered[math.ceil(q * len(ordered)) - 1]

    def p50_latency_ms(self) -> float:
        return self.percentile_latency_ms(0.50)

    def p95_latency_ms(self) -> float:
        return self.percentile_latency_ms(0.95)

    def p99_latency_ms(self) -> float:
        return self.percentile_latency_ms(0.99)


def sum_counters(stats_list) -> dict:
    """Sum the *additive* deterministic counters of several
    :class:`ServingStats` — the global view over per-tenant pipelines.

    Multi-tenant drivers pin "per-tenant counters sum to global" as an
    isolation invariant; this is the canonical summation, covering every
    integer counter of :meth:`ServingStats.counters` plus the per-mode
    retrieval tally (dict-merged).  Non-additive gauges (fill ratio,
    shard occupancy) are deliberately excluded — they describe one
    physical cache, not a sum.
    """
    total = {
        "cache_served": 0,
        "model_served": 0,
        "unserved": 0,
        "batches": 0,
        "admitted": 0,
        "shed": 0,
        "search_requests": 0,
        "search_postings_accessed": 0,
        "cache_evictions": 0,
        "cache_expirations": 0,
        "failovers": 0,
        "rerouted_requests": 0,
        "search_by_mode": {},
    }
    for stats in stats_list:
        counters = stats.counters()
        for key in total:
            if key == "search_by_mode":
                for mode, count in counters["search_by_mode"].items():
                    total["search_by_mode"][mode] = (
                        total["search_by_mode"].get(mode, 0) + count
                    )
            else:
                total[key] += counters[key]
    return total


class ServingPipeline:
    """Cache-first, model-fallback rewrite serving."""

    def __init__(
        self,
        cache: RewriteCache | None,
        fallback_rewriter,
        config: ServingConfig | None = None,
        search_engine=None,
        *,
        tenant: str | None = None,
    ):
        """``fallback_rewriter`` is any object with
        ``rewrite(query, k) -> list[RewriteResult]`` (typically a
        :class:`~repro.core.rewriter.DirectRewriter` over a hybrid model);
        pass None to serve cache-only.  ``serve_batch`` additionally uses
        ``rewrite_batch(queries, k)`` when the rewriter provides it.

        ``search_engine`` is any object with ``search(query, rewrites) ->
        SearchOutcome`` (a :class:`~repro.search.SearchEngine` or
        :class:`~repro.search.ShardedSearchEngine`); it enables
        :meth:`search_batch`, the end-to-end rewrite-then-retrieve path,
        which additionally uses ``search_many([(query, rewrites), ...])``
        when the engine provides it.

        ``tenant`` names the marketplace this pipeline serves in a
        multi-tenant deployment (``repro.online.scenarios``); it is a
        label for telemetry/aggregation only and changes no behaviour."""
        self.cache = cache
        self.fallback = fallback_rewriter
        self.config = config or ServingConfig()
        self.search_engine = search_engine
        self.tenant = tenant
        self.stats = ServingStats()

    def close(self) -> None:
        """Release the retrieval engine's worker resources, if any.

        Engines with a shard backend (thread pools, worker processes)
        expose ``close()``; plain engines and cache-only pipelines make
        this a no-op.  The gateway and the experiment harnesses call it
        on shutdown so a pipeline owns its stack's lifecycle end to end.
        """
        engine = self.search_engine
        if engine is not None and callable(getattr(engine, "close", None)):
            engine.close()

    def __enter__(self) -> "ServingPipeline":
        """Context-manager support: ``with ServingPipeline(...) as p:``."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the underlying engine on scope exit."""
        self.close()

    # -- internal ------------------------------------------------------------
    def _lookup_cache(self, query: str) -> list[str] | None:
        """None on a cache *miss*; the (truncated) rewrite list on a hit.

        The distinction matters: a hit whose list truncates to empty
        (``max_rewrites=0``, or an empty list stored directly) is still an
        authoritative cache answer — "no rewrites for this query" — and
        must not be re-decoded through the model tier on every request.
        Callers therefore test ``is not None``, never truthiness.
        """
        if self.cache is None:
            return None
        cached = self.cache.get(query)
        if cached is None:
            return None
        return cached[: self.config.max_rewrites]

    def _record(self, source: str, latency_ms: float) -> None:
        self.stats.latencies_ms.append(latency_ms)
        if latency_ms > self.config.latency_budget_ms:
            self.stats.budget_breaches += 1
        if source == "cache":
            self.stats.cache_served += 1
        elif source == "model":
            self.stats.model_served += 1
        else:
            self.stats.unserved += 1

    def _writeback(self, query: str, rewrites: list[str]) -> None:
        if self.config.cache_model_results and self.cache is not None and rewrites:
            self.cache.put(query, rewrites)

    def _sync_cache_gauges(self) -> None:
        # O(shards) per call — negligible next to a model decode, and it
        # keeps ServingStats a plain value object with no cache backref.
        if self.cache is None:
            return
        self.stats.cache_evictions = self.cache.stats.evictions
        self.stats.cache_expirations = self.cache.stats.expirations
        self.stats.cache_fill_ratio = self.cache.fill_ratio
        self.stats.cache_shard_occupancy = self.cache.shard_occupancy()

    def _sync_decode_gauges(self) -> None:
        # Any fallback exposing a `model` with decode telemetry (every
        # Seq2SeqModel) is sampled; rule-based fallbacks have neither
        # attribute and leave the gauges at zero.
        model = getattr(self.fallback, "model", None)
        if model is None:
            return
        self.stats.decode_steps = int(getattr(model, "decode_steps", 0))
        self.stats.decode_rows = int(getattr(model, "decode_rows", 0))

    # -- serving -------------------------------------------------------------
    def serve(self, query: str) -> ServedRewrite:
        """Serve one request, recording tier and latency."""
        started = time.perf_counter()
        rewrites = self._lookup_cache(query)
        source = "cache" if rewrites is not None else "none"

        if rewrites is None and self.fallback is not None:
            results = self.fallback.rewrite(query, k=self.config.max_rewrites)
            rewrites = [r.text for r in results]
            if rewrites:
                source = "model"
                self._writeback(query, rewrites)

        latency_ms = (time.perf_counter() - started) * 1000.0
        self._record(source, latency_ms)
        self._sync_cache_gauges()
        self._sync_decode_gauges()
        return ServedRewrite(
            query=query, rewrites=rewrites or [], source=source, latency_ms=latency_ms
        )

    def serve_batch(self, queries: list[str]) -> list[ServedRewrite]:
        """Serve a batch of requests with one batched model-tier decode.

        The batch is partitioned into cache hits and misses; all misses go
        through the fallback's ``rewrite_batch`` in a single stacked decode
        (falling back to per-query ``rewrite`` for rewriters without batch
        support).  Results come back in request order, and tier counters
        account every request exactly once (hit, model, or unserved).
        """
        results: list[ServedRewrite | None] = [None] * len(queries)
        lookup_ms = [0.0] * len(queries)
        misses: list[int] = []

        for i, query in enumerate(queries):
            started = time.perf_counter()
            rewrites = self._lookup_cache(query)
            lookup_ms[i] = (time.perf_counter() - started) * 1000.0
            if rewrites is not None:
                results[i] = ServedRewrite(
                    query=query, rewrites=rewrites, source="cache",
                    latency_ms=lookup_ms[i],
                )
            else:
                misses.append(i)

        if misses and self.fallback is not None:
            miss_queries = [queries[i] for i in misses]
            started = time.perf_counter()
            if hasattr(self.fallback, "rewrite_batch"):
                batched = self.fallback.rewrite_batch(
                    miss_queries, k=self.config.max_rewrites
                )
            else:
                batched = [
                    self.fallback.rewrite(q, k=self.config.max_rewrites)
                    for q in miss_queries
                ]
            model_ms = (time.perf_counter() - started) * 1000.0
            amortized_ms = model_ms / len(misses)
            for i, rewrite_results in zip(misses, batched):
                rewrites = [r.text for r in rewrite_results]
                source = "model" if rewrites else "none"
                if rewrites:
                    self._writeback(queries[i], rewrites)
                results[i] = ServedRewrite(
                    query=queries[i], rewrites=rewrites, source=source,
                    latency_ms=lookup_ms[i] + amortized_ms,
                )
        else:
            for i in misses:
                results[i] = ServedRewrite(
                    query=queries[i], rewrites=[], source="none",
                    latency_ms=lookup_ms[i],
                )

        for served in results:
            self._record(served.source, served.latency_ms)
        if queries:
            self.stats.batches += 1
        self._sync_cache_gauges()
        self._sync_decode_gauges()
        return results

    def _resolve_modes(
        self, queries: list[str], modes: str | list[str | None] | None
    ) -> list[str | None]:
        """Validate per-request retrieval modes against the engine.

        ``modes`` is ``None`` (engine default for every request), one
        mode string for the whole batch, or a per-request list (``None``
        entries fall back to the engine default).  Engines advertise what
        they accept through a ``retrieval_modes`` attribute; an engine
        without one is lexical-only, so only ``None``/``"lexical"`` pass.
        """
        if modes is None:
            per_request: list[str | None] = [None] * len(queries)
        elif isinstance(modes, str):
            per_request = [modes] * len(queries)
        else:
            per_request = list(modes)
            if len(per_request) != len(queries):
                raise ValueError(
                    f"got {len(per_request)} modes for {len(queries)} queries"
                )
        supported = getattr(self.search_engine, "retrieval_modes", ("lexical",))
        for mode in per_request:
            if mode is not None and mode not in supported:
                raise ValueError(
                    f"retrieval mode {mode!r} not supported by "
                    f"{type(self.search_engine).__name__}; "
                    f"available: {', '.join(supported)}"
                )
        return per_request

    def search_batch(
        self,
        queries: list[str],
        modes: str | list[str | None] | None = None,
    ) -> list[ServedSearch]:
        """Serve a batch end to end: rewrite tiers, then retrieval.

        ``serve_batch`` produces each request's rewrites (cache tier or
        one stacked model decode), and every request is then retrieved
        through the configured search engine as ``original query +
        rewrites`` — the Section III-H merged-tree path.  Queries that
        tokenize to nothing and produced no rewrites come back with an
        empty candidate list instead of failing the batch.  Every request
        that would be a plain ``search(query, rewrites)`` goes to the
        engine's ``search_many`` in ONE call when it has that method (one
        round trip per shard for the micro-batch); engines with only
        ``search`` are called once per request.

        ``modes`` selects the retrieval mode per request (``"lexical" |
        "semantic" | "hybrid"``) for engines that support modes (a
        :class:`~repro.search.hybrid.HybridSearchEngine`); omit it to use
        each engine's default.  Mode usage is tallied in
        ``ServingStats.search_by_mode``.
        """
        if self.search_engine is None:
            raise ValueError(
                "search_batch needs a search engine; construct the pipeline "
                "with search_engine=SearchEngine(catalog) or a ShardedSearchEngine"
            )
        per_request = self._resolve_modes(queries, modes)
        served_batch = self.serve_batch(queries)
        engine = self.search_engine
        # Mode-less engines take no ``mode`` kwarg; _resolve_modes already
        # guaranteed their requests are lexical-or-default.
        modeless = not hasattr(engine, "retrieval_modes")
        batched = hasattr(engine, "search_many")
        outcomes: list = [None] * len(queries)
        retrieval_ms = [0.0] * len(queries)
        together: list[int] = []
        for i, (served, mode) in enumerate(zip(served_batch, per_request)):
            started = time.perf_counter()
            # Only search when something actually tokenizes: a rewrite list
            # of punctuation-only strings must not fail the whole batch.
            # Short-circuits on the query, so the common case pays one
            # extra tokenize and never touches the rewrites.
            if tokenize(served.query) or any(tokenize(r) for r in served.rewrites):
                if mode is not None and not modeless:
                    outcomes[i] = engine.search(
                        served.query, served.rewrites, mode=mode
                    )
                elif batched:
                    together.append(i)
                else:
                    outcomes[i] = engine.search(served.query, served.rewrites)
            retrieval_ms[i] = (time.perf_counter() - started) * 1000.0
        if together:
            # One engine call for the micro-batch; its time is shared work,
            # amortized evenly like serve_batch's stacked decode.
            started = time.perf_counter()
            found = engine.search_many(
                [(served_batch[i].query, served_batch[i].rewrites) for i in together]
            )
            amortized_ms = (time.perf_counter() - started) * 1000.0 / len(together)
            for i, outcome in zip(together, found):
                outcomes[i] = outcome
                retrieval_ms[i] += amortized_ms
        results: list[ServedSearch] = []
        for served, mode, outcome, spent_ms in zip(
            served_batch, per_request, outcomes, retrieval_ms
        ):
            if outcome is not None:
                doc_ids = outcome.doc_ids
                postings = outcome.postings_accessed
                used_mode = getattr(outcome, "mode", "lexical")
            else:
                doc_ids = []
                postings = 0
                # No retrieval ran, so tally under the mode that WOULD
                # have served the request: the explicit one, else the
                # engine's advertised default.
                used_mode = mode or getattr(engine, "default_mode", "lexical")
            self.stats.search_requests += 1
            self.stats.search_postings_accessed += postings
            self.stats.search_by_mode[used_mode] = (
                self.stats.search_by_mode.get(used_mode, 0) + 1
            )
            results.append(
                ServedSearch(
                    served=served,
                    doc_ids=doc_ids,
                    postings_accessed=postings,
                    latency_ms=served.latency_ms + spent_ms,
                )
            )
        self._sync_cluster_gauges()
        return results

    def _sync_cluster_gauges(self) -> None:
        """Mirror the engine's cluster counters into :class:`ServingStats`.

        Engines without a shard backend (a plain ``SearchEngine``) expose
        no ``cluster_stats``; the gauges then stay at their zero defaults.
        The mirrored values are deterministic under replay: failovers and
        reroutes are driven by scripted kill/respawn events, not timing.
        """
        reader = getattr(self.search_engine, "cluster_stats", None)
        if not callable(reader):
            return
        cluster = reader()
        self.stats.search_backend = cluster.get("backend", "")
        self.stats.failovers = int(cluster.get("failovers", 0))
        self.stats.rerouted_requests = int(cluster.get("rerouted_requests", 0))
