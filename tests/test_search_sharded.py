"""Sharded retrieval: partitioning, fan-out/merge parity, incremental churn."""

import pickle
import pickletools
import threading

import numpy as np
import pytest

from repro.cluster import InprocBackend, ProcessBackend, ReplicaRouter
from repro.core import ServingPipeline
from repro.data.catalog import Catalog, CatalogConfig, CatalogGenerator
from repro.online import (
    MicroBatchScheduler,
    ScheduledRequest,
    SchedulerConfig,
    VirtualClock,
)
from repro.search import (
    BM25Ranker,
    InvertedIndex,
    SearchConfig,
    SearchEngine,
    ShardedIndex,
    ShardedSearchEngine,
    TermOverlapRanker,
)
from repro.search import sharded as sharded_module
from repro.text import tokenize
from tests import golden_search

DOCS = {
    0: ("red", "men", "sock"),
    1: ("red", "men", "breathable", "low-cut-sock"),
    2: ("red", "men", "anklet"),
    3: ("blue", "women", "sock"),
    4: ("red", "women", "sock"),
    5: ("blue", "men", "sock", "sock"),
    6: ("green", "children", "sock"),
    7: ("red", "children", "anklet"),
}


@pytest.fixture()
def sharded():
    index = ShardedIndex(num_shards=3, parallel=False)
    for doc_id, tokens in DOCS.items():
        index.add_document(doc_id, tokens)
    yield index
    index.close()


class TestPartitioning:
    def test_docs_routed_by_modulo(self, sharded):
        assert sharded.shard_of(4) == 1
        assert sharded.shard_sizes() == [3, 3, 2]
        assert len(sharded) == len(DOCS)

    def test_contains_and_document(self, sharded):
        assert 5 in sharded
        assert 99 not in sharded
        assert sharded.document(5) == ("blue", "men", "sock", "sock")

    def test_duplicate_add_rejected(self, sharded):
        with pytest.raises(ValueError):
            sharded.add_document(0, ("again",))

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            ShardedIndex(num_shards=0)


class TestIncrementalChurn:
    def test_add_then_search(self, sharded):
        sharded.add_document(8, ("purple", "sock"))
        outcome = sharded.search([["purple", "sock"]], k=5)
        assert outcome.doc_ids == [8]

    def test_remove_then_search(self, sharded):
        sharded.remove_document(2)
        outcome = sharded.search([["anklet"]], k=5)
        assert 2 not in outcome.doc_ids
        assert 7 in outcome.doc_ids

    def test_remove_unknown_raises(self, sharded):
        with pytest.raises(KeyError):
            sharded.remove_document(99)

    def test_stats_aggregate_and_invalidate(self, sharded):
        stats = sharded.stats()
        assert stats.num_docs == len(DOCS)
        assert stats.document_frequency("sock") == 5
        sharded.remove_document(3)
        assert sharded.stats().document_frequency("sock") == 4

    def test_concurrent_writers_to_distinct_shards(self):
        index = ShardedIndex(num_shards=4, parallel=False)
        errors = []

        def add_range(start):
            try:
                for doc_id in range(start, 400, 4):
                    index.add_document(doc_id, ("tok", f"t{doc_id % 7}"))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=add_range, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(index) == 400
        assert index.stats().document_frequency("tok") == 400
        index.close()


class TestChurnSearchInterleaving:
    """Searches interleaved with add/remove must always see a consistent
    index: exactly the live documents, with live global statistics."""

    def test_interleaved_churn_results_track_live_set(self):
        index = ShardedIndex(num_shards=3, parallel=False)
        alive: set[int] = set()
        for doc_id in range(60):
            index.add_document(doc_id, ("tok", f"shade{doc_id % 5}"))
            alive.add(doc_id)
            if doc_id % 3 == 2:
                victim = doc_id - 2
                index.remove_document(victim)
                alive.discard(victim)
            outcome = index.search([["tok"]], k=100)
            assert sorted(outcome.doc_ids) == sorted(alive)
            assert index.stats().document_frequency("tok") == len(alive)
        index.close()

    def test_search_concurrent_with_writer_sees_all_or_nothing(self):
        index = ShardedIndex(num_shards=2, parallel=False)
        for doc_id in range(20):
            index.add_document(doc_id, ("filler", f"f{doc_id}"))
        stop = threading.Event()
        errors: list[Exception] = []

        def churn_beacon():
            # One document with a unique token flaps in and out; a search
            # must see it fully present or fully absent, never half-applied.
            try:
                while not stop.is_set():
                    index.add_document(999, ("beacon", "filler"))
                    index.remove_document(999)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        writer = threading.Thread(target=churn_beacon)
        writer.start()
        try:
            for _ in range(300):
                outcome = index.search([["beacon"]], k=5)
                assert outcome.doc_ids in ([], [999])
        finally:
            stop.set()
            writer.join()
        assert not errors
        index.close()

    def test_engine_product_churn_keeps_catalog_and_index_lockstep(self, tiny_market):
        import numpy as np

        from repro.data.catalog import CatalogGenerator

        engine = ShardedSearchEngine(
            tiny_market.catalog, SearchConfig(max_candidates=10), num_shards=3,
            parallel=False,
        )
        rng = np.random.default_rng(7)
        new_id = tiny_market.catalog.next_product_id()
        product = CatalogGenerator().sample_product("phone", new_id, rng)
        engine.add_product(product)
        try:
            # the session-scoped catalog must be restored even on failure
            assert new_id in tiny_market.catalog
            assert new_id in engine.index
            assert new_id in engine.search(product.title).doc_ids
        finally:
            engine.remove_product(new_id)
        assert new_id not in tiny_market.catalog
        assert new_id not in engine.index
        assert new_id not in engine.search(product.title).doc_ids
        engine.close()

    def test_engine_rejects_bad_product_churn_atomically(self, tiny_market):
        engine = ShardedSearchEngine(
            tiny_market.catalog, SearchConfig(max_candidates=5), num_shards=2,
            parallel=False,
        )
        existing = tiny_market.catalog.products[0]
        size_before = len(engine.index)
        with pytest.raises(ValueError):
            engine.add_product(existing)  # duplicate id: catalog rejects first
        with pytest.raises(KeyError):
            engine.remove_product(10_000_000)
        assert len(engine.index) == size_before
        engine.close()


class TestFanOutMerge:
    def test_search_matches_union_of_queries(self, sharded):
        outcome = sharded.search([["anklet"], ["blue"]], k=10, ranker=TermOverlapRanker())
        assert sorted(outcome.doc_ids) == [2, 3, 5, 7]

    def test_parallel_equals_serial(self):
        parallel = ShardedIndex(num_shards=3, parallel=True)
        for doc_id, tokens in DOCS.items():
            parallel.add_document(doc_id, tokens)
        serial_outcome = None
        with parallel:
            queries = [["red", "men", "sock"], ["red", "men", "anklet"]]
            parallel_outcome = parallel.search(queries, k=5)
        serial = ShardedIndex(num_shards=3, parallel=False)
        for doc_id, tokens in DOCS.items():
            serial.add_document(doc_id, tokens)
        serial_outcome = serial.search(queries, k=5)
        assert parallel_outcome.doc_ids == serial_outcome.doc_ids
        assert parallel_outcome.scores == serial_outcome.scores
        assert parallel_outcome.postings_accessed == serial_outcome.postings_accessed

    def test_empty_queries_raise(self, sharded):
        with pytest.raises(ValueError):
            sharded.search([[]], k=5)

    def test_per_shard_accounting_sums(self, sharded):
        outcome = sharded.search([["red", "sock"]], k=5)
        assert outcome.postings_accessed == sum(outcome.per_shard_postings)
        assert len(outcome.per_shard_postings) == 3

    def test_scores_sorted_descending_with_doc_tiebreak(self, sharded):
        outcome = sharded.search([["sock"]], k=10)
        pairs = list(zip([-s for s in outcome.scores], outcome.doc_ids))
        assert pairs == sorted(pairs)


class TestShardedEngineParity:
    """The facade must return exactly what the unsharded engine returns."""

    @pytest.fixture(scope="class")
    def engines(self, tiny_market):
        config = SearchConfig(max_candidates=20, ranker="bm25")
        single = SearchEngine(tiny_market.catalog, config)
        sharded = ShardedSearchEngine(
            tiny_market.catalog, config, num_shards=4, parallel=True
        )
        yield single, sharded
        sharded.close()

    @pytest.mark.parametrize(
        "query,rewrites",
        [
            ("senior mobile phone", ["big-button mobile phone", "flip mobile phone"]),
            ("nike shoe", ["running shoe"]),
            ("apple", []),
            ("fresh fruit", ["organic fresh fruit", "sweet fresh fruit"]),
        ],
    )
    def test_topk_identical(self, engines, query, rewrites):
        single, sharded = engines
        assert sharded.search(query, rewrites).doc_ids == single.search(query, rewrites).doc_ids

    def test_overlap_ranker_parity(self, tiny_market):
        config = SearchConfig(max_candidates=15, ranker="overlap")
        single = SearchEngine(tiny_market.catalog, config)
        sharded = ShardedSearchEngine(
            tiny_market.catalog, config, num_shards=3, parallel=False
        )
        assert (
            sharded.search("mobile phone").doc_ids
            == single.search("mobile phone").doc_ids
        )
        sharded.close()

    def test_empty_query_raises(self, engines):
        _, sharded = engines
        with pytest.raises(ValueError):
            sharded.search("   ")

    def test_postings_cost_matches_unsharded_total(self, engines):
        """Shard postings split a term's list; totals must agree with the
        unsharded cost when no early exit diverges (single-term query)."""
        single, sharded = engines
        q = "phone"
        assert (
            sharded.search(q).postings_accessed == single.search(q).postings_accessed
        )


# -- micro-batched fan-out ------------------------------------------------------
NUM_SHARDS = 2


def shard_indexes(products) -> list[InvertedIndex]:
    """Correctly routed per-shard indexes over ``products``."""
    indexes = [InvertedIndex() for _ in range(NUM_SHARDS)]
    for product in products:
        indexes[product.product_id % NUM_SHARDS].add_document(
            product.product_id, product.title_tokens
        )
    return indexes


def make_backend(deployment: str, products):
    """One of the four deployments a lexical fan-out can run on."""
    if deployment == "process":
        return ProcessBackend("lexical", indexes=shard_indexes(products))
    if deployment == "router":
        return ReplicaRouter(
            [
                InprocBackend("lexical", indexes=shard_indexes(products))
                for _ in range(2)
            ]
        )
    return InprocBackend(
        "lexical",
        indexes=shard_indexes(products),
        parallel=deployment == "inproc-parallel",
    )


def signature(outcome) -> tuple:
    """Everything a search returns, floats by their exact bits."""
    return (
        outcome.query,
        outcome.rewrites,
        outcome.doc_ids,
        [float(score).hex() for score in outcome.scores],
        outcome.postings_accessed,
        outcome.tree_nodes,
        outcome.num_trees,
    )


def sample_request(rng, products) -> tuple:
    """``(query, rewrites)`` drawn from live titles: 0-2 rewrites, and
    now and then a token no product carries."""

    def phrase():
        title = products[int(rng.integers(0, len(products)))].title_tokens
        picks = list(title[: int(rng.integers(1, min(3, len(title)) + 1))])
        if rng.random() < 0.2:
            picks.append("xyzzy")
        return " ".join(picks)

    return phrase(), [phrase() for _ in range(int(rng.integers(0, 3)))]


class TestSearchMany:
    """A micro-batch is N searches: same bytes, one round trip per shard."""

    @pytest.mark.parametrize("merge_trees", [True, False])
    @pytest.mark.parametrize("ranker", ["bm25", "overlap"])
    @pytest.mark.parametrize(
        "deployment", ["inproc-parallel", "inproc-serial", "process", "router"]
    )
    def test_equals_n_searches_and_the_unsharded_engine(
        self, deployment, ranker, merge_trees
    ):
        generator = CatalogGenerator(CatalogConfig(products_per_category=4, seed=11))
        config = SearchConfig(max_candidates=8, ranker=ranker, merge_trees=merge_trees)
        reference = SearchEngine(generator.generate(), config)
        catalog = generator.generate()
        backend = make_backend(deployment, catalog.products)
        engine = ShardedSearchEngine(catalog, config, index=ShardedIndex(backend=backend))
        rng = np.random.default_rng(5)
        next_id = catalog.next_product_id()
        try:
            for round_no, size in enumerate([1, 2, 16, 3, 16]):
                batch = [sample_request(rng, catalog.products) for _ in range(size)]
                if size == 3:  # the same request more than once in a batch
                    batch = [batch[0], batch[1], batch[0], batch[0]]
                many = engine.search_many(batch)
                singles = [engine.search(query, rewrites) for query, rewrites in batch]
                assert [signature(o) for o in many] == [signature(o) for o in singles]
                for got, (query, rewrites) in zip(many, batch):
                    # Shard-local early exits may touch fewer postings than
                    # one index does; everything else matches the oracle.
                    expected = reference.search(query, rewrites)
                    expected.postings_accessed = got.postings_accessed
                    assert signature(got) == signature(expected)
                if deployment == "router" and round_no == 0:
                    # not announced: the next batch finds out and reroutes whole
                    backend.kill_replica(0)
                # churn between batches: one listing in, one out
                product = generator.sample_product("phone", next_id, rng)
                next_id += 1
                victim = catalog.products[int(rng.integers(0, len(catalog.products)))]
                for target in (reference, engine):
                    target.index.add_document(product.product_id, product.title_tokens)
                    target.index.remove_document(victim.product_id)
                catalog.add_product(product)
                catalog.remove_product(victim.product_id)
            if deployment == "router":
                assert backend.stats()["failovers"] == 1
                assert backend.stats()["healthy_replicas"] == 1
        finally:
            engine.close()

    def test_empty_batch_sends_nothing(self, sharded, monkeypatch):
        def no_fanout(*args):
            raise AssertionError("an empty batch reached the backend")

        monkeypatch.setattr(sharded.backend, "fanout", no_fanout)
        assert sharded.search_many([], k=5) == []

    def test_one_empty_request_fails_the_batch_before_any_fanout(self, sharded):
        with pytest.raises(ValueError):
            sharded.search_many([[["red"]], [[]]], k=5)


class CountingSends:
    """Counts the pipe messages a :class:`ProcessBackend` sends."""

    def __init__(self, monkeypatch):
        self.sent = 0
        send = ProcessBackend._send

        def counted(backend, shard_id, payload):
            self.sent += 1
            return send(backend, shard_id, payload)

        monkeypatch.setattr(ProcessBackend, "_send", counted)


class SearchOnly:
    """A sharded engine seen through ``search`` alone — what every
    engine without ``search_many`` looks like to the pipeline."""

    def __init__(self, engine):
        self.search = engine.search
        self.cluster_stats = engine.cluster_stats


class TestServingFanOutWork:
    """Deterministic work gate: pipe messages per micro-batch, no clock."""

    QUERIES = ["senior mobile phone", "nike shoe", "apple", "fresh fruit"] * 4

    @pytest.fixture()
    def process_engine(self, tiny_market):
        engine = ShardedSearchEngine(
            tiny_market.catalog,
            SearchConfig(max_candidates=10, ranker="bm25"),
            index=ShardedIndex(
                backend=ProcessBackend(
                    "lexical", indexes=shard_indexes(tiny_market.catalog.products)
                )
            ),
        )
        yield engine
        engine.close()

    def test_one_message_per_shard_per_micro_batch(self, process_engine, monkeypatch):
        pipeline = ServingPipeline(None, None, search_engine=process_engine)
        sends = CountingSends(monkeypatch)
        results = pipeline.search_batch(self.QUERIES)
        assert sends.sent == NUM_SHARDS  # 32 when every request fans out alone
        assert all(result.doc_ids for result in results)
        process_engine.search("nike shoe")
        assert sends.sent == 2 * NUM_SHARDS

    def test_engines_with_only_search_are_called_per_request(
        self, process_engine, monkeypatch
    ):
        batched = ServingPipeline(None, None, search_engine=process_engine)
        looped = ServingPipeline(None, None, search_engine=SearchOnly(process_engine))
        expected = batched.search_batch(self.QUERIES)
        sends = CountingSends(monkeypatch)
        got = looped.search_batch(self.QUERIES)
        assert sends.sent == NUM_SHARDS * len(self.QUERIES)
        assert [(r.doc_ids, r.postings_accessed) for r in got] == [
            (r.doc_ids, r.postings_accessed) for r in expected
        ]

    def test_scheduled_replay_counters_do_not_depend_on_search_many(
        self, process_engine
    ):
        def replay(engine):
            pipeline = ServingPipeline(None, None, search_engine=engine)
            scheduler = MicroBatchScheduler(
                pipeline,
                VirtualClock(),
                SchedulerConfig(max_batch_size=5, max_wait_seconds=0.05),
            )
            for n, query in enumerate(self.QUERIES + ["?!", "running shoe"]):
                scheduler.submit(
                    ScheduledRequest(query, arrival_seconds=0.01 * n, kind="search")
                )
            report = scheduler.drain()
            return pipeline.stats.counters(), report.fingerprint()

        assert replay(process_engine) == replay(SearchOnly(process_engine))


# -- compile once, ship packed ----------------------------------------------------
#: bytes ``ProcessBackend._send`` wrote per shard for ``golden_batch()`` when
#: every search was tokenized, merged and pickled as node objects per request
OBJECT_TREE_PAYLOAD_BYTES = 2814


class CountingMerges:
    """Counts ``merge_queries`` calls made through the module attribute the
    sharded engine resolves at call time (the one a tracer wraps)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        merge = sharded_module.merge_queries

        def counted(queries):
            self.calls += 1
            return merge(queries)

        monkeypatch.setattr(sharded_module, "merge_queries", counted)


class RecordingSends:
    """Keeps every payload a :class:`ProcessBackend` sends."""

    def __init__(self, monkeypatch):
        self.payloads: list[bytes] = []
        send = ProcessBackend._send

        def recorded(backend, shard_id, payload):
            self.payloads.append(payload)
            return send(backend, shard_id, payload)

        monkeypatch.setattr(ProcessBackend, "_send", recorded)


def golden_engine(backend=None, config=None) -> ShardedSearchEngine:
    """An engine over the golden-search catalog (in-process by default)."""
    items = golden_search.products()
    if backend is None:
        backend = InprocBackend(
            "lexical", indexes=golden_search.shard_indexes(items), parallel=False
        )
    return ShardedSearchEngine(
        Catalog(products=list(items)),
        config or SearchConfig(max_candidates=10),
        index=ShardedIndex(backend=backend),
    )


def golden_batch() -> list[tuple]:
    """A fixed 16-request micro-batch, repeats included."""
    return golden_search.requests(golden_search.products())[2]


def distinct_requests(count: int) -> list[tuple]:
    """``count`` requests with pairwise distinct ``(query, rewrites)``."""
    titles = [product.title for product in golden_search.products()]
    return [(titles[i % len(titles)], [f"variant {i}"]) for i in range(count)]


def pickled_globals(payload: bytes) -> set[tuple[str, str]]:
    """``(module, name)`` of every class or function a pickle references."""
    found, strings = set(), []
    for op, arg, _ in pickletools.genops(payload):
        if op.name in ("SHORT_BINUNICODE", "BINUNICODE", "UNICODE"):
            strings.append(arg)
        elif op.name == "STACK_GLOBAL":
            found.add((strings[-2], strings[-1]))
        elif op.name == "GLOBAL":
            found.add(tuple(arg.split(" ", 1)))
    return found


class TestCompileOnce:
    """A request's tokens and packed tree are built once per engine, not
    once per search; what crosses the pipe is the packed node table."""

    def test_repeated_requests_build_each_tree_once(self, monkeypatch):
        engine = golden_engine()
        distinct = distinct_requests(20)
        rng = np.random.default_rng(3)
        stream = [distinct[int(i)] for i in rng.integers(len(distinct), size=400)]
        expected = {
            (query, tuple(rewrites)): signature(fresh)
            for (query, rewrites), fresh in zip(
                distinct, golden_engine().search_many(distinct)
            )
        }
        merges = CountingMerges(monkeypatch)
        for start in range(0, len(stream), 16):
            batch = stream[start : start + 16]
            for (query, rewrites), outcome in zip(batch, engine.search_many(batch)):
                assert signature(outcome) == expected[(query, tuple(rewrites))]
        assert merges.calls == len(distinct)  # one per search without the memo

    def test_distinct_requests_build_one_tree_each(self, monkeypatch):
        engine = golden_engine()
        merges = CountingMerges(monkeypatch)
        requests = distinct_requests(64)
        for start in range(0, len(requests), 16):
            engine.search_many(requests[start : start + 16])
        assert merges.calls == len(requests)

    def test_memo_is_bounded_and_evictions_recompile_identically(self):
        bound = sharded_module.COMPILE_MEMO_SIZE
        engine = golden_engine()
        requests = distinct_requests(bound + 100)
        for start in range(0, len(requests), 64):
            engine.search_many(requests[start : start + 64])
        assert engine._compiled.cache_info().currsize == bound
        evicted = requests[:32]
        assert [signature(o) for o in engine.search_many(evicted)] == [
            signature(o) for o in golden_engine().search_many(evicted)
        ]

    def test_the_wire_carries_packed_tables_only(self, monkeypatch):
        items = golden_search.products()
        engine = golden_engine(
            ProcessBackend("lexical", indexes=golden_search.shard_indexes(items))
        )
        try:
            sends = RecordingSends(monkeypatch)
            engine.search_many(golden_batch())
        finally:
            engine.close()
        assert len(sends.payloads) == NUM_SHARDS
        for payload in sends.payloads:
            assert len(payload) <= 0.6 * OBJECT_TREE_PAYLOAD_BYTES
            referenced = {name for module, name in pickled_globals(payload)}
            assert "PackedTree" in referenced
            assert not referenced & {"TermNode", "AndNode", "OrNode"}
            op, (requests, _, _) = pickle.loads(payload)
            assert op == "search" and len(requests) == len(golden_batch())

    def test_pinned_statistics_cover_the_ranked_tokens_only(self, monkeypatch):
        engine = golden_engine(config=SearchConfig(max_candidates=10, ranker="bm25"))
        pinned = []
        fanout = engine.index.backend.fanout

        def recorded(op, *args):
            if op == "search":
                pinned.append(args[1])
            return fanout(op, *args)

        monkeypatch.setattr(engine.index.backend, "fanout", recorded)
        batch = golden_batch()
        engine.search_many(batch)
        vocabulary = set(engine.index.stats().document_frequencies)
        ranked, everything = set(), set()
        for query, rewrites in batch:
            queries = [tokenize(text) for text in (query, *rewrites)]
            ranked.update(next(q for q in queries if q))
            for q in queries:
                everything.update(q)
        assert set(pinned[0].stats.document_frequencies) == ranked & vocabulary
        assert (everything - ranked) & vocabulary  # rewrites alone: not pinned
