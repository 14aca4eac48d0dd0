"""Inputs, the four workloads, and the output checks.

Everything a run sends is a pure function of ``--seed``: the products,
the vocabulary and head queries, the churn products, the never-repeated
tail queries, the Zipf draws and the open-loop schedule.  The server
receives only these inputs.

Every reply is checked (``Checker``); a failed check fails the item, and
failures are counted against items sent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.catalog import CATEGORY_SPECS, Catalog, CatalogConfig, CatalogGenerator
from repro.data.clicklog import ClickLogConfig
from repro.data.marketplace import MarketplaceConfig, generate_marketplace
from repro.search import SearchEngine
from repro.text import tokenize
from repro.text.vocab import UNK

import stack

#: churn products generated per run (ids 0 .. CHURN_POOL-1)
CHURN_POOL = 256
#: open-loop arrival rate of ``mixed_open``, items per second
OPEN_RATE = 100.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  ``mix`` is ``((item class, share), ...)`` over
    the classes ``head_rewrite``, ``head_search`` and ``tail_rewrite``."""

    name: str
    why: str
    #: "closed": each connection sends its next call when the last one
    #: returned; "open": single-item calls on a seeded arrival schedule
    loop: str
    #: items per ``/v1/batch`` call (closed loop)
    batch: int
    mix: tuple
    #: an item answered OK within this many ms meets the SLO: twice the
    #: baseline p95 (calm slices) on the 2-core box, two significant
    #: figures, frozen
    slo_ms: float
    #: ``peak_rss_mb`` is read when the server has served this many items
    #: since it started: more than any warm-up serves, fewer than the
    #: slowest run on the 2-core box serves in all
    rss_items: int
    churn: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="head_cache",
            why="every item is a cache hit: gateway framing and schemas, the "
            "scheduler bridge and cache reads do the work; decode and search idle",
            loop="closed",
            batch=16,
            mix=(("head_rewrite", 1.0),),
            slo_ms=4.8,
            rss_items=120_000,
        ),
        Workload(
            name="tail_decode",
            why="every item is a unique tail: missed, decoded in a micro-batch and "
            "written back, so the model tier and cache put/eviction dominate",
            loop="closed",
            batch=8,
            mix=(("tail_rewrite", 1.0),),
            slo_ms=27.0,
            rss_items=9_000,
        ),
        Workload(
            name="search_process",
            why="head searches: rewrites come from the cache, so merged-tree "
            "retrieval, pipe fan-out to the two shard workers and top-k merge dominate",
            loop="closed",
            batch=8,
            mix=(("head_search", 1.0),),
            slo_ms=32.0,
            rss_items=9_000,
        ),
        Workload(
            name="mixed_open",
            why="open loop at 100 items/s, 55% head rewrites, 20% head searches, 25% "
            "tails, with catalog writes: deadline batching, decodes ahead of hits, "
            "writes beside reads",
            loop="open",
            batch=1,
            mix=(("head_rewrite", 0.55), ("head_search", 0.20), ("tail_rewrite", 0.25)),
            slo_ms=23.0,
            rss_items=1_100,
            churn=True,
        ),
    )
}


# -- inputs ------------------------------------------------------------------
@dataclass
class Inputs:
    """Everything generated from the seed."""

    seed: int
    products: list
    vocab: object
    #: head queries, most clicked first
    heads: list
    churn_products: list


def generate_inputs(seed: int, scale: stack.Scale) -> Inputs:
    """Products, vocabulary, heads and churn products of one seed."""
    generator = CatalogGenerator(CatalogConfig(seed=seed))
    products = generator.sample_products(
        scale.products,
        np.random.default_rng([seed, 1]),
        start_id=stack.BASE_PRODUCT_ID,
    )
    market = generate_marketplace(
        MarketplaceConfig(
            catalog=CatalogConfig(products_per_category=20),
            clicks=ClickLogConfig(num_sessions=6000, intent_pool_size=400),
            seed=seed,
        )
    )
    heads = [text for text, _, _ in market.click_log.traffic()[: scale.heads]]
    if len(heads) < scale.heads:
        raise ValueError(f"seed {seed} yields only {len(heads)} distinct queries")
    churn_rng = np.random.default_rng([seed, 2])
    categories = sorted(CATEGORY_SPECS)
    churn_products = [
        generator.sample_product(
            categories[int(churn_rng.integers(len(categories)))], product_id, churn_rng
        )
        for product_id in range(CHURN_POOL)
    ]
    return Inputs(seed, products, market.vocab, heads, churn_products)


class ItemSource:
    """Seeded streams of items, one per item class.

    An item is ``(kind, query, source)``: the route kind, the query, and
    the tier that must answer it (``"cache"`` for heads, ``"model"`` for
    tails).  Heads are drawn Zipf(1) by click rank.  Searches draw from
    the heads whose own tokens retrieve at least one product, so every
    search item ranks and merges candidates (an untrained model's
    rewrites match nothing).  Tails are 2-5 random vocabulary tokens and
    never repeat.
    """

    def __init__(self, inputs: Inputs, searchable_heads: list):
        self._rng = np.random.default_rng([inputs.seed, 3])
        self._pools = {
            "head_rewrite": inputs.heads,
            "head_search": searchable_heads,
        }
        self._draws = {name: iter(()) for name in self._pools}
        specials = 4  # <pad> <sos> <eos> <unk>
        self._tokens = inputs.vocab.tokens()[specials:]
        self._seen = set(inputs.heads)

    def _zipf_draws(self, size: int):
        weights = 1.0 / np.arange(1, size + 1)
        return iter(self._rng.choice(size, size=8192, p=weights / weights.sum()))

    def next(self, item_class: str) -> tuple:
        if item_class == "tail_rewrite":
            while True:
                length = int(self._rng.integers(2, 6))
                picks = self._rng.integers(len(self._tokens), size=length)
                query = " ".join(self._tokens[i] for i in picks)
                if query not in self._seen:
                    self._seen.add(query)
                    return ("rewrite", query, "model")
        pool = self._pools[item_class]
        index = next(self._draws[item_class], None)
        if index is None:
            self._draws[item_class] = self._zipf_draws(len(pool))
            index = next(self._draws[item_class])
        kind = "search" if item_class == "head_search" else "rewrite"
        return (kind, pool[int(index)], "cache")


def class_sequence(workload: Workload, count: int, rng) -> list:
    """``count`` item classes in the workload's exact shares, shuffled."""
    classes: list = []
    for item_class, share in workload.mix:
        classes.extend([item_class] * int(round(share * count)))
    classes = (classes + [workload.mix[0][0]] * count)[:count]
    return [classes[i] for i in rng.permutation(count)]


def open_schedule(seconds: float, rng) -> np.ndarray:
    """Arrival offsets of a Poisson process at ``OPEN_RATE`` over
    ``seconds``, conditioned on its expected count (sorted uniforms), so
    every run sends the same number of items."""
    return np.sort(rng.uniform(0.0, seconds, size=int(round(OPEN_RATE * seconds))))


# -- output checks -----------------------------------------------------------
@dataclass
class Checker:
    """Checks one reply item; remembers why items failed.

    ``dump`` is the served cache's head entries taken after warm-up;
    ``oracle`` an in-process unsharded engine over the base products.
    """

    inputs: Inputs
    dump: dict
    oracle: SearchEngine
    reasons: dict = field(default_factory=dict)
    #: (item index, churn product id, sent, received) for replies that
    #: listed a churn product; settled against the write log at the end
    sightings: list = field(default_factory=list)

    def __post_init__(self):
        self._vocab = set(self.inputs.vocab.tokens()) - {UNK}
        self._memo: dict = {}

    def _fail(self, reason: str) -> bool:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return False

    def check(self, item: tuple, reply, sent: float, received: float, index: int) -> bool:
        """True when ``reply`` is a correct answer to ``item``."""
        kind, query, source = item
        if not isinstance(reply, dict) or "error" in reply:
            return self._fail("error_reply")
        if reply.get("query") != query or reply.get("source") != source:
            return self._fail(f"wrong_source_{reply.get('source')}")
        rewrites = reply.get("rewrites")
        if source == "cache":
            if rewrites != self.dump.get(query):
                return self._fail("cache_rewrites_differ_from_dump")
        elif not self._model_rewrites_ok(query, rewrites):
            return self._fail("malformed_model_rewrites")
        if kind == "search":
            return self._check_search(query, rewrites, reply, sent, received, index)
        return True

    def _model_rewrites_ok(self, query: str, rewrites) -> bool:
        if not isinstance(rewrites, list) or not 1 <= len(rewrites) <= stack.REWRITER.k:
            return False
        if len(set(rewrites)) != len(rewrites) or query in rewrites:
            return False
        for rewrite in rewrites:
            tokens = tokenize(rewrite)
            if not 1 <= len(tokens) <= stack.REWRITER.max_query_len:
                return False
            if not self._vocab.issuperset(tokens):
                return False
        return True

    def expected_doc_ids(self, query: str, rewrites: list) -> list:
        """The oracle's ranking over the base products (memoized)."""
        key = (query, tuple(rewrites))
        if key not in self._memo:
            self._memo[key] = self.oracle.search(query, rewrites).doc_ids
        return self._memo[key]

    def _check_search(self, query, rewrites, reply, sent, received, index) -> bool:
        doc_ids = reply.get("doc_ids")
        if not isinstance(doc_ids, list):
            return self._fail("no_doc_ids")
        churn = [d for d in doc_ids if d < stack.BASE_PRODUCT_ID]
        base = [d for d in doc_ids if d >= stack.BASE_PRODUCT_ID]
        # Churn products only ever displace base products from the tail
        # of the top-k, so what is left must be a prefix of the oracle's.
        keep = stack.SEARCH.max_candidates - len(churn)
        if base != self.expected_doc_ids(query, rewrites)[:keep]:
            return self._fail("doc_ids_differ_from_oracle")
        for product_id in churn:
            self.sightings.append((index, product_id, sent, received))
        return True

    def settle_churn(self, writes: list) -> set:
        """Item indexes whose reply listed a churn product outside its
        life: sent after its removal completed, or received before its
        add began."""
        added = {pid: start for op, pid, start, _ in writes if op == "add"}
        removed = {pid: done for op, pid, _, done in writes if op == "remove"}
        bad = set()
        for index, product_id, sent, received in self.sightings:
            if product_id not in added or received < added[product_id]:
                bad.add(index)
                self._fail("churn_product_seen_before_add")
            elif product_id in removed and sent > removed[product_id]:
                bad.add(index)
                self._fail("removed_product_served")
        return bad


def build_oracle(inputs: Inputs) -> SearchEngine:
    """Unsharded in-process engine over the base products."""
    return SearchEngine(Catalog(products=list(inputs.products)), stack.SEARCH)


def searchable_heads(inputs: Inputs, oracle: SearchEngine) -> list:
    """Heads whose own tokens retrieve at least one base product."""
    found = [head for head in inputs.heads if oracle.search(head, []).doc_ids]
    if not found:
        raise ValueError(f"seed {inputs.seed}: no head query retrieves a product")
    return found
