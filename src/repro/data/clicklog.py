"""Click-log simulation.

Plays the role of the paper's 60-day JD click log: shopping sessions sample
an intent, render it as a query, examine relevant products and click some of
them.  Aggregating events yields the (query, clicked-title, #clicks)
triples used to train the forward/backward translation models, after the
paper's ">1 click" quality filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.catalog import Catalog
from repro.data.domain import ClickEvent, QueryRecord, QueryStyle
from repro.data.queries import QueryGenerator


@dataclass
class ClickLogConfig:
    """Knobs of the session simulator."""

    num_sessions: int = 4000
    max_clicks_per_session: int = 3
    #: relevance below this is never clicked (hard irrelevance floor)
    relevance_floor: float = 0.05
    #: chance of an accidental click on a weakly relevant item; such noise is
    #: what the paper's ">1 click" filter removes
    noise_click_prob: float = 0.02
    #: minimum aggregated clicks for a (query, title) pair to survive
    min_pair_clicks: int = 2
    #: size of the zipf-weighted query universe.  Real query traffic is
    #: heavily head-skewed; sampling intents i.i.d. would spread clicks so
    #: thin that almost no pair survives the min-click filter.
    intent_pool_size: int = 250
    #: realizations rendered per pooled intent (distinct surface forms)
    realizations_per_intent: int = 3
    #: zipf exponent of the traffic distribution over the query universe
    zipf_exponent: float = 1.05
    seed: int = 0


@dataclass
class ClickLog:
    """Aggregated result of the simulation."""

    events: list[ClickEvent]
    #: distinct query records keyed by the query text
    queries: dict[str, QueryRecord]
    #: filtered training triples: (query_tokens, title_tokens, clicks)
    pairs: list[tuple[tuple[str, ...], tuple[str, ...], int]]
    num_sessions: int
    catalog: Catalog

    # -- derived views -----------------------------------------------------
    def traffic(self) -> list[tuple[str, str, int]]:
        """Click-ranked ``(query text, intent category, clicks)`` triples.

        The live-traffic view of the log: queries ordered head-first by
        click volume (ties broken by text for determinism), each tagged
        with its ground-truth category so churn in that category can be
        attributed to the queries it staleness-affects.  Zero-click
        queries are kept — they are the long tail a replay must also
        exercise — with their true count.
        """
        records = sorted(
            self.queries.values(), key=lambda r: (-r.total_clicks, r.text)
        )
        return [(r.text, r.intent.category, r.total_clicks) for r in records]

    def statistics(self) -> dict[str, float]:
        """Dataset statistics in the shape of the paper's Table I."""
        query_lengths = [len(q) for q, _, _ in self.pairs]
        title_lengths = [len(t) for _, t, _ in self.pairs]
        vocab: set[str] = set()
        for q, t, _ in self.pairs:
            vocab.update(q)
            vocab.update(t)
        return {
            "num_query_item_pairs": len(self.pairs),
            "num_search_sessions": self.num_sessions,
            "vocab_size": len(vocab),
            "avg_query_words": float(np.mean(query_lengths)) if query_lengths else 0.0,
            "avg_title_words": float(np.mean(title_lengths)) if title_lengths else 0.0,
        }


class ClickLogSimulator:
    """Simulates sessions over a catalog and aggregates click pairs."""

    def __init__(
        self,
        catalog: Catalog,
        query_generator: QueryGenerator | None = None,
        config: ClickLogConfig | None = None,
    ):
        self.catalog = catalog
        self.query_generator = query_generator or QueryGenerator()
        self.config = config or ClickLogConfig()

    def _build_query_universe(self, rng: np.random.Generator):
        """Finite zipf-weighted universe of query realizations.

        Each pooled intent is rendered into a few distinct surface forms;
        traffic then samples realizations zipf-style, so head queries
        accumulate clicks (surviving the min-click filter) while a long
        tail stays rare — the head/tail structure Section III-G exploits.
        """
        cfg = self.config
        universe: list = []
        seen: set[tuple[str, ...]] = set()
        for _ in range(cfg.intent_pool_size):
            intent = self.query_generator.sample_intent(rng)
            for _ in range(cfg.realizations_per_intent):
                style = self.query_generator.sample_style(rng)
                if style.value == "polysemous":
                    intent_used = self.query_generator._polysemous_intent(rng)
                else:
                    intent_used = intent
                realization = self.query_generator.realize(intent_used, style, rng)
                if realization.tokens in seen:
                    continue
                seen.add(realization.tokens)
                universe.append(realization)
        ranks = np.arange(1, len(universe) + 1, dtype=float)
        weights = ranks**-cfg.zipf_exponent
        weights /= weights.sum()
        order = rng.permutation(len(universe))
        universe = [universe[i] for i in order]
        return universe, weights

    def simulate(self, rng: np.random.Generator | None = None) -> ClickLog:
        cfg = self.config
        rng = rng or np.random.default_rng(cfg.seed)
        events: list[ClickEvent] = []
        queries: dict[str, QueryRecord] = {}
        universe, weights = self._build_query_universe(rng)

        for session_id in range(cfg.num_sessions):
            realization = universe[int(rng.choice(len(universe), p=weights))]
            record = queries.get(realization.text)
            if record is None:
                record = QueryRecord(
                    tokens=realization.tokens,
                    style=realization.style,
                    intent=realization.intent,
                )
                queries[realization.text] = record

            clicked = self._session_clicks(realization.intent, rng)
            for product_id in clicked:
                events.append(
                    ClickEvent(
                        session_id=session_id,
                        query_tokens=realization.tokens,
                        style=realization.style,
                        intent=realization.intent,
                        product_id=product_id,
                    )
                )
                record.total_clicks += 1
                record.clicked_products[product_id] = (
                    record.clicked_products.get(product_id, 0) + 1
                )

        pairs = self._aggregate_pairs(queries)
        return ClickLog(
            events=events,
            queries=queries,
            pairs=pairs,
            num_sessions=cfg.num_sessions,
            catalog=self.catalog,
        )

    # -- internals -----------------------------------------------------------
    def _session_clicks(self, intent, rng: np.random.Generator) -> list[int]:
        """Products clicked in one session: relevance-proportional sampling."""
        cfg = self.config
        candidates = self.catalog.by_category.get(intent.category, [])
        scored = [(p.product_id, intent.matches(p)) for p in candidates]
        relevant = [(pid, s) for pid, s in scored if s >= cfg.relevance_floor]
        clicked: list[int] = []
        if relevant:
            ids = np.array([pid for pid, _ in relevant])
            weights = np.array([s for _, s in relevant], dtype=float)
            weights /= weights.sum()
            n_clicks = int(rng.integers(1, cfg.max_clicks_per_session + 1))
            n_clicks = min(n_clicks, len(ids))
            chosen = rng.choice(ids, size=n_clicks, replace=False, p=weights)
            clicked.extend(int(c) for c in chosen)
        # Accidental noise click anywhere in the catalog.
        if rng.random() < cfg.noise_click_prob and len(self.catalog):
            clicked.append(int(rng.integers(0, len(self.catalog))))
        return clicked

    def _aggregate_pairs(
        self, queries: dict[str, QueryRecord]
    ) -> list[tuple[tuple[str, ...], tuple[str, ...], int]]:
        """(query, title) pairs with at least ``min_pair_clicks`` clicks."""
        pairs: list[tuple[tuple[str, ...], tuple[str, ...], int]] = []
        for text in sorted(queries):
            record = queries[text]
            for product_id in sorted(record.clicked_products):
                clicks = record.clicked_products[product_id]
                if clicks >= self.config.min_pair_clicks:
                    product = self.catalog.get(product_id)
                    pairs.append((record.tokens, product.title_tokens, clicks))
        return pairs
