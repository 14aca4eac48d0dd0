"""Click-log simulation: filtering, statistics, zipf traffic."""

import numpy as np
import pytest

from repro.data.catalog import CatalogConfig, CatalogGenerator
from repro.data.clicklog import ClickLogConfig, ClickLogSimulator
from repro.data.queries import QueryGenerator


@pytest.fixture(scope="module")
def catalog():
    return CatalogGenerator(CatalogConfig(products_per_category=6, seed=0)).generate()


@pytest.fixture(scope="module")
def click_log(catalog):
    simulator = ClickLogSimulator(
        catalog,
        QueryGenerator(),
        ClickLogConfig(num_sessions=800, intent_pool_size=80, seed=0),
    )
    return simulator.simulate()


class TestSimulation:
    def test_pairs_meet_click_threshold(self, click_log):
        for _, _, clicks in click_log.pairs:
            assert clicks >= 2

    def test_pairs_reference_real_titles(self, click_log, catalog):
        titles = {p.title_tokens for p in catalog.products}
        for _, title, _ in click_log.pairs:
            assert title in titles

    def test_events_reference_recorded_queries(self, click_log):
        for event in click_log.events[:200]:
            text = " ".join(event.query_tokens)
            assert text in click_log.queries

    def test_clicks_prefer_relevant_products(self, click_log, catalog):
        """Clicked products should match the query's intent category almost
        always (noise clicks are rare)."""
        matched = 0
        total = 0
        for event in click_log.events:
            total += 1
            product = catalog.get(event.product_id)
            if product.category == event.intent.category:
                matched += 1
        assert matched / total > 0.9

    def test_zipf_head_accumulates_clicks(self, click_log):
        counts = sorted(
            (r.total_clicks for r in click_log.queries.values()), reverse=True
        )
        top_share = sum(counts[: max(1, len(counts) // 10)]) / max(1, sum(counts))
        assert top_share > 0.25  # head 10% of queries carries >25% of clicks

    def test_deterministic_given_seed(self, catalog):
        config = ClickLogConfig(num_sessions=200, intent_pool_size=50, seed=9)
        a = ClickLogSimulator(catalog, QueryGenerator(), config).simulate()
        b = ClickLogSimulator(catalog, QueryGenerator(), config).simulate()
        assert a.pairs == b.pairs


class TestStatistics:
    def test_statistics_keys(self, click_log):
        stats = click_log.statistics()
        assert set(stats) == {
            "num_query_item_pairs",
            "num_search_sessions",
            "vocab_size",
            "avg_query_words",
            "avg_title_words",
        }

    def test_titles_longer_than_queries(self, click_log):
        stats = click_log.statistics()
        assert stats["avg_title_words"] > 2 * stats["avg_query_words"]

    def test_session_count_recorded(self, click_log):
        assert click_log.statistics()["num_search_sessions"] == 800


class TestMinClickFilter:
    def test_min_clicks_one_keeps_more_pairs(self, catalog):
        strict = ClickLogSimulator(
            catalog, QueryGenerator(),
            ClickLogConfig(num_sessions=400, intent_pool_size=60, min_pair_clicks=2, seed=1),
        ).simulate()
        loose = ClickLogSimulator(
            catalog, QueryGenerator(),
            ClickLogConfig(num_sessions=400, intent_pool_size=60, min_pair_clicks=1, seed=1),
        ).simulate()
        assert len(loose.pairs) > len(strict.pairs)
