"""Synthetic e-commerce marketplace — the public substitute for JD's logs.

The paper trains on 60 days of proprietary click logs (300M query-title
pairs).  This package builds the closest public-data equivalent: a
generative product catalog, a query-intent model that emits both *standard*
and *colloquial/long-tail* query surface forms, and a click-log simulator
whose (query, clicked-title) pairs exhibit exactly the vocabulary mismatch
the paper's cyclic translation exploits.

Typical use::

    from repro.data import MarketplaceConfig, generate_marketplace

    market = generate_marketplace(MarketplaceConfig(seed=0))
    market.click_log.pairs          # (query, title, clicks) training triples
    market.corpus                   # tokenized/encoded parallel corpus
"""

import importlib

from repro.data.domain import Intent, Product, ClickEvent, QueryStyle
from repro.data.catalog import CatalogConfig, CatalogGenerator, CATEGORY_SPECS
from repro.data.dataset import (
    ParallelCorpus,
    BatchIterator,
    pad_batch,
    train_eval_split,
)

#: names imported on first use (PEP 562): a serving process reads the
#: catalog and the corpus types only, so it never loads these modules
_LAZY = {
    "QueryGenerator": "repro.data.queries",
    "QueryRealization": "repro.data.queries",
    "ClickLogConfig": "repro.data.clicklog",
    "ClickLogSimulator": "repro.data.clicklog",
    "ClickLog": "repro.data.clicklog",
    "Marketplace": "repro.data.marketplace",
    "MarketplaceConfig": "repro.data.marketplace",
    "generate_marketplace": "repro.data.marketplace",
    "extract_synonym_pairs": "repro.data.synonyms",
    "build_rule_dictionary": "repro.data.synonyms",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_LAZY[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "Intent",
    "Product",
    "ClickEvent",
    "QueryStyle",
    "CatalogConfig",
    "CatalogGenerator",
    "CATEGORY_SPECS",
    "QueryGenerator",
    "QueryRealization",
    "ClickLogConfig",
    "ClickLogSimulator",
    "ClickLog",
    "ParallelCorpus",
    "BatchIterator",
    "pad_batch",
    "train_eval_split",
    "Marketplace",
    "MarketplaceConfig",
    "generate_marketplace",
    "extract_synonym_pairs",
    "build_rule_dictionary",
]
