"""The segment store reproduces ``tests/data/golden_store.json`` byte for byte.

The fixture was written by ``tests/golden_store.py`` before the store,
the cluster backend and the sharded facades shared one per-tier record
and one sharded base, so equality here means neither moved a byte: every
``.seg`` file and ``MANIFEST.json`` after the first save, a churn delta,
a base rewrite (vector re-fit / lexical heavy churn) and ``compact()``,
for both tiers, and each shard's ``digest`` after a verified reload.
"""

import json

import pytest

from tests import golden_store


@pytest.mark.parametrize("tier", ["lexical", "vector"])
def test_store_reproduces_the_fixture(tier):
    golden = json.loads(golden_store.GOLDEN_PATH.read_text())
    assert golden_store.tier_record(tier) == golden[tier]


def test_fixture_renders_byte_identically():
    rendered = golden_store.render(golden_store.compute())
    assert rendered == golden_store.GOLDEN_PATH.read_text()
