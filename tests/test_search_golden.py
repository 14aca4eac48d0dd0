"""Sharded search reproduces ``tests/data/golden_search.json`` byte for byte.

The fixture was written by ``tests/golden_search.py`` before the search
path learned to compile each request once and ship packed trees, so
equality here means neither changed a result bit: rankings, scores,
postings touched per shard and tree sizes, for both ``search_many``
entry points, merged and separate trees, both rankers, small and large
``k``.
"""

from repro.cluster import ProcessBackend
from repro.search import ShardedIndex
from tests import golden_search


def test_inproc_fan_out_reproduces_the_fixture_bytes():
    rendered = golden_search.render(golden_search.compute())
    assert rendered == golden_search.GOLDEN_PATH.read_text()


def test_process_fan_out_reproduces_the_fixture_bytes():
    backend = ProcessBackend(
        "lexical",
        indexes=golden_search.shard_indexes(golden_search.products()),
    )
    with ShardedIndex(backend=backend) as index:
        rendered = golden_search.render(golden_search.compute(index))
    assert rendered == golden_search.GOLDEN_PATH.read_text()
