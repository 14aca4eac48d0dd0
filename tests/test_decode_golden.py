"""The decode path reproduces ``tests/data/golden_decode.json`` byte for byte.

``tests/test_decode_equivalence.py`` compares the optimized decoders with
the frozen reference ones, but both run on the same ``repro.autograd``
and ``repro.nn``: a numerics drift inside a ``Tensor`` op or a fused gate
moves both sides and passes.  The fixture was written by
``tests/golden_decode.py`` *before* the decode hot loop was reworked, so
equality here means the rework changed no output bit: first-step logit
bytes, tokens, ``float.hex()`` log-probs, finished flags, the seeded RNG
stream (any shift changes the sampled tokens) and the work counters.
The ``singles`` rows were added the same way before ``greedy_decode`` and
``beam_search`` became the batch-of-one call of their batch cores.
"""

import json

import pytest

from tests import golden_decode


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(golden_decode.GOLDEN_PATH.read_text())


def test_fixture_pins_every_model_variant(golden):
    assert set(golden["models"]) == set(golden_decode.MODELS)


@pytest.mark.parametrize("name", sorted(golden_decode.MODELS))
def test_model_decodes_match_golden(golden, name):
    expected = golden["models"][name]
    actual = golden_decode.model_record(name)
    # Compared key by key so a failure names the decoder that drifted.
    assert actual["first_step_logits_dtype"] == expected["first_step_logits_dtype"]
    assert actual["first_step_logits_sha256"] == expected["first_step_logits_sha256"]
    for decoder in ("top_n", "greedy", "beam", "singles"):
        assert actual[decoder] == expected[decoder], decoder


def test_bench_shaped_rewrite_stack_matches_golden(golden):
    assert golden_decode.rewrite_stack_record() == golden["rewrite_stack"]
