"""Algorithm 1 reproduces ``tests/data/golden_training.json`` byte for byte.

The fixture was written by ``tests/golden_training.py`` while
``CyclicTrainer`` still sampled ~Y with its own seed-era copy of the
Figure-4 decoder, so equality here means that training on
``repro.decoding.top_n_sampling_batch`` moved no weight, no recorded
loss and no Fig. 7 q2q metric by a bit — only the rows it steps.
"""

import json

import pytest

from tests import golden_training


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(golden_training.GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    return golden_training.compute()


@pytest.mark.parametrize("name", sorted(golden_training.ARCHITECTURES))
def test_training_run_matches_golden(golden, current, name):
    expected, actual = golden["runs"][name], current["runs"][name]
    # Compared key by key so a failure names what drifted.
    for key in ("decode_steps", "history", "metrics", "weights_sha256"):
        assert actual[key] == expected[key], key
    assert set(expected["history"]) >= {"loss_forward", "loss_backward", "loss_cyclic"}


@pytest.mark.parametrize("name", sorted(golden_training.ARCHITECTURES))
def test_finished_titles_stop_costing_decode_rows(golden, current, name):
    """Same ``decode_steps``, at most 0.6x the rows of the sampler that
    carried every finished title to ``max_title_len``."""
    assert current["decode_rows"][name] == golden["decode_rows"][name]
    assert golden["decode_rows"][name] <= 0.6 * golden["decode_rows_parent"][name]
