"""Builder of ``tests/data/golden_training.json`` — the Algorithm 1 byte pin.

Step 9 of Algorithm 1 samples the title set ~Y with the Figure-4
decoder, so which sampler runs decides every weight the trainer ends
with.  This fixture freezes one short ``CyclicTrainer`` run per
architecture — across the warm-up boundary, then one
``translate_back_metrics`` — as written by the trainer's own seed-era
sampler, and ``tests/test_training_golden.py`` asserts the current code
reproduces it: sha256 over every weight of both models, every
``History`` series and the three Fig. 7 q2q metrics as ``float.hex()``,
and ``decode_steps``.  Regenerate (only when an output change is
intended) with::

    PYTHONPATH=src python tests/golden_training.py

``decode_rows`` is the one reading that is *meant* to move, so it sits
in its own keys: ``decode_rows_parent`` is what the seed-era sampler
stepped on this very run (finished titles were carried to
``max_title_len``) and is carried over on regeneration; ``decode_rows``
is what the current code steps.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from repro.data import MarketplaceConfig, generate_marketplace
from repro.data.catalog import CatalogConfig
from repro.data.clicklog import ClickLogConfig
from repro.models import HybridNMT, ModelConfig, TransformerNMT
from repro.training import CyclicConfig, CyclicTrainer, translate_back_metrics

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_training.json"

ARCHITECTURES = {"transformer": TransformerNMT, "hybrid": HybridNMT}

#: Algorithm 1 steps per run; the cyclic term switches on after WARMUP
STEPS = 64
WARMUP = 24


def _market():
    return generate_marketplace(
        MarketplaceConfig(
            catalog=CatalogConfig(products_per_category=6),
            clicks=ClickLogConfig(num_sessions=1200, intent_pool_size=120),
            seed=7,
        )
    )


def _weights_sha256(*models) -> str:
    digest = hashlib.sha256()
    for model in models:
        for name, parameter in model.named_parameters():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(parameter.data).tobytes())
    return digest.hexdigest()


def run_record(name: str, market=None) -> dict:
    """One seeded Algorithm 1 run of architecture ``name``, as pinned."""
    market = market or _market()
    vocab = market.vocab
    config = ModelConfig(
        vocab_size=len(vocab), d_model=16, num_heads=2, d_ff=32,
        encoder_layers=1, decoder_layers=1, dropout=0.0, max_len=48, seed=0,
    )
    forward = ARCHITECTURES[name](config)
    backward = ARCHITECTURES[name](config.scaled(seed=1))
    trainer = CyclicTrainer(
        forward, backward, market.train_pairs, vocab,
        CyclicConfig(
            batch_size=8, beam_width=3, top_n=5, warmup_steps=WARMUP,
            max_title_len=12, log_every=8, seed=0,
        ),
    )
    forward.reset_decode_counters()
    trainer.train(STEPS)
    queries = [vocab.encode(list(q), add_eos=True) for q, _, _ in market.eval_pairs[:8]]
    metrics = translate_back_metrics(
        forward, backward, queries, vocab, k=3, top_n=5, max_title_len=12,
        rng=np.random.default_rng(5),
    )
    history = {}
    for series in trainer.history.names():
        steps, values = trainer.history.series(series)
        history[series] = [steps, [v.hex() for v in values]]
    return {
        "weights_sha256": _weights_sha256(forward, backward),
        "history": history,
        "metrics": {key: value.hex() for key, value in metrics.items()},
        "decode_steps": forward.decode_steps,
        "decode_rows": forward.decode_rows,
    }


def compute() -> dict:
    """The fixture recomputed from the current code (no parent rows)."""
    market = _market()
    runs = {name: run_record(name, market) for name in ARCHITECTURES}
    return {
        "decode_rows": {name: run.pop("decode_rows") for name, run in runs.items()},
        "runs": runs,
    }


if __name__ == "__main__":
    fixture = compute()
    previous = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    fixture["decode_rows_parent"] = previous.get(
        "decode_rows_parent", fixture["decode_rows"]
    )
    GOLDEN_PATH.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
