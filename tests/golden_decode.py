"""Builder of ``tests/data/golden_decode.json`` — the decode byte pin.

The optimized and the reference decoders share ``repro.autograd``, so
``tests/test_decode_equivalence.py`` cannot see a numerics drift inside
a ``Tensor`` op: both sides drift together.  This fixture freezes what
the decode path produced at one commit — first-step logit bytes, every
batch decoder's tokens / ``float.hex()`` log-probs / finished flags /
work counters, and the digest of a bench-shaped ``rewrite_batch`` run —
and ``tests/test_decode_golden.py`` asserts the current code reproduces
it.  Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/golden_decode.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from repro.core.rewriter import DirectRewriter, RewriterConfig
from repro.data import MarketplaceConfig, generate_marketplace
from repro.data.catalog import CatalogConfig
from repro.data.clicklog import ClickLogConfig
from repro.decoding import (
    beam_search,
    beam_search_batch,
    greedy_decode,
    greedy_decode_batch,
    top_n_sampling_batch,
)
from repro.models import HybridNMT, ModelConfig, RecurrentNMT, TransformerNMT

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_decode.json"

VOCAB = 48
#: number of ``rewrite_batch`` calls folded into the stack digest
REWRITE_CALLS = 20

#: ``(beam_size, length_penalty)`` of the single-source beam rows
SINGLE_BEAMS = ((3, 0.0), (4, 0.7))

#: every pinned model is this config, or a ``scaled`` variant of it
BASE = ModelConfig(
    vocab_size=VOCAB, d_model=32, num_heads=4, d_ff=64,
    encoder_layers=2, decoder_layers=2, max_len=64, dropout=0.0, seed=3,
)

#: name -> (model factory, EOS bias).  The gru/rnn and attention/plain
#: variants are pinned separately because each takes its own branch
#: through ``nn.rnn``.  The bias is added to the EOS logit so untrained
#: models finish at ragged steps (compaction, early retirement) instead
#: of always running to ``max_len``; it is tuned per model so that some
#: rows of every decoder finish early and some do not.
MODELS = {
    "hybrid": (lambda: HybridNMT(BASE), 0.5),
    "hybrid_rnn": (lambda: HybridNMT(BASE.scaled(cell_type="rnn", seed=5)), 0.5),
    "transformer": (lambda: TransformerNMT(BASE), 0.5),
    "recurrent": (lambda: RecurrentNMT(BASE), 0.1),
    "recurrent_plain": (
        lambda: RecurrentNMT(BASE.scaled(cell_type="rnn", seed=4), use_attention=False),
        0.5,
    ),
}


def build_model(name: str):
    """The pinned model ``name``, in eval mode, with the EOS bias raised."""
    factory, eos_bias = MODELS[name]
    model = factory()
    model.output_proj.bias.data[model.eos_id] += eos_bias
    model.eval()
    return model


def sources() -> np.ndarray:
    """Padded batch with ragged true lengths (rows 1, 2 and 4 end early)."""
    rng = np.random.default_rng(11)
    out = rng.integers(3, VOCAB, size=(6, 7))
    out[1, 5:] = 0
    out[2, 3:] = 0
    out[4, 1:] = 0
    return out


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _hyp(h) -> list:
    return [list(h.tokens), float(h.log_prob).hex(), bool(h.finished)]


def _counted(model, decode) -> dict:
    model.reset_decode_counters()
    out = decode()
    return {
        "hyps": out,
        "decode_steps": model.decode_steps,
        "decode_rows": model.decode_rows,
    }


def model_record(name: str) -> dict:
    """Everything the fixture pins for one model."""
    model = build_model(name)
    src = sources()
    state = model.start(src)
    logits, _ = model.step(state, np.full(len(src), model.sos_id, dtype=np.int64))
    return {
        "first_step_logits_dtype": str(logits.dtype),
        "first_step_logits_sha256": _sha256(logits),
        "top_n": _counted(
            model,
            lambda: [
                [_hyp(h) for h in group]
                for group in top_n_sampling_batch(
                    model, src, k=3, n=5, max_len=12,
                    rng=np.random.default_rng(42), forbid_tokens=(3,),
                )
            ],
        ),
        "greedy": _counted(
            model, lambda: [_hyp(h) for h in greedy_decode_batch(model, src, max_len=12)]
        ),
        "beam": _counted(
            model,
            lambda: [
                [_hyp(h) for h in group]
                for group in beam_search_batch(model, src, beam_size=3, max_len=12)
            ],
        ),
        # The single-source entry points, one source at a time.
        "singles": [
            {
                "greedy": _hyp(greedy_decode(model, row, max_len=12)),
                "beam": [
                    [
                        _hyp(h)
                        for h in beam_search(
                            model, row, beam_size=size, max_len=12, length_penalty=penalty
                        )
                    ]
                    for size, penalty in SINGLE_BEAMS
                ],
            }
            for row in src
        ],
    }


def rewrite_stack_record() -> dict:
    """Digest of ``REWRITE_CALLS`` calls on a bench-shaped rewrite tier.

    Same shapes as ``bench/stack.py``: an untrained 1+1-layer
    ``HybridNMT`` over the 223-token marketplace vocabulary, ``k=3,
    top_n=5, max_query_len=10``, tails of 2-5 random tokens in batches
    of up to 16 — with single-query ``rewrite`` calls interleaved, since
    the cache warm and the batched path share one RNG stream.
    """
    market = generate_marketplace(
        MarketplaceConfig(
            catalog=CatalogConfig(products_per_category=6),
            clicks=ClickLogConfig(num_sessions=1200, intent_pool_size=120),
            seed=7,
        )
    )
    vocab = market.vocab
    model = HybridNMT(
        ModelConfig(
            vocab_size=len(vocab), d_model=32, num_heads=4, d_ff=64,
            encoder_layers=1, decoder_layers=1, dropout=0.0, seed=0,
        )
    )
    rewriter = DirectRewriter(
        model, vocab, RewriterConfig(k=3, top_n=5, max_query_len=10, seed=0)
    )
    tokens = vocab.tokens()[4:]
    rng = np.random.default_rng(2024)
    digest = hashlib.sha256()

    def fold(results) -> None:
        for r in results:
            digest.update(repr((r.tokens, float(r.log_prob).hex())).encode())
        digest.update(b"|")

    model.reset_decode_counters()
    for call in range(REWRITE_CALLS):
        size = (16, 8, 3, 1)[call % 4]
        queries = [
            " ".join(tokens[i] for i in rng.integers(len(tokens), size=rng.integers(2, 6)))
            for _ in range(size)
        ]
        if call % 5 == 4:
            queries[0] = ""  # an empty query rides along and gets no rewrites
        for results in rewriter.rewrite_batch(queries):
            fold(results)
        fold(rewriter.rewrite(queries[-1]))
    return {
        "vocab_size": len(vocab),
        "sha256": digest.hexdigest(),
        "decode_steps": model.decode_steps,
        "decode_rows": model.decode_rows,
    }


def compute() -> dict:
    """The full fixture, recomputed from the current code."""
    return {
        "models": {name: model_record(name) for name in MODELS},
        "rewrite_stack": rewrite_stack_record(),
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
