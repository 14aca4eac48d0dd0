"""Table V — latency of RNN / GRU / Transformer encoders and decoders.

The paper measures, on CPU with beam width 3, one layer, vocab 3000 and 15
decode steps, that the transformer *encoder* is the cheapest encoder while
the transformer *decoder* is by far the most expensive decoder (its
self-attention re-reads the whole prefix every step).  That asymmetry is
what justifies the hybrid serving model.  Absolute milliseconds differ on
our substrate; the ordering is the reproduction target.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.rendering import ascii_table
from repro.experiments.result import ExperimentResult
from repro.experiments.scale import ExperimentScale, SMALL
from repro.models import ModelConfig, RecurrentNMT, TransformerNMT

PAPER_TABLE_5 = {
    "encoder": {"rnn": 6.0, "gru": 9.0, "transformer": 3.5},
    "decoder": {"rnn": 30.0, "gru": 35.0, "transformer": 67.5},
}

#: paper measurement conditions
BEAM_WIDTH = 3
DECODE_STEPS = 15
VOCAB_SIZE = 3000
SRC_LEN = 12


def _model(kind: str, d_model: int, seed: int = 0):
    config = ModelConfig(
        vocab_size=VOCAB_SIZE,
        d_model=d_model,
        num_heads=4,
        d_ff=2 * d_model,
        encoder_layers=1,
        decoder_layers=1,
        dropout=0.0,
        max_len=64,
        cell_type=kind if kind in ("rnn", "gru") else "gru",
        seed=seed,
    )
    if kind == "transformer":
        return TransformerNMT(config)
    return RecurrentNMT(config, use_attention=False)


def _time_encoder(model, src: np.ndarray, repeats: int) -> float:
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        model.start(src)
        timings.append(time.perf_counter() - started)
    return float(np.median(timings) * 1000.0)


def _time_decoder(model, src: np.ndarray, repeats: int) -> float:
    """Decoder-only time: 15 steps at beam width 3, encoder excluded."""
    decode = _full_prefix_decode if isinstance(model, TransformerNMT) else _recurrent_decode
    return float(np.median([decode(model, src) for _ in range(repeats)]) * 1000.0)


def _recurrent_decode(model: RecurrentNMT, src: np.ndarray) -> float:
    """Seconds for the decode steps; each costs the same at any prefix length."""
    state = model.start(src).reorder(np.zeros(BEAM_WIDTH, dtype=np.int64), model)
    last = np.full(BEAM_WIDTH, model.sos_id, dtype=np.int64)
    started = time.perf_counter()
    for _step in range(DECODE_STEPS):
        logits, state = model.step(state, last)
        last = logits.argmax(axis=-1).astype(np.int64)
    return time.perf_counter() - started


def _full_prefix_decode(model: TransformerNMT, src: np.ndarray) -> float:
    """Seconds for the decode steps of the transformer decoder the paper
    deployed, which re-decodes its whole prefix every step (Section
    III-G).  The KV-cached ``step`` the serving tier runs flattens exactly
    the growth this table exists to show, so each step runs the halves of
    ``model.logits`` on the whole prefix: the source is encoded once,
    outside the timer, and only the newest position is projected."""
    rows = np.zeros(BEAM_WIDTH, dtype=np.int64)
    memory, src_mask = model._encode_infer(src)
    memory, src_mask = memory[rows], src_mask[rows]
    prefix = np.full((BEAM_WIDTH, 1), model.sos_id, dtype=np.int64)
    started = time.perf_counter()
    for _step in range(DECODE_STEPS):
        decoded = model._decode_infer(prefix, memory, src_mask)
        logits = model.output_proj.infer(decoded[:, -1, :])
        prefix = np.concatenate([prefix, logits.argmax(axis=-1)[:, None]], axis=1)
    return time.perf_counter() - started


def run(scale: ExperimentScale = SMALL, repeats: int = 5) -> ExperimentResult:
    rng = np.random.default_rng(scale.seed)
    src = rng.integers(4, VOCAB_SIZE, size=(1, SRC_LEN)).astype(np.int64)
    measured: dict[str, dict[str, float]] = {"encoder": {}, "decoder": {}}
    for kind in ("rnn", "gru", "transformer"):
        model = _model(kind, scale.d_model, seed=scale.seed)
        model.eval()
        measured["encoder"][kind] = _time_encoder(model, src, repeats)
        measured["decoder"][kind] = _time_decoder(model, src, repeats)

    rows = []
    for part in ("encoder", "decoder"):
        for kind in ("rnn", "gru", "transformer"):
            rows.append(
                [part, kind, PAPER_TABLE_5[part][kind], measured[part][kind]]
            )
    rendered = ascii_table(
        ["component", "model", "paper ms", "measured ms"], rows, float_format="{:.2f}"
    )
    return ExperimentResult(
        experiment_id="table5",
        title="Latency of different translation models (ms)",
        measured=measured,
        paper=PAPER_TABLE_5,
        rendered=rendered,
        notes=(
            "Reproduction target is the ordering: transformer decoder slowest "
            "(per-step cost grows with prefix), recurrent decoders constant-cost."
        ),
    )
