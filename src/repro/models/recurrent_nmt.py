"""Recurrent (RNN / GRU) encoder-decoder translation models.

Covers two of the paper's comparators:

* the "attention-based" NMT of Bahdanau et al. (2014) — a GRU
  encoder-decoder with additive attention (Figure 8's baseline);
* the "pure RNN" serving model of Section III-G (Figure 9) whose decoder
  has constant per-step cost (Table V).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, no_grad, stack
from repro.models.base import DecodeState, RecurrentDecoderModel
from repro.models.config import ModelConfig
from repro.nn import (
    AdditiveAttention,
    Embedding,
    GRUCell,
    Linear,
    RecurrentDecoderCell,
    RecurrentEncoder,
    RNNCell,
)


def _make_cell(cell_type: str, input_size: int, hidden_size: int, rng) -> GRUCell | RNNCell:
    if cell_type == "gru":
        return GRUCell(input_size, hidden_size, rng=rng)
    if cell_type == "rnn":
        return RNNCell(input_size, hidden_size, rng=rng)
    raise ValueError(f"unknown cell type {cell_type!r} (expected 'rnn' or 'gru')")


class RecurrentNMT(RecurrentDecoderModel):
    """RNN/GRU encoder-decoder, optionally with Bahdanau attention.

    Parameters
    ----------
    config:
        ``config.cell_type`` selects ``"rnn"`` or ``"gru"`` for both sides;
        ``config.d_model`` is used as both the embedding and hidden width.
    use_attention:
        When True, the decoder attends over encoder outputs each step
        (the Bahdanau architecture).  When False, the decoder sees only the
        final encoder state — cheaper, and what the paper's pure-RNN
        serving variant uses.
    """

    def __init__(
        self,
        config: ModelConfig,
        use_attention: bool = True,
        pad_id: int = 0,
        sos_id: int = 1,
        eos_id: int = 2,
    ):
        super().__init__(config.vocab_size, pad_id, sos_id, eos_id)
        self.config = config
        self.use_attention = use_attention
        rng = np.random.default_rng(config.seed)
        d = config.d_model
        self.embedding = Embedding(config.vocab_size, d, padding_idx=pad_id, rng=rng)
        self.encoder = RecurrentEncoder(_make_cell(config.cell_type, d, d, rng))
        attention = AdditiveAttention(d, d, d, rng=rng) if use_attention else None
        decoder_input = d + d if use_attention else d
        self.decoder = RecurrentDecoderCell(
            _make_cell(config.cell_type, decoder_input, d, rng), attention
        )
        self.output_proj = Linear(d, config.vocab_size, rng=rng)

    # -- encoding ------------------------------------------------------------
    def encode(self, src: np.ndarray) -> tuple[Tensor, Tensor, np.ndarray]:
        """Returns (all encoder states, final state, pad mask)."""
        src = np.asarray(src)
        pad_mask = src == self.pad_id
        outputs, final = self.encoder(self.embedding(src), pad_mask=pad_mask)
        return outputs, final, pad_mask

    # -- training view -----------------------------------------------------------
    def forward(self, src: np.ndarray, tgt_in: np.ndarray) -> Tensor:
        tgt_in = np.asarray(tgt_in)
        memory, hidden, pad_mask = self.encode(src)
        embedded = self.embedding(tgt_in)
        step_logits: list[Tensor] = []
        for t in range(tgt_in.shape[1]):
            output, hidden = self.decoder.step(
                embedded[:, t, :],
                hidden,
                memory=memory if self.use_attention else None,
                memory_pad_mask=pad_mask if self.use_attention else None,
            )
            step_logits.append(self.output_proj(output))
        return stack(step_logits, axis=1)

    # -- decoding view ---------------------------------------------------------------
    def start(self, src: np.ndarray, use_cache: bool = True) -> DecodeState:
        """Encode ``src``; with ``use_cache=True``, precompute the
        additive attention's key projection of the memory so each decode
        step skips the one sub-computation that never changes
        (byte-identical outputs either way; no-op without attention).
        """
        src = np.asarray(src)
        with no_grad():
            memory, final, pad_mask = self.encode(src)
            payload = {
                "hidden": final.data,
                "memory": memory.data,
                "mem_pad": pad_mask,
            }
            if use_cache and self.use_attention:
                payload["mem_keys"] = self.decoder.attention.k_proj.infer(memory.data)
        return DecodeState(batch_size=src.shape[0], payload=payload)

    # -- introspection ------------------------------------------------------------
    def attention_map(self) -> np.ndarray | None:
        """Attention weights of the most recent decode step (if attending)."""
        if self.decoder.attention is None:
            return None
        return self.decoder.attention.last_weights


def AttentionNMT(config: ModelConfig, **kwargs) -> RecurrentNMT:
    """The Bahdanau attention-based model: GRU + additive attention."""
    if config.cell_type != "gru":
        config = config.scaled(cell_type="gru")
    return RecurrentNMT(config, use_attention=True, **kwargs)
