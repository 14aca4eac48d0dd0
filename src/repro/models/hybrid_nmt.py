"""Hybrid model: transformer encoder + recurrent decoder (Section III-G).

The paper's online-serving analysis found the transformer *decoder* to be
the latency bottleneck (its per-step cost grows with the prefix length)
while the transformer *encoder* runs once per query and is cheap (Table V).
The deployed long-tail model therefore keeps the transformer encoder and
swaps in an RNN decoder with attention; Figure 9 shows this hybrid clearly
beats a pure-RNN model on quality.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, stack
from repro.models.base import DecodeState, RecurrentDecoderModel
from repro.models.config import ModelConfig
from repro.nn import (
    AdditiveAttention,
    Embedding,
    GRUCell,
    Linear,
    PositionalEncoding,
    RecurrentDecoderCell,
    RNNCell,
    TransformerEncoder,
)
from repro.nn.attention import padding_mask


class HybridNMT(RecurrentDecoderModel):
    """Transformer encoder + RNN/GRU decoder with additive attention."""

    def __init__(self, config: ModelConfig, pad_id: int = 0, sos_id: int = 1, eos_id: int = 2):
        super().__init__(config.vocab_size, pad_id, sos_id, eos_id)
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.d_model
        self.embedding = Embedding(config.vocab_size, d, padding_idx=pad_id, rng=rng)
        self.positional = PositionalEncoding(d, max_len=config.max_len)
        self.encoder = TransformerEncoder(
            config.encoder_layers, d, config.num_heads, config.d_ff,
            dropout=config.dropout, rng=rng,
        )
        cell_cls = GRUCell if config.cell_type == "gru" else RNNCell
        self.decoder = RecurrentDecoderCell(
            cell_cls(d + d, d, rng=rng), AdditiveAttention(d, d, d, rng=rng)
        )
        self.output_proj = Linear(d, config.vocab_size, rng=rng)
        self._embed_scale = d**0.5

    def encode(self, src: np.ndarray) -> tuple[Tensor, np.ndarray, np.ndarray]:
        """Returns (memory, attention pad mask (batch, seq), 4-d key mask)."""
        src = np.asarray(src)
        key_mask = padding_mask(src, self.pad_id)
        embedded = self.positional(self.embedding(src) * self._embed_scale)
        memory = self.encoder(embedded, mask=key_mask)
        return memory, src == self.pad_id, key_mask

    def _initial_hidden(self, memory, pad_mask: np.ndarray):
        """Mean-pool non-pad encoder states as the decoder's start state
        (``memory`` a ``Tensor`` in training, an ndarray in :meth:`start`)."""
        keep = (~pad_mask).astype(np.float64)[:, :, None]
        denominator = np.maximum(keep.sum(axis=1), 1.0)
        return (memory * keep).sum(axis=1) / denominator

    # -- training view -------------------------------------------------------
    def forward(self, src: np.ndarray, tgt_in: np.ndarray) -> Tensor:
        tgt_in = np.asarray(tgt_in)
        memory, pad_mask, _ = self.encode(src)
        hidden = self._initial_hidden(memory, pad_mask)
        embedded = self.embedding(tgt_in)
        step_logits: list[Tensor] = []
        for t in range(tgt_in.shape[1]):
            output, hidden = self.decoder.step(
                embedded[:, t, :], hidden, memory=memory, memory_pad_mask=pad_mask
            )
            step_logits.append(self.output_proj(output))
        return stack(step_logits, axis=1)

    # -- decoding view ----------------------------------------------------------
    def start(self, src: np.ndarray) -> DecodeState:
        """Encode ``src`` once, on plain arrays through the modules'
        ``infer`` methods (:meth:`encode`'s bytes).  The additive
        attention's key projection of the memory, the only per-step
        quantity that does not depend on the prefix, is computed here and
        reused every step.
        """
        src = np.asarray(src)
        pad_mask = src == self.pad_id
        embedded = self.positional.infer(self.embedding.infer(src) * self._embed_scale)
        memory = self.encoder.infer(embedded, mask=padding_mask(src, self.pad_id))
        payload = {
            "hidden": self._initial_hidden(memory, pad_mask),
            "memory": memory,
            "mem_pad": pad_mask,
            "mem_keys": self.decoder.attention.k_proj.infer(memory),
        }
        return DecodeState(batch_size=src.shape[0], payload=payload)
