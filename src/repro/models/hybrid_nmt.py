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

from repro.autograd import Tensor, no_grad, stack
from repro.models.base import DecodeState, Seq2SeqModel
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


class HybridNMT(Seq2SeqModel):
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

    def _initial_hidden(self, memory: Tensor, pad_mask: np.ndarray) -> Tensor:
        """Mean-pool non-pad encoder states as the decoder's start state."""
        keep = (~pad_mask).astype(np.float64)[:, :, None]
        denominator = np.maximum(keep.sum(axis=1), 1.0)
        return (memory * Tensor(keep)).sum(axis=1) / Tensor(denominator)

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
    def start(self, src: np.ndarray, use_cache: bool = True) -> DecodeState:
        """Encode ``src`` once; optionally precompute attention keys.

        The transformer half (the encoder) runs exactly once either way.
        With ``use_cache=True`` the additive attention's key projection of
        the memory — the only per-step quantity that does not depend on
        the decode prefix — is computed here and reused every step,
        byte-identically.  ``use_cache=False`` re-projects per step (the
        seed cost profile, kept as the measured baseline).
        """
        src = np.asarray(src)
        with no_grad():
            memory, pad_mask, _ = self.encode(src)
            hidden = self._initial_hidden(memory, pad_mask)
            payload = {
                "hidden": hidden.data,
                "memory": memory.data,
                "mem_pad": pad_mask,
            }
            if use_cache:
                payload["mem_keys"] = self.decoder.attention.project_keys(memory)
        return DecodeState(batch_size=src.shape[0], payload=payload)

    def step(self, state: DecodeState, last_tokens: np.ndarray) -> tuple[np.ndarray, DecodeState]:
        """One recurrent decode step (constant cost in the prefix length).

        Reuses the cached attention key projection when the state carries
        one; outputs are byte-identical with or without the cache.
        """
        self._count_step(state.batch_size)
        with no_grad():
            embedded = self.embedding(np.asarray(last_tokens).reshape(-1))
            output, hidden = self.decoder.step(
                embedded,
                Tensor(state.payload["hidden"]),
                memory=Tensor(state.payload["memory"]),
                memory_pad_mask=state.payload["mem_pad"],
                projected_keys=state.payload.get("mem_keys"),
            )
            logits = self.output_proj(output)
        new_payload = dict(state.payload)
        new_payload["hidden"] = hidden.data
        new_state = DecodeState(batch_size=state.batch_size, payload=new_payload)
        return logits.data, new_state

    def reorder_state(self, state: DecodeState, index: np.ndarray) -> DecodeState:
        """Select/duplicate batch rows, cached attention keys included."""
        return DecodeState(
            batch_size=len(index),
            payload={key: value[index] for key, value in state.payload.items()},
        )
