"""Recurrent cells and layers (vanilla RNN and GRU).

The paper's online-serving section (III-G) replaces the transformer decoder
with an RNN decoder because its per-step cost is constant, and Table V also
measures a GRU variant; both cells are implemented here.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, concat, stack, where
from repro.autograd.tensor import sigmoid_np, softmax_np
from repro.nn import init
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter


class RNNCell(Module):
    """Vanilla tanh recurrence: ``h' = tanh(x W_x + h W_h + b)``."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = Parameter(init.xavier_uniform((input_size, hidden_size), rng))
        self.w_h = Parameter(init.orthogonal((hidden_size, hidden_size), rng))
        self.bias = Parameter(np.zeros(hidden_size))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        return (x @ self.w_x + h @ self.w_h + self.bias).tanh()

    def infer(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """:meth:`forward` on plain arrays, for decoding."""
        return np.tanh(x @ self.w_x.data + h @ self.w_h.data + self.bias.data)

    def initial_state(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.hidden_size)))


class GRUCell(Module):
    """Gated recurrent unit (Cho et al., 2014)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Update (z), reset (r) and candidate (n) gates, fused per source.
        self.w_x = Parameter(init.xavier_uniform((input_size, 3 * hidden_size), rng))
        self.w_h = Parameter(
            np.concatenate(
                [init.orthogonal((hidden_size, hidden_size), rng) for _ in range(3)], axis=1
            )
        )
        self.bias = Parameter(np.zeros(3 * hidden_size))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        hs = self.hidden_size
        gates_x = x @ self.w_x + self.bias
        gates_h = h @ self.w_h
        # z and r share one sigmoid over their adjacent columns
        # (elementwise, so each gate's bytes are what two calls give).
        zr = (gates_x[:, : 2 * hs] + gates_h[:, : 2 * hs]).sigmoid()
        z, r = zr[:, :hs], zr[:, hs:]
        n = (gates_x[:, 2 * hs :] + r * gates_h[:, 2 * hs :]).tanh()
        return (1.0 - z) * n + z * h

    def infer(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """:meth:`forward` on plain arrays, for decoding."""
        hs = self.hidden_size
        gates_x = x @ self.w_x.data + self.bias.data
        gates_h = h @ self.w_h.data
        zr = sigmoid_np(gates_x[:, : 2 * hs] + gates_h[:, : 2 * hs])
        z, r = zr[:, :hs], zr[:, hs:]
        n = np.tanh(gates_x[:, 2 * hs :] + r * gates_h[:, 2 * hs :])
        return (1.0 - z) * n + z * h

    def initial_state(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.hidden_size)))


class RecurrentEncoder(Module):
    """Unidirectional recurrent encoder over embedded sequences.

    Padded positions (given by ``pad_mask``) simply carry the previous hidden
    state forward, so the final state equals the state at each sequence's
    true last token.
    """

    def __init__(self, cell: Module):
        super().__init__()
        self.cell = cell

    def forward(self, embedded: Tensor, pad_mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        """Run over ``(batch, seq, input)`` and return ``(outputs, final)``.

        ``outputs`` is ``(batch, seq, hidden)``; ``final`` is ``(batch, hidden)``.
        """
        batch, seq_len, _ = embedded.shape
        h = self.cell.initial_state(batch)
        outputs = []
        for t in range(seq_len):
            x_t = embedded[:, t, :]
            h_new = self.cell(x_t, h)
            if pad_mask is not None:
                is_pad = pad_mask[:, t][:, None]
                h = where(is_pad, h, h_new)
            else:
                h = h_new
            outputs.append(h)
        return stack(outputs, axis=1), h


class RecurrentDecoderCell(Module):
    """Single-step recurrent decoder with optional additive attention.

    When ``attention`` is provided (see :class:`AdditiveAttention`), each step
    attends over encoder ``memory`` and conditions the recurrence on the
    concatenation of the token embedding and the context vector — the
    Bahdanau et al. (2014) architecture used by the paper's
    "attention-based" model variant.
    """

    def __init__(self, cell: Module, attention: "AdditiveAttention | None" = None):
        super().__init__()
        self.cell = cell
        self.attention = attention

    def step(
        self,
        embedded_token: Tensor,
        hidden: Tensor,
        memory: Tensor | None = None,
        memory_pad_mask: np.ndarray | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Advance one step; returns ``(output, new_hidden)``."""
        if self.attention is not None:
            if memory is None:
                raise ValueError("attention decoder requires encoder memory")
            context, _ = self.attention(hidden, memory, memory_pad_mask)
            x = concat([embedded_token, context], axis=-1)
        else:
            x = embedded_token
        new_hidden = self.cell(x, hidden)
        return new_hidden, new_hidden

    def infer(
        self, embedded_token: np.ndarray, hidden: np.ndarray, memory: np.ndarray,
        memory_pad_mask: np.ndarray, projected_keys: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`step` on plain arrays, for decoding; returns the new
        hidden state, which is also the step's output."""
        if self.attention is not None:
            context, _ = self.attention.infer(
                hidden, memory, memory_pad_mask, projected_keys=projected_keys
            )
            x = np.concatenate([embedded_token, context], axis=-1)
        else:
            x = embedded_token
        return self.cell.infer(x, hidden)

    def initial_state(self, batch_size: int) -> Tensor:
        return self.cell.initial_state(batch_size)


class AdditiveAttention(Module):
    """Bahdanau-style additive attention.

    Scores ``v^T tanh(W_q q + W_k k)`` between a decoder state and every
    encoder position; returns the context vector and the attention weights
    (also retained in :attr:`last_weights` for visualization).
    """

    def __init__(self, query_size: int, key_size: int, attn_size: int, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.q_proj = Linear(query_size, attn_size, bias=False, rng=rng)
        self.k_proj = Linear(key_size, attn_size, bias=False, rng=rng)
        self.v = Parameter(init.xavier_uniform((attn_size, 1), rng))
        self.last_weights: np.ndarray | None = None

    def forward(
        self,
        query: Tensor,
        memory: Tensor,
        memory_pad_mask: np.ndarray | None = None,
    ) -> tuple[Tensor, Tensor]:
        """``query`` is ``(batch, q)``; ``memory`` is ``(batch, seq, k)``."""
        q = self.q_proj(query)[:, None, :]  # (batch, 1, attn)
        k = self.k_proj(memory)  # (batch, seq, attn)
        scores = ((q + k).tanh() @ self.v)[:, :, 0]  # (batch, seq)
        if memory_pad_mask is not None:
            scores = scores.masked_fill(memory_pad_mask, -1e9)
        weights = scores.softmax(axis=-1)
        self.last_weights = weights.data
        context = (weights[:, None, :] @ memory)[:, 0, :]
        return context, weights

    def infer(
        self,
        query: np.ndarray,
        memory: np.ndarray,
        memory_pad_mask: np.ndarray | None = None,
        projected_keys: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`forward` on plain arrays, for decoding.  ``projected_keys``
        is ``k_proj.infer(memory)`` when a decoder cached it at ``start()``."""
        q = self.q_proj.infer(query)[:, None, :]
        k = self.k_proj.infer(memory) if projected_keys is None else projected_keys
        scores = (np.tanh(q + k) @ self.v.data)[:, :, 0]
        if memory_pad_mask is not None:
            scores = np.where(memory_pad_mask, -1e9, scores)
        weights = softmax_np(scores, axis=-1)
        self.last_weights = weights
        context = (weights[:, None, :] @ memory)[:, 0, :]
        return context, weights
