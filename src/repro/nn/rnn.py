"""Recurrent cells and layers (vanilla RNN and GRU).

The paper's online-serving section (III-G) replaces the transformer decoder
with an RNN decoder because its per-step cost is constant, and Table V also
measures a GRU variant; both cells are implemented here.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, concat, stack, where
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
        projected_keys: np.ndarray | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Advance one step; returns ``(output, new_hidden)``.

        ``projected_keys`` optionally carries the attention's
        once-per-decode key projection of ``memory`` (see
        :meth:`AdditiveAttention.project_keys`); omitting it re-projects
        the memory this step, byte-identically.
        """
        if self.attention is not None:
            if memory is None:
                raise ValueError("attention decoder requires encoder memory")
            context, _ = self.attention(
                hidden, memory, memory_pad_mask, projected_keys=projected_keys
            )
            x = concat([embedded_token, context], axis=-1)
        else:
            x = embedded_token
        new_hidden = self.cell(x, hidden)
        return new_hidden, new_hidden

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

    def project_keys(self, memory: Tensor) -> np.ndarray:
        """Project ``memory`` through the key head once, for reuse.

        The key projection depends only on the (fixed) encoder memory, so
        incremental decoders compute it once in ``start()`` and pass it
        back through :meth:`forward` every step — the additive-attention
        analogue of transformer cross-attention K/V caching.  Returns a
        plain ``(batch, seq, attn)`` array.
        """
        return self.k_proj(memory).data

    def forward(
        self,
        query: Tensor,
        memory: Tensor,
        memory_pad_mask: np.ndarray | None = None,
        projected_keys: np.ndarray | None = None,
    ) -> tuple[Tensor, Tensor]:
        """``query`` is ``(batch, q)``; ``memory`` is ``(batch, seq, k)``.

        ``projected_keys``, when given, must be
        :meth:`project_keys`'s output for this memory; the scores it
        yields are byte-identical to re-projecting in place.
        """
        q = self.q_proj(query)[:, None, :]  # (batch, 1, attn)
        if projected_keys is not None:
            k = Tensor(projected_keys)  # (batch, seq, attn), cached
        else:
            k = self.k_proj(memory)  # (batch, seq, attn)
        scores = ((q + k).tanh() @ self.v)[:, :, 0]  # (batch, seq)
        if memory_pad_mask is not None:
            scores = scores.masked_fill(memory_pad_mask, -1e9)
        weights = scores.softmax(axis=-1)
        self.last_weights = weights.data
        context = (weights[:, None, :] @ memory)[:, 0, :]
        return context, weights
