"""Scaled dot-product multi-head attention."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.autograd.tensor import softmax_np
from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.nn.module import Module

_NEG_INF = -1e9


class MultiHeadAttention(Module):
    """Multi-head attention as in "Attention Is All You Need".

    The layer keeps the attention weights of its most recent forward pass in
    :attr:`last_weights` (a ``(batch, heads, q_len, k_len)`` array) so the
    attention heat maps of the paper's Figure 6 can be rendered.

    Parameters
    ----------
    d_model:
        Model width; must be divisible by ``num_heads``.
    num_heads:
        Number of parallel attention heads.
    dropout:
        Dropout probability applied to the attention distribution.
    """

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by num_heads={num_heads}")
        rng = rng or np.random.default_rng()
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.q_proj = Linear(d_model, d_model, rng=rng)
        self.k_proj = Linear(d_model, d_model, rng=rng)
        self.v_proj = Linear(d_model, d_model, rng=rng)
        self.out_proj = Linear(d_model, d_model, rng=rng)
        self.attn_dropout = Dropout(dropout, rng=rng)
        self.last_weights: np.ndarray | None = None

    def _split_heads(self, x):
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.num_heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge_heads(self, x):
        batch, heads, seq, d_head = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * d_head)

    def project_kv(self, x: Tensor) -> tuple[np.ndarray, np.ndarray]:
        """Project ``x`` through the K/V heads once, for reuse across steps.

        Returns plain ``(batch, heads, seq, d_head)`` arrays — the exact
        keys/values :meth:`forward` would compute from the same input — so
        incremental decoders can cache them in a
        :class:`~repro.models.base.DecodeState` instead of re-projecting
        the whole prefix (or the whole encoder memory) every step.
        """
        return (
            self._split_heads(self.k_proj(x)).data,
            self._split_heads(self.v_proj(x)).data,
        )

    def attend_cached(
        self,
        query: Tensor,
        k: np.ndarray,
        v: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> Tensor:
        """Attend from ``query`` over *precomputed* keys/values.

        ``k``/``v`` are ``(batch, heads, k_len, d_head)`` arrays from
        :meth:`project_kv` (possibly grown one position per decode step).
        The math is identical to :meth:`forward` with the projections
        skipped, so cached decoding reproduces the uncached logits up to
        float reassociation from the different matmul shapes.
        """
        q = self._split_heads(self.q_proj(query))
        scores = (q @ Tensor(k).swapaxes(-1, -2)) * (self.d_head**-0.5)
        if mask is not None:
            scores = scores.masked_fill(mask, _NEG_INF)
        weights = scores.softmax(axis=-1)
        self.last_weights = weights.data
        weights = self.attn_dropout(weights)
        context = self._merge_heads(weights @ Tensor(v))
        return self.out_proj(context)

    def forward(
        self,
        query: Tensor,
        key: Tensor,
        value: Tensor,
        mask: np.ndarray | None = None,
    ) -> Tensor:
        """Attend from ``query`` positions to ``key``/``value`` positions.

        Parameters
        ----------
        query, key, value:
            ``(batch, seq, d_model)`` tensors.
        mask:
            Boolean array broadcastable to ``(batch, heads, q_len, k_len)``;
            ``True`` marks positions that must NOT be attended to.
        """
        q = self._split_heads(self.q_proj(query))
        k = self._split_heads(self.k_proj(key))
        v = self._split_heads(self.v_proj(value))

        scores = (q @ k.swapaxes(-1, -2)) * (self.d_head**-0.5)
        if mask is not None:
            scores = scores.masked_fill(mask, _NEG_INF)
        weights = scores.softmax(axis=-1)
        self.last_weights = weights.data
        weights = self.attn_dropout(weights)
        context = self._merge_heads(weights @ v)
        return self.out_proj(context)

    def infer(self, x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Self-attention :meth:`forward` (``x`` as query, key and value)
        on plain arrays, for decoding."""
        q, k, v = (
            self._split_heads(proj.infer(x)) for proj in (self.q_proj, self.k_proj, self.v_proj)
        )
        scores = (q @ k.swapaxes(-1, -2)) * (self.d_head**-0.5)
        if mask is not None:
            scores = np.where(mask, _NEG_INF, scores)
        weights = softmax_np(scores, axis=-1)
        self.last_weights = weights
        weights = self.attn_dropout.infer(weights)
        context = self._merge_heads(weights @ v)
        return self.out_proj.infer(context)


def padding_mask(token_ids: np.ndarray, pad_id: int) -> np.ndarray:
    """Mask blocking attention to PAD key positions.

    Returns a boolean array of shape ``(batch, 1, 1, seq)`` suitable for
    broadcasting against attention scores.
    """
    return (np.asarray(token_ids) == pad_id)[:, None, None, :]


def causal_mask(seq_len: int) -> np.ndarray:
    """Upper-triangular mask blocking attention to future positions.

    Shape ``(1, 1, seq, seq)``.
    """
    return np.triu(np.ones((seq_len, seq_len), dtype=bool), k=1)[None, None]
