"""Transformer encoder/decoder stacks (pre-norm variant).

These are the building blocks for the paper's query-to-title (4 layers) and
title-to-query (1 layer) translation models.  We use pre-layer-norm residual
blocks, which train stably without a warmup-sensitive schedule at the small
scales of this reproduction; the original post-norm formulation differs only
in where LayerNorm sits.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.nn.attention import MultiHeadAttention
from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.nn.module import Module, ModuleList
from repro.nn.norm import LayerNorm


class FeedForward(Module):
    """Position-wise two-layer MLP with ReLU."""

    def __init__(
        self,
        d_model: int,
        d_ff: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.fc1 = Linear(d_model, d_ff, rng=rng)
        self.fc2 = Linear(d_ff, d_model, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.dropout(self.fc1(x).relu()))

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on plain arrays."""
        hidden = self.fc1.infer(x)
        hidden = hidden * (hidden > 0)
        return self.fc2.infer(self.dropout.infer(hidden))


class TransformerEncoderLayer(Module):
    """Self-attention + feed-forward block with pre-norm residuals."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        d_ff: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.self_attn = MultiHeadAttention(d_model, num_heads, dropout=dropout, rng=rng)
        self.ff = FeedForward(d_model, d_ff, dropout=dropout, rng=rng)
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        normed = self.norm1(x)
        x = x + self.dropout(self.self_attn(normed, normed, normed, mask=mask))
        x = x + self.dropout(self.ff(self.norm2(x)))
        return x

    def infer(self, x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """:meth:`forward` on plain arrays."""
        normed = self.norm1.infer(x)
        x = x + self.dropout.infer(self.self_attn.infer(normed, normed, normed, mask=mask))
        x = x + self.dropout.infer(self.ff.infer(self.norm2.infer(x)))
        return x

    def step(
        self,
        x: np.ndarray,
        cache: tuple[np.ndarray, np.ndarray],
        mask: np.ndarray | None = None,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """:meth:`infer` over new positions ``x`` after the cached ones
        (see :meth:`MultiHeadAttention.step`, which ``mask`` is for).
        Returns the block output and the grown self-attention cache."""
        normed = self.norm1.infer(x)
        attended, cache = self.self_attn.step(normed, cache, mask=mask)
        x = x + self.dropout.infer(attended)
        x = x + self.dropout.infer(self.ff.infer(self.norm2.infer(x)))
        return x, cache


class TransformerDecoderLayer(Module):
    """Masked self-attention + cross-attention + feed-forward block."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        d_ff: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.self_attn = MultiHeadAttention(d_model, num_heads, dropout=dropout, rng=rng)
        self.cross_attn = MultiHeadAttention(d_model, num_heads, dropout=dropout, rng=rng)
        self.ff = FeedForward(d_model, d_ff, dropout=dropout, rng=rng)
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.norm3 = LayerNorm(d_model)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(
        self,
        x: Tensor,
        memory: Tensor,
        self_mask: np.ndarray | None = None,
        memory_mask: np.ndarray | None = None,
    ) -> Tensor:
        normed = self.norm1(x)
        x = x + self.dropout(self.self_attn(normed, normed, normed, mask=self_mask))
        normed = self.norm2(x)
        x = x + self.dropout(self.cross_attn(normed, memory, memory, mask=memory_mask))
        x = x + self.dropout(self.ff(self.norm3(x)))
        return x

    def step(
        self,
        x: np.ndarray,
        cross_kv: tuple[np.ndarray, np.ndarray],
        cache: tuple[np.ndarray, np.ndarray],
        self_mask: np.ndarray | None = None,
        memory_mask: np.ndarray | None = None,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """:meth:`forward` on plain arrays, over new target positions
        ``x`` after the cached ones.  ``cross_kv`` is
        ``cross_attn.project_kv(memory)``, computed once per decode;
        ``cache`` and ``self_mask`` are the self-attention's (see
        :meth:`MultiHeadAttention.step`).  From an empty cache over a whole
        prefix this is :meth:`forward`'s array twin.  Returns the block
        output and the grown self-attention cache."""
        normed = self.norm1.infer(x)
        attended, cache = self.self_attn.step(normed, cache, mask=self_mask)
        x = x + self.dropout.infer(attended)
        normed = self.norm2.infer(x)
        x = x + self.dropout.infer(self.cross_attn.attend(normed, *cross_kv, mask=memory_mask))
        x = x + self.dropout.infer(self.ff.infer(self.norm3.infer(x)))
        return x, cache


class TransformerEncoder(Module):
    """Stack of encoder layers with a final LayerNorm."""

    def __init__(
        self,
        num_layers: int,
        d_model: int,
        num_heads: int,
        d_ff: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.layers = ModuleList(
            TransformerEncoderLayer(d_model, num_heads, d_ff, dropout=dropout, rng=rng)
            for _ in range(num_layers)
        )
        self.final_norm = LayerNorm(d_model)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        for layer in self.layers:
            x = layer(x, mask=mask)
        return self.final_norm(x)

    def infer(self, x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """:meth:`forward` on plain arrays."""
        for layer in self.layers:
            x = layer.infer(x, mask=mask)
        return self.final_norm.infer(x)

    def step(
        self,
        x: np.ndarray,
        caches: list[tuple[np.ndarray, np.ndarray]],
        mask: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """:meth:`infer` over new positions ``x`` after the cached ones,
        one self-attention cache per layer: the causal (GPT-style) decode
        of this stack.  Returns the final-normed output and the grown
        caches."""
        grown = []
        for layer, cache in zip(self.layers, caches):
            x, cache = layer.step(x, cache, mask=mask)
            grown.append(cache)
        return self.final_norm.infer(x), grown


class TransformerDecoder(Module):
    """Stack of decoder layers with a final LayerNorm.

    :attr:`cross_attention_weights` exposes the per-layer cross-attention
    maps from the last forward pass for visualization (paper Figure 6).
    """

    def __init__(
        self,
        num_layers: int,
        d_model: int,
        num_heads: int,
        d_ff: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.layers = ModuleList(
            TransformerDecoderLayer(d_model, num_heads, d_ff, dropout=dropout, rng=rng)
            for _ in range(num_layers)
        )
        self.final_norm = LayerNorm(d_model)

    def forward(
        self,
        x: Tensor,
        memory: Tensor,
        self_mask: np.ndarray | None = None,
        memory_mask: np.ndarray | None = None,
    ) -> Tensor:
        for layer in self.layers:
            x = layer(x, memory, self_mask=self_mask, memory_mask=memory_mask)
        return self.final_norm(x)

    def step(
        self,
        x: np.ndarray,
        cross_kv: list[tuple[np.ndarray, np.ndarray]],
        caches: list[tuple[np.ndarray, np.ndarray]],
        self_mask: np.ndarray | None = None,
        memory_mask: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """:meth:`forward` on plain arrays, over new target positions
        ``x`` after the cached ones, with one ``cross_kv`` pair and one
        self-attention cache per layer.  From empty caches over a whole
        prefix it is the teacher-forced pass; one new position costs
        O(prefix), not the O(prefix²) of re-running the whole prefix.
        Returns the final-normed output and the grown caches."""
        grown = []
        for layer, layer_cross, cache in zip(self.layers, cross_kv, caches):
            x, cache = layer.step(
                x, layer_cross, cache, self_mask=self_mask, memory_mask=memory_mask
            )
            grown.append(cache)
        return self.final_norm.infer(x), grown

    @property
    def cross_attention_weights(self) -> list[np.ndarray]:
        return [
            layer.cross_attn.last_weights
            for layer in self.layers
            if layer.cross_attn.last_weights is not None
        ]
