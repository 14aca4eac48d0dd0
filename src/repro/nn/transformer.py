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
        """:meth:`forward` on plain arrays, for decoding."""
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
        """:meth:`forward` on plain arrays, for decoding."""
        normed = self.norm1.infer(x)
        x = x + self.dropout.infer(self.self_attn.infer(normed, mask=mask))
        x = x + self.dropout.infer(self.ff.infer(self.norm2.infer(x)))
        return x

    def forward_and_cache(
        self, x: Tensor, mask: np.ndarray | None = None
    ) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
        """Full-sequence forward that also returns the self-attention K/V.

        Used to *prime* an incremental cache from an existing prefix (the
        causal LM's prompt): the output equals :meth:`forward` and the
        returned ``(k, v)`` pair seeds :meth:`step`'s cache.
        """
        normed = self.norm1(x)
        k, v = self.self_attn.project_kv(normed)
        x = x + self.dropout(self.self_attn.attend_cached(normed, k, v, mask=mask))
        x = x + self.dropout(self.ff(self.norm2(x)))
        return x, (k, v)

    def step(
        self,
        x: Tensor,
        cache: tuple[np.ndarray, np.ndarray],
        key_mask: np.ndarray | None = None,
    ) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
        """Advance one position with a self-attention K/V cache.

        ``x`` is the newest position only, ``(batch, 1, d_model)``; the
        cached keys/values cover every earlier position.  Because the
        newest query may attend to the whole (pad-masked) past plus
        itself, no causal mask is needed — ``key_mask`` only blocks pad
        key columns, broadcastable to ``(batch, 1, 1, cached+1)``.
        Returns the block output and the grown cache.
        """
        normed = self.norm1(x)
        k_new, v_new = self.self_attn.project_kv(normed)
        k = np.concatenate([cache[0], k_new], axis=2)
        v = np.concatenate([cache[1], v_new], axis=2)
        x = x + self.dropout(self.self_attn.attend_cached(normed, k, v, mask=key_mask))
        x = x + self.dropout(self.ff(self.norm2(x)))
        return x, (k, v)


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
        x: Tensor,
        cross_kv: tuple[np.ndarray, np.ndarray],
        self_cache: tuple[np.ndarray, np.ndarray],
        self_key_mask: np.ndarray | None = None,
        memory_mask: np.ndarray | None = None,
    ) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
        """Advance one decode position with K/V caches.

        ``x`` is the newest target position, ``(batch, 1, d_model)``.
        ``cross_kv`` holds this layer's cross-attention projections of the
        encoder memory (computed once per decode, see
        :meth:`TransformerDecoder.project_memory`); ``self_cache`` holds
        the self-attention K/V of every earlier target position.  The
        newest position may attend to the entire cached prefix plus
        itself, so causality is structural and ``self_key_mask`` only
        blocks pad key columns.  Returns the block output and the grown
        self-attention cache.
        """
        normed = self.norm1(x)
        k_new, v_new = self.self_attn.project_kv(normed)
        k = np.concatenate([self_cache[0], k_new], axis=2)
        v = np.concatenate([self_cache[1], v_new], axis=2)
        x = x + self.dropout(
            self.self_attn.attend_cached(normed, k, v, mask=self_key_mask)
        )
        normed = self.norm2(x)
        x = x + self.dropout(
            self.cross_attn.attend_cached(
                normed, cross_kv[0], cross_kv[1], mask=memory_mask
            )
        )
        x = x + self.dropout(self.ff(self.norm3(x)))
        return x, (k, v)


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
        """:meth:`forward` on plain arrays, for decoding."""
        for layer in self.layers:
            x = layer.infer(x, mask=mask)
        return self.final_norm.infer(x)

    def forward_and_cache(
        self, x: Tensor, mask: np.ndarray | None = None
    ) -> tuple[Tensor, list[tuple[np.ndarray, np.ndarray]]]:
        """Full-sequence forward that also returns per-layer K/V caches.

        Primes incremental decoding from an existing prefix (the causal
        LM's prompt): the output equals :meth:`forward`, and the caches
        seed :meth:`step`.
        """
        caches: list[tuple[np.ndarray, np.ndarray]] = []
        for layer in self.layers:
            x, kv = layer.forward_and_cache(x, mask=mask)
            caches.append(kv)
        return self.final_norm(x), caches

    def step(
        self,
        x: Tensor,
        caches: list[tuple[np.ndarray, np.ndarray]],
        key_mask: np.ndarray | None = None,
    ) -> tuple[Tensor, list[tuple[np.ndarray, np.ndarray]]]:
        """Advance one position through the stack with K/V caches.

        Used for causal (GPT-style) decoding, where this encoder stack
        runs under a causal mask: ``x`` is the newest position only and
        ``key_mask`` blocks pad key columns, ``(batch, 1, 1, cached+1)``.
        Returns the final-normed output and the grown per-layer caches.
        """
        new_caches: list[tuple[np.ndarray, np.ndarray]] = []
        for layer, cache in zip(self.layers, caches):
            x, grown = layer.step(x, cache, key_mask=key_mask)
            new_caches.append(grown)
        return self.final_norm(x), new_caches


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

    def project_memory(
        self, memory: Tensor
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer cross-attention K/V projections of encoder memory.

        Computed once per decode in a model's ``start()``; every
        subsequent :meth:`step` reuses them instead of re-projecting the
        (unchanging) memory.  One ``(k, v)`` pair per layer.
        """
        return [layer.cross_attn.project_kv(memory) for layer in self.layers]

    def step(
        self,
        x: Tensor,
        cross_kv: list[tuple[np.ndarray, np.ndarray]],
        self_caches: list[tuple[np.ndarray, np.ndarray]],
        self_key_mask: np.ndarray | None = None,
        memory_mask: np.ndarray | None = None,
    ) -> tuple[Tensor, list[tuple[np.ndarray, np.ndarray]]]:
        """Advance one decode position through the whole stack.

        ``x`` is the newest target position, ``(batch, 1, d_model)``;
        ``cross_kv``/``self_caches`` hold one entry per layer.  Returns
        the final-normed output for that position and the grown per-layer
        self-attention caches.  Per-step cost is O(prefix) — the
        incremental path that replaces re-decoding the full prefix.
        """
        new_caches: list[tuple[np.ndarray, np.ndarray]] = []
        for layer, layer_cross, layer_cache in zip(self.layers, cross_kv, self_caches):
            x, grown = layer.step(
                x,
                layer_cross,
                layer_cache,
                self_key_mask=self_key_mask,
                memory_mask=memory_mask,
            )
            new_caches.append(grown)
        return self.final_norm(x), new_caches

    @property
    def cross_attention_weights(self) -> list[np.ndarray]:
        return [
            layer.cross_attn.last_weights
            for layer in self.layers
            if layer.cross_attn.last_weights is not None
        ]
