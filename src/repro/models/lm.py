"""Decoder-only language model for the paper's Section V exploration.

The paper also explored fine-tuning a GPT2-style language model on the
"special language" ``query <sep1> title <sep2> query2``: given a query, the
LM generates a synthetic title and then a rewritten query in one pass.
They report it did *not* beat the jointly trained translation pair — a
finding our ablation bench reproduces at simulator scale.

Since no pretrained GPT2 is available offline, the LM here is the same
causal-transformer architecture trained from scratch on the marketplace's
"special language" corpus; the comparison is therefore architecture-level
(single causal LM vs cyclic encoder-decoder pair) rather than
pretraining-level, which we note in EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.models.config import ModelConfig
from repro.nn import Embedding, Linear, PositionalEncoding, TransformerEncoder
from repro.nn.attention import causal_mask, padding_mask
from repro.nn.loss import sequence_cross_entropy
from repro.nn.module import Module

SEP1 = "<sep1>"
SEP2 = "<sep2>"


class DecoderOnlyLM(Module):
    """Causal transformer language model (GPT-style).

    A stack of self-attention blocks under a causal mask — implemented by
    running the :class:`TransformerEncoder` with a causal+padding mask,
    which is exactly a GPT block stack.
    """

    def __init__(self, config: ModelConfig, pad_id: int = 0):
        super().__init__()
        self.config = config
        self.pad_id = pad_id
        rng = np.random.default_rng(config.seed)
        self.embedding = Embedding(config.vocab_size, config.d_model, padding_idx=pad_id, rng=rng)
        self.positional = PositionalEncoding(config.d_model, max_len=config.max_len)
        self.blocks = TransformerEncoder(
            config.decoder_layers, config.d_model, config.num_heads, config.d_ff,
            dropout=config.dropout, rng=rng,
        )
        self.output_proj = Linear(config.d_model, config.vocab_size, rng=rng)
        self._embed_scale = config.d_model**0.5

    def forward(self, token_ids: np.ndarray) -> Tensor:
        """Next-token logits for every position: (batch, seq, vocab)."""
        token_ids = np.asarray(token_ids)
        seq_len = token_ids.shape[1]
        mask = causal_mask(seq_len) | padding_mask(token_ids, self.pad_id)
        hidden = self.blocks(
            self.positional(self.embedding(token_ids) * self._embed_scale), mask=mask
        )
        return self.output_proj(hidden)

    def loss(self, token_ids: np.ndarray) -> tuple[Tensor, int]:
        """Causal LM loss: predict position t+1 from positions <= t."""
        token_ids = np.asarray(token_ids)
        logits = self.forward(token_ids[:, :-1])
        return sequence_cross_entropy(logits, token_ids[:, 1:], self.pad_id)

    def generate(
        self,
        prefix_ids: list[int],
        max_new_tokens: int,
        stop_ids: set[int],
        rng: np.random.Generator | None = None,
        top_n: int = 5,
        forbid_ids: set[int] | None = None,
    ) -> list[int]:
        """Top-n sample a continuation until a stop token or the budget.

        Returns only the newly generated ids (stop token excluded).  The
        prompt is encoded once to prime per-layer self-attention K/V
        caches; each subsequent step feeds only the newest token through
        the block stack (O(prefix) instead of the seed's O(prefix²)
        full re-encode).  A step whose legal pool is empty (every
        unblocked token at ``-inf``) stops generation gracefully instead
        of crashing on NaN sampling probabilities, and consumes no
        randomness.
        """
        from repro.decoding.topn import sample_top_n_pools

        rng = rng or np.random.default_rng()
        forbid_ids = forbid_ids or set()
        generated: list[int] = []
        context = list(prefix_ids)
        prompt = np.array([context])
        seq_len = prompt.shape[1]
        mask = causal_mask(seq_len) | padding_mask(prompt, self.pad_id)
        with no_grad():
            hidden, caches = self.blocks.forward_and_cache(
                self.positional(self.embedding(prompt) * self._embed_scale), mask=mask
            )
            logits = self.output_proj(hidden[:, -1, :]).data[0]
        for _ in range(max_new_tokens):
            if len(context) >= self.config.max_len:
                break
            logits = logits.copy()
            logits[self.pad_id] = -np.inf
            for banned in forbid_ids:
                logits[banned] = -np.inf
            choices, legal = sample_top_n_pools(rng, logits[None, :], top_n)
            if not legal[0]:
                break
            token = int(choices[0])
            if token in stop_ids:
                break
            generated.append(token)
            context.append(token)
            if len(context) >= self.config.max_len:
                break
            with no_grad():
                x = self.positional(
                    self.embedding(np.array([[token]])) * self._embed_scale,
                    offset=len(context) - 1,
                )
                key_mask = (np.array([context]) == self.pad_id)[:, None, None, :]
                hidden, caches = self.blocks.step(x, caches, key_mask=key_mask)
                logits = self.output_proj(hidden[:, 0, :]).data[0]
        return generated
