"""Transformer encoder-decoder translation model (the paper's main model)."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.models.base import DecodeState, Seq2SeqModel
from repro.models.config import ModelConfig
from repro.nn import (
    Embedding,
    Linear,
    PositionalEncoding,
    TransformerDecoder,
    TransformerEncoder,
)
from repro.nn.attention import causal_mask, padding_mask


class TransformerNMT(Seq2SeqModel):
    """Standard transformer NMT (Vaswani et al. 2017) on our substrate.

    The paper instantiates this twice: a 4-layer model for query-to-title
    (which must "memorize" the much larger title space) and a 1-layer model
    for title-to-query (closer to summarization).  Layer counts come from
    the :class:`~repro.models.config.ModelConfig`.
    """

    def __init__(self, config: ModelConfig, pad_id: int = 0, sos_id: int = 1, eos_id: int = 2):
        super().__init__(config.vocab_size, pad_id, sos_id, eos_id)
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.embedding = Embedding(
            config.vocab_size, config.d_model, padding_idx=pad_id, rng=rng
        )
        self.positional = PositionalEncoding(config.d_model, max_len=config.max_len)
        self.encoder = TransformerEncoder(
            config.encoder_layers,
            config.d_model,
            config.num_heads,
            config.d_ff,
            dropout=config.dropout,
            rng=rng,
        )
        self.decoder = TransformerDecoder(
            config.decoder_layers,
            config.d_model,
            config.num_heads,
            config.d_ff,
            dropout=config.dropout,
            rng=rng,
        )
        self.output_proj = Linear(config.d_model, config.vocab_size, rng=rng)
        self._embed_scale = config.d_model**0.5

    # -- shared pieces ---------------------------------------------------------
    def _embed(self, token_ids: np.ndarray, offset: int = 0) -> Tensor:
        return self.positional(self.embedding(token_ids) * self._embed_scale, offset=offset)

    def _embed_infer(self, token_ids: np.ndarray, offset: int = 0) -> np.ndarray:
        """:meth:`_embed` on plain arrays."""
        return self.positional.infer(
            self.embedding.infer(token_ids) * self._embed_scale, offset=offset
        )

    def encode(self, src: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Returns (memory, src_key_mask)."""
        src = np.asarray(src)
        src_mask = padding_mask(src, self.pad_id)
        memory = self.encoder(self._embed(src), mask=src_mask)
        return memory, src_mask

    def _encode_infer(self, src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`encode` on plain arrays."""
        src = np.asarray(src)
        src_mask = padding_mask(src, self.pad_id)
        return self.encoder.infer(self._embed_infer(src), mask=src_mask), src_mask

    def _decode_infer(
        self, tgt_in: np.ndarray, memory: np.ndarray, src_mask: np.ndarray
    ) -> np.ndarray:
        """The decoder stack over every position of ``tgt_in`` (causal,
        teacher forced) on plain arrays: ``(batch, len, d_model)``.  It is
        the decode step from empty caches, fed the whole prefix."""
        layers = self.decoder.layers
        return self.decoder.step(
            self._embed_infer(tgt_in),
            [layer.cross_attn.project_kv(memory) for layer in layers],
            [layer.self_attn.empty_cache(len(tgt_in)) for layer in layers],
            self_mask=causal_mask(tgt_in.shape[1]) | padding_mask(tgt_in, self.pad_id),
            memory_mask=src_mask,
        )[0]

    # -- training view --------------------------------------------------------
    def forward(self, src: np.ndarray, tgt_in: np.ndarray) -> Tensor:
        src = np.asarray(src)
        tgt_in = np.asarray(tgt_in)
        memory, src_mask = self.encode(src)
        tgt_len = tgt_in.shape[1]
        self_mask = causal_mask(tgt_len) | padding_mask(tgt_in, self.pad_id)
        decoded = self.decoder(
            self._embed(tgt_in), memory, self_mask=self_mask, memory_mask=src_mask
        )
        return self.output_proj(decoded)

    # -- scoring view -----------------------------------------------------------
    def logits(self, src: np.ndarray, tgt_in: np.ndarray) -> np.ndarray:
        """:meth:`forward` on plain arrays."""
        tgt_in = np.asarray(tgt_in)
        return self.output_proj.infer(self._decode_infer(tgt_in, *self._encode_infer(src)))

    # -- decoding view ------------------------------------------------------------
    def start(self, src: np.ndarray) -> DecodeState:
        """Encode ``src`` and build the initial decode state.

        The state carries per-layer K/V caches: the cross-attention
        projections of the encoder memory are computed here, once, and
        each :meth:`step` appends one position to the self-attention
        caches — O(prefix) per step.
        """
        src = np.asarray(src)
        batch = src.shape[0]
        memory, src_mask = self._encode_infer(src)
        return DecodeState(
            batch_size=batch,
            payload={
                "src_mask": src_mask,
                "cross_kv": [layer.cross_attn.project_kv(memory) for layer in self.decoder.layers],
                "self_kv": [layer.self_attn.empty_cache(batch) for layer in self.decoder.layers],
                "prefix": np.zeros((batch, 0), dtype=np.int64),
            },
        )

    def step(self, state: DecodeState, last_tokens: np.ndarray) -> tuple[np.ndarray, DecodeState]:
        """Advance one position; O(prefix), not O(prefix²).

        Embeds and attends over only the newest token, reusing per-layer
        self-attention K/V and the precomputed cross-attention
        projections; its logits match the teacher-forced forward to
        float-reassociation tolerance (gated at 1e-6 by
        ``tests/test_decode_equivalence.py``).
        """
        payload = state.payload
        self._count_step(state.batch_size)
        last = np.asarray(last_tokens).reshape(-1, 1)
        prefix = np.concatenate([payload["prefix"], last], axis=1)
        # Keys are maskable prefix positions: the causal structure is
        # implicit (the newest query sees exactly the cached past plus
        # itself), so only pad columns need blocking — same semantics as
        # forward's causal_mask | padding_mask at its last row.
        self_key_mask = (prefix == self.pad_id)[:, None, None, :]
        decoded, self_kv = self.decoder.step(
            self._embed_infer(last, offset=payload["prefix"].shape[1]),
            payload["cross_kv"],
            payload["self_kv"],
            self_mask=self_key_mask,
            memory_mask=payload["src_mask"],
        )
        logits = self.output_proj.infer(decoded[:, 0, :])
        new_state = DecodeState(
            batch_size=state.batch_size,
            payload={
                "src_mask": payload["src_mask"],
                "cross_kv": payload["cross_kv"],
                "self_kv": self_kv,
                "prefix": prefix,
            },
        )
        return logits, new_state

    def reorder_state(self, state: DecodeState, index: np.ndarray) -> DecodeState:
        """Select/duplicate batch rows, K/V caches included.

        Every per-row array — encoder masks, the prefix, and each layer's
        cached self/cross K/V — is permuted by ``index``, so beam
        shuffles and active-row compaction keep cached decoding exact
        (pinned by the cache-permutation invariants in
        ``tests/test_decode_equivalence.py``).
        """
        payload = state.payload
        reordered = {key: payload[key][index] for key in ("src_mask", "prefix")}
        for cache_key in ("cross_kv", "self_kv"):
            reordered[cache_key] = [(k[index], v[index]) for k, v in payload[cache_key]]
        return DecodeState(batch_size=len(index), payload=reordered)

    # -- introspection -----------------------------------------------------------
    def cross_attention_maps(self) -> list[np.ndarray]:
        """Per-layer cross-attention weights from the most recent
        :meth:`forward`, :meth:`logits` or decode step, each of shape
        (batch, heads, tgt_len, src_len) — the raw material of the
        paper's Figure 6 heat maps."""
        return self.decoder.cross_attention_weights
