"""Two-tower text encoder trained on click pairs (DPSR substitute).

:class:`DualEncoder` maps queries and titles into one shared unit sphere;
:func:`train_dual_encoder` fits it with in-batch softmax over click pairs.
The inference surface comes in two granularities — per-text
(:meth:`DualEncoder.encode_query` / :meth:`~DualEncoder.encode_title`)
and batched (:meth:`~DualEncoder.encode_queries` /
:meth:`~DualEncoder.encode_titles`), the latter being what the semantic
retrieval tier (:mod:`repro.search.vector`) uses to embed whole catalogs.

Complexity: one encode is O(tokens · dim) pooling plus an O(dim²) tower
projection; a batch of n texts pads to the longest text and pays one
stacked forward instead of n.

Thread safety: training mutates parameters and must be single-threaded;
a trained encoder's ``encode_*`` methods are pure reads and safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd import Tensor
from repro.data.dataset import pad_batch
from repro.nn import Embedding, Linear, cross_entropy
from repro.nn.module import Module
from repro.optim import Adam
from repro.text import Vocabulary, tokenize


@dataclass
class DualEncoderConfig:
    embedding_dim: int = 32
    output_dim: int = 32
    temperature: float = 0.1
    seed: int = 0


class DualEncoder(Module):
    """Query tower and title tower over a shared token embedding.

    ``encode_query`` / ``encode_title`` mean-pool token embeddings, project
    through a tower-specific linear layer, and L2-normalize, so the dot
    product of two encodings IS their cosine similarity.
    """

    def __init__(self, vocab: Vocabulary, config: DualEncoderConfig | None = None):
        super().__init__()
        self.vocab = vocab
        self.config = config or DualEncoderConfig()
        rng = np.random.default_rng(self.config.seed)
        dim = self.config.embedding_dim
        self.embedding = Embedding(len(vocab), dim, padding_idx=vocab.pad_id, rng=rng)
        self.query_tower = Linear(dim, self.config.output_dim, rng=rng)
        self.title_tower = Linear(dim, self.config.output_dim, rng=rng)

    # -- differentiable encodings (training) ---------------------------------
    def _pool(self, token_ids: np.ndarray) -> Tensor:
        """Mean-pool non-pad token embeddings: (batch, len) -> (batch, dim)."""
        embedded = self.embedding(token_ids)
        keep = (token_ids != self.vocab.pad_id).astype(np.float64)[:, :, None]
        summed = (embedded * Tensor(keep)).sum(axis=1)
        counts = np.maximum(keep.sum(axis=1), 1.0)
        return summed / Tensor(counts)

    def _normalize(self, x: Tensor) -> Tensor:
        norm = ((x * x).sum(axis=-1, keepdims=True) + 1e-12).sqrt()
        return x / norm

    def query_encoding(self, token_ids: np.ndarray) -> Tensor:
        """Differentiable query-tower encodings: (batch, len) ids -> unit rows."""
        return self._normalize(self.query_tower(self._pool(token_ids)))

    def title_encoding(self, token_ids: np.ndarray) -> Tensor:
        """Differentiable title-tower encodings: (batch, len) ids -> unit rows."""
        return self._normalize(self.title_tower(self._pool(token_ids)))

    def _infer(self, token_ids: np.ndarray, tower: Linear) -> np.ndarray:
        """:meth:`query_encoding` (``tower`` the query tower) or
        :meth:`title_encoding` on plain arrays."""
        embedded = self.embedding.infer(token_ids)
        keep = (token_ids != self.vocab.pad_id).astype(np.float64)[:, :, None]
        summed = (embedded * keep).sum(axis=1)
        counts = np.maximum(keep.sum(axis=1), 1.0)
        x = tower.infer(summed / counts)
        return x / np.sqrt((x * x).sum(axis=-1, keepdims=True) + 1e-12)

    # -- inference helpers -----------------------------------------------------
    def encode_query(self, text: str | list[str]) -> np.ndarray:
        """Unit-norm query embedding of one text (string or token list)."""
        return self.encode_queries([text])[0]

    def encode_title(self, text: str | list[str]) -> np.ndarray:
        """Unit-norm title embedding of one text (string or token list)."""
        return self.encode_titles([text])[0]

    def encode_queries(
        self, texts: list[str | list[str]], batch_size: int = 512
    ) -> np.ndarray:
        """Query-tower embeddings for a batch of texts: ``(n, output_dim)``.

        Texts are tokenized (strings) or taken as-is (token lists), padded
        per chunk of ``batch_size``, and pushed through one stacked forward
        per chunk — this is how catalogs get embedded at scale.  Rows come
        back in input order; a text that tokenizes to nothing embeds to
        the zero vector (the only non-unit-norm output).
        """
        return self._encode_batch(texts, self.query_tower, batch_size)

    def encode_titles(
        self, texts: list[str | list[str]], batch_size: int = 512
    ) -> np.ndarray:
        """Title-tower embeddings for a batch of texts: ``(n, output_dim)``.

        Same contract as :meth:`encode_queries`, through the title tower.
        """
        return self._encode_batch(texts, self.title_tower, batch_size)

    def _encode_batch(self, texts, tower: Linear, batch_size: int) -> np.ndarray:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        out = np.zeros((len(texts), self.config.output_dim), dtype=np.float64)
        encoded = [
            self.vocab.encode(
                tokenize(t) if isinstance(t, str) else list(t), add_eos=False
            )
            for t in texts
        ]
        for start in range(0, len(encoded), batch_size):
            chunk = encoded[start : start + batch_size]
            width = max((len(ids) for ids in chunk), default=0)
            if width == 0:
                continue  # pad_batch needs at least one column
            rows = self._infer(pad_batch(chunk, self.vocab.pad_id), tower)
            # Empty texts pool to zero, but the tower bias would still
            # produce a unit vector; pin them to the zero vector so
            # "nothing to encode" never matches anything.
            rows[np.array([len(ids) == 0 for ids in chunk])] = 0.0
            out[start : start + len(chunk)] = rows
        return out

    def cosine(self, query_a: str | list[str], query_b: str | list[str]) -> float:
        """Cosine similarity of two queries in the query-tower space —
        exactly how the paper computes Table VII's semantic metric."""
        a = self.encode_query(query_a)
        b = self.encode_query(query_b)
        return float(np.dot(a, b))


def train_dual_encoder(
    encoder: DualEncoder,
    pairs: list[tuple[tuple[str, ...], tuple[str, ...], int]],
    steps: int = 200,
    batch_size: int = 32,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """In-batch-softmax training over (query, title) click pairs.

    Each batch builds a (B, B) similarity matrix; the diagonal entries are
    the positives and every other row entry is an implicit negative.
    Returns the per-step loss trace.
    """
    if not pairs:
        raise ValueError("train_dual_encoder needs a non-empty pair list")
    rng = rng or np.random.default_rng(0)
    vocab = encoder.vocab
    q_ids = [vocab.encode(list(q), add_eos=False) for q, _, _ in pairs]
    t_ids = [vocab.encode(list(t), add_eos=False) for _, t, _ in pairs]
    optimizer = Adam(encoder.parameters(), lr=5e-3)
    losses: list[float] = []
    for _ in range(steps):
        idx = rng.choice(len(pairs), size=min(batch_size, len(pairs)), replace=False)
        q_batch = pad_batch([q_ids[i] for i in idx], vocab.pad_id)
        t_batch = pad_batch([t_ids[i] for i in idx], vocab.pad_id)
        encoder.train()
        encoder.zero_grad()
        q_emb = encoder.query_encoding(q_batch)
        t_emb = encoder.title_encoding(t_batch)
        logits = (q_emb @ t_emb.transpose(1, 0)) * (1.0 / encoder.config.temperature)
        labels = np.arange(len(idx))
        loss = cross_entropy(logits, labels)
        loss.backward()
        optimizer.step()
        losses.append(float(loss.item()))
    encoder.eval()
    return losses
