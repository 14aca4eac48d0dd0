"""Token embedding table."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors.

    Parameters
    ----------
    num_embeddings:
        Vocabulary size.
    embedding_dim:
        Vector width.
    padding_idx:
        Optional id whose vector is pinned to zero (and receives no
        gradient), the convention for the PAD token.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        padding_idx: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        table = init.normal((num_embeddings, embedding_dim), rng, std=embedding_dim**-0.5)
        if padding_idx is not None:
            table[padding_idx] = 0.0
        self.weight = Parameter(table)

    def _checked(self, token_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(token_ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings}): "
                f"min={ids.min()} max={ids.max()}"
            )
        return ids

    def forward(self, token_ids: np.ndarray) -> Tensor:
        ids = self._checked(token_ids)
        out = self.weight.take_rows(ids)
        if self.padding_idx is not None:
            # Zero out padded positions so they contribute nothing downstream;
            # the masked_fill also blocks gradient flow back into the table row.
            pad_mask = (ids == self.padding_idx)[..., None]
            out = out.masked_fill(pad_mask, 0.0)
        return out

    def infer(self, token_ids: np.ndarray) -> np.ndarray:
        """:meth:`forward` on plain arrays."""
        ids = self._checked(token_ids)
        out = self.weight.data[ids]
        if self.padding_idx is not None:
            out = np.where((ids == self.padding_idx)[..., None], 0.0, out)
        return out
