"""Sinusoidal positional encoding from "Attention Is All You Need"."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.nn.module import Module


def sinusoidal_table(max_len: int, d_model: int) -> np.ndarray:
    """Build the (max_len, d_model) sinusoidal position table."""
    position = np.arange(max_len)[:, None].astype(np.float64)
    div = np.exp(np.arange(0, d_model, 2) * (-np.log(10000.0) / d_model))
    table = np.zeros((max_len, d_model))
    table[:, 0::2] = np.sin(position * div)
    table[:, 1::2] = np.cos(position * div[: table[:, 1::2].shape[1]])
    return table


class PositionalEncoding(Module):
    """Add fixed sinusoidal position information to token embeddings."""

    def __init__(self, d_model: int, max_len: int = 512):
        super().__init__()
        self.d_model = d_model
        self.max_len = max_len
        self.table = sinusoidal_table(max_len, d_model)

    def _rows(self, offset: int, seq_len: int) -> np.ndarray:
        if offset + seq_len > self.max_len:
            raise ValueError(
                f"sequence length {offset + seq_len} exceeds max_len {self.max_len}"
            )
        return self.table[offset : offset + seq_len]

    def forward(self, x: Tensor, offset: int = 0) -> Tensor:
        """``x`` has shape (batch, seq, d_model); ``offset`` supports
        incremental decoding where positions continue from a cache."""
        return x + Tensor(self._rows(offset, x.shape[1]))

    def infer(self, x: np.ndarray, offset: int = 0) -> np.ndarray:
        """:meth:`forward` on plain arrays, for decoding."""
        return x + self._rows(offset, x.shape[1])
