"""Layer normalization."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.nn.module import Module, Parameter


class LayerNorm(Module):
    """Normalize over the last axis with learned scale and shift."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(normalized_shape))
        self.beta = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on plain arrays, for decoding."""
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / np.sqrt(var + self.eps)
        return normed * self.gamma.data + self.beta.data
