"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.nn.module import Module


class Dropout(Module):
    """Randomly zero activations during training, scaling survivors by 1/(1-p).

    The layer takes an explicit generator so training runs are reproducible;
    in ``eval()`` mode it is the identity.
    """

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = self.rng.random(x.shape) < keep
        return x.masked_fill(~mask, 0.0) * (1.0 / keep)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on plain arrays, for decoding."""
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = self.rng.random(x.shape) < keep
        return np.where(~mask, 0.0, x) * (1.0 / keep)
