"""Fully connected layer."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Affine map ``y = x W + b`` over the last axis.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    bias:
        Whether to add a learned bias.
    rng:
        Generator used for Xavier initialization.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on plain arrays, for decoding."""
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out
