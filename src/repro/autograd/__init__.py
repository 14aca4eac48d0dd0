"""Reverse-mode automatic differentiation on NumPy arrays.

This package is the training substrate of the reproduction: the paper
trains transformer / GRU / RNN translation models, and no deep-learning
framework is available offline, so we implement a small but complete
autograd engine here.

The public surface is the :class:`Tensor` class plus a handful of
free functions (``concat``, ``stack``, ``where``, ``logsumexp``, ...).
``Tensor`` is for training only: every op records its graph, and paths
that do not train run the modules' ``infer`` methods on plain arrays.
"""

from repro.autograd.tensor import (
    Tensor,
    concat,
    stack,
    where,
    maximum,
    minimum,
    logsumexp,
)

__all__ = [
    "Tensor",
    "concat",
    "stack",
    "where",
    "maximum",
    "minimum",
    "logsumexp",
]
