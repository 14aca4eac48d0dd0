"""Log-space numerics shared by decoders and the inference pipeline.

All candidate scoring in the paper happens in log probability space to
avoid underflow (their Section III-E cites log-sum-exp tricks); these are
the ndarray counterparts of :func:`repro.autograd.logsumexp`.
"""

from __future__ import annotations

import numpy as np


def logsumexp_np(values: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Numerically stable log(sum(exp(values)))."""
    values = np.asarray(values, dtype=np.float64)
    peak = values.max(axis=axis, keepdims=True)
    out = np.log(np.exp(values - peak).sum(axis=axis, keepdims=True)) + peak
    if axis is None:
        return out.reshape(())
    return np.squeeze(out, axis=axis)
