"""Greedy decoding: the most likely token at every step.

``greedy_decode`` serves one source; ``greedy_decode_batch`` decodes a
whole stack of padded sources through the same number of model calls,
which is what the batched serving tier rides on.
"""

from __future__ import annotations

import numpy as np

from repro.decoding.hypothesis import Hypothesis
from repro.decoding.logspace import log_softmax_np
from repro.models.base import Seq2SeqModel, pad_sources


def greedy_decode(model: Seq2SeqModel, src: np.ndarray, max_len: int = 32) -> Hypothesis:
    """Decode one source sequence greedily.

    Greedy search emits a single sequence and is not guaranteed optimal
    (the globally best sequence may avoid the locally best token); the paper
    rejects it for rewriting because one output cannot feed the k-candidate
    pipeline — but it remains the fastest baseline and is used in latency
    measurements.  Implemented as :func:`greedy_decode_batch` on a batch
    of one.
    """
    src = np.atleast_2d(np.asarray(src))
    if src.shape[0] != 1:
        raise ValueError("greedy_decode expects a single source sequence")
    return greedy_decode_batch(model, src, max_len=max_len)[0]


def greedy_decode_batch(
    model: Seq2SeqModel,
    src: np.ndarray | list[list[int]],
    max_len: int = 32,
) -> list[Hypothesis]:
    """Greedy-decode a batch of sources in one pass.

    ``src`` is a padded (batch, seq) array or a list of variable-length id
    lists (padded internally).  Each source is decoded independently —
    the result matches per-source :func:`greedy_decode` — but every step
    is a single batched model call, so the per-step python/numpy overhead
    is paid once per position instead of once per source.

    Rows are physically dropped from the decode batch the moment they emit
    EOS (via ``state.reorder``), so a source that finishes early stops
    costing model work instead of being stepped as a zombie on its stale
    pre-EOS token; results are re-scattered to input order at the end.
    """
    if isinstance(src, list):
        src = pad_sources(src, model.pad_id)
    src = np.atleast_2d(np.asarray(src))
    batch = src.shape[0]
    state = model.start(src)
    # `live[i]` is the original source index of decode-batch row i.
    live = np.arange(batch)
    last = np.full(batch, model.sos_id, dtype=np.int64)
    # Row i of `tokens` holds source i's sequence, `lengths[i]` long.
    tokens = np.zeros((batch, max(max_len, 0)), dtype=np.int64)
    lengths = np.zeros(batch, dtype=np.int64)
    log_probs = np.zeros(batch)
    finished = np.zeros(batch, dtype=bool)
    for position in range(max_len):
        if live.size == 0:
            break
        logits, state = model.step(state, last)
        step_log_probs = log_softmax_np(logits)  # (live, vocab)
        choices = step_log_probs.argmax(axis=1)
        log_probs[live] += step_log_probs[np.arange(live.size), choices]
        hit_eos = choices == model.eos_id
        finished[live[hit_eos]] = True
        if hit_eos.any():
            keep = np.nonzero(~hit_eos)[0]
            state = state.reorder(keep, model)
            live = live[keep]
            last = choices[keep]
        else:
            last = choices
        # A live row has emitted a token at every earlier step.
        tokens[live, position] = last
        lengths[live] += 1
    return [
        Hypothesis(tokens=tuple(row[:length]), log_prob=log_prob, finished=done)
        for row, length, log_prob, done in zip(
            tokens.tolist(), lengths.tolist(), log_probs.tolist(), finished.tolist()
        )
    ]
