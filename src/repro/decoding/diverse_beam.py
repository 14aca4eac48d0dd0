"""Diverse beam search (Vijayakumar et al., 2016).

Listed in the paper's Section V as a future-work direction for increasing
rewrite diversity.  Beams are split into groups decoded sequentially; each
group's token scores are penalized by how often earlier groups already
chose that token at the same time step, optimizing a diversity-augmented
objective directly.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.autograd.tensor import log_softmax_np
from repro.decoding.beam import beam_search
from repro.decoding.hypothesis import Hypothesis
from repro.models.base import Seq2SeqModel


def diverse_beam_search(
    model: Seq2SeqModel,
    src: np.ndarray,
    beam_size: int = 6,
    num_groups: int = 3,
    diversity_strength: float = 0.5,
    max_len: int = 32,
) -> list[Hypothesis]:
    """Group-wise diverse beam search over one source sequence.

    ``beam_size`` must be divisible by ``num_groups``; each group runs a
    beam of ``beam_size / num_groups`` with penalties against tokens that
    earlier groups emitted at the same position.
    """
    src = np.atleast_2d(np.asarray(src))
    if src.shape[0] != 1:
        raise ValueError("diverse_beam_search expects a single source sequence")
    if beam_size % num_groups != 0:
        raise ValueError(
            f"beam_size {beam_size} not divisible by num_groups {num_groups}"
        )
    group_width = beam_size // num_groups
    if num_groups == 1:
        return beam_search(model, src, beam_size=group_width, max_len=max_len)

    # token usage per time step by earlier groups
    usage: list[Counter] = [Counter() for _ in range(max_len)]
    all_hyps: list[Hypothesis] = []

    for _ in range(num_groups):
        hyps = _penalized_beam(
            model, src, group_width, max_len, usage, diversity_strength
        )
        for hyp in hyps:
            for t, token in enumerate(hyp.tokens):
                usage[t][token] += 1
        all_hyps.extend(hyps)

    unique: dict[tuple[int, ...], Hypothesis] = {}
    for hyp in all_hyps:
        kept = unique.get(hyp.tokens)
        if kept is None or hyp.log_prob > kept.log_prob:
            unique[hyp.tokens] = hyp
    return sorted(unique.values(), key=lambda h: h.log_prob, reverse=True)


def _penalized_beam(
    model: Seq2SeqModel,
    src: np.ndarray,
    beam_size: int,
    max_len: int,
    usage: list[Counter],
    strength: float,
) -> list[Hypothesis]:
    """Beam search whose step scores subtract earlier groups' token usage.

    Like :func:`repro.decoding.beam.beam_search`, the decode batch holds
    only the live beams (one row at the start, narrowing as hypotheses
    finish) instead of being padded to a fixed width with dead rows.
    """
    state = model.start(src)
    beams: list[tuple[list[int], float]] = [([], 0.0)]
    last = np.array([model.sos_id], dtype=np.int64)
    finished: list[Hypothesis] = []

    for t in range(max_len):
        logits, state = model.step(state, last)
        log_probs = log_softmax_np(logits)
        vocab = log_probs.shape[1]
        penalty = np.zeros(vocab)
        for token, count in usage[t].items():
            penalty[token] = strength * count
        # True log-prob accumulates separately from the penalized selection
        # score, so returned hypotheses carry unbiased likelihoods.
        select = (
            np.array([s for _, s in beams])[:, None] + log_probs - penalty[None, :]
        )
        flat = select.reshape(-1)
        top = np.argpartition(-flat, min(beam_size, flat.size) - 1)[:beam_size]
        top = top[np.argsort(-flat[top])]

        new_beams, reorder, next_tokens = [], [], []
        for flat_idx in top:
            beam_idx, token = divmod(int(flat_idx), vocab)
            if not np.isfinite(flat[flat_idx]):
                continue
            base_score = beams[beam_idx][1] + float(log_probs[beam_idx, token])
            prefix = beams[beam_idx][0]
            if token == model.eos_id:
                finished.append(Hypothesis(tuple(prefix), base_score, True))
                continue
            new_beams.append((prefix + [token], base_score))
            reorder.append(beam_idx)
            next_tokens.append(token)
        if not new_beams:
            break
        beams = new_beams
        state = state.reorder(np.array(reorder, dtype=np.int64), model)
        last = np.array(next_tokens, dtype=np.int64)
        if len(finished) >= beam_size:
            break

    for prefix, score in beams:
        if np.isfinite(score):
            finished.append(Hypothesis(tuple(prefix), score, False))
    unique: dict[tuple[int, ...], Hypothesis] = {}
    for hyp in finished:
        kept = unique.get(hyp.tokens)
        if kept is None or hyp.log_prob > kept.log_prob:
            unique[hyp.tokens] = hyp
    return sorted(unique.values(), key=lambda h: h.log_prob, reverse=True)[:beam_size]
