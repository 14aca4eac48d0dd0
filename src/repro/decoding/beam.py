"""Beam search decoding.

The decode batch holds exactly the *live* beams: a single row before the
first expansion, up to ``beam_size`` rows afterwards, narrowing again as
hypotheses finish.  The seed implementation instead padded every beam back
to a fixed width with ``-inf``-scored duplicate rows and kept stepping
them; since non-finite candidates are always filtered out of the expansion,
dropping those rows changes nothing but the model work.
"""

from __future__ import annotations

import numpy as np

from repro.decoding.hypothesis import Hypothesis
from repro.decoding.logspace import log_softmax_np
from repro.models.base import Seq2SeqModel, pad_sources


def beam_search(
    model: Seq2SeqModel,
    src: np.ndarray,
    beam_size: int = 3,
    max_len: int = 32,
    length_penalty: float = 0.0,
) -> list[Hypothesis]:
    """Standard beam search over one source sequence.

    Keeps the ``beam_size`` most likely prefixes each step.  The paper
    observes its outputs "lack diversity" — candidates often differ by a
    single token — which motivates the top-n sampling decoder; tests assert
    that observation on our models too.  Implemented as
    :func:`beam_search_batch` on a batch of one.

    Parameters
    ----------
    length_penalty:
        Hypotheses are ranked by ``log_prob / (len + 1)**length_penalty``;
        0 ranks by raw log probability.
    """
    src = np.atleast_2d(np.asarray(src))
    if src.shape[0] != 1:
        raise ValueError("beam_search expects a single source sequence")
    return beam_search_batch(
        model, src, beam_size=beam_size, max_len=max_len, length_penalty=length_penalty
    )[0]


def beam_search_batch(
    model: Seq2SeqModel,
    src: np.ndarray | list[list[int]],
    beam_size: int = 3,
    max_len: int = 32,
    length_penalty: float = 0.0,
) -> list[list[Hypothesis]]:
    """Beam search over a batch of sources in one stacked decode.

    Every source keeps its own beams; the flat decode batch concatenates
    each live source's live beams source-major, so a single
    ``state.reorder`` call applies every source's beam shuffle (and any
    width change) at once.  Sources that exhaust their beams or collect
    enough finished hypotheses are compacted out of the batch entirely —
    no rows are stepped for rectangularity.  Returns one ranked hypothesis
    list per source, in input order.
    """
    if isinstance(src, list):
        src = pad_sources(src, model.pad_id)
    src = np.atleast_2d(np.asarray(src))
    if beam_size <= 0:
        raise ValueError("beam_size must be positive")
    batch = src.shape[0]

    state = model.start(src)
    beams: list[list[tuple[list[int], float]]] = [[([], 0.0)] for _ in range(batch)]
    # `widths[s]` is source s's current row count in the decode batch
    # (0 once the source retires); rows stay source-major.
    widths = [1] * batch
    last = np.full(batch, model.sos_id, dtype=np.int64)
    finished: list[list[Hypothesis]] = [[] for _ in range(batch)]

    for _ in range(max_len):
        logits, state = model.step(state, last)
        log_probs = log_softmax_np(logits)  # (sum of live widths, vocab)
        vocab = log_probs.shape[1]
        reorder: list[int] = []
        next_tokens: list[int] = []
        new_widths = [0] * batch
        offset = 0

        for s in range(batch):
            width = widths[s]
            if width == 0:
                continue
            block = log_probs[offset : offset + width]
            scores = np.array([score for _, score in beams[s]])[:, None] + block
            flat = scores.reshape(-1)
            top = np.argpartition(-flat, min(beam_size, flat.size) - 1)[:beam_size]
            top = top[np.argsort(-flat[top])]

            new_beams: list[tuple[list[int], float]] = []
            local_reorder: list[int] = []
            local_tokens: list[int] = []
            for flat_idx in top:
                beam_idx, token = divmod(int(flat_idx), vocab)
                score = float(flat[flat_idx])
                if not np.isfinite(score):
                    continue
                prefix = beams[s][beam_idx][0]
                if token == model.eos_id:
                    finished[s].append(
                        Hypothesis(tokens=tuple(prefix), log_prob=score, finished=True)
                    )
                    continue
                new_beams.append((prefix + [token], score))
                local_reorder.append(beam_idx)
                local_tokens.append(token)

            if new_beams:
                beams[s] = new_beams
            if new_beams and len(finished[s]) < beam_size:
                new_widths[s] = len(new_beams)
                reorder.extend(offset + r for r in local_reorder)
                next_tokens.extend(local_tokens)
            offset += width

        if not reorder:
            break
        state = state.reorder(np.array(reorder, dtype=np.int64), model)
        last = np.array(next_tokens, dtype=np.int64)
        widths = new_widths

    def rank(h: Hypothesis) -> float:
        return h.log_prob / (len(h.tokens) + 1) ** length_penalty

    results: list[list[Hypothesis]] = []
    for s in range(batch):
        pool = list(finished[s])
        for prefix, score in beams[s]:
            if np.isfinite(score):
                pool.append(
                    Hypothesis(tokens=tuple(prefix), log_prob=score, finished=False)
                )
        unique: dict[tuple[int, ...], Hypothesis] = {}
        for hyp in pool:
            kept = unique.get(hyp.tokens)
            if kept is None or hyp.log_prob > kept.log_prob:
                unique[hyp.tokens] = hyp
        results.append(sorted(unique.values(), key=rank, reverse=True)[:beam_size])
    return results
