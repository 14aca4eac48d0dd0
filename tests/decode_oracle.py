"""The decode oracle: the seed decoders, fed by the teacher-forced forward.

The served decoders step a model through ``start``/``step``/
``reorder_state`` over KV caches and projected keys, drop finished rows
as they go (active-row compaction) and sample every live row in one
vectorized call.  The three decoders here keep the seed behaviour
instead: every row is fed every step until the whole batch is done
(finished rows re-feed their last token; their outputs are ignored),
and each live row samples its own pool with ``rng.choice``.

They share no decode-state code with the path they check.  Each step's
logits come from ``model.forward(src_rows, prefix)[:, -1]``: the
teacher-forced training view, run over the full prefix matrix that
:class:`TeacherForced` keeps itself.  ``TeacherForced.rows`` counts the
rows fed, so a test can compare a served decode's ``model.decode_rows``
with what the keep-every-row seed loop costs.

The top-n oracle keeps the seed's empty-pool defect on purpose: a row
whose legal pool is empty renormalizes to NaN probabilities and
``rng.choice`` raises ``ValueError``.  The regression tests rely on
that contrast.  The single-source decoders are checked against these
batch oracles with a batch of one.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import log_softmax_np
from repro.decoding.hypothesis import Hypothesis
from repro.models.base import Seq2SeqModel


class TeacherForced:
    """Next-token log-probs of every row, from the forward over its prefix.

    Row ``i`` decodes source ``src[owner[i]]``; its prefix starts at SOS.
    :meth:`advance` reorders the rows (beam shuffles, candidate fan-out)
    and appends one token to each.
    """

    def __init__(self, model: Seq2SeqModel, src: np.ndarray, owner: np.ndarray):
        self.model = model
        self.src = src[owner]
        self.prefix = np.full((len(owner), 1), model.sos_id, dtype=np.int64)
        #: rows fed to the model, summed over steps
        self.rows = 0

    def log_probs(self) -> np.ndarray:
        """(rows, vocab) log-probs of the token after each row's prefix."""
        self.rows += len(self.prefix)
        logits = self.model.forward(self.src, self.prefix).data[:, -1]
        return log_softmax_np(logits)

    def advance(self, index: np.ndarray, tokens: np.ndarray) -> None:
        """Keep rows ``index`` (in that order) and append ``tokens``."""
        index = np.asarray(index, dtype=np.int64)
        self.src = self.src[index]
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1, 1)
        self.prefix = np.concatenate([self.prefix[index], tokens], axis=1)


def greedy_decode_batch(
    model: Seq2SeqModel, src: np.ndarray, max_len: int = 32
) -> tuple[list[Hypothesis], int]:
    """Seed greedy batch decode: every row steps until *all* rows finish.

    Returns ``(hypotheses, rows fed)``.
    """
    batch = src.shape[0]
    forward = TeacherForced(model, src, np.arange(batch))
    sequences: list[list[int]] = [[] for _ in range(batch)]
    log_probs = np.zeros(batch)
    finished = np.zeros(batch, dtype=bool)
    for _ in range(max_len):
        if finished.all():
            break
        step_log_probs = forward.log_probs()
        choices = step_log_probs.argmax(axis=1)
        fed = forward.prefix[:, -1].copy()
        for i in range(batch):
            if finished[i]:
                continue
            token = int(choices[i])
            log_probs[i] += float(step_log_probs[i, token])
            if token == model.eos_id:
                finished[i] = True
            else:
                sequences[i].append(token)
                fed[i] = token
        forward.advance(np.arange(batch), fed)
    hyps = [
        Hypothesis(tokens=tuple(seq), log_prob=float(lp), finished=bool(done))
        for seq, lp, done in zip(sequences, log_probs, finished)
    ]
    return hyps, forward.rows


def top_n_sampling_batch(
    model: Seq2SeqModel,
    src: np.ndarray,
    k: int = 3,
    n: int = 40,
    max_len: int = 32,
    *,
    rng: np.random.Generator,
) -> tuple[list[list[Hypothesis]], int]:
    """Seed top-n sampling (Figure 4): dead candidate rows keep stepping.

    The first step takes each source's k most likely unique legal tokens;
    every later step samples each live candidate from its top-n pool with
    one per-row ``rng.choice``.  Returns ``(hypotheses per source, rows
    fed)``.
    """
    blocked = {model.pad_id, model.sos_id}
    batch = src.shape[0]

    forward = TeacherForced(model, src, np.arange(batch))
    first_log_probs = forward.log_probs()
    owner: list[int] = []
    first_tokens: list[int] = []
    for s in range(batch):
        order = np.argsort(-first_log_probs[s])
        firsts = [
            int(t) for t in order if int(t) not in blocked and int(t) != model.eos_id
        ][:k]
        owner.extend(s for _ in firsts)
        first_tokens.extend(firsts)
    if not first_tokens:
        return [[] for _ in range(batch)], forward.rows
    flat = len(first_tokens)

    forward.advance(np.array(owner), np.array(first_tokens))
    sequences: list[list[int]] = [[t] for t in first_tokens]
    log_probs = np.array(
        [float(first_log_probs[s, t]) for s, t in zip(owner, first_tokens)]
    )
    alive = np.ones(flat, dtype=bool)
    finished = np.zeros(flat, dtype=bool)

    for _ in range(max_len - 1):
        if not alive.any():
            break
        step_log_probs = forward.log_probs()
        fed = forward.prefix[:, -1].copy()
        for i in range(flat):
            if not alive[i]:
                continue
            row = step_log_probs[i].copy()
            for b in blocked:
                row[b] = -np.inf
            pool = np.argsort(-row)[:n]
            pool_logp = row[pool]
            probs = np.exp(pool_logp - pool_logp.max())
            probs /= probs.sum()
            choice = int(pool[rng.choice(len(pool), p=probs)])
            log_probs[i] += float(row[choice])
            if choice == model.eos_id:
                alive[i] = False
                finished[i] = True
            else:
                sequences[i].append(choice)
                fed[i] = choice
        forward.advance(np.arange(flat), fed)

    grouped: list[list[Hypothesis]] = [[] for _ in range(batch)]
    for i in range(flat):
        grouped[owner[i]].append(
            Hypothesis(
                tokens=tuple(sequences[i]),
                log_prob=float(log_probs[i]),
                finished=bool(finished[i]),
            )
        )
    return grouped, forward.rows


def beam_search_batch(
    model: Seq2SeqModel,
    src: np.ndarray,
    beam_size: int = 3,
    max_len: int = 32,
) -> tuple[list[list[Hypothesis]], int]:
    """Seed batched beam search: ``batch × beam_size`` rows for the whole
    decode, short beams padded with repeated ``-inf``-scored survivors and
    retired sources stepped for rectangularity.  Returns ``(hypotheses
    per source, rows fed)``, ranked by log-prob (no length penalty)."""
    batch = src.shape[0]

    forward = TeacherForced(model, src, np.repeat(np.arange(batch), beam_size))
    beams: list[list[tuple[list[int], float]]] = [
        [([], 0.0)] + [([], -np.inf)] * (beam_size - 1) for _ in range(batch)
    ]
    finished: list[list[Hypothesis]] = [[] for _ in range(batch)]
    active = [True] * batch

    for _ in range(max_len):
        if not any(active):
            break
        log_probs = forward.log_probs()
        vocab = log_probs.shape[1]
        reorder = np.arange(batch * beam_size, dtype=np.int64)
        next_tokens = forward.prefix[:, -1].copy()

        for s in range(batch):
            if not active[s]:
                continue
            base = s * beam_size
            block = log_probs[base : base + beam_size]
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

            if not new_beams or len(finished[s]) >= beam_size:
                active[s] = False
                if new_beams:
                    beams[s] = new_beams + [
                        (new_beams[0][0], -np.inf)
                    ] * (beam_size - len(new_beams))
                continue
            while len(new_beams) < beam_size:
                new_beams.append((new_beams[0][0], -np.inf))
                local_reorder.append(local_reorder[0])
                local_tokens.append(local_tokens[0])
            beams[s] = new_beams
            reorder[base : base + beam_size] = base + np.array(local_reorder)
            next_tokens[base : base + beam_size] = local_tokens

        forward.advance(reorder, next_tokens)

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
        results.append(sorted(unique.values(), key=lambda h: h.log_prob, reverse=True)[:beam_size])
    return results, forward.rows
