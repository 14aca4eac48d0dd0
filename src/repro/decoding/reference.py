"""Frozen pre-optimization decoder implementations (the seed decode path).

These are byte-for-byte behavioural snapshots of the decoders as they
stood *before* the incremental-decoding rework: full-prefix model states
(``start(..., use_cache=False)``), no active-row compaction (finished
rows keep being stepped for batch rectangularity), and per-row python
sampling loops.  They exist for two jobs:

* **equivalence oracle** — ``tests/test_decode_equivalence.py`` pins the
  optimized decoders' hypotheses byte-identical to these;
* **honest baseline** — ``experiments/serving_batched.py`` counts the
  rows these step against the optimized decoders' rows, not a hobbled
  copy of the new code, so the reported saving is real.

They intentionally retain the seed path's known defects (the empty-pool
NaN crash, zombie-row stepping); do not "fix" them here — the regression
tests rely on the contrast.
"""

from __future__ import annotations

import numpy as np

from repro.decoding.hypothesis import Hypothesis
from repro.decoding.logspace import log_softmax_np
from repro.models.base import DecodeState, Seq2SeqModel, pad_sources


def start_uncached(model: Seq2SeqModel, src: np.ndarray) -> DecodeState:
    """Build a decode state on the model's uncached (seed) path.

    Models grown a ``use_cache`` flag take it explicitly; anything else
    (e.g. a test double predating the flag) falls back to plain
    ``start(src)``.
    """
    try:
        return model.start(src, use_cache=False)
    except TypeError:
        return model.start(src)


def greedy_decode_batch_reference(
    model: Seq2SeqModel,
    src: np.ndarray | list[list[int]],
    max_len: int = 32,
) -> list[Hypothesis]:
    """Seed greedy batch decode: every row steps until *all* rows finish.

    Finished rows keep re-feeding their last pre-EOS token (the zombie-row
    behaviour the optimized decoder removes); their outputs are ignored,
    so the returned hypotheses match the optimized path.
    """
    if isinstance(src, list):
        src = pad_sources(src, model.pad_id)
    src = np.atleast_2d(np.asarray(src))
    batch = src.shape[0]
    state = start_uncached(model, src)
    last = np.full(batch, model.sos_id, dtype=np.int64)
    sequences: list[list[int]] = [[] for _ in range(batch)]
    log_probs = np.zeros(batch)
    finished = np.zeros(batch, dtype=bool)
    for _ in range(max_len):
        if finished.all():
            break
        logits, state = model.step(state, last)
        step_log_probs = log_softmax_np(logits)
        choices = step_log_probs.argmax(axis=1)
        for i in range(batch):
            if finished[i]:
                continue
            token = int(choices[i])
            log_probs[i] += float(step_log_probs[i, token])
            if token == model.eos_id:
                finished[i] = True
            else:
                sequences[i].append(token)
                last[i] = token
    return [
        Hypothesis(tokens=tuple(seq), log_prob=float(lp), finished=bool(done))
        for seq, lp, done in zip(sequences, log_probs, finished)
    ]


def top_n_sampling_reference(
    model: Seq2SeqModel,
    src: np.ndarray,
    k: int = 3,
    n: int = 40,
    max_len: int = 32,
    rng: np.random.Generator | None = None,
    forbid_tokens: tuple[int, ...] = (),
) -> list[Hypothesis]:
    """Seed single-source top-n sampling: per-row argsort + ``rng.choice``.

    Crashes with a NaN-probability ``ValueError`` when a candidate's legal
    pool is empty (every unblocked token at ``-inf``) — the seed defect the
    optimized sampler fixes.
    """
    src = np.atleast_2d(np.asarray(src))
    if src.shape[0] != 1:
        raise ValueError("top_n_sampling expects a single source sequence")
    if k <= 0 or n <= 0:
        raise ValueError("k and n must be positive")
    rng = rng or np.random.default_rng()
    blocked = set(forbid_tokens) | {model.pad_id, model.sos_id}

    state = start_uncached(model, src)
    last = np.array([model.sos_id], dtype=np.int64)
    logits, state = model.step(state, last)
    first_log_probs = log_softmax_np(logits[0])

    order = np.argsort(-first_log_probs)
    first_tokens = [
        int(t) for t in order if int(t) not in blocked and int(t) != model.eos_id
    ][:k]
    if not first_tokens:
        return []
    actual_k = len(first_tokens)

    state = state.reorder(np.zeros(actual_k, dtype=np.int64), model)
    sequences: list[list[int]] = [[t] for t in first_tokens]
    log_probs = np.array([float(first_log_probs[t]) for t in first_tokens])
    alive = np.ones(actual_k, dtype=bool)
    finished_flags = np.zeros(actual_k, dtype=bool)
    last = np.array(first_tokens, dtype=np.int64)

    for _ in range(max_len - 1):
        if not alive.any():
            break
        logits, state = model.step(state, last)
        step_log_probs = log_softmax_np(logits)
        next_tokens = last.copy()
        for i in range(actual_k):
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
                finished_flags[i] = True
            else:
                sequences[i].append(choice)
                next_tokens[i] = choice
        last = next_tokens

    return [
        Hypothesis(tokens=tuple(seq), log_prob=float(lp), finished=bool(done))
        for seq, lp, done in zip(sequences, log_probs, finished_flags)
    ]


def top_n_sampling_batch_reference(
    model: Seq2SeqModel,
    src: np.ndarray | list[list[int]],
    k: int = 3,
    n: int = 40,
    max_len: int = 32,
    rng: np.random.Generator | None = None,
    forbid_tokens: tuple[int, ...] = (),
) -> list[list[Hypothesis]]:
    """Seed batched top-n sampling: dead candidate rows keep stepping.

    The flat decode batch stays ``sum(k per source)`` wide for the whole
    decode; finished candidates are skipped in the sampling loop but still
    cost a model row every step.  Shares the seed's empty-pool NaN crash.
    """
    if isinstance(src, list):
        src = pad_sources(src, model.pad_id)
    src = np.atleast_2d(np.asarray(src))
    if k <= 0 or n <= 0:
        raise ValueError("k and n must be positive")
    rng = rng or np.random.default_rng()
    blocked = set(forbid_tokens) | {model.pad_id, model.sos_id}
    batch = src.shape[0]

    state = start_uncached(model, src)
    last = np.full(batch, model.sos_id, dtype=np.int64)
    logits, state = model.step(state, last)
    first_log_probs = log_softmax_np(logits)

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
        return [[] for _ in range(batch)]
    flat = len(first_tokens)

    state = state.reorder(np.array(owner, dtype=np.int64), model)
    sequences: list[list[int]] = [[t] for t in first_tokens]
    log_probs = np.array(
        [float(first_log_probs[s, t]) for s, t in zip(owner, first_tokens)]
    )
    alive = np.ones(flat, dtype=bool)
    finished_flags = np.zeros(flat, dtype=bool)
    last = np.array(first_tokens, dtype=np.int64)

    for _ in range(max_len - 1):
        if not alive.any():
            break
        logits, state = model.step(state, last)
        step_log_probs = log_softmax_np(logits)
        next_tokens = last.copy()
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
                finished_flags[i] = True
            else:
                sequences[i].append(choice)
                next_tokens[i] = choice
        last = next_tokens

    grouped: list[list[Hypothesis]] = [[] for _ in range(batch)]
    for i in range(flat):
        grouped[owner[i]].append(
            Hypothesis(
                tokens=tuple(sequences[i]),
                log_prob=float(log_probs[i]),
                finished=bool(finished_flags[i]),
            )
        )
    return grouped


def beam_search_reference(
    model: Seq2SeqModel,
    src: np.ndarray,
    beam_size: int = 3,
    max_len: int = 32,
    length_penalty: float = 0.0,
) -> list[Hypothesis]:
    """Seed single-source beam search: the batch is always ``beam_size``
    rows wide, padded with repeated ``-inf``-scored survivors."""
    src = np.atleast_2d(np.asarray(src))
    if src.shape[0] != 1:
        raise ValueError("beam_search expects a single source sequence")
    if beam_size <= 0:
        raise ValueError("beam_size must be positive")

    state = start_uncached(model, src)
    state = state.reorder(np.zeros(beam_size, dtype=np.int64), model)
    beams: list[tuple[list[int], float]] = [([], 0.0)] + [([], -np.inf)] * (beam_size - 1)
    last = np.full(beam_size, model.sos_id, dtype=np.int64)
    finished: list[Hypothesis] = []

    for _ in range(max_len):
        logits, state = model.step(state, last)
        log_probs = log_softmax_np(logits)
        vocab = log_probs.shape[1]
        scores = np.array([s for _, s in beams])[:, None] + log_probs
        flat = scores.reshape(-1)
        top = np.argpartition(-flat, min(beam_size, flat.size) - 1)[:beam_size]
        top = top[np.argsort(-flat[top])]

        new_beams: list[tuple[list[int], float]] = []
        reorder: list[int] = []
        next_tokens: list[int] = []
        for flat_idx in top:
            beam_idx, token = divmod(int(flat_idx), vocab)
            score = float(flat[flat_idx])
            if not np.isfinite(score):
                continue
            prefix = beams[beam_idx][0]
            if token == model.eos_id:
                finished.append(
                    Hypothesis(tokens=tuple(prefix), log_prob=score, finished=True)
                )
                continue
            new_beams.append((prefix + [token], score))
            reorder.append(beam_idx)
            next_tokens.append(token)

        if not new_beams:
            break
        while len(new_beams) < beam_size:
            new_beams.append((new_beams[0][0], -np.inf))
            reorder.append(reorder[0])
            next_tokens.append(next_tokens[0])
        beams = new_beams
        state = state.reorder(np.array(reorder, dtype=np.int64), model)
        last = np.array(next_tokens, dtype=np.int64)
        if len(finished) >= beam_size:
            break

    for prefix, score in beams:
        if np.isfinite(score):
            finished.append(Hypothesis(tokens=tuple(prefix), log_prob=score, finished=False))

    def rank(h: Hypothesis) -> float:
        return h.log_prob / (len(h.tokens) + 1) ** length_penalty

    unique: dict[tuple[int, ...], Hypothesis] = {}
    for hyp in finished:
        kept = unique.get(hyp.tokens)
        if kept is None or hyp.log_prob > kept.log_prob:
            unique[hyp.tokens] = hyp
    ranked = sorted(unique.values(), key=rank, reverse=True)
    return ranked[:beam_size]


def beam_search_batch_reference(
    model: Seq2SeqModel,
    src: np.ndarray | list[list[int]],
    beam_size: int = 3,
    max_len: int = 32,
    length_penalty: float = 0.0,
) -> list[list[Hypothesis]]:
    """Seed batched beam search: ``batch × beam_size`` rows for the whole
    decode; inactive sources keep stepping for rectangularity (the
    zombie-row behaviour the optimized decoder compacts away)."""
    if isinstance(src, list):
        src = pad_sources(src, model.pad_id)
    src = np.atleast_2d(np.asarray(src))
    if beam_size <= 0:
        raise ValueError("beam_size must be positive")
    batch = src.shape[0]

    state = start_uncached(model, src)
    state = state.reorder(np.repeat(np.arange(batch), beam_size), model)
    beams: list[list[tuple[list[int], float]]] = [
        [([], 0.0)] + [([], -np.inf)] * (beam_size - 1) for _ in range(batch)
    ]
    last = np.full(batch * beam_size, model.sos_id, dtype=np.int64)
    finished: list[list[Hypothesis]] = [[] for _ in range(batch)]
    active = [True] * batch

    for _ in range(max_len):
        if not any(active):
            break
        logits, state = model.step(state, last)
        log_probs = log_softmax_np(logits)
        vocab = log_probs.shape[1]
        reorder = np.arange(batch * beam_size, dtype=np.int64)
        next_tokens = last.copy()

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

        state = state.reorder(reorder, model)
        last = next_tokens

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
