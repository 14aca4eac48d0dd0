"""The paper's top-n sampling decoder (Section III-F, Figure 4).

Step 1 selects the k most likely *unique* first tokens so every candidate
sequence starts differently — the key diversity device.  Every later step,
for each candidate independently, restricts to the n most likely next
tokens, renormalizes, and samples one.  The result balances likelihood and
diversity better than beam search for the rewriting pipeline.

Implementation notes (see ``docs/DECODING.md`` for the full contract):

* **Vectorized sampling** — each step masks, pools, renormalizes and
  samples all candidates with batch numpy calls (:func:`sample_top_n_pools`)
  instead of a per-row python loop, while consuming exactly one uniform
  deviate per live candidate in row order — the same RNG stream as the
  per-row ``rng.choice`` it replaced, so seeded decodes are byte-identical.
* **Active-row compaction** — finished candidates are physically dropped
  from the decode batch via ``state.reorder`` rather than stepped as dead
  weight; results are re-scattered to candidate order at the end.
* **Empty pools finish gracefully** — a candidate whose legal pool is
  empty (every unblocked token at ``-inf``) is retired unfinished instead
  of crashing on NaN sampling probabilities, and consumes no randomness.
"""

from __future__ import annotations

import numpy as np

from repro.decoding.hypothesis import Hypothesis
from repro.decoding.logspace import log_softmax_np
from repro.models.base import Seq2SeqModel, pad_sources


def sample_top_n_pools(
    rng: np.random.Generator, log_probs: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one token per row from each row's top-``n`` pool, vectorized.

    ``log_probs`` is a (rows, vocab) array with blocked tokens already set
    to ``-inf``.  Returns ``(choices, legal)``: ``legal[i]`` is False when
    row ``i``'s pool contains no finite entry — such a row consumes no
    randomness and its ``choices[i]`` is -1; callers retire it gracefully.

    RNG contract: exactly one uniform deviate per legal row, drawn in row
    order by a single batched ``rng.random`` call.  This is bit-compatible
    with the per-row loop ``pool[rng.choice(len(pool), p=probs)]`` it
    replaces: ``Generator.choice`` consumes one ``random()`` double and
    picks by right-bisecting the renormalized cumulative distribution,
    which is what the vectorized ``(cdf <= u).sum()`` computes.
    """
    rows, vocab = log_probs.shape
    width = min(n, vocab)
    # The descending pool by `width` argmax sweeps over a scratch copy:
    # for the small n of top-n sampling this beats partitioning the whole
    # vocabulary, and equal log-probs enter the pool lowest token id first.
    scratch = log_probs.copy()
    row_index = np.arange(rows)
    pool = np.empty((rows, width), dtype=np.int64)
    pool_logp = np.empty((rows, width))
    for j in range(width):
        best = scratch.argmax(axis=1)
        pool[:, j] = best
        pool_logp[:, j] = scratch[row_index, best]
        scratch[row_index, best] = -np.inf
    legal = np.isfinite(pool_logp[:, 0])
    choices = np.full(rows, -1, dtype=np.int64)
    if not legal.any():
        return choices, legal
    kept = pool_logp[legal]
    weights = np.exp(kept - kept[:, :1])
    weights /= weights.sum(axis=1, keepdims=True)
    cdf = np.cumsum(weights, axis=1)
    cdf /= cdf[:, -1:]
    draws = rng.random(int(legal.sum()))
    positions = (cdf <= draws[:, None]).sum(axis=1)
    choices[legal] = pool[legal, positions]
    return choices, legal


def top_n_sampling(
    model: Seq2SeqModel,
    src: np.ndarray,
    k: int = 3,
    n: int = 40,
    max_len: int = 32,
    rng: np.random.Generator | None = None,
    forbid_tokens: tuple[int, ...] = (),
) -> list[Hypothesis]:
    """Decode ``k`` diverse sequences for one source.

    Implemented as :func:`top_n_sampling_batch` on a batch of one — the
    two consume identical RNG streams, so a seeded single-source decode
    returns exactly what the same seed returns for that source in a batch.

    Parameters
    ----------
    k:
        Number of candidate sequences (the paper's beam width k=3).
    n:
        Size of the per-step sampling pool (the paper uses n=40).
    forbid_tokens:
        Token ids never to emit (PAD/SOS/UNK are excluded automatically).
    """
    src = np.atleast_2d(np.asarray(src))
    if src.shape[0] != 1:
        raise ValueError("top_n_sampling expects a single source sequence")
    return top_n_sampling_batch(
        model, src, k=k, n=n, max_len=max_len, rng=rng, forbid_tokens=forbid_tokens
    )[0]


def top_n_sampling_batch(
    model: Seq2SeqModel,
    src: np.ndarray | list[list[int]],
    k: int = 3,
    n: int = 40,
    max_len: int = 32,
    rng: np.random.Generator | None = None,
    forbid_tokens: tuple[int, ...] = (),
) -> list[list[Hypothesis]]:
    """Decode ``k`` diverse sequences for *each* of a batch of sources.

    The algorithm is the paper's top-n sampling applied to every source,
    but all candidates of all sources are stacked into one flat decode
    batch: a batch of B sources costs the same number of model calls as a
    single source, with at most B·k rows per call instead of k.  This is
    the model-tier hot path of ``ServingPipeline.serve_batch``.

    Candidates that finish (EOS, or an empty legal pool) are compacted out
    of the decode batch with ``state.reorder``, so the per-step row count
    only shrinks; each step then samples every surviving candidate with
    one vectorized pool draw (:func:`sample_top_n_pools`), preserving the
    one-uniform-per-candidate RNG stream of the original per-row loop.

    ``src`` is a padded (batch, seq) array or a list of variable-length id
    lists (padded internally).  Returns one hypothesis list per source, in
    input order; a source whose first step admits no legal token gets an
    empty list.
    """
    if isinstance(src, list):
        src = pad_sources(src, model.pad_id)
    src = np.atleast_2d(np.asarray(src))
    if k <= 0 or n <= 0:
        raise ValueError("k and n must be positive")
    rng = rng or np.random.default_rng()
    blocked = set(forbid_tokens) | {model.pad_id, model.sos_id}
    blocked_cols = np.fromiter(blocked, dtype=np.int64)
    not_first = blocked | {model.eos_id}
    batch = src.shape[0]

    state = model.start(src)
    last = np.full(batch, model.sos_id, dtype=np.int64)
    logits, state = model.step(state, last)
    first_log_probs = log_softmax_np(logits)  # (batch, vocab)

    # Step 1 per source: the k most likely unique first tokens.  k
    # survivors sit within the best k + |not_first| ids of each row's
    # order; one row-wise argsort sorts every row as a 1-D call would.
    orders = np.argsort(-first_log_probs, axis=1)[:, : k + len(not_first)]
    owner: list[int] = []  # source index of each flat candidate slot
    first_tokens: list[int] = []
    for s, order in enumerate(orders.tolist()):
        firsts = [t for t in order if t not in not_first][:k]
        owner.extend([s] * len(firsts))
        first_tokens.extend(firsts)
    if not first_tokens:
        return [[] for _ in range(batch)]
    flat = len(first_tokens)

    last = np.array(first_tokens, dtype=np.int64)
    state = state.reorder(np.array(owner, dtype=np.int64), model)
    # Row i of `tokens` holds candidate i's sequence, `lengths[i]` long.
    tokens = np.zeros((flat, max(max_len, 1)), dtype=np.int64)
    tokens[:, 0] = last
    lengths = np.ones(flat, dtype=np.int64)
    log_probs = first_log_probs[owner, last].astype(np.float64)
    finished_flags = np.zeros(flat, dtype=bool)
    # `slots[i]` maps live decode-batch row i back to its candidate slot;
    # compaction keeps rows in ascending slot order, which is what keeps
    # the RNG draw order identical to the uncompacted per-row loop.
    slots = np.arange(flat)

    for position in range(1, max_len):
        if slots.size == 0:
            break
        logits, state = model.step(state, last)
        step_log_probs = log_softmax_np(logits)  # (live, vocab)
        step_log_probs[:, blocked_cols] = -np.inf
        choices, legal = sample_top_n_pools(rng, step_log_probs, n)
        legal_rows = np.nonzero(legal)[0]
        log_probs[slots[legal_rows]] += step_log_probs[legal_rows, choices[legal_rows]]
        hit_eos = legal & (choices == model.eos_id)
        finished_flags[slots[hit_eos]] = True
        keep = legal & ~hit_eos
        if keep.all():
            last = choices
        else:
            kept_rows = np.nonzero(keep)[0]
            state = state.reorder(kept_rows, model)
            slots = slots[kept_rows]
            last = choices[kept_rows]
        # Every live candidate has survived every earlier step, so its
        # next token lands in column `position`.
        tokens[slots, position] = last
        lengths[slots] += 1

    grouped: list[list[Hypothesis]] = [[] for _ in range(batch)]
    for s, row, length, log_prob, done in zip(
        owner, tokens.tolist(), lengths.tolist(), log_probs.tolist(), finished_flags.tolist()
    ):
        grouped[s].append(
            Hypothesis(tokens=tuple(row[:length]), log_prob=log_prob, finished=done)
        )
    return grouped
