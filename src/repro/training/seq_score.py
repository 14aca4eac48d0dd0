"""Differentiable sequence scoring and title sampling for Algorithm 1.

The cyclic-consistency gradient (paper Eq. 5) needs, for every query x and
every sampled title y_i, the *differentiable* log probabilities
``log P(y_i | x; θ_f)`` and ``log P(x | y_i; θ_b)``.  The helpers here
produce those as autograd tensors, and turn one batched call of the
Figure-4 decoder into the teacher-forcing rows both factors are scored on.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.data.dataset import pad_batch
from repro.decoding import top_n_sampling_batch
from repro.models.base import Seq2SeqModel


def sequence_log_prob_tensor(
    model: Seq2SeqModel, src: np.ndarray, tgt: np.ndarray
) -> Tensor:
    """Per-row log P(tgt | src) as an autograd tensor of shape (batch,).

    ``tgt`` includes SOS and EOS; PAD positions contribute zero.  Unlike
    :meth:`Seq2SeqModel.sequence_log_prob`, gradients flow into the model.
    """
    src = np.asarray(src)
    tgt = np.asarray(tgt)
    logits = model.forward(src, tgt[:, :-1])
    labels = tgt[:, 1:]
    batch, seq_len = labels.shape
    log_probs = logits.log_softmax(axis=-1)
    picked = log_probs[
        np.arange(batch)[:, None], np.arange(seq_len)[None, :], labels
    ]
    mask = labels == model.pad_id
    return picked.masked_fill(mask, 0.0).sum(axis=1)


def sample_title_rows(
    model: Seq2SeqModel,
    q_src: np.ndarray,
    k: int,
    n: int,
    max_len: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step 9 of Algorithm 1: the title set ~Y as teacher-forcing rows.

    Samples ``k`` titles per source with the Figure-4 decoder
    (:func:`repro.decoding.top_n_sampling_batch`) and returns
    ``(rep, y_src, y_tgt)`` over the flattened ``batch * k`` titles,
    source-major: ``rep[i]`` is the source row title ``i`` came from,
    ``y_src`` the padded ``title EOS`` rows (the backward model's input)
    and ``y_tgt`` the padded ``SOS title EOS`` rows (the forward model's
    target).  A source with fewer than ``k`` legal first tokens cannot
    fill ~Y and raises ``ValueError``.
    """
    titles = top_n_sampling_batch(model, q_src, k=k, n=n, max_len=max_len, rng=rng)
    for group in titles:
        if len(group) != k:
            raise ValueError(
                f"top-n sampling produced {len(group)} titles for a source, "
                f"k={k} needed: the vocabulary has too few legal first tokens"
            )
    rows = [list(h.tokens) + [model.eos_id] for group in titles for h in group]
    rep = np.repeat(np.arange(len(titles)), k)
    y_src = pad_batch(rows, model.pad_id)
    y_tgt = pad_batch([[model.sos_id] + row for row in rows], model.pad_id)
    return rep, y_src, y_tgt
