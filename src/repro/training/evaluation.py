"""Convergence metrics of the paper's Figure 7.

Three metric families, each computed for the q2t model, the t2q model and
the composed q2q ("translate back") pipeline:

* **perplexity** — exp of the mean token cross entropy;
* **log probability** — for q2t/t2q, the mean sequence log likelihood; for
  q2q, the log of the translate-back probability marginalized over a fixed
  number of sampled intermediate titles;
* **accuracy** — fraction of positions whose argmax prediction equals the
  reference token (for q2q: the original query's token).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import no_grad
from repro.data.dataset import BatchIterator, ParallelCorpus, pad_batch
from repro.decoding.logspace import logsumexp_np
from repro.models.base import Seq2SeqModel
from repro.text import Vocabulary
from repro.training.history import History
from repro.training.seq_score import sample_title_rows


def teacher_forced_metrics(
    model: Seq2SeqModel,
    corpus: ParallelCorpus,
    max_batches: int = 8,
    batch_size: int = 32,
) -> dict[str, float]:
    """Perplexity / accuracy / mean sequence log-prob on a held-out corpus."""
    iterator = BatchIterator(corpus, batch_size, shuffle=False)
    total_nll = 0.0
    total_tokens = 0
    total_correct = 0
    total_sequences = 0
    total_seq_logprob = 0.0
    model.eval()
    for i, batch in enumerate(iterator):
        if i >= max_batches:
            break
        with no_grad():
            logits = model.forward(batch.source, batch.target_in)
        log_probs = logits.log_softmax(axis=-1).data
        labels = batch.target_out
        mask = labels != model.pad_id
        batch_n, seq_len = labels.shape
        picked = log_probs[
            np.arange(batch_n)[:, None], np.arange(seq_len)[None, :], labels
        ]
        total_nll += float(-(picked * mask).sum())
        total_tokens += int(mask.sum())
        predictions = log_probs.argmax(axis=-1)
        total_correct += int(((predictions == labels) & mask).sum())
        total_seq_logprob += float((picked * mask).sum(axis=1).sum())
        total_sequences += batch_n
    if total_tokens == 0:
        raise ValueError("evaluation corpus produced no tokens")
    mean_nll = total_nll / total_tokens
    return {
        "perplexity": float(np.exp(min(mean_nll, 30.0))),
        "accuracy": total_correct / total_tokens,
        "log_prob": total_seq_logprob / total_sequences,
    }


def translate_back_metrics(
    forward_model: Seq2SeqModel,
    backward_model: Seq2SeqModel,
    queries: list[list[int]],
    vocab: Vocabulary,
    k: int = 3,
    top_n: int = 10,
    max_title_len: int = 24,
    rng: np.random.Generator | None = None,
) -> dict[str, float]:
    """The q2q panel of Figure 7: how well does the pipeline translate back?

    For each query x, k intermediate titles are sampled from the forward
    model; the translate-back log probability is
    ``log Σ_i P(y_i|x) P(x|y_i)`` and the accuracy is the title-weighted
    token accuracy of the backward model predicting x.
    """
    if not queries:
        raise ValueError("translate_back_metrics needs at least one query")
    rng = rng or np.random.default_rng(0)
    pad = vocab.pad_id
    forward_model.eval()
    backward_model.eval()

    q_src = pad_batch(queries, pad)
    rep, y_src, y_tgt = sample_title_rows(
        forward_model, q_src, k=k, n=top_n, max_len=max_title_len, rng=rng
    )
    batch = len(queries)
    # queries end in EOS
    q_tgt = pad_batch([[vocab.sos_id] + queries[i] for i in rep], pad)

    lp_forward = forward_model.sequence_log_prob(q_src[rep], y_tgt)  # (batch*k,)
    lp_backward = backward_model.sequence_log_prob(y_src, q_tgt)

    # Token accuracy of the backward model reconstructing each query,
    # weighted by the (normalized) forward title probabilities.
    with no_grad():
        logits = backward_model.forward(y_src, q_tgt[:, :-1])
    predictions = logits.data.argmax(axis=-1)
    labels = q_tgt[:, 1:]
    mask = labels != pad
    per_row_accuracy = ((predictions == labels) & mask).sum(axis=1) / np.maximum(
        mask.sum(axis=1), 1
    )

    combined = (lp_forward + lp_backward).reshape(batch, k)
    translate_back_logprob = logsumexp_np(combined, axis=1)  # (batch,)
    weights = np.exp(lp_forward.reshape(batch, k) - logsumexp_np(
        lp_forward.reshape(batch, k), axis=1
    )[:, None])
    weighted_accuracy = (weights * per_row_accuracy.reshape(batch, k)).sum(axis=1)

    query_lengths = np.array([len(q) for q in queries])
    perplexity = np.exp(np.minimum(-translate_back_logprob / query_lengths, 30.0))
    return {
        "log_prob": float(translate_back_logprob.mean()),
        "accuracy": float(weighted_accuracy.mean()),
        "perplexity": float(perplexity.mean()),
    }


class ConvergenceTracker:
    """Evaluates q2t / t2q / q2q metrics during training (Figure 7 curves).

    Attach its :meth:`evaluate` as the trainer callback; all series land in
    :attr:`history` with ``q2t_``/``t2q_``/``q2q_`` prefixes.
    """

    def __init__(
        self,
        forward_model: Seq2SeqModel,
        backward_model: Seq2SeqModel,
        forward_eval: ParallelCorpus,
        backward_eval: ParallelCorpus,
        eval_queries: list[list[int]],
        vocab: Vocabulary,
        k: int = 3,
        top_n: int = 10,
        seed: int = 0,
    ):
        self.forward_model = forward_model
        self.backward_model = backward_model
        self.forward_eval = forward_eval
        self.backward_eval = backward_eval
        self.eval_queries = eval_queries
        self.vocab = vocab
        self.k = k
        self.top_n = top_n
        self.history = History()
        self._rng = np.random.default_rng(seed)

    def evaluate(self, step: int) -> dict[str, float]:
        q2t = teacher_forced_metrics(self.forward_model, self.forward_eval)
        t2q = teacher_forced_metrics(self.backward_model, self.backward_eval)
        q2q = translate_back_metrics(
            self.forward_model,
            self.backward_model,
            self.eval_queries,
            self.vocab,
            k=self.k,
            top_n=self.top_n,
            rng=self._rng,
        )
        metrics = {f"q2t_{k}": v for k, v in q2t.items()}
        metrics.update({f"t2q_{k}": v for k, v in t2q.items()})
        metrics.update({f"q2q_{k}": v for k, v in q2q.items()})
        self.history.record(step, **metrics)
        return metrics
