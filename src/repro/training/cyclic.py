"""Cyclic-consistent joint training — the paper's Algorithm 1.

The likelihood is ``L = L_f + L_b + λ L_c`` where the cyclic term

    L_c = Σ_n log Σ_{y∈~Y} P(y | x_n; θ_f) · P(x_n | y; θ_b)

encourages the forward/backward pair to "translate back" the original
query.  The intractable sum over all titles is approximated by the top-k
set ~Y sampled from the forward model with the top-n decoder (Eq. 5), and
the cyclic term is switched on only after ``G`` warmup steps, when both
models are good enough for the sampled set to be meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd import logsumexp
from repro.data.dataset import pad_batch
from repro.models.base import Seq2SeqModel
from repro.optim import Adam, NoamSchedule, clip_grad_norm
from repro.text import Vocabulary
from repro.training.history import History
from repro.training.seq_score import sample_title_rows, sequence_log_prob_tensor


@dataclass
class CyclicConfig:
    """Algorithm 1 hyperparameters (paper defaults in comments)."""

    batch_size: int = 8  # B
    max_steps: int = 300  # T
    beam_width: int = 3  # k = 3 in the paper
    top_n: int = 10  # n = 40 in the paper (scaled to our vocab)
    warmup_steps: int = 150  # G = 40,000 in the paper
    lambda_cyclic: float = 0.1  # λ = 0.1
    max_title_len: int = 24
    learning_rate_factor: float = 1.0
    warmup_lr_steps: int = 40
    grad_clip: float = 5.0
    log_every: int = 25
    seed: int = 0


class CyclicTrainer:
    """Joint trainer for the forward (q2t) and backward (t2q) models.

    Parameters
    ----------
    forward_model, backward_model:
        Any :class:`Seq2SeqModel` pair sharing one vocabulary.
    pairs:
        (query_tokens, title_tokens, weight) triples — the click log.
    vocab:
        Shared vocabulary.
    """

    def __init__(
        self,
        forward_model: Seq2SeqModel,
        backward_model: Seq2SeqModel,
        pairs: list[tuple[tuple[str, ...], tuple[str, ...], int]],
        vocab: Vocabulary,
        config: CyclicConfig | None = None,
    ):
        if not pairs:
            raise ValueError("CyclicTrainer needs a non-empty pair list")
        self.forward_model = forward_model
        self.backward_model = backward_model
        self.vocab = vocab
        self.config = config or CyclicConfig()
        self.history = History()
        self._rng = np.random.default_rng(self.config.seed)
        self.step_count = 0

        # Pre-encode both directions once.
        self._q_src = [vocab.encode(list(q), add_eos=True) for q, _, _ in pairs]
        self._q_tgt = [vocab.encode(list(q), add_sos=True, add_eos=True) for q, _, _ in pairs]
        self._t_src = [vocab.encode(list(t), add_eos=True) for _, t, _ in pairs]
        self._t_tgt = [vocab.encode(list(t), add_sos=True, add_eos=True) for _, t, _ in pairs]

        self.fwd_optimizer = Adam(forward_model.parameters())
        self.bwd_optimizer = Adam(backward_model.parameters())
        d_model = getattr(forward_model.config, "d_model", 64)
        self.schedule = NoamSchedule(
            d_model=d_model,
            warmup_steps=self.config.warmup_lr_steps,
            factor=self.config.learning_rate_factor,
        )

    # -- the Algorithm 1 loop ------------------------------------------------
    @property
    def in_warmup(self) -> bool:
        return self.step_count < self.config.warmup_steps

    def train_step(self) -> dict[str, float]:
        """One step of Algorithm 1; returns the component losses."""
        cfg = self.config
        pad = self.vocab.pad_id
        idx = self._rng.choice(
            len(self._q_src), size=min(cfg.batch_size, len(self._q_src)), replace=False
        )

        q_src = pad_batch([self._q_src[i] for i in idx], pad)
        q_tgt = pad_batch([self._q_tgt[i] for i in idx], pad)
        t_src = pad_batch([self._t_src[i] for i in idx], pad)
        t_tgt = pad_batch([self._t_tgt[i] for i in idx], pad)

        self.forward_model.train()
        self.backward_model.train()
        self.forward_model.zero_grad()
        self.backward_model.zero_grad()

        loss_f, _ = self.forward_model.loss(q_src, t_tgt[:, :-1], t_tgt[:, 1:])
        loss_b, _ = self.backward_model.loss(t_src, q_tgt[:, :-1], q_tgt[:, 1:])
        total = loss_f + loss_b
        metrics = {"loss_forward": float(loss_f.item()), "loss_backward": float(loss_b.item())}

        use_cyclic = self.step_count >= cfg.warmup_steps
        if use_cyclic:
            loss_c = self._cyclic_loss(q_src, q_tgt)
            total = total + cfg.lambda_cyclic * loss_c
            metrics["loss_cyclic"] = float(loss_c.item())

        total.backward()
        clip_grad_norm(self.forward_model.parameters(), cfg.grad_clip)
        clip_grad_norm(self.backward_model.parameters(), cfg.grad_clip)
        self.step_count += 1
        rate = self.schedule.rate(self.step_count)
        self.fwd_optimizer.lr = rate
        self.bwd_optimizer.lr = rate
        self.fwd_optimizer.step()
        self.bwd_optimizer.step()
        metrics["loss_total"] = float(total.item())
        return metrics

    def _cyclic_loss(self, q_src: np.ndarray, q_tgt: np.ndarray):
        """-mean_n log Σ_i P(y_i|x_n; θ_f) P(x_n|y_i; θ_b) over sampled ~Y.

        Both factors are teacher-forced scores of the *sampled* titles, so
        gradients flow into θ_f and θ_b exactly as in Eq. 5 (the sampling
        itself is treated as fixing the subset ~Y, not differentiated).
        """
        cfg = self.config
        batch, k = q_src.shape[0], cfg.beam_width

        # Step 9 of Algorithm 1: sample k synthetic titles per query.
        self.forward_model.eval()
        rep, y_src, y_tgt = sample_title_rows(
            self.forward_model, q_src, k=k, n=cfg.top_n,
            max_len=cfg.max_title_len, rng=self._rng,
        )
        self.forward_model.train()

        lp_forward = sequence_log_prob_tensor(self.forward_model, q_src[rep], y_tgt)
        lp_backward = sequence_log_prob_tensor(self.backward_model, y_src, q_tgt[rep])
        combined = (lp_forward + lp_backward).reshape(batch, k)
        translate_back = logsumexp(combined, axis=1)  # (batch,)
        return -translate_back.mean()

    def train(self, steps: int | None = None, callback=None) -> History:
        """Run Algorithm 1 for ``steps`` (default config.max_steps)."""
        steps = steps if steps is not None else self.config.max_steps
        for _ in range(steps):
            metrics = self.train_step()
            if self.step_count % self.config.log_every == 0 or self.step_count == 1:
                self.history.record(self.step_count, **metrics)
                if callback is not None:
                    callback(self.step_count)
        return self.history
