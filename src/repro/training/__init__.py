"""Training algorithms.

* :class:`SeparateTrainer` — independent maximum-likelihood training of the
  forward (query-to-title) and backward (title-to-query) models (Eq. 1-2).
* :class:`CyclicTrainer` — the paper's Algorithm 1: warmup with separate
  losses, then joint training with the cyclic-consistency likelihood
  (Eq. 3) approximated over top-k sampled titles (Eq. 5).  Step 9 samples
  them with :func:`repro.decoding.top_n_sampling_batch` — the Figure-4
  decoder the serving tier runs; there is no training-side copy.
* :mod:`repro.training.evaluation` — the convergence metrics of Figure 7:
  perplexity, token accuracy, and translate-back log probability (its
  q2q panel samples titles the same way).
"""

from repro.training.history import History
from repro.training.seq_score import sequence_log_prob_tensor
from repro.training.separate import SeparateTrainer, TrainingConfig
from repro.training.cyclic import CyclicTrainer, CyclicConfig
from repro.training.evaluation import (
    teacher_forced_metrics,
    translate_back_metrics,
    ConvergenceTracker,
)

__all__ = [
    "History",
    "sequence_log_prob_tensor",
    "SeparateTrainer",
    "TrainingConfig",
    "CyclicTrainer",
    "CyclicConfig",
    "teacher_forced_metrics",
    "translate_back_metrics",
    "ConvergenceTracker",
]
