"""Experiment scale presets.

The paper trains on 300M pairs with 512-d transformers on GPUs; this
reproduction runs on NumPy/CPU, so every experiment takes an
:class:`ExperimentScale` that sets marketplace size, model size and step
budgets.  ``SMALL`` keeps the full benchmark suite in CI-friendly time;
``DEFAULT`` gives cleaner curves when you have minutes instead of seconds;
``TINY`` exists for smoke tests only — every experiment must *run* and
produce its artifact in seconds, with no pretence of meaningful numbers
(the CLI smoke test drives all registered experiments at this scale).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentScale:
    name: str
    # marketplace
    products_per_category: int
    num_sessions: int
    # models
    d_model: int
    num_heads: int
    d_ff: int
    forward_layers: int
    backward_layers: int
    # training
    warmup_steps: int
    joint_steps: int
    batch_size: int
    beam_width: int
    top_n: int
    max_title_len: int
    # evaluation
    eval_queries: int
    human_eval_queries: int
    abtest_days: int
    abtest_sessions_per_day: int
    seed: int = 0
    #: multiplier for the scale-independent serving/retrieval workloads
    #: (corpus sizes, replay lengths).  1.0 keeps every
    #: acceptance-bar size (e.g. the ≥50k-doc retrieval corpus); TINY
    #: shrinks them to smoke-test proportions.
    workload_factor: float = 1.0

    def scaled(self, n: int, floor: int) -> int:
        """``n`` scaled by :attr:`workload_factor`, never below ``floor``.

        The one idiom every scale-independent experiment uses to shrink
        its workload constants at smoke scales while keeping the
        acceptance-bar sizes intact at factor 1.0."""
        return max(floor, int(n * self.workload_factor))


SMALL = ExperimentScale(
    name="small",
    products_per_category=20,
    num_sessions=6000,
    d_model=32,
    num_heads=4,
    d_ff=64,
    forward_layers=2,
    backward_layers=1,
    warmup_steps=170,
    joint_steps=170,
    batch_size=16,
    beam_width=3,
    top_n=5,
    max_title_len=14,
    eval_queries=24,
    human_eval_queries=40,
    abtest_days=2,
    abtest_sessions_per_day=60,
)

TINY = ExperimentScale(
    name="tiny",
    products_per_category=6,
    num_sessions=500,
    d_model=16,
    num_heads=2,
    d_ff=32,
    forward_layers=1,
    backward_layers=1,
    warmup_steps=8,
    joint_steps=8,
    batch_size=8,
    beam_width=2,
    top_n=3,
    max_title_len=12,
    eval_queries=6,
    human_eval_queries=10,
    abtest_days=1,
    abtest_sessions_per_day=20,
    workload_factor=0.04,
)

DEFAULT = ExperimentScale(
    name="default",
    products_per_category=30,
    num_sessions=12000,
    d_model=48,
    num_heads=4,
    d_ff=96,
    forward_layers=2,
    backward_layers=1,
    warmup_steps=300,
    joint_steps=300,
    batch_size=16,
    beam_width=3,
    top_n=8,
    max_title_len=16,
    eval_queries=48,
    human_eval_queries=120,
    abtest_days=10,
    abtest_sessions_per_day=200,
)
