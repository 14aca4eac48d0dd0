"""Shared experiment context: one marketplace + trained model pairs.

Training the forward/backward pairs dominates experiment cost, and most
tables/figures need the *same* trained models, so a per-scale context is
built once and cached for the lifetime of the process.  The context holds:

* the synthetic marketplace (catalog, click log, vocab, splits);
* a **separately trained** model pair (Eq. 1-2 only) with its Figure-7
  convergence history;
* a **jointly trained** pair (Algorithm 1, cyclic loss after warmup) with
  its history;
* rewriters over both pairs, the rule-based baseline, SimRank++, the dual
  encoder for cosine scoring, and the simulated labeler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import RuleBasedRewriter, SimRankPP
from repro.core import CyclicRewriter, RewriterConfig
from repro.data import (
    MarketplaceConfig,
    Marketplace,
    build_rule_dictionary,
    generate_marketplace,
)
from repro.data.catalog import CatalogConfig
from repro.data.clicklog import ClickLogConfig
from repro.data.dataset import ParallelCorpus
from repro.embedding import DualEncoder, train_dual_encoder
from repro.evaluation import SimulatedLabeler
from repro.experiments.scale import ExperimentScale
from repro.models import ModelConfig, TransformerNMT
from repro.training import ConvergenceTracker, CyclicConfig, CyclicTrainer, History


@dataclass
class TrainedPair:
    """A forward/backward model pair plus its training diagnostics."""

    forward: TransformerNMT
    backward: TransformerNMT
    train_history: History
    convergence: History  # q2t_/t2q_/q2q_ series (Figure 7)


@dataclass
class ExperimentContext:
    scale: ExperimentScale
    marketplace: Marketplace
    separate: TrainedPair
    joint: TrainedPair
    rule_rewriter: RuleBasedRewriter
    encoder: DualEncoder
    labeler: SimulatedLabeler
    _simrank: SimRankPP | None = field(default=None, repr=False)

    @property
    def vocab(self):
        return self.marketplace.vocab

    @property
    def simrank(self) -> SimRankPP:
        if self._simrank is None:
            self._simrank = SimRankPP(self.marketplace.click_log)
        return self._simrank

    def rewriter(self, regime: str) -> CyclicRewriter:
        """A fresh rewriter over the separate or joint model pair."""
        pair = {"separate": self.separate, "joint": self.joint}[regime]
        return CyclicRewriter(
            pair.forward,
            pair.backward,
            self.vocab,
            RewriterConfig(
                k=self.scale.beam_width + 1,
                top_n=self.scale.top_n,
                max_title_len=self.scale.max_title_len,
                max_query_len=10,
                seed=self.scale.seed,
            ),
        )

    def evaluation_queries(self, n: int | None = None) -> list[str]:
        """Held-out query texts (most-clicked first, deterministic)."""
        records = sorted(
            self.marketplace.click_log.queries.values(),
            key=lambda r: (-r.total_clicks, r.text),
        )
        n = n or self.scale.eval_queries
        return [r.text for r in records[:n]]

    def evaluation_intents(self, n: int | None = None):
        """(query text, intent) pairs for judge/A-B experiments."""
        records = sorted(
            self.marketplace.click_log.queries.values(),
            key=lambda r: (-r.total_clicks, r.text),
        )
        n = n or self.scale.human_eval_queries
        return [(r.text, r.intent) for r in records[:n]]


_CONTEXT_CACHE: dict[str, ExperimentContext] = {}


def build_context(scale: ExperimentScale) -> ExperimentContext:
    """Build (or fetch) the full experiment context for a scale preset."""
    if scale.name in _CONTEXT_CACHE:
        return _CONTEXT_CACHE[scale.name]

    marketplace = generate_marketplace(
        MarketplaceConfig(
            catalog=CatalogConfig(products_per_category=scale.products_per_category),
            clicks=ClickLogConfig(
                num_sessions=scale.num_sessions,
                # Query universe grows with traffic so head repetition stays
                # realistic without exhausting the intent space.
                intent_pool_size=max(150, scale.num_sessions // 15),
            ),
            seed=scale.seed,
        )
    )
    vocab_size = len(marketplace.vocab)

    separate = _train_pair(marketplace, scale, cyclic=False)
    joint = _train_pair(marketplace, scale, cyclic=True)

    context = ExperimentContext(
        scale=scale,
        marketplace=marketplace,
        separate=separate,
        joint=joint,
        rule_rewriter=RuleBasedRewriter(build_rule_dictionary()),
        encoder=_train_encoder(marketplace, scale),
        labeler=SimulatedLabeler(marketplace.catalog),
    )
    _CONTEXT_CACHE[scale.name] = context
    return context


def make_models(scale: ExperimentScale, vocab_size: int) -> tuple[TransformerNMT, TransformerNMT]:
    """A fresh forward (deeper) / backward (1-layer) transformer pair."""
    forward = TransformerNMT(
        ModelConfig(
            vocab_size=vocab_size,
            d_model=scale.d_model,
            num_heads=scale.num_heads,
            d_ff=scale.d_ff,
            encoder_layers=scale.forward_layers,
            decoder_layers=scale.forward_layers,
            dropout=0.0,
            seed=scale.seed,
        )
    )
    backward = TransformerNMT(
        ModelConfig(
            vocab_size=vocab_size,
            d_model=scale.d_model,
            num_heads=scale.num_heads,
            d_ff=scale.d_ff,
            encoder_layers=scale.backward_layers,
            decoder_layers=scale.backward_layers,
            dropout=0.0,
            seed=scale.seed + 1,
        )
    )
    return forward, backward


def _train_pair(
    marketplace: Marketplace, scale: ExperimentScale, cyclic: bool
) -> TrainedPair:
    total_steps = scale.warmup_steps + scale.joint_steps
    forward, backward = make_models(scale, len(marketplace.vocab))
    trainer = CyclicTrainer(
        forward,
        backward,
        marketplace.train_pairs,
        marketplace.vocab,
        CyclicConfig(
            batch_size=scale.batch_size,
            max_steps=total_steps,
            beam_width=scale.beam_width,
            top_n=scale.top_n,
            # cyclic=False trains to the end in "warmup" mode = Eq. 1-2 only.
            warmup_steps=scale.warmup_steps if cyclic else total_steps + 1,
            max_title_len=scale.max_title_len,
            log_every=max(1, total_steps // 16),
            seed=scale.seed,
        ),
    )
    tracker = _make_tracker(marketplace, forward, backward, scale)
    eval_every = max(1, total_steps // 8)

    def callback(step: int) -> None:
        if step % eval_every == 0 or step == total_steps:
            tracker.evaluate(step)

    trainer.train(total_steps, callback=callback)
    tracker.evaluate(total_steps)
    return TrainedPair(
        forward=forward,
        backward=backward,
        train_history=trainer.history,
        convergence=tracker.history,
    )


def _make_tracker(
    marketplace: Marketplace,
    forward: TransformerNMT,
    backward: TransformerNMT,
    scale: ExperimentScale,
) -> ConvergenceTracker:
    eval_pairs = marketplace.eval_pairs or marketplace.train_pairs[: scale.eval_queries]
    forward_eval = ParallelCorpus.from_pairs(eval_pairs, marketplace.vocab, swap=False)
    backward_eval = ParallelCorpus.from_pairs(eval_pairs, marketplace.vocab, swap=True)
    queries = [
        marketplace.vocab.encode(list(q), add_eos=True)
        for q, _, _ in eval_pairs[: scale.eval_queries]
    ]
    return ConvergenceTracker(
        forward,
        backward,
        forward_eval,
        backward_eval,
        queries,
        marketplace.vocab,
        k=scale.beam_width,
        top_n=scale.top_n,
        seed=scale.seed,
    )


def _train_encoder(marketplace: Marketplace, scale: ExperimentScale) -> DualEncoder:
    encoder = DualEncoder(marketplace.vocab)
    train_dual_encoder(
        encoder,
        marketplace.train_pairs,
        steps=max(100, scale.warmup_steps),
        rng=np.random.default_rng(scale.seed),
    )
    return encoder
