"""LM-based query rewriting (paper Section V future-work exploration).

Fine-tunes a causal LM on the "special language"
``query <sep1> title <sep2> query2`` and rewrites by prompting
``query <sep1>`` and letting the model generate a synthetic title and then
the rewritten query in a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rewriter import RewriteResult
from repro.data.dataset import pad_batch
from repro.models.config import ModelConfig
from repro.models.lm import SEP1, SEP2, DecoderOnlyLM
from repro.optim import Adam, NoamSchedule, clip_grad_norm
from repro.text import Vocabulary, tokenize


@dataclass
class LMRewriterConfig:
    k: int = 3
    top_n: int = 5
    max_title_tokens: int = 20
    max_query_tokens: int = 10
    batch_size: int = 16
    train_steps: int = 300
    warmup_lr_steps: int = 40
    grad_clip: float = 5.0
    seed: int = 0


def build_lm_sequences(
    pairs: list[tuple[tuple[str, ...], tuple[str, ...], int]],
    synonym_pairs: list[tuple[tuple[str, ...], tuple[str, ...], int]],
    vocab: Vocabulary,
) -> list[list[int]]:
    """Encode ``query <sep1> title <sep2> query2 <eos>`` training sequences.

    ``query2`` is a synonymous query (one sharing clicks with ``query``)
    when available, else the query itself — the self-pair still teaches the
    format and the translate-back behaviour.
    """
    sep1 = vocab.add_token(SEP1)
    sep2 = vocab.add_token(SEP2)
    synonyms: dict[tuple[str, ...], tuple[str, ...]] = {}
    for a, b, _ in synonym_pairs:
        synonyms.setdefault(a, b)

    sequences: list[list[int]] = []
    for query, title, _ in pairs:
        rewrite = synonyms.get(query, query)
        ids = (
            vocab.encode(list(query), add_eos=False)
            + [sep1]
            + vocab.encode(list(title), add_eos=False)
            + [sep2]
            + vocab.encode(list(rewrite), add_eos=True)
        )
        sequences.append(ids)
    return sequences


class LMRewriter:
    """Trainable single-model rewriter over the special language."""

    def __init__(
        self,
        vocab: Vocabulary,
        model_config: ModelConfig | None = None,
        config: LMRewriterConfig | None = None,
    ):
        # A private copy with the same ids (``tokens()[4:]`` skips the
        # four specials the constructor re-adds) grows by the separators;
        # the vocabulary passed in may be shared and stays as it is.
        self.vocab = Vocabulary(vocab.tokens()[4:])
        self.config = config or LMRewriterConfig()
        self.sep1 = self.vocab.add_token(SEP1)
        self.sep2 = self.vocab.add_token(SEP2)
        model_config = model_config or ModelConfig()
        model_config = model_config.scaled(vocab_size=len(self.vocab), max_len=96)
        self.model = DecoderOnlyLM(model_config, pad_id=vocab.pad_id)
        self._rng = np.random.default_rng(self.config.seed)

    # -- training ----------------------------------------------------------
    def fit(self, sequences: list[list[int]]) -> list[float]:
        """Causal-LM training on the special-language corpus."""
        if not sequences:
            raise ValueError("LMRewriter.fit needs a non-empty corpus")
        cfg = self.config
        usable = [s[: self.model.config.max_len] for s in sequences]
        optimizer = Adam(self.model.parameters())
        schedule = NoamSchedule(
            self.model.config.d_model, warmup_steps=cfg.warmup_lr_steps
        )
        losses: list[float] = []
        for step in range(1, cfg.train_steps + 1):
            idx = self._rng.choice(
                len(usable), size=min(cfg.batch_size, len(usable)), replace=False
            )
            batch = pad_batch([usable[i] for i in idx], self.vocab.pad_id)
            self.model.train()
            self.model.zero_grad()
            loss, _ = self.model.loss(batch)
            loss.backward()
            clip_grad_norm(self.model.parameters(), cfg.grad_clip)
            optimizer.lr = schedule.rate(step)
            optimizer.step()
            losses.append(float(loss.item()))
        self.model.eval()
        return losses

    # -- inference -----------------------------------------------------------
    def rewrite(self, query: str | list[str], k: int | None = None) -> list[RewriteResult]:
        """Generate k candidates: prompt ``query <sep1>``, read out the
        generated title and rewritten query."""
        cfg = self.config
        k = k or cfg.k
        tokens = tokenize(query) if isinstance(query, str) else list(query)
        if not tokens:
            return []
        prefix = self.vocab.encode(tokens, add_eos=False) + [self.sep1]
        original = tuple(tokens)
        results: list[RewriteResult] = []
        seen: set[tuple[str, ...]] = {original}
        forbid = {self.vocab.sos_id, self.vocab.unk_id}
        for _ in range(k * 2):  # oversample; duplicates are dropped
            if len(results) >= k:
                break
            title_ids = self.model.generate(
                prefix, cfg.max_title_tokens,
                stop_ids={self.sep2, self.vocab.eos_id},
                rng=self._rng, top_n=cfg.top_n,
                forbid_ids=forbid | {self.sep1},
            )
            if not title_ids:
                continue
            query_ids = self.model.generate(
                prefix + title_ids + [self.sep2], cfg.max_query_tokens,
                stop_ids={self.vocab.eos_id},
                rng=self._rng, top_n=cfg.top_n,
                forbid_ids=forbid | {self.sep1, self.sep2},
            )
            rewrite_tokens = tuple(self.vocab.decode(query_ids))
            if not rewrite_tokens or rewrite_tokens in seen:
                continue
            seen.add(rewrite_tokens)
            results.append(
                RewriteResult(
                    tokens=rewrite_tokens,
                    log_prob=0.0,  # single-sample generation; no marginal score
                    via_title=tuple(self.vocab.decode(title_ids)),
                )
            )
        return results
