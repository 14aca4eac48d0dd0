"""Query rewriting inference (paper Section III-E, Figure 3).

Given a trained forward (query-to-title) and backward (title-to-query)
model, a query ``x`` is rewritten by:

1. top-n sampling ``k`` synthetic titles ``y_1..y_k`` from the forward
   model;
2. top-n sampling ``k`` synthetic queries from each title with the
   backward model (``k²`` candidates);
3. scoring every candidate ``x'`` with the marginal
   ``P(x'|x) = Σ_t P(y_t|x; θ_f) P(x'|y_t; θ_b)`` — computed entirely in
   log space — and returning the top ``k`` distinct candidates ``x' ≠ x``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import pad_batch
from repro.decoding import top_n_sampling, top_n_sampling_batch
from repro.decoding.logspace import logsumexp_np
from repro.models.base import Seq2SeqModel, pad_sources
from repro.text import Vocabulary, tokenize


@dataclass
class RewriterConfig:
    """Inference hyperparameters (paper defaults: k=3, n=40)."""

    k: int = 3
    top_n: int = 10
    max_title_len: int = 24
    max_query_len: int = 12
    #: drop candidates whose marginal log-probability is this far below the best
    score_window: float = 30.0
    seed: int = 0


@dataclass(frozen=True)
class RewriteResult:
    """One rewritten query with its provenance."""

    tokens: tuple[str, ...]
    log_prob: float
    #: the synthetic title that generated this candidate (highest-scoring path)
    via_title: tuple[str, ...] = ()

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass
class _Candidate:
    token_ids: list[int]
    best_title_index: int
    score: float = -np.inf


class CyclicRewriter:
    """The two-hop rewriting pipeline of Figure 3."""

    def __init__(
        self,
        forward_model: Seq2SeqModel,
        backward_model: Seq2SeqModel,
        vocab: Vocabulary,
        config: RewriterConfig | None = None,
    ):
        self.forward_model = forward_model
        self.backward_model = backward_model
        self.vocab = vocab
        self.config = config or RewriterConfig()
        self._rng = np.random.default_rng(self.config.seed)

    def rewrite(self, query: str | list[str], k: int | None = None) -> list[RewriteResult]:
        """Return up to ``k`` rewritten queries (best first), never the
        original query itself."""
        cfg = self.config
        k = k or cfg.k
        query_tokens = tokenize(query) if isinstance(query, str) else list(query)
        if not query_tokens:
            return []
        src = np.array([self.vocab.encode(query_tokens, add_eos=True)])

        self.forward_model.eval()
        self.backward_model.eval()

        # Hop 1: k synthetic titles.  UNK is never a useful output token.
        titles = top_n_sampling(
            self.forward_model, src, k=cfg.k, n=cfg.top_n,
            max_len=cfg.max_title_len, rng=self._rng,
            forbid_tokens=(self.vocab.unk_id,),
        )
        titles = [t for t in titles if t.tokens]
        if not titles:
            return []

        # Hop 2: k synthetic queries per title.
        candidates: dict[tuple[int, ...], _Candidate] = {}
        for title_index, title in enumerate(titles):
            title_src = np.array([list(title.tokens) + [self.vocab.eos_id]])
            synthetic = top_n_sampling(
                self.backward_model, title_src, k=cfg.k, n=cfg.top_n,
                max_len=cfg.max_query_len, rng=self._rng,
                forbid_tokens=(self.vocab.unk_id,),
            )
            for hyp in synthetic:
                if not hyp.tokens:
                    continue
                key = tuple(hyp.tokens)
                if key not in candidates:
                    candidates[key] = _Candidate(
                        token_ids=list(hyp.tokens), best_title_index=title_index
                    )

        original_ids = tuple(self.vocab.encode(query_tokens, add_eos=False))
        candidates.pop(original_ids, None)
        if not candidates:
            return []

        scored = self._score_candidates(src, titles, list(candidates.values()))
        scored.sort(key=lambda c: c.score, reverse=True)
        best = scored[0].score
        results = []
        for cand in scored[:k]:
            if cand.score < best - cfg.score_window:
                break
            results.append(
                RewriteResult(
                    tokens=tuple(self.vocab.decode(cand.token_ids)),
                    log_prob=cand.score,
                    via_title=tuple(self.vocab.decode(list(titles[cand.best_title_index].tokens))),
                )
            )
        return results

    # -- scoring (Section III-E merge step) ----------------------------------
    def _score_candidates(
        self,
        src: np.ndarray,
        titles: list,
        candidates: list[_Candidate],
    ) -> list[_Candidate]:
        """Score each candidate by log Σ_t P(y_t|x) P(x'|y_t).

        The backward scores are computed in one batched pass over the
        (title, candidate) cross product; everything stays in log space —
        the numerical-stability requirement Section III-E highlights.
        """
        pad = self.vocab.pad_id
        n_titles = len(titles)
        n_cands = len(candidates)

        # Forward scores log P(y_t | x), re-scored to align with teacher
        # forcing (the sampled hypothesis carries its own log-prob already,
        # but re-scoring keeps scores consistent across decoders).
        title_rows = [list(t.tokens) for t in titles]
        rep_src = np.repeat(src, n_titles, axis=0)
        y_tgt = pad_batch(
            [[self.vocab.sos_id] + row + [self.vocab.eos_id] for row in title_rows], pad
        )
        lp_forward = self.forward_model.sequence_log_prob(rep_src, y_tgt)  # (n_titles,)

        # Backward scores log P(x' | y_t) for every (t, candidate) pair.
        y_src_rows = [row + [self.vocab.eos_id] for row in title_rows]
        pair_src = pad_batch(
            [y_src_rows[t] for t in range(n_titles) for _ in range(n_cands)], pad
        )
        pair_tgt = pad_batch(
            [
                [self.vocab.sos_id] + c.token_ids + [self.vocab.eos_id]
                for _ in range(n_titles)
                for c in candidates
            ],
            pad,
        )
        lp_backward = self.backward_model.sequence_log_prob(pair_src, pair_tgt)
        lp_backward = lp_backward.reshape(n_titles, n_cands)

        combined = lp_forward[:, None] + lp_backward  # (n_titles, n_cands)
        scores = logsumexp_np(combined, axis=0)
        best_title = combined.argmax(axis=0)
        for j, cand in enumerate(candidates):
            cand.score = float(scores[j])
            cand.best_title_index = int(best_title[j])
        return candidates


class DirectRewriter:
    """Direct query-to-query rewriting (Section III-G serving model).

    One decode instead of two: a single translation model trained on
    synonymous query pairs (queries sharing clicks on the same items).
    Used online for long-tail queries where the two-hop pipeline is too
    slow.
    """

    def __init__(
        self,
        model: Seq2SeqModel,
        vocab: Vocabulary,
        config: RewriterConfig | None = None,
    ):
        self.model = model
        self.vocab = vocab
        self.config = config or RewriterConfig()
        self._rng = np.random.default_rng(self.config.seed)

    def rewrite(self, query: str | list[str], k: int | None = None) -> list[RewriteResult]:
        """Up to ``k`` rewrites of one query: :meth:`rewrite_batch` of one."""
        return self.rewrite_batch([query], k)[0]

    def rewrite_batch(
        self, queries: list[str | list[str]], k: int | None = None
    ) -> list[list[RewriteResult]]:
        """Rewrite many queries in one batched decode (serving hot path).

        All queries' candidate sequences are stacked into a single flat
        decode batch, so a batch of B queries costs the same number of
        model forward passes as one query.  Returns one result list per
        query, in input order; empty queries get empty lists.
        """
        cfg = self.config
        k = k or cfg.k
        token_lists = [
            tokenize(q) if isinstance(q, str) else list(q) for q in queries
        ]
        results: list[list[RewriteResult]] = [[] for _ in queries]
        live = [i for i, tokens in enumerate(token_lists) if tokens]
        if not live:
            return results
        sources = [
            self.vocab.encode(token_lists[i], add_eos=True) for i in live
        ]
        if self.model.training:
            self.model.eval()
        grouped = top_n_sampling_batch(
            self.model, pad_sources(sources, self.vocab.pad_id),
            k=k, n=cfg.top_n, max_len=cfg.max_query_len,
            rng=self._rng, forbid_tokens=(self.vocab.unk_id,),
        )
        names = self.vocab.tokens()
        for i, source, hyps in zip(live, sources, grouped):
            results[i] = self._results_from_hyps(hyps, source, k, names)
        return results

    def _results_from_hyps(
        self, hyps, source: list[int], k: int, names: list[str]
    ) -> list[RewriteResult]:
        """Best-first results; ``source`` is the query's encoded ids
        (EOS last), whose echo is never a rewrite of itself.  ``names`` maps
        ids to tokens: a top-n hypothesis holds no PAD, SOS or EOS id."""
        original = tuple(source[:-1])
        results = [
            RewriteResult(tokens=tuple([names[t] for t in h.tokens]), log_prob=h.log_prob)
            for h in sorted(hyps, key=lambda h: h.log_prob, reverse=True)
            if h.tokens and h.tokens != original
        ]
        return results[:k]


def rewrite_many(
    rewriter, queries: list[str], k: int | None = None
) -> list[list[RewriteResult]]:
    """Rewrites of every query in ``queries``, one list per query in
    input order: a single stacked ``rewrite_batch`` decode when the
    rewriter has one (:class:`DirectRewriter`), else one ``rewrite`` per
    query.  The serving pipeline's misses and the cache warm both
    dispatch through here."""
    if hasattr(rewriter, "rewrite_batch"):
        return rewriter.rewrite_batch(queries, k=k)
    return [rewriter.rewrite(query, k=k) for query in queries]
