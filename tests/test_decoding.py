"""Decoding algorithms: greedy, beam, top-n sampling, diverse beam."""

import numpy as np
import pytest

from repro.autograd.tensor import log_softmax_np
from repro.decoding import (
    beam_search,
    diverse_beam_search,
    greedy_decode,
    logsumexp_np,
    top_n_sampling,
)
from repro.decoding.hypothesis import Hypothesis
from repro.models import ModelConfig, TransformerNMT
from repro.models.base import DecodeState, Seq2SeqModel


class ScriptedModel(Seq2SeqModel):
    """Deterministic toy model with a hand-set next-token distribution.

    The distribution depends only on the last emitted token, making exact
    decoding outcomes computable by hand.
    """

    def __init__(self, table: dict[int, np.ndarray], vocab_size: int = 6):
        super().__init__(vocab_size, pad_id=0, sos_id=1, eos_id=2)
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}

    def forward(self, src, tgt_in):  # pragma: no cover - not used here
        raise NotImplementedError

    def start(self, src):
        return DecodeState(batch_size=np.atleast_2d(src).shape[0], payload={})

    def step(self, state, last_tokens):
        logits = np.stack([self.table[int(t)] for t in np.asarray(last_tokens)])
        return logits, state

    def reorder_state(self, state, index):
        return DecodeState(batch_size=len(index), payload={})


def _scripted():
    """After SOS: tokens 3 (p~0.6), 4 (p~0.3), 5 (p~0.1).  After any of
    3/4/5: EOS almost surely."""
    big, mid, small = 10.0, 9.3, 8.2
    after_sos = np.array([-99.0, -99.0, -99.0, big, mid, small])
    after_tok = np.array([-99.0, -99.0, 20.0, 0.0, 0.0, 0.0])
    return ScriptedModel({1: after_sos, 3: after_tok, 4: after_tok, 5: after_tok})


@pytest.fixture(scope="module")
def trained_model(tiny_market):
    """A briefly trained real model for integration-grade decoding tests."""
    from repro.data.dataset import BatchIterator
    from repro.training import SeparateTrainer, TrainingConfig

    model = TransformerNMT(
        ModelConfig(
            vocab_size=len(tiny_market.vocab),
            d_model=16,
            num_heads=2,
            d_ff=32,
            encoder_layers=1,
            decoder_layers=1,
            dropout=0.0,
            seed=0,
        )
    )
    SeparateTrainer(
        model, tiny_market.forward_corpus, TrainingConfig(max_steps=80, seed=0)
    ).train(80)
    model.eval()
    return model


SRC = np.array([[4, 5, 2]])


class TestLogspace:
    def test_log_softmax_normalizes(self):
        x = np.random.default_rng(0).normal(size=(3, 5))
        out = log_softmax_np(x)
        np.testing.assert_allclose(np.exp(out).sum(axis=-1), np.ones(3))

    def test_logsumexp_matches_naive_in_safe_range(self):
        x = np.random.default_rng(0).normal(size=(4,))
        np.testing.assert_allclose(
            float(logsumexp_np(x)), np.log(np.exp(x).sum()), atol=1e-12
        )

    def test_logsumexp_no_overflow(self):
        x = np.array([1e4, 1e4])
        assert np.isfinite(logsumexp_np(x))

    def test_logsumexp_axis(self):
        x = np.random.default_rng(0).normal(size=(2, 3))
        out = logsumexp_np(x, axis=1)
        assert out.shape == (2,)


class TestGreedy:
    def test_picks_argmax_path(self):
        hyp = greedy_decode(_scripted(), SRC, max_len=5)
        assert hyp.tokens == (3,)
        assert hyp.finished

    def test_respects_max_len(self):
        # A model that never emits EOS.
        never_eos = ScriptedModel(
            {1: np.array([-99, -99, -99, 5.0, 0, 0]), 3: np.array([-99, -99, -99, 5.0, 0, 0])}
        )
        hyp = greedy_decode(never_eos, SRC, max_len=4)
        assert len(hyp.tokens) == 4
        assert not hyp.finished

    def test_log_prob_accumulates(self):
        hyp = greedy_decode(_scripted(), SRC, max_len=5)
        assert hyp.log_prob < 0.0

    def test_rejects_batch(self):
        with pytest.raises(ValueError):
            greedy_decode(_scripted(), np.array([[1, 2], [3, 4]]))


class TestBeamSearch:
    def test_returns_distinct_sorted_hypotheses(self):
        hyps = beam_search(_scripted(), SRC, beam_size=3, max_len=5)
        assert len(hyps) == 3
        tokens = [h.tokens for h in hyps]
        assert len(set(tokens)) == 3
        scores = [h.log_prob for h in hyps]
        assert scores == sorted(scores, reverse=True)

    def test_best_hypothesis_is_modal_sequence(self):
        hyps = beam_search(_scripted(), SRC, beam_size=3, max_len=5)
        assert hyps[0].tokens == (3,)

    def test_beats_or_matches_greedy(self, trained_model, tiny_market):
        src = np.array([tiny_market.forward_corpus.sources[0]])
        greedy = greedy_decode(trained_model, src, max_len=12)
        beams = beam_search(trained_model, src, beam_size=4, max_len=12)
        assert beams[0].log_prob >= greedy.log_prob - 1e-9

    def test_beam_size_one_is_greedy(self, trained_model, tiny_market):
        src = np.array([tiny_market.forward_corpus.sources[1]])
        greedy = greedy_decode(trained_model, src, max_len=12)
        beam = beam_search(trained_model, src, beam_size=1, max_len=12)
        assert beam[0].tokens == greedy.tokens

    def test_invalid_beam_size(self):
        with pytest.raises(ValueError):
            beam_search(_scripted(), SRC, beam_size=0)


class TestTopNSampling:
    def test_first_tokens_unique(self):
        hyps = top_n_sampling(
            _scripted(), SRC, k=3, n=3, max_len=5, rng=np.random.default_rng(0)
        )
        firsts = [h.tokens[0] for h in hyps]
        assert len(set(firsts)) == 3  # Figure 4 step 1: unique starts

    def test_first_tokens_are_the_top_k(self):
        hyps = top_n_sampling(
            _scripted(), SRC, k=2, n=3, max_len=5, rng=np.random.default_rng(0)
        )
        assert {h.tokens[0] for h in hyps} == {3, 4}

    def test_never_emits_special_tokens(self, trained_model, tiny_market):
        src = np.array([tiny_market.forward_corpus.sources[0]])
        hyps = top_n_sampling(
            trained_model, src, k=3, n=5, max_len=10, rng=np.random.default_rng(1)
        )
        vocab = tiny_market.vocab
        for hyp in hyps:
            assert vocab.pad_id not in hyp.tokens
            assert vocab.sos_id not in hyp.tokens
            assert vocab.eos_id not in hyp.tokens

    def test_seeded_reproducibility(self, trained_model, tiny_market):
        src = np.array([tiny_market.forward_corpus.sources[0]])
        a = top_n_sampling(trained_model, src, k=3, n=5, max_len=10, rng=np.random.default_rng(7))
        b = top_n_sampling(trained_model, src, k=3, n=5, max_len=10, rng=np.random.default_rng(7))
        assert [h.tokens for h in a] == [h.tokens for h in b]

    def test_more_diverse_than_beam(self, trained_model, tiny_market):
        """The paper's Section III-F claim, averaged over queries."""
        from repro.text import levenshtein

        def diversity(hyps):
            seqs = [h.tokens for h in hyps if h.tokens]
            if len(seqs) < 2:
                return 0.0
            return float(
                np.mean(
                    [
                        levenshtein(seqs[i], seqs[j])
                        for i in range(len(seqs))
                        for j in range(i + 1, len(seqs))
                    ]
                )
            )

        rng = np.random.default_rng(0)
        beam_div, topn_div = [], []
        for i in range(6):
            src = np.array([tiny_market.forward_corpus.sources[i]])
            beam_div.append(diversity(beam_search(trained_model, src, beam_size=3, max_len=10)))
            topn_div.append(
                diversity(top_n_sampling(trained_model, src, k=3, n=6, max_len=10, rng=rng))
            )
        assert np.mean(topn_div) >= np.mean(beam_div)

    def test_forbid_tokens(self):
        hyps = top_n_sampling(
            _scripted(), SRC, k=2, n=3, max_len=5,
            rng=np.random.default_rng(0), forbid_tokens=(3,),
        )
        for hyp in hyps:
            assert 3 not in hyp.tokens

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            top_n_sampling(_scripted(), SRC, k=0, n=3)
        with pytest.raises(ValueError):
            top_n_sampling(_scripted(), SRC, k=2, n=0)


class TestDiverseBeam:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            diverse_beam_search(_scripted(), SRC, beam_size=5, num_groups=2)

    def test_returns_unique_hypotheses(self, trained_model, tiny_market):
        src = np.array([tiny_market.forward_corpus.sources[2]])
        hyps = diverse_beam_search(trained_model, src, beam_size=4, num_groups=2, max_len=10)
        tokens = [h.tokens for h in hyps]
        assert len(tokens) == len(set(tokens))

    def test_single_group_equals_beam(self, trained_model, tiny_market):
        src = np.array([tiny_market.forward_corpus.sources[3]])
        plain = beam_search(trained_model, src, beam_size=3, max_len=10)
        grouped = diverse_beam_search(trained_model, src, beam_size=3, num_groups=1, max_len=10)
        assert grouped[0].tokens == plain[0].tokens

    def test_diversity_increases_with_strength(self, trained_model, tiny_market):
        from repro.text import levenshtein

        def diversity(hyps):
            seqs = [h.tokens for h in hyps if h.tokens]
            if len(seqs) < 2:
                return 0.0
            return float(np.mean([
                levenshtein(seqs[i], seqs[j])
                for i in range(len(seqs)) for j in range(i + 1, len(seqs))
            ]))

        values = {}
        for strength in (0.0, 2.0):
            total = 0.0
            for i in range(4):
                src = np.array([tiny_market.forward_corpus.sources[i]])
                hyps = diverse_beam_search(
                    trained_model, src, beam_size=4, num_groups=2,
                    diversity_strength=strength, max_len=10,
                )
                total += diversity(hyps)
            values[strength] = total
        assert values[2.0] >= values[0.0]


class TestHypothesis:
    def test_len_and_score(self):
        hyp = Hypothesis(tokens=(3, 4), log_prob=-6.0)
        assert len(hyp) == 2
        assert hyp.score == pytest.approx(-2.0)

    def test_empty_score_safe(self):
        hyp = Hypothesis(tokens=(), log_prob=-1.0)
        assert np.isfinite(hyp.score)
