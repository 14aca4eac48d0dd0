"""Decoder-only LM and the Section-V LM rewriter."""

import numpy as np
import pytest

from repro.core.lm_rewriter import LMRewriter, LMRewriterConfig, build_lm_sequences
from repro.models import DecoderOnlyLM, ModelConfig
from repro.models.lm import SEP1, SEP2
from repro.optim import Adam

TINY = ModelConfig(
    vocab_size=48, d_model=16, num_heads=2, d_ff=32,
    encoder_layers=1, decoder_layers=1, dropout=0.0, max_len=48, seed=0,
)


class TestDecoderOnlyLM:
    def test_forward_shape(self):
        lm = DecoderOnlyLM(TINY)
        logits = lm.forward(np.array([[5, 6, 7], [8, 9, 0]]))
        assert logits.shape == (2, 3, 48)

    def test_causality(self):
        """Future tokens must not influence earlier logits."""
        lm = DecoderOnlyLM(TINY)
        lm.eval()
        a = np.array([[5, 6, 7, 8]])
        b = np.array([[5, 6, 7, 9]])  # differs only at the last position
        logits_a = lm.forward(a).data
        logits_b = lm.forward(b).data
        np.testing.assert_allclose(logits_a[0, :3], logits_b[0, :3], atol=1e-9)

    def test_prompt_logits_equal_forward(self):
        """The KV step that primes ``generate`` from a prompt gives
        ``forward``'s logits bit for bit, pad positions included."""
        lm = DecoderOnlyLM(TINY).eval()
        prompts = np.array([[5, 6, 7, 8, 9], [10, 11, 12, 0, 0]])
        hidden, _ = lm._prime(prompts)
        np.testing.assert_array_equal(
            lm.output_proj.infer(hidden), lm.forward(prompts).data
        )

    def test_loss_trains(self):
        lm = DecoderOnlyLM(TINY)
        rng = np.random.default_rng(0)
        data = rng.integers(4, 48, size=(8, 10))
        data[:, 0] = 5  # deterministic-ish structure
        optimizer = Adam(lm.parameters(), lr=5e-3)
        first = None
        for _ in range(25):
            lm.zero_grad()
            loss, _ = lm.loss(data)
            if first is None:
                first = loss.item()
            loss.backward()
            optimizer.step()
        assert loss.item() < first

    def test_generate_respects_stop_and_forbid(self):
        lm = DecoderOnlyLM(TINY)
        lm.eval()
        out = lm.generate(
            [5, 6], max_new_tokens=10, stop_ids={2},
            rng=np.random.default_rng(0), top_n=3, forbid_ids={7},
        )
        assert len(out) <= 10
        assert 7 not in out
        assert 2 not in out

    def test_generate_respects_max_len(self):
        lm = DecoderOnlyLM(TINY.scaled(max_len=6))
        lm.eval()
        out = lm.generate([5, 6, 7], max_new_tokens=50, stop_ids=set(),
                          rng=np.random.default_rng(0))
        assert len(out) <= 3  # context budget 6 - prefix 3


class TestLMSequences:
    def test_sequence_format(self, tiny_market):
        vocab = tiny_market.vocab
        sequences = build_lm_sequences(
            tiny_market.train_pairs[:20], tiny_market.synonym_pairs, vocab
        )
        sep1 = vocab.token_to_id(SEP1)
        sep2 = vocab.token_to_id(SEP2)
        for seq in sequences:
            assert seq.count(sep1) == 1
            assert seq.count(sep2) == 1
            assert seq.index(sep1) < seq.index(sep2)
            assert seq[-1] == vocab.eos_id

    def test_separators_registered_once(self, tiny_market):
        vocab = tiny_market.vocab
        first = vocab.add_token(SEP1)
        second = vocab.add_token(SEP1)
        assert first == second


class TestLMRewriter:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_market):
        rewriter = LMRewriter(
            tiny_market.vocab,
            model_config=TINY.scaled(vocab_size=len(tiny_market.vocab)),
            config=LMRewriterConfig(train_steps=120, top_n=5, seed=0),
        )
        sequences = build_lm_sequences(
            tiny_market.train_pairs, tiny_market.synonym_pairs, rewriter.vocab
        )
        losses = rewriter.fit(sequences)
        return rewriter, losses

    def test_training_reduces_loss(self, fitted):
        _, losses = fitted
        assert np.mean(losses[-10:]) < np.mean(losses[:10]) * 0.8

    def test_rewrites_have_title_provenance(self, fitted, tiny_market):
        rewriter, _ = fitted
        query = " ".join(tiny_market.train_pairs[0][0])
        results = rewriter.rewrite(query, k=2)
        for result in results:
            assert result.tokens
            assert result.via_title

    def test_rewrites_exclude_original_and_separators(self, fitted, tiny_market):
        rewriter, _ = fitted
        for q, _, _ in tiny_market.train_pairs[:5]:
            query = " ".join(q)
            for result in rewriter.rewrite(query, k=2):
                assert result.text != query
                assert SEP1 not in result.tokens
                assert SEP2 not in result.tokens

    def test_empty_query(self, fitted):
        rewriter, _ = fitted
        assert rewriter.rewrite("") == []

    def test_fit_requires_data(self, tiny_market):
        rewriter = LMRewriter(tiny_market.vocab, model_config=TINY)
        with pytest.raises(ValueError):
            rewriter.fit([])

    def test_separators_go_to_a_private_vocabulary(self, tiny_market):
        vocab = tiny_market.vocab
        tokens = vocab.tokens()
        rewriter = LMRewriter(vocab, model_config=TINY)
        assert vocab.tokens() == tokens
        assert rewriter.vocab.tokens()[: len(tokens)] == tokens
        assert {SEP1, SEP2} <= set(rewriter.vocab.tokens())
