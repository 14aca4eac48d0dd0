"""Training loops: separate MLE, Algorithm 1, history and metrics."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.data.dataset import ParallelCorpus, pad_batch
from repro.decoding import top_n_sampling_batch
from repro.models import ModelConfig, TransformerNMT
from repro.text import Vocabulary
from repro.training import (
    CyclicConfig,
    CyclicTrainer,
    History,
    SeparateTrainer,
    TrainingConfig,
    sequence_log_prob_tensor,
    teacher_forced_metrics,
    translate_back_metrics,
)

TINY = ModelConfig(
    vocab_size=64, d_model=16, num_heads=2, d_ff=32,
    encoder_layers=1, decoder_layers=1, dropout=0.0, seed=0,
)


def _resample_titles(trainer, q_src, seed):
    """~Y exactly as ``trainer._cyclic_loss`` samples it from ``seed``."""
    cfg = trainer.config
    trainer.forward_model.eval()
    titles = top_n_sampling_batch(
        trainer.forward_model, q_src, k=cfg.beam_width, n=cfg.top_n,
        max_len=cfg.max_title_len, rng=np.random.default_rng(seed),
    )
    trainer.forward_model.train()
    return titles


class TestHistory:
    def test_record_and_series(self):
        history = History()
        history.record(1, loss=2.0)
        history.record(2, loss=1.0, accuracy=0.5)
        steps, values = history.series("loss")
        assert steps == [1, 2]
        assert values == [2.0, 1.0]

    def test_last(self):
        history = History()
        history.record(1, loss=3.0)
        assert history.last("loss") == 3.0

    def test_last_missing_raises(self):
        with pytest.raises(KeyError):
            History().last("nope")

    def test_contains_and_names(self):
        history = History()
        history.record(1, a=1.0, b=2.0)
        assert "a" in history
        assert history.names() == ["a", "b"]

    def test_merge_with_prefix(self):
        a, b = History(), History()
        b.record(5, loss=1.0)
        a.merge(b, prefix="x_")
        assert a.series("x_loss") == ([5], [1.0])


class TestSequenceLogProbTensor:
    def test_matches_nondifferentiable_version(self, tiny_market):
        model = TransformerNMT(TINY.scaled(vocab_size=len(tiny_market.vocab)))
        corpus = tiny_market.forward_corpus
        src = np.array([corpus.sources[0]])
        tgt = np.array([corpus.targets[0]])
        differentiable = sequence_log_prob_tensor(model, src, tgt)
        reference = model.sequence_log_prob(src, tgt)
        np.testing.assert_allclose(differentiable.data, reference, atol=1e-9)

    def test_gradients_flow_to_model(self, tiny_market):
        model = TransformerNMT(TINY.scaled(vocab_size=len(tiny_market.vocab)))
        corpus = tiny_market.forward_corpus
        src = np.array([corpus.sources[0]])
        tgt = np.array([corpus.targets[0]])
        model.zero_grad()
        (-sequence_log_prob_tensor(model, src, tgt).sum()).backward()
        grads = [p.grad for _, p in model.named_parameters() if p.grad is not None]
        assert grads


class TestBatchedTopNSampling:
    """Step 9's ~Y on the *trained* pair: the Figure-4 decoder of
    ``repro.decoding``, the one sampler Algorithm 1 runs on."""

    @pytest.fixture()
    def titles(self, trained_pair, tiny_market):
        forward, _, _ = trained_pair
        src = pad_batch(tiny_market.forward_corpus.sources[:4], tiny_market.vocab.pad_id)
        forward.eval()
        return top_n_sampling_batch(
            forward, src, k=3, n=5, max_len=10, rng=np.random.default_rng(0)
        )

    def test_shapes_and_specials(self, titles, tiny_market):
        vocab = tiny_market.vocab
        assert len(titles) == 4
        for per_query in titles:
            assert len(per_query) == 3
            for hyp in per_query:
                assert hyp.tokens, "empty synthetic title"
                assert vocab.pad_id not in hyp.tokens
                assert vocab.sos_id not in hyp.tokens
                assert vocab.eos_id not in hyp.tokens

    def test_first_tokens_unique_per_query(self, titles):
        for per_query in titles:
            firsts = [hyp.tokens[0] for hyp in per_query]
            assert len(set(firsts)) == len(firsts)


class TestSeparateTrainer:
    def test_loss_decreases(self, tiny_market):
        model = TransformerNMT(TINY.scaled(vocab_size=len(tiny_market.vocab)))
        trainer = SeparateTrainer(
            model, tiny_market.forward_corpus, TrainingConfig(max_steps=60, seed=0)
        )
        history = trainer.train(60)
        steps, losses = history.series("loss")
        assert losses[-1] < losses[0] * 0.8

    def test_history_records_perplexity(self, tiny_market):
        model = TransformerNMT(TINY.scaled(vocab_size=len(tiny_market.vocab)))
        trainer = SeparateTrainer(
            model, tiny_market.forward_corpus,
            TrainingConfig(max_steps=10, log_every=5, seed=0),
        )
        history = trainer.train(10)
        _, perplexities = history.series("perplexity")
        _, losses = history.series("loss")
        np.testing.assert_allclose(perplexities, np.exp(np.minimum(losses, 30.0)))


class TestCyclicTrainer:
    def test_warmup_has_no_cyclic_loss(self, tiny_market):
        forward = TransformerNMT(TINY.scaled(vocab_size=len(tiny_market.vocab)))
        backward = TransformerNMT(TINY.scaled(vocab_size=len(tiny_market.vocab), seed=1))
        trainer = CyclicTrainer(
            forward, backward, tiny_market.train_pairs, tiny_market.vocab,
            CyclicConfig(batch_size=8, warmup_steps=5, beam_width=2, top_n=4,
                         max_title_len=8, seed=0),
        )
        metrics = trainer.train_step()
        assert "loss_cyclic" not in metrics
        assert trainer.in_warmup

    def test_cyclic_loss_appears_after_warmup(self, tiny_market):
        forward = TransformerNMT(TINY.scaled(vocab_size=len(tiny_market.vocab)))
        backward = TransformerNMT(TINY.scaled(vocab_size=len(tiny_market.vocab), seed=1))
        trainer = CyclicTrainer(
            forward, backward, tiny_market.train_pairs, tiny_market.vocab,
            CyclicConfig(batch_size=4, warmup_steps=2, beam_width=2, top_n=4,
                         max_title_len=8, seed=0),
        )
        trainer.train_step()
        trainer.train_step()
        metrics = trainer.train_step()  # step 3 > warmup 2
        assert "loss_cyclic" in metrics
        assert np.isfinite(metrics["loss_cyclic"])

    def test_cyclic_loss_matches_manual_formula(self, trained_pair, tiny_market):
        """The cyclic loss must equal
        -mean log Σ_i P(y_i|x) P(x|y_i) over the sampled titles."""
        forward, backward, trainer = trained_pair
        vocab = tiny_market.vocab

        idx = [0, 1]
        q_src = pad_batch([trainer._q_src[i] for i in idx], vocab.pad_id)
        q_tgt = pad_batch([trainer._q_tgt[i] for i in idx], vocab.pad_id)

        trainer._rng = np.random.default_rng(123)
        loss = trainer._cyclic_loss(q_src, q_tgt)

        # Reproduce the sampling with the same rng state.
        titles = _resample_titles(trainer, q_src, 123)
        total = 0.0
        for row, per_query in enumerate(titles):
            terms = []
            for seq in (list(hyp.tokens) for hyp in per_query):
                y_src = np.array([seq + [vocab.eos_id]])
                y_tgt = np.array([[vocab.sos_id] + seq + [vocab.eos_id]])
                x_src = np.array([trainer._q_src[idx[row]]])
                x_tgt = np.array([trainer._q_tgt[idx[row]]])
                lp_f = float(forward.sequence_log_prob(x_src, y_tgt)[0])
                lp_b = float(backward.sequence_log_prob(y_src, x_tgt)[0])
                terms.append(lp_f + lp_b)
            peak = max(terms)
            total += peak + np.log(np.sum(np.exp(np.array(terms) - peak)))
        expected = -total / len(idx)
        np.testing.assert_allclose(float(loss.item()), expected, atol=1e-6)

    def test_finished_titles_are_not_stepped_to_max_title_len(self, trained_pair, tiny_market):
        """Step 9 steps live title rows only: ``decode_rows`` is the sum of
        live rows per step, not ``batch + (steps - 1) * batch * k``."""
        forward, _, trainer = trained_pair
        pad = tiny_market.vocab.pad_id
        cfg = trainer.config
        q_src = pad_batch(trainer._q_src[:8], pad)
        q_tgt = pad_batch(trainer._q_tgt[:8], pad)

        trainer._rng = np.random.default_rng(7)
        forward.reset_decode_counters()
        trainer._cyclic_loss(q_src, q_tgt)
        steps, rows = forward.decode_steps, forward.decode_rows

        titles = _resample_titles(trainer, q_src, 7)
        hyps = [hyp for per_query in titles for hyp in per_query]
        assert any(hyp.finished for hyp in hyps)
        # One first step over the sources, then one row per title per step
        # until its EOS (a title cut off at max_title_len never drew one).
        recount = len(q_src) + sum(len(h.tokens) - (not h.finished) for h in hyps)
        assert rows == recount
        assert rows < len(q_src) + (steps - 1) * len(q_src) * cfg.beam_width

    def test_too_few_legal_first_tokens_rejected(self):
        """A vocabulary that cannot start ``beam_width`` distinct titles
        must not pad ~Y by counting one title twice in Eq. 5."""
        vocab = Vocabulary(["shoe"])  # 4 specials + 1: two legal first tokens
        config = TINY.scaled(vocab_size=len(vocab))
        trainer = CyclicTrainer(
            TransformerNMT(config), TransformerNMT(config.scaled(seed=1)),
            [(("shoe",), ("shoe",), 1)], vocab,
            CyclicConfig(warmup_steps=0, beam_width=3, top_n=4, max_title_len=6),
        )
        with pytest.raises(ValueError, match=r"2 titles.*k=3"):
            trainer.train_step()

    def test_both_models_update_after_warmup(self, tiny_market):
        forward = TransformerNMT(TINY.scaled(vocab_size=len(tiny_market.vocab)))
        backward = TransformerNMT(TINY.scaled(vocab_size=len(tiny_market.vocab), seed=1))
        trainer = CyclicTrainer(
            forward, backward, tiny_market.train_pairs, tiny_market.vocab,
            CyclicConfig(batch_size=4, warmup_steps=0, beam_width=2, top_n=4,
                         max_title_len=8, seed=0),
        )
        before_f = forward.embedding.weight.data.copy()
        before_b = backward.embedding.weight.data.copy()
        trainer.train_step()
        assert not np.allclose(before_f, forward.embedding.weight.data)
        assert not np.allclose(before_b, backward.embedding.weight.data)

    def test_empty_pairs_rejected(self, tiny_market):
        forward = TransformerNMT(TINY.scaled(vocab_size=len(tiny_market.vocab)))
        backward = TransformerNMT(TINY.scaled(vocab_size=len(tiny_market.vocab), seed=1))
        with pytest.raises(ValueError):
            CyclicTrainer(forward, backward, [], tiny_market.vocab)


class TestEvaluationMetrics:
    def test_teacher_forced_metrics_ranges(self, trained_pair, tiny_market):
        forward, _, _ = trained_pair
        metrics = teacher_forced_metrics(forward, tiny_market.forward_corpus, max_batches=2)
        assert metrics["perplexity"] > 1.0
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert metrics["log_prob"] < 0.0

    def test_trained_model_beats_fresh_model(self, trained_pair, tiny_market):
        forward, _, _ = trained_pair
        fresh = TransformerNMT(TINY.scaled(vocab_size=len(tiny_market.vocab), seed=9))
        trained_metrics = teacher_forced_metrics(forward, tiny_market.forward_corpus, max_batches=2)
        fresh_metrics = teacher_forced_metrics(fresh, tiny_market.forward_corpus, max_batches=2)
        assert trained_metrics["perplexity"] < fresh_metrics["perplexity"]
        assert trained_metrics["accuracy"] > fresh_metrics["accuracy"]

    def test_translate_back_metrics_ranges(self, trained_pair, tiny_market):
        forward, backward, _ = trained_pair
        queries = [
            tiny_market.vocab.encode(list(q), add_eos=True)
            for q, _, _ in tiny_market.eval_pairs[:6]
        ]
        metrics = translate_back_metrics(
            forward, backward, queries, tiny_market.vocab,
            k=2, top_n=4, rng=np.random.default_rng(0),
        )
        assert metrics["log_prob"] < 0.0
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert metrics["perplexity"] >= 1.0

    def test_translate_back_needs_queries(self, trained_pair, tiny_market):
        forward, backward, _ = trained_pair
        with pytest.raises(ValueError):
            translate_back_metrics(forward, backward, [], tiny_market.vocab)
