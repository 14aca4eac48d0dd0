"""Batched decoding: stacked-source variants match their per-source forms.

Every single-source decoder is the batch-of-one call of its ``*_batch``
core, so these comparisons pin batch-composition independence: a source
decodes the same alone as beside N - 1 others."""

import numpy as np
import pytest

from repro.decoding import (
    beam_search,
    beam_search_batch,
    greedy_decode,
    greedy_decode_batch,
    top_n_sampling,
    top_n_sampling_batch,
)
from repro.models import HybridNMT, ModelConfig
from repro.models.base import pad_sources


@pytest.fixture(scope="module")
def model():
    """A small untrained hybrid model: decode behaviour is deterministic
    in its seed, which is all batching parity needs."""
    m = HybridNMT(
        ModelConfig(
            vocab_size=40, d_model=16, num_heads=2, d_ff=32,
            encoder_layers=1, decoder_layers=1, dropout=0.0, seed=0,
        )
    )
    m.eval()
    return m


@pytest.fixture(scope="module")
def sources():
    """Variable-length sources (EOS-terminated), forcing pad in the batch."""
    rng = np.random.default_rng(3)
    return [
        list(rng.integers(3, 40, size=int(n))) + [2] for n in rng.integers(2, 7, size=6)
    ]


class TestPadSources:
    def test_pads_to_longest(self):
        out = pad_sources([[4, 5], [6]], pad_id=0)
        np.testing.assert_array_equal(out, [[4, 5], [6, 0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pad_sources([], pad_id=0)


class TestGreedyBatch:
    def test_matches_per_source_greedy(self, model, sources):
        batch = greedy_decode_batch(model, sources, max_len=8)
        assert len(batch) == len(sources)
        for src, from_batch in zip(sources, batch):
            single = greedy_decode(model, np.array([src]), max_len=8)
            assert from_batch.tokens == single.tokens
            assert from_batch.log_prob == pytest.approx(single.log_prob)
            assert from_batch.finished == single.finished

    def test_accepts_padded_array(self, model, sources):
        padded = pad_sources(sources, model.pad_id)
        batch = greedy_decode_batch(model, padded, max_len=8)
        assert len(batch) == len(sources)


class TestBeamBatch:
    def test_matches_per_source_beam(self, model, sources):
        batch = beam_search_batch(model, sources, beam_size=3, max_len=8)
        for src, from_batch in zip(sources, batch):
            single = beam_search(model, np.array([src]), beam_size=3, max_len=8)
            assert [h.tokens for h in from_batch] == [h.tokens for h in single]
            for a, b in zip(from_batch, single):
                assert a.log_prob == pytest.approx(b.log_prob)

    def test_invalid_beam_size(self, model, sources):
        with pytest.raises(ValueError):
            beam_search_batch(model, sources, beam_size=0)


class TestTopNBatch:
    def test_k_diverse_candidates_per_source(self, model, sources):
        grouped = top_n_sampling_batch(
            model, sources, k=3, n=5, max_len=8, rng=np.random.default_rng(0)
        )
        assert len(grouped) == len(sources)
        for hyps in grouped:
            assert len(hyps) == 3
            firsts = [h.tokens[0] for h in hyps]
            assert len(set(firsts)) == 3  # Figure 4 step 1 per source

    def test_never_emits_special_or_forbidden(self, model, sources):
        grouped = top_n_sampling_batch(
            model, sources, k=3, n=5, max_len=8,
            rng=np.random.default_rng(1), forbid_tokens=(7,),
        )
        for hyps in grouped:
            for hyp in hyps:
                for banned in (model.pad_id, model.sos_id, model.eos_id, 7):
                    assert banned not in hyp.tokens

    def test_singleton_batch_matches_single_source(self, model, sources):
        single = top_n_sampling(
            model, np.array([sources[0]]), k=3, n=5, max_len=8,
            rng=np.random.default_rng(7),
        )
        batch = top_n_sampling_batch(
            model, [sources[0]], k=3, n=5, max_len=8,
            rng=np.random.default_rng(7),
        )[0]
        assert [h.tokens for h in single] == [h.tokens for h in batch]
        assert [h.log_prob for h in single] == pytest.approx(
            [h.log_prob for h in batch]
        )

    def test_seeded_reproducibility(self, model, sources):
        a = top_n_sampling_batch(
            model, sources, k=2, n=5, max_len=8, rng=np.random.default_rng(5)
        )
        b = top_n_sampling_batch(
            model, sources, k=2, n=5, max_len=8, rng=np.random.default_rng(5)
        )
        assert [[h.tokens for h in hyps] for hyps in a] == [
            [h.tokens for h in hyps] for hyps in b
        ]

    def test_invalid_params(self, model, sources):
        with pytest.raises(ValueError):
            top_n_sampling_batch(model, sources, k=0, n=3)
        with pytest.raises(ValueError):
            top_n_sampling_batch(model, sources, k=2, n=0)


class TestRewriteBatch:
    """DirectRewriter.rewrite_batch over a real (untrained) model."""

    @pytest.fixture(scope="class")
    def rewriter(self, tiny_market):
        from repro.core import DirectRewriter, RewriterConfig

        model = HybridNMT(
            ModelConfig(
                vocab_size=len(tiny_market.vocab), d_model=16, num_heads=2,
                d_ff=32, encoder_layers=1, decoder_layers=1, dropout=0.0, seed=0,
            )
        )
        model.eval()
        return DirectRewriter(
            model, tiny_market.vocab,
            RewriterConfig(k=3, top_n=5, max_query_len=8, seed=0),
        )

    def test_one_result_list_per_query_in_order(self, rewriter, tiny_market):
        queries = [r.text for r in list(tiny_market.click_log.queries.values())[:5]]
        results = rewriter.rewrite_batch(queries, k=3)
        assert len(results) == len(queries)
        for query, rewrites in zip(queries, results):
            assert len(rewrites) <= 3
            for result in rewrites:
                assert result.text != query

    def test_empty_queries_get_empty_lists(self, rewriter):
        results = rewriter.rewrite_batch(["", "laptop computer", ""])
        assert results[0] == []
        assert results[2] == []

    def test_all_empty_batch(self, rewriter):
        assert rewriter.rewrite_batch(["", ""]) == [[], []]
