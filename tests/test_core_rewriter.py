"""CyclicRewriter (Fig 3 pipeline) and DirectRewriter."""

import numpy as np
import pytest

from repro.core import CyclicRewriter, DirectRewriter, RewriterConfig
from repro.decoding import top_n_sampling
from repro.decoding.logspace import logsumexp_np
from repro.models import HybridNMT, ModelConfig
from repro.text import tokenize


@pytest.fixture(scope="module")
def rewriter(trained_pair, tiny_market):
    forward, backward, _ = trained_pair
    return CyclicRewriter(
        forward, backward, tiny_market.vocab,
        RewriterConfig(k=3, top_n=5, max_title_len=10, max_query_len=8, seed=0),
    )


class TestCyclicRewriter:
    def test_returns_results_with_provenance(self, rewriter, tiny_market):
        query = " ".join(tiny_market.train_pairs[0][0])
        results = rewriter.rewrite(query)
        assert results, f"no rewrites for {query!r}"
        for result in results:
            assert result.tokens
            assert result.text == " ".join(result.tokens)
            assert np.isfinite(result.log_prob)
            assert result.via_title  # provenance recorded

    def test_never_returns_original_query(self, rewriter, tiny_market):
        for q, _, _ in tiny_market.train_pairs[:8]:
            query = " ".join(q)
            for result in rewriter.rewrite(query):
                assert result.text != query

    def test_results_sorted_by_score(self, rewriter, tiny_market):
        query = " ".join(tiny_market.train_pairs[1][0])
        results = rewriter.rewrite(query)
        scores = [r.log_prob for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_k_limits_results(self, rewriter, tiny_market):
        query = " ".join(tiny_market.train_pairs[2][0])
        assert len(rewriter.rewrite(query, k=1)) <= 1
        assert len(rewriter.rewrite(query, k=2)) <= 2

    def test_empty_query_returns_empty(self, rewriter):
        assert rewriter.rewrite("") == []
        assert rewriter.rewrite([]) == []

    def test_accepts_token_list(self, rewriter, tiny_market):
        tokens = list(tiny_market.train_pairs[0][0])
        results = rewriter.rewrite(tokens)
        assert isinstance(results, list)

    def test_scores_are_marginals_over_titles(self, rewriter, trained_pair, tiny_market):
        """The reported score must equal log Σ_t P(y_t|x) P(x'|y_t)
        recomputed by hand from the models."""
        forward, backward, _ = trained_pair
        vocab = tiny_market.vocab
        query_tokens = list(tiny_market.train_pairs[0][0])
        # Freeze randomness so we can re-run the same titles.
        fresh = CyclicRewriter(
            forward, backward, vocab,
            RewriterConfig(k=2, top_n=5, max_title_len=8, max_query_len=6, seed=99),
        )
        results = fresh.rewrite(query_tokens)
        if not results:
            pytest.skip("sampling produced no candidates for this query")
        result = results[0]

        # Recompute with the same title set is impossible without the internal
        # rng; instead verify the bound: marginal >= any single-path score.
        src = np.array([vocab.encode(query_tokens, add_eos=True)])
        title_ids = vocab.encode(list(result.via_title), add_eos=False)
        y_tgt = np.array([[vocab.sos_id] + title_ids + [vocab.eos_id]])
        y_src = np.array([title_ids + [vocab.eos_id]])
        x_ids = vocab.encode(list(result.tokens), add_eos=False)
        x_tgt = np.array([[vocab.sos_id] + x_ids + [vocab.eos_id]])
        single_path = float(
            forward.sequence_log_prob(src, y_tgt)[0]
            + backward.sequence_log_prob(y_src, x_tgt)[0]
        )
        assert result.log_prob >= single_path - 1e-6


class TestDirectRewriter:
    @pytest.fixture(scope="class")
    def direct(self, trained_pair, tiny_market):
        # Reuse the forward model as a stand-in q2q model: the interface
        # under test is identical.
        forward, _, _ = trained_pair
        return DirectRewriter(
            forward, tiny_market.vocab,
            RewriterConfig(k=3, top_n=5, max_query_len=8, seed=0),
        )

    def test_returns_at_most_k(self, direct, tiny_market):
        query = " ".join(tiny_market.train_pairs[0][0])
        assert len(direct.rewrite(query, k=2)) <= 2

    def test_excludes_original(self, direct, tiny_market):
        for q, _, _ in tiny_market.train_pairs[:5]:
            query = " ".join(q)
            for result in direct.rewrite(query):
                assert result.text != query

    def test_empty_query(self, direct):
        assert direct.rewrite("") == []

    def test_single_query_form_matches_the_one_query_decode(self, tiny_market):
        """``rewrite(q)`` is ``rewrite_batch([q])[0]``; this checks it still
        equals the single-row decode it replaced: ``top_n_sampling`` on a
        ``(1, len)`` source, then the same result filtering.  Fifteen
        sequential calls share each side's RNG stream, so one drawn
        uniform out of step fails every later call; empty and
        punctuation-only queries ride along.
        """
        model = HybridNMT(
            ModelConfig(
                vocab_size=len(tiny_market.vocab), d_model=16, num_heads=2,
                d_ff=32, encoder_layers=1, decoder_layers=1, dropout=0.0, seed=3,
            )
        )
        config = RewriterConfig(k=3, top_n=5, max_query_len=8, seed=11)
        batched = DirectRewriter(model, tiny_market.vocab, config)
        single = DirectRewriter(model, tiny_market.vocab, config)
        tokens = tiny_market.vocab.tokens()[4:]
        rng = np.random.default_rng(29)
        queries = [
            " ".join(tokens[i] for i in rng.integers(len(tokens), size=rng.integers(1, 5)))
            for _ in range(12)
        ]
        queries[3:3] = ["", "?!"]
        queries.insert(9, "!!! ???")

        def digest(results):
            return [(r.tokens, float(r.log_prob).hex()) for r in results]

        for query in queries:
            source_tokens = tokenize(query)
            expected = []
            if source_tokens:
                source = tiny_market.vocab.encode(source_tokens, add_eos=True)
                hyps = top_n_sampling(
                    model, np.array([source]), k=config.k, n=config.top_n,
                    max_len=config.max_query_len, rng=single._rng,
                    forbid_tokens=(tiny_market.vocab.unk_id,),
                )
                expected = single._results_from_hyps(
                    hyps, source, config.k, tiny_market.vocab.tokens()
                )
            assert digest(batched.rewrite(query)) == digest(expected)

