"""Dual-encoder embedding model (DPSR substitute)."""

import numpy as np
import pytest

from repro.data.dataset import pad_batch
from repro.embedding import DualEncoder, DualEncoderConfig, train_dual_encoder
from repro.text import tokenize


@pytest.fixture(scope="module")
def trained_encoder(tiny_market):
    encoder = DualEncoder(tiny_market.vocab, DualEncoderConfig(seed=0))
    losses = train_dual_encoder(
        encoder, tiny_market.train_pairs, steps=120, rng=np.random.default_rng(0)
    )
    return encoder, losses


class TestEncodings:
    def test_unit_norm(self, tiny_market):
        encoder = DualEncoder(tiny_market.vocab)
        vec = encoder.encode_query("senior mobile phone")
        np.testing.assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-9)
        vec_title = encoder.encode_title("huawei official mobile phone senior")
        np.testing.assert_allclose(np.linalg.norm(vec_title), 1.0, atol=1e-9)

    def test_cosine_self_similarity_is_one(self, tiny_market):
        encoder = DualEncoder(tiny_market.vocab)
        assert encoder.cosine("senior phone", "senior phone") == pytest.approx(1.0)

    def test_cosine_symmetric(self, tiny_market):
        encoder = DualEncoder(tiny_market.vocab)
        a = encoder.cosine("senior phone", "fresh fruit")
        b = encoder.cosine("fresh fruit", "senior phone")
        assert a == pytest.approx(b)

    def test_padding_does_not_change_encoding(self, tiny_market):
        """Mean pooling must ignore PAD positions."""
        encoder = DualEncoder(tiny_market.vocab)
        vocab = tiny_market.vocab
        ids = np.array([vocab.encode(["mobile", "phone"], add_eos=False)])
        padded = np.array([vocab.encode(["mobile", "phone"], add_eos=False) + [vocab.pad_id] * 3])
        a = encoder.query_encoding(ids).data
        b = encoder.query_encoding(padded).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestBatchEncoding:
    """Shape, normalization, and determinism of the batched encode APIs."""

    TEXTS = [
        "senior mobile phone",
        "adidas running shoe",
        ["huawei", "official", "mobile", "phone"],
        "fresh imported fruit",
    ]

    def test_output_shape(self, tiny_market):
        encoder = DualEncoder(tiny_market.vocab)
        out = encoder.encode_queries(self.TEXTS)
        assert out.shape == (len(self.TEXTS), encoder.config.output_dim)
        assert encoder.encode_titles(self.TEXTS).shape == out.shape

    def test_rows_are_unit_norm(self, tiny_market):
        encoder = DualEncoder(tiny_market.vocab)
        out = encoder.encode_queries(self.TEXTS)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_batch_matches_single_encode(self, tiny_market):
        """Padding in a mixed-length batch must not change any row."""
        encoder = DualEncoder(tiny_market.vocab)
        batched = encoder.encode_queries(self.TEXTS)
        for row, text in zip(batched, self.TEXTS):
            np.testing.assert_allclose(row, encoder.encode_query(text), atol=1e-12)

    def test_chunking_invariance(self, tiny_market):
        encoder = DualEncoder(tiny_market.vocab)
        small = encoder.encode_titles(self.TEXTS, batch_size=2)
        large = encoder.encode_titles(self.TEXTS, batch_size=512)
        np.testing.assert_allclose(small, large, atol=1e-12)

    def test_same_seed_same_embeddings(self, tiny_market):
        """Two encoders built from the same vocab+seed agree bit for bit."""
        a = DualEncoder(tiny_market.vocab, DualEncoderConfig(seed=5))
        b = DualEncoder(tiny_market.vocab, DualEncoderConfig(seed=5))
        np.testing.assert_array_equal(
            a.encode_queries(self.TEXTS), b.encode_queries(self.TEXTS)
        )

    def test_different_seed_differs(self, tiny_market):
        a = DualEncoder(tiny_market.vocab, DualEncoderConfig(seed=5))
        b = DualEncoder(tiny_market.vocab, DualEncoderConfig(seed=6))
        assert not np.allclose(
            a.encode_queries(self.TEXTS), b.encode_queries(self.TEXTS)
        )

    def test_empty_text_embeds_to_zero(self, tiny_market):
        encoder = DualEncoder(tiny_market.vocab)
        out = encoder.encode_queries(["", "senior phone", ""])
        np.testing.assert_array_equal(out[0], np.zeros(encoder.config.output_dim))
        np.testing.assert_array_equal(out[2], np.zeros(encoder.config.output_dim))
        assert np.linalg.norm(out[1]) == pytest.approx(1.0)

    def test_batch_encodings_equal_the_training_towers(self, tiny_market):
        """``encode_queries``/``encode_titles`` run the towers on plain
        arrays: bit for bit what ``query_encoding``/``title_encoding``
        give on the same padded batch."""
        encoder, vocab = DualEncoder(tiny_market.vocab), tiny_market.vocab
        ids = pad_batch(
            [vocab.encode(tokenize(t) if isinstance(t, str) else t, add_eos=False)
             for t in self.TEXTS],
            vocab.pad_id,
        )
        np.testing.assert_array_equal(
            encoder.encode_queries(self.TEXTS), encoder.query_encoding(ids).data
        )
        np.testing.assert_array_equal(
            encoder.encode_titles(self.TEXTS), encoder.title_encoding(ids).data
        )

    def test_no_texts(self, tiny_market):
        encoder = DualEncoder(tiny_market.vocab)
        assert encoder.encode_queries([]).shape == (0, encoder.config.output_dim)

    def test_bad_batch_size(self, tiny_market):
        encoder = DualEncoder(tiny_market.vocab)
        with pytest.raises(ValueError):
            encoder.encode_queries(self.TEXTS, batch_size=0)


class TestTraining:
    def test_loss_decreases(self, trained_encoder):
        _, losses = trained_encoder
        assert losses[-1] < losses[0] * 0.8

    def test_click_pairs_score_higher_than_random(self, trained_encoder, tiny_market):
        encoder, _ = trained_encoder
        rng = np.random.default_rng(0)
        pairs = tiny_market.train_pairs
        positive, negative = [], []
        for _ in range(30):
            i, j = rng.integers(0, len(pairs), size=2)
            q_i, t_i, _ = pairs[i]
            _, t_j, _ = pairs[j]
            q_vec = encoder.encode_query(list(q_i))
            positive.append(float(q_vec @ encoder.encode_title(list(t_i))))
            negative.append(float(q_vec @ encoder.encode_title(list(t_j))))
        assert np.mean(positive) > np.mean(negative)

    def test_semantic_neighbors_closer_than_strangers(self, trained_encoder):
        encoder, _ = trained_encoder
        related = encoder.cosine("senior mobile phone", "cellphone for grandpa")
        unrelated = encoder.cosine("senior mobile phone", "fresh imported fruit")
        assert related > unrelated

    def test_empty_pairs_rejected(self, tiny_market):
        with pytest.raises(ValueError):
            train_dual_encoder(DualEncoder(tiny_market.vocab), [])
