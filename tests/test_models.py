"""Seq2seq model families: shapes, training signal, decode/forward parity."""

import numpy as np
import pytest

from repro.models import (
    AttentionNMT,
    HybridNMT,
    ModelConfig,
    RecurrentNMT,
    TransformerNMT,
    paper_hyperparameters,
)
from repro.optim import Adam

CONFIG = ModelConfig(
    vocab_size=40,
    d_model=16,
    num_heads=2,
    d_ff=32,
    encoder_layers=1,
    decoder_layers=1,
    dropout=0.0,
    max_len=32,
    seed=0,
)


def _all_models():
    return [
        ("transformer", TransformerNMT(CONFIG)),
        ("gru_attention", AttentionNMT(CONFIG)),
        ("rnn_plain", RecurrentNMT(CONFIG.scaled(cell_type="rnn"), use_attention=False)),
        ("gru_plain", RecurrentNMT(CONFIG, use_attention=False)),
        ("hybrid", HybridNMT(CONFIG)),
    ]


SRC = np.array([[5, 6, 7, 2], [8, 9, 2, 0]])
TGT_IN = np.array([[1, 10, 11], [1, 12, 0]])
TGT_OUT = np.array([[10, 11, 2], [12, 2, 0]])


@pytest.mark.parametrize("name,model", _all_models())
class TestInterface:
    def test_forward_shape(self, name, model):
        logits = model.forward(SRC, TGT_IN)
        assert logits.shape == (2, 3, 40)

    def test_loss_finite_and_positive(self, name, model):
        loss, count = model.loss(SRC, TGT_IN, TGT_OUT)
        assert count == 5  # non-pad labels
        assert np.isfinite(loss.item())
        assert loss.item() > 0

    def test_all_parameters_receive_gradients(self, name, model):
        model.train()
        model.zero_grad()
        loss, _ = model.loss(SRC, TGT_IN, TGT_OUT)
        loss.backward()
        missing = [
            pname
            for pname, p in model.named_parameters()
            if p.grad is None or not np.any(p.grad)
        ]
        # The PAD embedding row legitimately gets no gradient; nothing else may.
        assert not [m for m in missing if "embedding" not in m], missing

    def test_sequence_log_prob_negative(self, name, model):
        tgt = np.array([[1, 10, 11, 2], [1, 12, 2, 0]])
        lp = model.sequence_log_prob(SRC, tgt)
        assert lp.shape == (2,)
        assert np.all(lp < 0)

    def test_sequence_log_prob_pad_invariant(self, name, model):
        """Extra PAD on the target must not change the score."""
        tgt = np.array([[1, 10, 11, 2]])
        tgt_padded = np.array([[1, 10, 11, 2, 0, 0]])
        lp = model.sequence_log_prob(SRC[:1], tgt)
        lp_padded = model.sequence_log_prob(SRC[:1], tgt_padded)
        np.testing.assert_allclose(lp, lp_padded, atol=1e-9)

    def test_decode_parity_with_teacher_forcing(self, name, model):
        """start/step logits must equal teacher-forced forward logits —
        the core invariant tying training to decoding."""
        model.eval()
        prefix = np.array([[1, 10, 11]])
        forward_logits = model.forward(SRC[:1], prefix).data

        state = model.start(SRC[:1])
        for t in range(prefix.shape[1]):
            step_logits, state = model.step(state, prefix[:, t])
            np.testing.assert_allclose(
                step_logits[0], forward_logits[0, t], atol=1e-8,
                err_msg=f"{name} step {t}",
            )

    def test_reorder_state_duplicates(self, name, model):
        model.eval()
        state = model.start(SRC[:1])
        wide = state.reorder(np.zeros(3, dtype=np.int64), model)
        logits, _ = model.step(wide, np.array([1, 1, 1]))
        np.testing.assert_allclose(logits[0], logits[1], atol=1e-12)
        np.testing.assert_allclose(logits[0], logits[2], atol=1e-12)

    def test_training_reduces_loss(self, name, model):
        optimizer = Adam(model.parameters(), lr=5e-3)
        first = None
        for _ in range(30):
            model.zero_grad()
            loss, _ = model.loss(SRC, TGT_IN, TGT_OUT)
            if first is None:
                first = loss.item()
            loss.backward()
            optimizer.step()
        assert loss.item() < first * 0.8


class TestTransformerSpecific:
    def test_cross_attention_maps_exposed(self):
        model = TransformerNMT(CONFIG)
        model.forward(SRC, TGT_IN)
        maps = model.cross_attention_maps()
        assert len(maps) == CONFIG.decoder_layers
        assert maps[0].shape == (2, CONFIG.num_heads, 3, 4)

    def test_prefix_grows_in_state(self):
        model = TransformerNMT(CONFIG)
        model.eval()
        state = model.start(SRC[:1])
        assert state.payload["prefix"].shape == (1, 0)
        _, state = model.step(state, np.array([1]))
        assert state.payload["prefix"].shape == (1, 1)
        _, state = model.step(state, np.array([7]))
        assert state.payload["prefix"].shape == (1, 2)


class TestRecurrentSpecific:
    def test_invalid_cell_type(self):
        with pytest.raises(ValueError):
            RecurrentNMT(CONFIG.scaled(cell_type="lstm"))

    def test_attention_nmt_forces_gru(self):
        model = AttentionNMT(CONFIG.scaled(cell_type="rnn"))
        assert model.config.cell_type == "gru"

    def test_constant_per_step_state_size(self):
        """RNN decode state does not grow with the prefix — the paper's
        constant-per-step-cost property."""
        model = RecurrentNMT(CONFIG, use_attention=False)
        model.eval()
        state = model.start(SRC[:1])
        _, state1 = model.step(state, np.array([1]))
        _, state2 = model.step(state1, np.array([5]))
        assert state1.payload["hidden"].shape == state2.payload["hidden"].shape


class TestPaperHyperparameters:
    def test_table2_values(self):
        hp = paper_hyperparameters()
        assert hp["query_to_title"]["transformer_layers"] == 4
        assert hp["title_to_query"]["transformer_layers"] == 1
        assert hp["query_to_title"]["embedding_dim"] == 512
        assert hp["optimizer"]["learning_rate"] == 0.05
        assert hp["training"]["lambda_cyclic"] == 0.1
        assert hp["training"]["top_n"] == 40

    def test_config_scaled_copy(self):
        scaled = CONFIG.scaled(d_model=64)
        assert scaled.d_model == 64
        assert CONFIG.d_model == 16  # original untouched
