"""Recurrent cells, encoder padding behaviour and additive attention."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import (
    AdditiveAttention,
    GRUCell,
    RecurrentDecoderCell,
    RecurrentEncoder,
    RNNCell,
)


class TestCells:
    @pytest.mark.parametrize("cell_cls", [RNNCell, GRUCell])
    def test_step_shape(self, cell_cls):
        cell = cell_cls(4, 8, rng=np.random.default_rng(0))
        h = cell.initial_state(3)
        out = cell(Tensor(np.ones((3, 4))), h)
        assert out.shape == (3, 8)

    @pytest.mark.parametrize("cell_cls", [RNNCell, GRUCell])
    def test_initial_state_zero(self, cell_cls):
        cell = cell_cls(4, 8, rng=np.random.default_rng(0))
        np.testing.assert_allclose(cell.initial_state(2).data, np.zeros((2, 8)))

    def test_rnn_output_bounded_by_tanh(self):
        cell = RNNCell(4, 8, rng=np.random.default_rng(0))
        out = cell(Tensor(np.full((2, 4), 100.0)), cell.initial_state(2))
        assert np.all(np.abs(out.data) <= 1.0)

    def test_gru_zero_update_gate_keeps_state(self):
        """With z forced to 1 (keep), h' == h regardless of input."""
        cell = GRUCell(4, 4, rng=np.random.default_rng(0))
        # Force the update gate pre-activation very positive: z ~ 1.
        cell.bias.data[:4] = 50.0
        h = Tensor(np.random.default_rng(1).normal(size=(2, 4)))
        out = cell(Tensor(np.random.default_rng(2).normal(size=(2, 4))), h)
        np.testing.assert_allclose(out.data, h.data, atol=1e-6)

    @pytest.mark.parametrize("cell_cls", [RNNCell, GRUCell])
    def test_gradients_flow(self, cell_cls):
        cell = cell_cls(4, 8, rng=np.random.default_rng(0))
        out = cell(Tensor(np.ones((2, 4))), cell.initial_state(2))
        out.sum().backward()
        for name, p in cell.named_parameters():
            assert p.grad is not None, name


class TestRecurrentEncoder:
    def test_output_shapes(self):
        enc = RecurrentEncoder(GRUCell(4, 8, rng=np.random.default_rng(0)))
        outputs, final = enc(Tensor(np.random.default_rng(1).normal(size=(2, 5, 4))))
        assert outputs.shape == (2, 5, 8)
        assert final.shape == (2, 8)

    def test_final_state_is_last_output(self):
        enc = RecurrentEncoder(GRUCell(4, 8, rng=np.random.default_rng(0)))
        outputs, final = enc(Tensor(np.random.default_rng(1).normal(size=(2, 5, 4))))
        np.testing.assert_allclose(outputs.data[:, -1], final.data)

    def test_padding_carries_state_forward(self):
        """The final state of a padded sequence equals the state of the
        unpadded sequence at its true end."""
        enc = RecurrentEncoder(GRUCell(4, 8, rng=np.random.default_rng(0)))
        rng = np.random.default_rng(1)
        real = rng.normal(size=(1, 3, 4))
        _, final_short = enc(Tensor(real))

        padded = np.concatenate([real, np.zeros((1, 2, 4))], axis=1)
        pad_mask = np.array([[False, False, False, True, True]])
        _, final_padded = enc(Tensor(padded), pad_mask=pad_mask)
        np.testing.assert_allclose(final_short.data, final_padded.data, atol=1e-12)


class TestAdditiveAttention:
    def test_weights_sum_to_one(self):
        attn = AdditiveAttention(8, 8, 8, rng=np.random.default_rng(0))
        query = Tensor(np.random.default_rng(1).normal(size=(2, 8)))
        memory = Tensor(np.random.default_rng(2).normal(size=(2, 5, 8)))
        _, weights = attn(query, memory)
        np.testing.assert_allclose(weights.data.sum(axis=-1), np.ones(2))

    def test_pad_mask_zeroes_weights(self):
        attn = AdditiveAttention(8, 8, 8, rng=np.random.default_rng(0))
        query = Tensor(np.random.default_rng(1).normal(size=(1, 8)))
        memory = Tensor(np.random.default_rng(2).normal(size=(1, 4, 8)))
        mask = np.array([[False, False, True, True]])
        _, weights = attn(query, memory, mask)
        np.testing.assert_allclose(weights.data[0, 2:], 0.0, atol=1e-9)

    def test_context_is_convex_combination(self):
        attn = AdditiveAttention(4, 4, 4, rng=np.random.default_rng(0))
        query = Tensor(np.random.default_rng(1).normal(size=(1, 4)))
        memory_data = np.random.default_rng(2).normal(size=(1, 3, 4))
        context, weights = attn(query, Tensor(memory_data))
        expected = (weights.data[0][:, None] * memory_data[0]).sum(axis=0)
        np.testing.assert_allclose(context.data[0], expected, atol=1e-12)


class TestRecurrentDecoderCell:
    def test_step_without_attention(self):
        cell = RecurrentDecoderCell(GRUCell(4, 8, rng=np.random.default_rng(0)))
        h = cell.initial_state(2)
        out, new_h = cell.step(Tensor(np.ones((2, 4))), h)
        assert out.shape == (2, 8)
        assert new_h.shape == (2, 8)

    def test_step_with_attention_requires_memory(self):
        attn = AdditiveAttention(8, 8, 8, rng=np.random.default_rng(0))
        cell = RecurrentDecoderCell(GRUCell(12, 8, rng=np.random.default_rng(0)), attn)
        with pytest.raises(ValueError):
            cell.step(Tensor(np.ones((2, 4))), cell.initial_state(2))

    def test_step_with_attention(self):
        attn = AdditiveAttention(8, 8, 8, rng=np.random.default_rng(0))
        cell = RecurrentDecoderCell(GRUCell(4 + 8, 8, rng=np.random.default_rng(0)), attn)
        memory = Tensor(np.random.default_rng(1).normal(size=(2, 5, 8)))
        out, _ = cell.step(Tensor(np.ones((2, 4))), cell.initial_state(2), memory=memory)
        assert out.shape == (2, 8)
