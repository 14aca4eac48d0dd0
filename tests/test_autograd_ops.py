"""Gradient correctness of every autograd op (vs numerical differentiation)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import (
    Tensor,
    concat,
    logsumexp,
    maximum,
    minimum,
    stack,
    where,
)

from tests.helpers import assert_grad_matches


class TestArithmetic:
    def test_add(self):
        assert_grad_matches(lambda a, b: (a + b).sum(), (3, 4), (3, 4))

    def test_add_broadcast(self):
        assert_grad_matches(lambda a, b: ((a + b) * a).sum(), (3, 4), (4,))

    def test_add_scalar_broadcast(self):
        assert_grad_matches(lambda a, b: ((a + b) ** 2).sum(), (2, 3), (1,))

    def test_radd_constant(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = (1.0 + t).sum()
        out.backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 2)))

    def test_sub(self):
        assert_grad_matches(lambda a, b: ((a - b) ** 2).sum(), (3, 4), (3, 4))

    def test_rsub(self):
        t = Tensor(np.full((2,), 3.0), requires_grad=True)
        out = (10.0 - t).sum()
        out.backward()
        np.testing.assert_allclose(t.grad, -np.ones(2))

    def test_mul(self):
        assert_grad_matches(lambda a, b: (a * b * a).sum(), (3, 4), (3, 4))

    def test_mul_broadcast(self):
        assert_grad_matches(lambda a, b: (a * b).sum(), (2, 3, 4), (4,))

    def test_div(self):
        assert_grad_matches(
            lambda a, b: (a / (b * b + 1.0)).sum(), (3, 3), (3, 3)
        )

    def test_rdiv(self):
        t = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        out = (8.0 / t).sum()
        out.backward()
        np.testing.assert_allclose(t.grad, [-2.0, -0.5])

    def test_neg(self):
        assert_grad_matches(lambda a: (-a * a).sum(), (4,))

    def test_pow(self):
        assert_grad_matches(lambda a: ((a * a + 1.0) ** 3).sum(), (3,))

    def test_pow_tensor_exponent_rejected(self):
        t = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(TypeError):
            t ** Tensor(np.ones(2))


class TestMatmul:
    def test_2d(self):
        assert_grad_matches(lambda a, b: (a @ b).sum(), (3, 4), (4, 5))

    def test_batched(self):
        assert_grad_matches(lambda a, b: ((a @ b) ** 2).sum(), (2, 3, 4), (2, 4, 5))

    def test_broadcast_batch(self):
        assert_grad_matches(lambda a, b: (a @ b).sum(), (2, 3, 4), (4, 5))

    def test_vector_vector(self):
        assert_grad_matches(lambda a, b: a @ b, (4,), (4,))

    def test_vector_matrix(self):
        assert_grad_matches(lambda a, b: (a @ b).sum(), (4,), (4, 3))

    def test_matrix_vector(self):
        assert_grad_matches(lambda a, b: (a @ b).sum(), (3, 4), (4,))

    def test_4d_attention_shape(self):
        assert_grad_matches(
            lambda q, k: ((q @ k.swapaxes(-1, -2)).softmax(-1)).sum(),
            (2, 2, 3, 4),
            (2, 2, 3, 4),
        )


class TestElementwise:
    def test_exp(self):
        assert_grad_matches(lambda a: a.exp().sum(), (3, 3))

    def test_log(self):
        assert_grad_matches(lambda a: (a * a + 1.0).log().sum(), (3, 3))

    def test_sqrt(self):
        assert_grad_matches(lambda a: (a * a + 1.0).sqrt().sum(), (3, 3))

    def test_tanh(self):
        assert_grad_matches(lambda a: a.tanh().sum(), (3, 3))

    def test_sigmoid(self):
        assert_grad_matches(lambda a: a.sigmoid().sum(), (3, 3))

    def test_sigmoid_extreme_values_stable(self):
        t = Tensor(np.array([-500.0, 0.0, 500.0]))
        out = t.sigmoid().data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_relu(self):
        t = Tensor(np.array([-2.0, -0.5, 0.5, 2.0]), requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 0.0, 1.0, 1.0])


class TestReductions:
    def test_sum_all(self):
        assert_grad_matches(lambda a: (a.sum() ** 2), (3, 4))

    def test_sum_axis(self):
        assert_grad_matches(lambda a: (a.sum(axis=1) ** 2).sum(), (3, 4))

    def test_sum_keepdims(self):
        assert_grad_matches(lambda a: (a / a.sum(axis=-1, keepdims=True)).sum(), (3, 4))

    def test_mean(self):
        assert_grad_matches(lambda a: (a.mean(axis=0) ** 2).sum(), (3, 4))

    def test_mean_all(self):
        assert_grad_matches(lambda a: a.mean() ** 2, (3, 4))

    def test_max_axis(self):
        # Use distinct values so the max subgradient is unambiguous.
        rng = np.random.default_rng(3)
        data = rng.permutation(12).reshape(3, 4).astype(float)
        t = Tensor(data.copy(), requires_grad=True)
        t.max(axis=1).sum().backward()
        expected = np.zeros((3, 4))
        expected[np.arange(3), data.argmax(axis=1)] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_max_tie_splits_gradient(self):
        t = Tensor(np.array([[1.0, 1.0]]), requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5]])


class TestSoftmaxFamily:
    def test_softmax_grad(self):
        assert_grad_matches(lambda a: (a.softmax(-1) ** 2).sum(), (3, 5))

    def test_softmax_rows_sum_to_one(self):
        t = Tensor(np.random.default_rng(0).normal(size=(4, 7)))
        np.testing.assert_allclose(t.softmax(-1).data.sum(axis=-1), np.ones(4))

    def test_softmax_shift_invariant(self):
        x = np.random.default_rng(0).normal(size=(2, 5))
        a = Tensor(x).softmax(-1).data
        b = Tensor(x + 1000.0).softmax(-1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_grad(self):
        assert_grad_matches(lambda a: (a.log_softmax(-1) ** 2).sum(), (3, 5))

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.random.default_rng(1).normal(size=(3, 6))
        np.testing.assert_allclose(
            Tensor(x).log_softmax(-1).data,
            np.log(Tensor(x).softmax(-1).data),
            atol=1e-12,
        )

    def test_logsumexp_grad(self):
        assert_grad_matches(lambda a: logsumexp(a, axis=-1).sum(), (3, 5))

    def test_logsumexp_extreme_values(self):
        t = Tensor(np.array([[1000.0, 1000.0], [-1000.0, -999.0]]))
        out = logsumexp(t, axis=-1).data
        np.testing.assert_allclose(
            out, [1000.0 + np.log(2.0), np.logaddexp(-1000.0, -999.0)]
        )


class TestShapeOps:
    def test_reshape(self):
        assert_grad_matches(lambda a: (a.reshape(2, 6) ** 2).sum(), (3, 4))

    def test_reshape_tuple_arg(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        assert t.reshape((2, 3)).shape == (2, 3)

    def test_transpose(self):
        assert_grad_matches(lambda a: (a.transpose(1, 0) @ a).sum(), (3, 4))

    def test_transpose_default_reverses(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.transpose().shape == (4, 3, 2)

    def test_swapaxes(self):
        assert_grad_matches(lambda a: (a.swapaxes(0, 2) ** 2).sum(), (2, 3, 4))

    def test_getitem_slice(self):
        assert_grad_matches(lambda a: (a[:, 1:3] ** 2).sum(), (3, 5))

    def test_getitem_fancy(self):
        idx = (np.array([0, 1, 1]), np.array([2, 0, 0]))
        # Repeated index (1,0) must accumulate gradient.
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        t[idx].sum().backward()
        expected = np.zeros((2, 3))
        expected[0, 2] = 1.0
        expected[1, 0] = 2.0
        np.testing.assert_allclose(t.grad, expected)

    def test_take_rows(self):
        assert_grad_matches(
            lambda a: (a.take_rows(np.array([[0, 2], [1, 1]])) ** 2).sum(), (4, 3)
        )

    def test_take_rows_repeated_accumulates(self):
        t = Tensor(np.ones((3, 2)), requires_grad=True)
        t.take_rows(np.array([1, 1, 1])).sum().backward()
        np.testing.assert_allclose(t.grad, [[0, 0], [3, 3], [0, 0]])

    def test_concat(self):
        assert_grad_matches(
            lambda a, b: (concat([a, b], axis=1) ** 2).sum(), (2, 3), (2, 4)
        )

    def test_concat_axis0(self):
        assert_grad_matches(
            lambda a, b: (concat([a, b], axis=0) ** 2).sum(), (2, 3), (4, 3)
        )

    def test_stack(self):
        assert_grad_matches(
            lambda a, b: (stack([a, b], axis=1) ** 2).sum(), (2, 3), (2, 3)
        )

    def test_masked_fill(self):
        mask = np.array([[True, False, True], [False, False, True]])
        assert_grad_matches(lambda a: (a.masked_fill(mask, -5.0) ** 2).sum(), (2, 3))

    def test_masked_fill_blocks_gradient(self):
        mask = np.array([True, False])
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        t.masked_fill(mask, 0.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0])

    def test_where(self):
        mask = np.array([[True, False, True]])
        assert_grad_matches(
            lambda a, b: (where(mask, a, b) ** 2).sum(), (2, 3), (2, 3)
        )

    def test_maximum_minimum(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 2.0]), requires_grad=True)
        maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])
        a.zero_grad(); b.zero_grad()
        minimum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_property_softmax_cross_entropy_grad_bounded(rows, cols, seed):
    """Softmax+NLL gradients are (p - onehot): always in [-1, 1]."""
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(size=(rows, cols)) * 5, requires_grad=True)
    targets = rng.integers(0, cols, size=rows)
    nll = -logits.log_softmax(-1)[np.arange(rows), targets]
    nll.sum().backward()
    assert np.all(logits.grad <= 1.0 + 1e-9)
    assert np.all(logits.grad >= -1.0 - 1e-9)


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 4)),
    seed=st.integers(0, 10_000),
)
def test_property_sum_of_parts_equals_whole(shape, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    total = x.sum()
    by_axis = x.sum(axis=0).sum()
    np.testing.assert_allclose(float(total.data), float(by_axis.data), atol=1e-9)
