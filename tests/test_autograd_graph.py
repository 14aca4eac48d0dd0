"""Graph-level autograd behaviour: accumulation, reuse, deep chains."""

import warnings

import numpy as np
import pytest

import repro.autograd as autograd
from repro.autograd import Tensor
from repro.nn.module import Parameter


class TestBackwardMechanics:
    def test_gradient_accumulates_across_backward_calls(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        (t * 3.0).sum().backward()
        (t * 3.0).sum().backward()
        np.testing.assert_allclose(t.grad, [6.0])

    def test_shared_subexpression_accumulates(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        shared = t * 2.0
        out = (shared + shared).sum()  # d/dt = 4
        out.backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_diamond_graph(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        a = t * 3.0
        b = t * 5.0
        (a * b).sum().backward()  # d/dt (15 t^2) = 30 t = 60
        np.testing.assert_allclose(t.grad, [60.0])

    def test_backward_with_explicit_grad(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = t * 2.0
        out.backward(np.full((2, 2), 0.5))
        np.testing.assert_allclose(t.grad, np.ones((2, 2)))

    def test_backward_on_non_grad_tensor_raises(self):
        t = Tensor(np.ones(2))
        with pytest.raises(RuntimeError):
            t.backward()

    def test_deep_chain_no_recursion_error(self):
        """Recurrent models build 100+ step chains; iterative DFS must cope."""
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = t
        for _ in range(500):
            out = out * 1.001
        out.sum().backward()
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, [1.001**500], rtol=1e-9)

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2.0).sum().backward()
        t.zero_grad()
        assert t.grad is None


class TestTensorBasics:
    def test_item_scalar(self):
        assert Tensor(np.array(3.5)).item() == 3.5

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24
        assert len(t) == 2

    def test_numpy_returns_underlying(self):
        arr = np.ones(3)
        assert Tensor(arr).numpy() is arr

    def test_detach(self):
        t = Tensor(np.ones(2), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data  # shares storage

    def test_constant_inputs_receive_no_grad(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2))  # constant
        (a * b).sum().backward()
        assert b.grad is None
        assert a.grad is not None


# -- every op on constant operands ---------------------------------------------

_RNG = np.random.default_rng(0)
_P = _RNG.normal(size=(3, 4))
_Q = _RNG.normal(size=(4, 2))
_POS = _RNG.random(size=(3, 4)) + 0.5
_F32 = Tensor(_RNG.normal(size=(3, 4)).astype(np.float32))
_ROW = [1.0, -2.0, 3.0, 0.5]  # a plain list operand (broadcasts over rows)
_MASK = _RNG.random(size=(3, 4)) < 0.4

#: op name -> the results it yields over the tensors ``p``, ``q``, ``pos``
#: and python-scalar, list and float32 operands (NEP 50: a python scalar
#: keeps float32, the 0-d float64 array ``_as_array`` makes of it does not)
_OP_CASES = {
    "__add__": lambda p, q, pos: [p + _F32, p + 2.0, p + _ROW, _F32 + 2.0, _F32 + p],
    "__radd__": lambda p, q, pos: [2.0 + p, _ROW + p, 2.0 + _F32],
    "__neg__": lambda p, q, pos: [-p, -_F32],
    "__sub__": lambda p, q, pos: [p - _F32, p - 2.0, p - _ROW, _F32 - 0.5],
    "__rsub__": lambda p, q, pos: [2.0 - p, _ROW - p, 1.0 - _F32],
    "__mul__": lambda p, q, pos: [p * _F32, p * 2.0, p * _ROW, _F32 * 0.5],
    "__rmul__": lambda p, q, pos: [2.0 * p, _ROW * p, 0.5 * _F32],
    "__truediv__": lambda p, q, pos: [p / pos, p / 2.0, p / _ROW, _F32 / 3.0],
    "__rtruediv__": lambda p, q, pos: [2.0 / pos, _ROW / pos, 1.0 / (_F32 * _F32 + 1.0)],
    "__pow__": lambda p, q, pos: [p**2, pos**0.5, _F32**3],
    "__matmul__": lambda p, q, pos: [p @ q, p @ _Q.tolist(), _F32 @ q, p @ _Q[:, 0]],
    "exp": lambda p, q, pos: [p.exp(), _F32.exp()],
    "log": lambda p, q, pos: [pos.log()],
    "sqrt": lambda p, q, pos: [pos.sqrt()],
    "tanh": lambda p, q, pos: [p.tanh(), _F32.tanh()],
    "sigmoid": lambda p, q, pos: [p.sigmoid(), _F32.sigmoid(), (p * 400.0).sigmoid()],
    "relu": lambda p, q, pos: [p.relu(), _F32.relu()],
    "sum": lambda p, q, pos: [p.sum(), p.sum(axis=1), p.sum(axis=0, keepdims=True), _F32.sum()],
    "mean": lambda p, q, pos: [p.mean(), p.mean(axis=1), p.mean(axis=(0, 1)), _F32.mean()],
    "max": lambda p, q, pos: [p.max(), p.max(axis=0), p.max(axis=1, keepdims=True), _F32.max()],
    "reshape": lambda p, q, pos: [p.reshape(4, 3), p.reshape((2, 6)), _F32.reshape(-1)],
    "transpose": lambda p, q, pos: [p.transpose(), p.transpose(1, 0), _F32.transpose((1, 0))],
    "swapaxes": lambda p, q, pos: [p.swapaxes(0, 1)],
    "__getitem__": lambda p, q, pos: [p[1], p[:, 1:3], p[[0, 2]], p[:, None, :], _F32[0, 0]],
    "take_rows": lambda p, q, pos: [
        p.take_rows(np.array([[0, 2], [1, 1]])), _F32.take_rows([2, 0]),
    ],
    "masked_fill": lambda p, q, pos: [p.masked_fill(_MASK, -1e9), _F32.masked_fill(_MASK, 0.0)],
    "softmax": lambda p, q, pos: [p.softmax(), p.softmax(axis=0), _F32.softmax()],
    "log_softmax": lambda p, q, pos: [p.log_softmax(), p.log_softmax(axis=0), _F32.log_softmax()],
    "detach": lambda p, q, pos: [p.detach()],
    "concat": lambda p, q, pos: [autograd.concat([p, pos]), autograd.concat([p, _F32], axis=1)],
    "stack": lambda p, q, pos: [autograd.stack([p, pos]), autograd.stack([p, _F32], axis=2)],
    "where": lambda p, q, pos: [
        autograd.where(_MASK, p, pos), autograd.where(_MASK, p, 0.0),
        autograd.where(_MASK, _ROW, _F32),
    ],
    "maximum": lambda p, q, pos: [
        autograd.maximum(p, pos), autograd.maximum(p, 0.0), autograd.maximum(_ROW, _F32),
    ],
    "minimum": lambda p, q, pos: [
        autograd.minimum(p, pos), autograd.minimum(p, 0.0), autograd.minimum(_ROW, _F32),
    ],
    "logsumexp": lambda p, q, pos: [
        autograd.logsumexp(p), autograd.logsumexp(p, axis=0, keepdims=True),
        autograd.logsumexp(_F32),
    ],
}


def _public_ops() -> set:
    """Every public ``Tensor`` method and ``repro.autograd`` function that
    returns a tensor; a new one must join ``_OP_CASES``."""
    not_ops = {"__init__", "__len__", "__repr__", "item", "numpy", "zero_grad", "backward"}
    methods = {
        name for name, value in vars(Tensor).items()
        if callable(value) and (name.startswith("__") or not name.startswith("_"))
    }
    return (methods | set(autograd.__all__)) - not_ops - {"Tensor"}


class TestConstantOperands:
    def test_every_public_op_has_a_case(self):
        assert _public_ops() == set(_OP_CASES)

    @pytest.mark.parametrize("name", sorted(_OP_CASES))
    def test_result_is_byte_equal_and_cut_from_the_graph(self, name):
        """An op over constants (token ids, masks, frozen inputs) computes
        the bytes it computes over parameters and records no graph."""
        with_grad = _OP_CASES[name](Parameter(_P), Parameter(_Q), Parameter(_POS))
        constant = _OP_CASES[name](Tensor(_P), Tensor(_Q), Tensor(_POS))
        assert len(with_grad) == len(constant)
        for on, off in zip(with_grad, constant):
            assert off.data.dtype == on.data.dtype and off.data.shape == on.data.shape
            assert off.data.tobytes() == on.data.tobytes()
            assert type(off) is Tensor
            assert off.requires_grad is False
            assert off._parents == () and off._backward is None and off.grad is None


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_equals_the_three_exp_formulation_and_never_overflows(self, dtype):
        """One ``exp(-|x|)`` gives the bytes the piecewise three-``exp``
        form gave, without that form's overflow warning beyond |x| > 709."""
        x = np.array(
            [0.0, -0.0, 30.0, -30.0, 745.0, -745.0, np.inf, -np.inf, np.nan], dtype=dtype
        )
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.where(
                x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x))
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            actual = Tensor(x, requires_grad=True).sigmoid().data
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()
