"""Graph-level autograd behaviour: accumulation, reuse, no_grad, deep chains."""

import sys
import threading
import warnings

import numpy as np
import pytest

import repro.autograd as autograd
from repro.autograd import Tensor, is_grad_enabled, no_grad
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


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        t = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_detach(self):
        t = Tensor(np.ones(2), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data  # shares storage

    def test_no_grad_is_per_thread(self):
        """A enters, B enters, A exits, B exits.  With one process-wide
        flag A's exit re-enabled grad inside B's block and B's exit then
        restored "disabled" for the whole process, for good."""
        a_inside, b_inside, a_left = (threading.Event() for _ in range(3))
        seen = {}

        def thread_a():
            with no_grad():
                a_inside.set()
                seen["b_entered"] = b_inside.wait(5)
            a_left.set()

        def thread_b():
            seen["a_entered"] = a_inside.wait(5)
            seen["b_before"] = is_grad_enabled()  # a new thread starts enabled
            with no_grad():
                b_inside.set()
                seen["a_exited"] = a_left.wait(5)
                seen["b_inside"] = is_grad_enabled()
            seen["b_after"] = is_grad_enabled()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        assert seen == {
            "a_entered": True, "b_entered": True, "a_exited": True,
            "b_before": True, "b_inside": False, "b_after": True,
        }
        assert is_grad_enabled()  # and nothing leaked into this thread

    def test_no_grad_blocks_never_cross_threads_under_stress(self):
        """More threads than cores, a tiny switch interval: every thread
        must always read its own block's state, never a neighbour's."""
        wrong = []

        def worker(disable: bool):
            for _ in range(2000):
                if disable:
                    with no_grad():
                        if is_grad_enabled():
                            wrong.append("enabled inside no_grad")
                if not is_grad_enabled():
                    wrong.append("disabled outside no_grad")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i % 2 == 0,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert wrong == []


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

    def test_constant_inputs_receive_no_grad(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2))  # constant
        (a * b).sum().backward()
        assert b.grad is None
        assert a.grad is not None


# -- graph-free results under no_grad ----------------------------------------

_RNG = np.random.default_rng(0)
_P = Parameter(_RNG.normal(size=(3, 4)))
_Q = Parameter(_RNG.normal(size=(4, 2)))
_POS = Parameter(_RNG.random(size=(3, 4)) + 0.5)
_F32 = Tensor(_RNG.normal(size=(3, 4)).astype(np.float32))
_ROW = [1.0, -2.0, 3.0, 0.5]  # a plain list operand (broadcasts over rows)
_MASK = _RNG.random(size=(3, 4)) < 0.4

#: op name -> the results it yields over Parameter, python-scalar, list and
#: float32 operands (NEP 50: a python scalar keeps float32, the 0-d float64
#: array ``_as_array`` makes of it does not — both modes must agree)
_OP_CASES = {
    "__add__": lambda: [_P + _F32, _P + 2.0, _P + _ROW, _F32 + 2.0, _F32 + _P],
    "__radd__": lambda: [2.0 + _P, _ROW + _P, 2.0 + _F32],
    "__neg__": lambda: [-_P, -_F32],
    "__sub__": lambda: [_P - _F32, _P - 2.0, _P - _ROW, _F32 - 0.5],
    "__rsub__": lambda: [2.0 - _P, _ROW - _P, 1.0 - _F32],
    "__mul__": lambda: [_P * _F32, _P * 2.0, _P * _ROW, _F32 * 0.5],
    "__rmul__": lambda: [2.0 * _P, _ROW * _P, 0.5 * _F32],
    "__truediv__": lambda: [_P / _POS, _P / 2.0, _P / _ROW, _F32 / 3.0],
    "__rtruediv__": lambda: [2.0 / _POS, _ROW / _POS, 1.0 / (_F32 * _F32 + 1.0)],
    "__pow__": lambda: [_P**2, _POS**0.5, _F32**3],
    "__matmul__": lambda: [_P @ _Q, _P @ _Q.data.tolist(), _F32 @ _Q, _P @ _Q.data[:, 0]],
    "exp": lambda: [_P.exp(), _F32.exp()],
    "log": lambda: [_POS.log()],
    "sqrt": lambda: [_POS.sqrt()],
    "tanh": lambda: [_P.tanh(), _F32.tanh()],
    "sigmoid": lambda: [_P.sigmoid(), _F32.sigmoid(), (_P * 400.0).sigmoid()],
    "relu": lambda: [_P.relu(), _F32.relu()],
    "sum": lambda: [_P.sum(), _P.sum(axis=1), _P.sum(axis=0, keepdims=True), _F32.sum()],
    "mean": lambda: [_P.mean(), _P.mean(axis=1), _P.mean(axis=(0, 1)), _F32.mean()],
    "max": lambda: [_P.max(), _P.max(axis=0), _P.max(axis=1, keepdims=True), _F32.max()],
    "reshape": lambda: [_P.reshape(4, 3), _P.reshape((2, 6)), _F32.reshape(-1)],
    "transpose": lambda: [_P.transpose(), _P.transpose(1, 0), _F32.transpose((1, 0))],
    "swapaxes": lambda: [_P.swapaxes(0, 1)],
    "__getitem__": lambda: [_P[1], _P[:, 1:3], _P[[0, 2]], _P[:, None, :], _F32[0, 0]],
    "take_rows": lambda: [_P.take_rows(np.array([[0, 2], [1, 1]])), _F32.take_rows([2, 0])],
    "masked_fill": lambda: [_P.masked_fill(_MASK, -1e9), _F32.masked_fill(_MASK, 0.0)],
    "softmax": lambda: [_P.softmax(), _P.softmax(axis=0), _F32.softmax()],
    "log_softmax": lambda: [_P.log_softmax(), _P.log_softmax(axis=0), _F32.log_softmax()],
    "detach": lambda: [_P.detach()],
    "concat": lambda: [autograd.concat([_P, _POS]), autograd.concat([_P, _F32], axis=1)],
    "stack": lambda: [autograd.stack([_P, _POS]), autograd.stack([_P, _F32], axis=2)],
    "where": lambda: [
        autograd.where(_MASK, _P, _POS), autograd.where(_MASK, _P, 0.0),
        autograd.where(_MASK, _ROW, _F32),
    ],
    "maximum": lambda: [
        autograd.maximum(_P, _POS), autograd.maximum(_P, 0.0), autograd.maximum(_ROW, _F32),
    ],
    "minimum": lambda: [
        autograd.minimum(_P, _POS), autograd.minimum(_P, 0.0), autograd.minimum(_ROW, _F32),
    ],
    "logsumexp": lambda: [
        autograd.logsumexp(_P), autograd.logsumexp(_P, axis=0, keepdims=True),
        autograd.logsumexp(_F32),
    ],
    "tensor": lambda: [autograd.tensor(_ROW, requires_grad=True)],
    "zeros": lambda: [autograd.zeros((2, 3), requires_grad=True)],
    "ones": lambda: [autograd.ones((2, 3), requires_grad=True)],
    "arange": lambda: [autograd.arange(5)],
}


def _public_ops() -> set:
    """Every public ``Tensor`` method and ``repro.autograd`` function that
    returns a tensor; a new one must join ``_OP_CASES``."""
    not_ops = {"__init__", "__len__", "__repr__", "item", "numpy", "zero_grad", "backward"}
    methods = {
        name for name, value in vars(Tensor).items()
        if callable(value) and (name.startswith("__") or not name.startswith("_"))
    }
    functions = set(autograd.__all__) - {"Tensor", "no_grad", "is_grad_enabled"}
    return (methods | functions) - not_ops


class TestGraphFreeUnderNoGrad:
    def test_every_public_op_has_a_case(self):
        assert _public_ops() == set(_OP_CASES)

    @pytest.mark.parametrize("name", sorted(_OP_CASES))
    def test_result_is_byte_equal_and_cut_from_the_graph(self, name):
        with_grad = _OP_CASES[name]()
        with no_grad():
            without = _OP_CASES[name]()
        assert len(with_grad) == len(without)
        for on, off in zip(with_grad, without):
            assert off.data.dtype == on.data.dtype and off.data.shape == on.data.shape
            assert off.data.tobytes() == on.data.tobytes()
            assert type(off) is Tensor
            assert off.requires_grad is False
            assert off._parents == () and off._backward is None and off.grad is None

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
            with_grad = Tensor(x, requires_grad=True).sigmoid().data
            with no_grad():
                without = Tensor(x).sigmoid().data
        for actual in (with_grad, without):
            assert actual.dtype == expected.dtype
            assert actual.tobytes() == expected.tobytes()
