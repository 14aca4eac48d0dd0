"""A reverse-mode autograd :class:`Tensor` built on NumPy.

The engine follows the classic define-by-run design: every differentiable
operation records its parents and a local backward closure on the output
tensor; :meth:`Tensor.backward` then walks the graph in reverse topological
order accumulating gradients.

Design notes
------------
* Gradients are plain ``numpy.ndarray`` objects stored on ``Tensor.grad``.
* Broadcasting is fully supported: :func:`_unbroadcast` sums a gradient back
  down to the shape of the input it belongs to.
* :class:`Tensor` is the training type only.  Every op records its graph;
  paths that do not train (decoding, scoring, evaluation, encoding) run
  the modules' ``infer`` methods on plain arrays instead, which compute
  the same NumPy expressions in the same order.  :func:`sigmoid_np`,
  :func:`softmax_np` and :func:`log_softmax_np` are the op forwards they
  share.
* Only float64/float32 data participates in differentiation; integer tensors
  (token ids) are carried as constants.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    Broadcasting can (a) prepend new axes and (b) stretch size-1 axes.  The
    gradient of a broadcast input is the sum of the output gradient over all
    broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Remove prepended axes.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over stretched size-1 axes.
    stretched = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value
    return np.asarray(value, dtype=np.float64)


def _operand(value) -> np.ndarray:
    """The array an op computes with: a tensor's payload, else exactly
    what ``Tensor(value).data`` would be."""
    return value.data if isinstance(value, Tensor) else _as_array(value)


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """The forward of :meth:`Tensor.sigmoid` on an ndarray."""
    # Stable piecewise form, 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x))
    # below, on a single exp(-|x|) that cannot overflow.
    positive = x >= 0
    e = np.exp(np.where(positive, -x, x))
    return np.where(positive, 1.0, e) / (1.0 + e)


def softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """The forward of :meth:`Tensor.softmax` on an ndarray."""
    exp = np.exp(x - x.max(axis=axis, keepdims=True))
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """The forward of :meth:`Tensor.log_softmax` on an ndarray."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


class Tensor:
    """An n-dimensional array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload.  Converted to ``numpy.ndarray``.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "name",
        "_accumulate_to",
    )

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _make_child(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op output, wiring the backward closure if any parent
        requires grad."""
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ones (appropriate when this tensor is a scalar loss).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data, dtype=np.float64)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order via iterative DFS (recursion would overflow on
        # long recurrent chains).
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                # Leaf: accumulate into .grad
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            # Interior node: run local backward, which calls _accumulate on
            # parents through the `grads` dict captured here.
            node._accumulate_to = grads  # type: ignore[attr-defined]
            node._backward(node_grad)
            del node._accumulate_to  # type: ignore[attr-defined]
            # Interior nodes may also be retained by callers wanting .grad.
            if node.grad is not None:
                node.grad = node.grad + node_grad

    def _acc(self, parent: "Tensor", grad: np.ndarray) -> None:
        """Accumulate ``grad`` for ``parent`` during an active backward pass."""
        if not parent.requires_grad:
            return
        grads: dict[int, np.ndarray] = self._accumulate_to  # type: ignore[attr-defined]
        key = id(parent)
        if key in grads:
            grads[key] = grads[key] + grad
        else:
            grads[key] = grad
        if parent._backward is None and parent._parents == ():
            # Leaf tensors get their .grad written when popped in backward();
            # nothing extra to do here.
            pass

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        out_data = self.data + _operand(other)
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad: np.ndarray) -> None:
            out._acc(self, _unbroadcast(grad, self.shape))
            out._acc(other, _unbroadcast(grad, other.shape))

        out = self._make_child(out_data, (self, other), backward)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":

        def backward(grad: np.ndarray) -> None:
            out._acc(self, -grad)

        out = self._make_child(-self.data, (self,), backward)
        return out

    def __sub__(self, other) -> "Tensor":
        out_data = self.data - _operand(other)
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad: np.ndarray) -> None:
            out._acc(self, _unbroadcast(grad, self.shape))
            out._acc(other, _unbroadcast(-grad, other.shape))

        out = self._make_child(out_data, (self, other), backward)
        return out

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        out_data = self.data * _operand(other)
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad: np.ndarray) -> None:
            out._acc(self, _unbroadcast(grad * other.data, self.shape))
            out._acc(other, _unbroadcast(grad * self.data, other.shape))

        out = self._make_child(out_data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        out_data = self.data / _operand(other)
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad: np.ndarray) -> None:
            out._acc(self, _unbroadcast(grad / other.data, self.shape))
            out._acc(
                other,
                _unbroadcast(-grad * self.data / (other.data**2), other.shape),
            )

        out = self._make_child(out_data, (self, other), backward)
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            out._acc(self, grad * exponent * self.data ** (exponent - 1))

        out = self._make_child(out_data, (self,), backward)
        return out

    def __matmul__(self, other) -> "Tensor":
        out_data = self.data @ _operand(other)
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                out._acc(self, grad * b)
                out._acc(other, grad * a)
                return
            if a.ndim == 1:
                a2 = a.reshape(1, -1)
                grad2 = np.expand_dims(grad, axis=-2)
                ga = (grad2 @ np.swapaxes(b, -1, -2)).reshape(a.shape)
                gb = _unbroadcast(np.swapaxes(a2, -1, -2) @ grad2, b.shape)
                out._acc(self, ga)
                out._acc(other, gb)
                return
            if b.ndim == 1:
                b2 = b.reshape(-1, 1)
                grad2 = np.expand_dims(grad, axis=-1)
                ga = _unbroadcast(grad2 @ np.swapaxes(b2, -1, -2), a.shape)
                gb = _unbroadcast(np.swapaxes(a, -1, -2) @ grad2, b2.shape).reshape(b.shape)
                out._acc(self, ga)
                out._acc(other, gb)
                return
            ga = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
            gb = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
            out._acc(self, ga)
            out._acc(other, gb)

        out = self._make_child(out_data, (self, other), backward)
        return out

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            out._acc(self, grad * out_data)

        out = self._make_child(out_data, (self,), backward)
        return out

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            out._acc(self, grad / self.data)

        out = self._make_child(out_data, (self,), backward)
        return out

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            out._acc(self, grad * 0.5 / out_data)

        out = self._make_child(out_data, (self,), backward)
        return out

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            out._acc(self, grad * (1.0 - out_data**2))

        out = self._make_child(out_data, (self,), backward)
        return out

    def sigmoid(self) -> "Tensor":
        out_data = sigmoid_np(self.data)

        def backward(grad: np.ndarray) -> None:
            out._acc(self, grad * out_data * (1.0 - out_data))

        out = self._make_child(out_data, (self,), backward)
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            out._acc(self, grad * mask)

        out = self._make_child(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            out._acc(self, np.broadcast_to(g, self.shape).copy())

        out = self._make_child(out_data, (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a] for a in axes]))

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            out._acc(self, np.broadcast_to(g, self.shape) / count)

        out = self._make_child(out_data, (self,), backward)
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            od = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                od = np.expand_dims(od, axis=axis)
            mask = (self.data == od).astype(self.data.dtype)
            # Split ties evenly so the gradient stays correct-in-expectation.
            mask = mask / mask.sum(axis=axis, keepdims=True) if axis is not None else mask / mask.sum()
            out._acc(self, mask * g)

        out = self._make_child(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            out._acc(self, grad.reshape(self.shape))

        out = self._make_child(out_data, (self,), backward)
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            out._acc(self, grad.transpose(inverse))

        out = self._make_child(out_data, (self,), backward)
        return out

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data, dtype=np.float64)
            np.add.at(full, index, grad)
            out._acc(self, full)

        out = self._make_child(out_data, (self,), backward)
        return out

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows (axis 0) — the embedding-lookup primitive.

        ``indices`` may have any shape; the result has shape
        ``indices.shape + self.shape[1:]``.
        """
        idx = np.asarray(indices)
        out_data = self.data[idx]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data, dtype=np.float64)
            np.add.at(full, idx.reshape(-1), grad.reshape(-1, *self.shape[1:]))
            out._acc(self, full)

        out = self._make_child(out_data, (self,), backward)
        return out

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor with positions where ``mask`` is True set to ``value``."""
        mask = np.asarray(mask, dtype=bool)
        out_data = np.where(mask, value, self.data)

        def backward(grad: np.ndarray) -> None:
            out._acc(self, _unbroadcast(np.where(mask, 0.0, grad), self.shape))

        out = self._make_child(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Softmax family (fused for numerical stability)
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        out_data = softmax_np(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            out._acc(self, out_data * (grad - dot))

        out = self._make_child(out_data, (self,), backward)
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        out_data = log_softmax_np(self.data, axis=axis)
        softmax = np.exp(out_data)

        def backward(grad: np.ndarray) -> None:
            out._acc(self, grad - softmax * grad.sum(axis=axis, keepdims=True))

        out = self._make_child(out_data, (self,), backward)
        return out


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------
def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            out._acc(t, grad[tuple(slicer)])

    requires = any(t.requires_grad for t in tensors)
    out = Tensor(out_data, requires_grad=requires)
    if requires:
        out._parents = tuple(tensors)
        out._backward = backward
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            out._acc(t, np.take(grad, i, axis=axis))

    requires = any(t.requires_grad for t in tensors)
    out = Tensor(out_data, requires_grad=requires)
    if requires:
        out._parents = tuple(tensors)
        out._backward = backward
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select with gradient flow into both branches."""
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, _operand(a), _operand(b))
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)

    def backward(grad: np.ndarray) -> None:
        out._acc(a, _unbroadcast(np.where(condition, grad, 0.0), a.shape))
        out._acc(b, _unbroadcast(np.where(condition, 0.0, grad), b.shape))

    requires = a.requires_grad or b.requires_grad
    out = Tensor(out_data, requires_grad=requires)
    if requires:
        out._parents = (a, b)
        out._backward = backward
    return out


def maximum(a: Tensor, b: Tensor) -> Tensor:
    return where(_operand(a) >= _operand(b), a, b)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    return where(_operand(a) <= _operand(b), a, b)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp with gradient support.

    Used throughout the cyclic-consistency likelihood (Eq. 3/5 of the paper),
    where sums of products of probabilities are evaluated in log space.
    """
    shifted_max = x.data.max(axis=axis, keepdims=True)
    shifted = x - shifted_max
    summed = shifted.exp().sum(axis=axis, keepdims=True).log() + shifted_max
    if keepdims:
        return summed
    return summed.reshape(tuple(s for i, s in enumerate(summed.shape) if i != (axis % x.ndim)))
