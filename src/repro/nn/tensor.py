"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the neural substrate: a :class:`Tensor`
wraps a ``numpy.ndarray`` and records the operations applied to it so that
:meth:`Tensor.backward` can propagate gradients to every tensor created
with ``requires_grad=True``.

The design is a vectorized take on the classic tape-based autograd: each
operation returns a new ``Tensor`` holding a closure that knows how to push
its output gradient back to the inputs.  Broadcasting is supported by
summing gradients over broadcast dimensions (:func:`_unbroadcast`).

Only the operations the t2vec models, losses and baselines call are
implemented.  The recurrent layers and the gathered L3 loss are single
hand-derived tape nodes of their own (:mod:`repro.nn.rnn`,
:mod:`repro.nn.lstm`, :mod:`repro.nn.loss`) built on :meth:`Tensor._make`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

# float32 is the library default (2x faster on CPU); gradient-check tests
# switch to float64 via set_default_dtype.
_DEFAULT_DTYPE = np.float32


def set_default_dtype(dtype) -> None:
    """Set the dtype used for new tensors.

    ``float32`` is the default because it roughly halves training time on
    CPU; switch to ``float64`` when numeric gradient checking (or anything
    else) needs the precision.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}")
    global _DEFAULT_DTYPE
    _DEFAULT_DTYPE = dtype.type


def get_default_dtype():
    return _DEFAULT_DTYPE


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes that were added or broadcast.

    If an operation broadcast an input of ``shape`` up to ``grad.shape``,
    the gradient with respect to that input is the sum of ``grad`` over the
    broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were prepended by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    dtype = dtype or _DEFAULT_DTYPE
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A numpy array with an autograd tape.

    Parameters
    ----------
    data:
        Array (or scalar / nested sequence) holding the value.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_op")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward = None  # type: Optional[callable]
        self._prev: Tuple[Tensor, ...] = ()
        self._op = ""

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...], op: str) -> "Tensor":
        out = Tensor(data)
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._prev = tuple(p for p in parents if p.requires_grad or p._prev)
            out._op = op
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1 for scalar tensors; non-scalar roots require
        an explicit output gradient.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = _as_array(grad, dtype=self.data.dtype)

        topo: list = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            # Free intermediate gradients/graph to bound memory: only leaf
            # tensors (requires_grad with no parents) keep their grads.
            if node._prev and node is not self:
                node.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = Tensor._make(self.data + other.data, (self, other), "add")
        if out.requires_grad:
            a, b = self, other

            def backward(grad):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(grad, a.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(grad, b.shape))

            out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor._make(-self.data, (self,), "neg")
        if out.requires_grad:
            a = self

            def backward(grad):
                a._accumulate(-grad)

            out._backward = backward
        return out

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out = Tensor._make(self.data * other.data, (self, other), "mul")
        if out.requires_grad:
            a, b = self, other

            def backward(grad):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(grad * b.data, a.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(grad * a.data, b.shape))

            out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        out = Tensor._make(self.data / other.data, (self, other), "div")
        if out.requires_grad:
            a, b = self, other

            def backward(grad):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(grad / b.data, a.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(-grad * a.data / (b.data ** 2), b.shape))

            out._backward = backward
        return out

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = Tensor._make(self.data ** exponent, (self,), "pow")
        if out.requires_grad:
            a = self

            def backward(grad):
                a._accumulate(grad * exponent * a.data ** (exponent - 1))

            out._backward = backward
        return out

    def __matmul__(self, other):
        other = self._coerce(other)
        out = Tensor._make(self.data @ other.data, (self, other), "matmul")
        if out.requires_grad:
            a, b = self, other

            def backward(grad):
                if a.requires_grad:
                    if b.data.ndim == 1:
                        a._accumulate(np.outer(grad, b.data) if a.data.ndim == 2
                                      else grad * b.data)
                    else:
                        ga = grad @ np.swapaxes(b.data, -1, -2)
                        a._accumulate(_unbroadcast(ga, a.shape))
                if b.requires_grad:
                    if a.data.ndim == 1:
                        gb = np.outer(a.data, grad) if b.data.ndim == 2 else grad * a.data
                        b._accumulate(_unbroadcast(gb, b.shape))
                    else:
                        gb = np.swapaxes(a.data, -1, -2) @ grad
                        b._accumulate(_unbroadcast(gb, b.shape))

            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self):
        value = np.exp(self.data)
        out = Tensor._make(value, (self,), "exp")
        if out.requires_grad:
            a = self

            def backward(grad):
                a._accumulate(grad * value)

            out._backward = backward
        return out

    def log(self):
        out = Tensor._make(np.log(self.data), (self,), "log")
        if out.requires_grad:
            a = self

            def backward(grad):
                a._accumulate(grad / a.data)

            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        out = Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")
        if out.requires_grad:
            a = self

            def backward(grad):
                g = grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(g, a.shape).copy())

            out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max_detached(self, axis=None, keepdims: bool = False) -> np.ndarray:
        """Maximum of the data, not tracked by autograd.

        Used for numerically stable log-sum-exp: subtracting a constant
        equal to the max does not change gradients of the final expression.
        """
        return self.data.max(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor._make(self.data.reshape(shape), (self,), "reshape")
        if out.requires_grad:
            a = self

            def backward(grad):
                a._accumulate(grad.reshape(a.shape))

            out._backward = backward
        return out

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        out = Tensor._make(self.data.transpose(axes), (self,), "transpose")
        if out.requires_grad:
            a = self

            def backward(grad):
                a._accumulate(grad.transpose(inverse))

            out._backward = backward
        return out

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, index):
        out = Tensor._make(self.data[index], (self,), "getitem")
        if out.requires_grad:
            a = self
            # Pure basic indexing (slices/ints) selects each source element
            # at most once, so plain ``+=`` is valid and far faster than the
            # duplicate-safe ``np.add.at``.
            parts = index if isinstance(index, tuple) else (index,)
            basic = all(isinstance(p, (slice, int, type(None), type(Ellipsis)))
                        for p in parts)

            def backward(grad):
                full = np.zeros_like(a.data)
                if basic:
                    full[index] += grad
                else:
                    np.add.at(full, index, grad)
                a._accumulate(full)

            out._backward = backward
        return out

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows (embedding lookup): ``out[i...] = self[indices[i...]]``.

        ``indices`` may be any integer array; the result has shape
        ``indices.shape + self.shape[1:]``.  Gradients are scatter-added so
        repeated indices accumulate correctly.
        """
        indices = np.asarray(indices)
        out = Tensor._make(self.data[indices], (self,), "take_rows")
        if out.requires_grad:
            a = self

            def backward(grad):
                # Scatter-add via sort + reduceat: np.add.at is an order of
                # magnitude slower because it dispatches per element.
                full = np.zeros_like(a.data)
                flat_idx = indices.reshape(-1)
                if flat_idx.size:
                    flat_grad = np.ascontiguousarray(grad).reshape(
                        flat_idx.size, -1)
                    order = np.argsort(flat_idx, kind="stable")
                    sorted_idx = flat_idx[order]
                    starts = np.flatnonzero(np.concatenate(
                        ([True], sorted_idx[1:] != sorted_idx[:-1])))
                    sums = np.add.reduceat(flat_grad[order], starts, axis=0)
                    full[sorted_idx[starts]] = sums.reshape(
                        (-1,) + full.shape[1:])
                a._accumulate(full)

            out._backward = backward
        return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor._make(data, tuple(tensors), "concat")
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad):
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    sl = [slice(None)] * grad.ndim
                    sl[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(sl)])

        out._backward = backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    out = Tensor._make(data, tuple(tensors), "stack")
    if out.requires_grad:

        def backward(grad):
            pieces = np.moveaxis(grad, axis, 0)
            for tensor, piece in zip(tensors, pieces):
                if tensor.requires_grad:
                    tensor._accumulate(piece)

        out._backward = backward
    return out

