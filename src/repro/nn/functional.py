"""Composite differentiable functions built from Tensor primitives."""

from __future__ import annotations

from .tensor import Tensor


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``.

    Subtracting the (detached) max is the standard stabilization; because
    the subtracted value is constant with respect to the inputs of the
    softmax ratio, gradients are unchanged.
    """
    shifted = x - x.max_detached(axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp reduction along ``axis``."""
    maxes = x.max_detached(axis=axis, keepdims=True)
    out = (x - maxes).exp().sum(axis=axis, keepdims=True).log() + maxes
    if not keepdims:
        shape = list(out.shape)
        del shape[axis if axis >= 0 else len(shape) + axis]
        out = out.reshape(tuple(shape))
    return out
