"""The Adam optimizer and global-norm gradient clipping.

The paper trains with Adam (initial learning rate 1e-3) and clips
gradients to a global norm of 5 (Section V-B).
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .module import Parameter


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the norm *before* clipping, which is useful for monitoring
    exploding gradients.
    """
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.grad = None

    def step(self) -> None:
        self._step += 1
        b1, b2 = self.beta1, self.beta2
        correction1 = 1.0 - b1 ** self._step
        correction2 = 1.0 - b2 ** self._step
        for i, p in enumerate(self.parameters):
            if p.grad is None:
                continue
            m, v = self._m[i], self._v[i]
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * (p.grad ** 2)
            m_hat = m / correction1
            v_hat = v / correction2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
