"""Basic feed-forward layers: Linear, Embedding, Dropout."""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor


class Linear(Module):
    """Affine map ``y = x @ W + b``.

    ``weight`` has shape ``(in_features, out_features)`` so the forward is
    a plain matmul over the trailing axis of any-rank inputs.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, (in_features, out_features)))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Token embedding table of shape ``(num_embeddings, dim)``.

    Lookup is a gather (:meth:`Tensor.take_rows`), so gradients for
    repeated tokens in a batch are accumulated correctly.  ``tokens`` may
    have any shape; a whole time-major ``(T, B)`` batch is one gather (one
    tape node with one scatter-add backward instead of T separate nodes),
    which feeds the RNN layer kernels.
    """

    def __init__(self, num_embeddings: int, dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.uniform(rng, (num_embeddings, dim), 0.1))

    def forward(self, tokens: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens)
        if tokens.min(initial=0) < 0 or (tokens.size and tokens.max() >= self.num_embeddings):
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings}): "
                f"min={tokens.min()}, max={tokens.max()}"
            )
        return self.weight.take_rows(tokens)

    def load_pretrained(self, vectors: np.ndarray, freeze: bool = False) -> None:
        """Initialize the table from pre-trained vectors (e.g. cell skip-gram).

        The paper initializes the embedding layer from the cell-learning
        step but keeps it trainable; pass ``freeze=True`` to pin it.
        """
        vectors = np.asarray(vectors, dtype=self.weight.data.dtype)
        if vectors.shape != self.weight.data.shape:
            raise ValueError(
                f"pretrained shape {vectors.shape} != table shape {self.weight.data.shape}"
            )
        self.weight.data = vectors.copy()
        self.weight.requires_grad = not freeze


class Dropout(Module):
    """Inverted dropout; identity when ``module.eval()`` is active."""

    def __init__(self, p: float = 0.0, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        # Build the scaled mask directly in the input dtype; a float64
        # intermediate would silently upcast (and double-copy) the whole
        # activation tensor under the float32 default.  Drawing the uniforms
        # in float32 also halves the RNG cost for the common case.
        rand_dtype = np.float32 if x.data.dtype == np.float32 else np.float64
        mask = (self._rng.random(x.shape, dtype=rand_dtype) < keep)
        mask = mask.astype(x.data.dtype)
        mask /= keep
        return x * Tensor(mask)
