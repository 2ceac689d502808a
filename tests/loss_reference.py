"""Parity oracles for the L2 and L3 loss inputs and kernels.

:func:`sampled_weighted_loss` is the tape-built gathered L3 (Eq. 7): it
gathers ``W[candidates]`` as an ``(N, M, H)`` tensor, multiplies by ``h``
and lets the autograd engine derive every gradient (``take_rows``
scatters ``dW`` back with sort + ``reduceat``).  Slow and memory-hungry,
but each step is a plain tape primitive, so it pins the hand-derived
backward of the fused node in :mod:`repro.nn.loss`.

:func:`full_weights` is the untiled float64 L2 (Eq. 5) weight matrix that
:meth:`repro.spatial.ProximityVocabulary.full_weights` must reproduce.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.functional import logsumexp
from repro.nn.loss import _masked_mean
from repro.nn.tensor import Tensor
from repro.spatial.proximity import NUM_SPECIALS


def sampled_weighted_loss(
    hidden: Tensor,
    proj_weight: Tensor,
    candidates: np.ndarray,
    weights: np.ndarray,
    mask: Optional[np.ndarray] = None,
    proj_bias: Optional[Tensor] = None,
) -> Tensor:
    """Tape-built ``L3`` over the gathered candidate rows (same signature)."""
    candidates = np.asarray(candidates, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    if candidates.shape != weights.shape:
        raise ValueError("candidates and weights must have the same shape")
    batch, _ = candidates.shape
    if hidden.shape[0] != batch:
        raise ValueError("hidden batch size does not match candidates")

    rows = proj_weight.take_rows(candidates)           # (batch, M, hidden)
    h = hidden.reshape(batch, 1, hidden.shape[1])      # (batch, 1, hidden)
    logits = (rows * h).sum(axis=2)                    # (batch, M)
    if proj_bias is not None:
        logits = logits + proj_bias.take_rows(candidates)
    log_z = logsumexp(logits, axis=1, keepdims=True)   # (batch, 1)
    per_example = -((logits - log_z) * Tensor(weights)).sum(axis=1)
    return _masked_mean(per_example, mask)


def full_weights(vocab, targets: np.ndarray, theta: float) -> np.ndarray:
    """L2 weight rows in one pass: every target's ``(C, dim)`` differences,
    distances and kernel at once, into a float64 ``(N, V)`` result."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    targets = np.asarray(targets, dtype=np.int64)
    batch = targets.shape[0]
    weights = np.zeros((batch, vocab.size))
    special = targets < NUM_SPECIALS
    hot = ~special
    if hot.any():
        target_xy = vocab.centroids[targets[hot] - NUM_SPECIALS]
        diff = target_xy[:, None, :] - vocab.centroids[None, :, :]
        dists = np.sqrt((diff ** 2).sum(axis=2))
        kernel = np.exp(-dists / theta)
        kernel /= kernel.sum(axis=1, keepdims=True)
        weights[np.flatnonzero(hot)[:, None],
                np.arange(vocab.num_hot_cells)[None, :] + NUM_SPECIALS] = kernel
    if special.any():
        weights[special, targets[special]] = 1.0
    return weights
