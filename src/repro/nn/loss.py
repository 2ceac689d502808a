"""Decoder loss functions from the paper.

Three losses are implemented (Section IV-C1):

* :func:`nll_loss` — ``L1``, the plain negative log-likelihood used in NMT
  (Eq. 4).  Spatially blind: it penalizes a neighbouring cell and a distant
  cell equally.
* :func:`weighted_nll_loss` — ``L2``, the exact spatial-proximity-aware
  loss (Eq. 5).  Each vocabulary cell receives weight
  ``w(u, y_t) ∝ exp(-||u - y_t|| / θ)``; cost is O(|y|·|V|) per sequence.
* :func:`sampled_weighted_loss` — ``L3``, the approximation (Eq. 7): the
  weighted sum runs over only the K nearest cells of the target, and the
  partition function is estimated NCE-style over those cells plus a small
  random noise sample, reducing the cost to O(|y|).  It is one fused tape
  node: row-tiled gathered logits forward, a hand-derived sparse backward.
* :func:`masked_sampled_loss` — the same Eq. 7 objective over dense
  ``(batch, vocab)`` logits, which ``repro.core.losses`` uses for small
  vocabularies.

All losses take an optional 0/1 ``mask`` so padded positions in a
mini-batch contribute nothing, and return the *mean* loss per unmasked
token (a scalar ``Tensor``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse

from .functional import log_softmax, logsumexp
from .tensor import Tensor

# Rows per forward tile of :func:`sampled_weighted_loss`.  A tile gathers a
# (rows, M, hidden) block of the projection; 64 rows keep it cache-sized
# (fastest of 32-1024 rows at V=16,588, H=256, M=84).
L3_TILE_ROWS = 64


def _masked_mean(per_example: Tensor, mask: Optional[np.ndarray]) -> Tensor:
    if mask is None:
        return per_example.mean()
    mask = np.asarray(mask, dtype=float)
    total = float(mask.sum())
    if total == 0.0:
        raise ValueError("loss mask has no active positions")
    return (per_example * Tensor(mask)).sum() / total


def _row_scale(mask: Optional[np.ndarray], batch: int, dtype) -> np.ndarray:
    """Each row's factor in the masked mean: ``mask / mask.sum()``, or ``1/batch``."""
    if mask is None:
        return np.full(batch, 1.0 / batch, dtype=dtype)
    mask = np.asarray(mask, dtype=float).reshape(batch)
    total = float(mask.sum())
    if total == 0.0:
        raise ValueError("loss mask has no active positions")
    return (mask / total).astype(dtype)


def nll_loss(logits: Tensor, targets: np.ndarray,
             mask: Optional[np.ndarray] = None) -> Tensor:
    """``L1`` — negative log-likelihood of the target tokens.

    Parameters
    ----------
    logits:
        ``(batch, vocab)`` unnormalized scores.
    targets:
        ``(batch,)`` integer target token ids.
    mask:
        Optional ``(batch,)`` 0/1 array marking real (non-padding) rows.
    """
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = log_softmax(logits, axis=1)
    batch = logits.shape[0]
    picked = log_probs[np.arange(batch), targets]
    return _masked_mean(-picked, mask)


def weighted_nll_loss(logits: Tensor, weights: np.ndarray,
                      mask: Optional[np.ndarray] = None) -> Tensor:
    """``L2`` — exact spatial-proximity-aware loss (Eq. 5).

    Parameters
    ----------
    logits:
        ``(batch, vocab)`` unnormalized scores.
    weights:
        ``(batch, vocab)`` proximity weights ``w(u, y_t)``; each row should
        sum to 1 (rows are a kernel around the target cell).
    mask:
        Optional ``(batch,)`` 0/1 padding mask.
    """
    weights = np.asarray(weights)
    if weights.shape != logits.shape:
        raise ValueError(
            f"weights shape {weights.shape} != logits shape {logits.shape}")
    log_probs = log_softmax(logits, axis=1)
    per_example = -(log_probs * Tensor(weights)).sum(axis=1)
    return _masked_mean(per_example, mask)


def masked_sampled_loss(logits: Tensor, weights: np.ndarray,
                        candidate_bias: np.ndarray,
                        mask: Optional[np.ndarray] = None) -> Tensor:
    """``L3`` via dense masked softmax — the small-vocabulary fast path.

    Mathematically identical to :func:`sampled_weighted_loss` (same Eq. 7
    objective), but expressed over full-vocabulary logits: the partition
    function is restricted to the candidate set ``NO`` by adding a large
    negative ``candidate_bias`` outside it.  For vocabularies that fit a
    ``(batch, vocab)`` matrix this replaces the gather/scatter with two
    GEMMs and is several times faster on CPU; for the paper's 20k-cell
    vocabularies the gathered variant wins.

    Parameters
    ----------
    logits:
        ``(batch, vocab)`` full scores ``h W^T + b``.
    weights:
        ``(batch, vocab)`` proximity weights, nonzero only on each row's
        K-nearest cells.
    candidate_bias:
        ``(batch, vocab)`` additive mask: 0 on candidate cells (K nearest
        plus noise), a large negative value elsewhere.
    """
    weights = np.asarray(weights)
    candidate_bias = np.asarray(candidate_bias)
    if weights.shape != logits.shape or candidate_bias.shape != logits.shape:
        raise ValueError("weights/candidate_bias must match logits shape")
    restricted = logits + Tensor(candidate_bias)
    log_z = logsumexp(restricted, axis=1, keepdims=True)
    per_example = -((logits - log_z) * Tensor(weights)).sum(axis=1)
    return _masked_mean(per_example, mask)


def sampled_weighted_loss(
    hidden: Tensor,
    proj_weight: Tensor,
    candidates: np.ndarray,
    weights: np.ndarray,
    mask: Optional[np.ndarray] = None,
    proj_bias: Optional[Tensor] = None,
) -> Tensor:
    """``L3`` — approximate spatial-proximity loss with sampled softmax (Eq. 7).

    For each row ``b`` the candidate set ``NO = NK(y_t) ∪ O(y_t)`` contains
    the K nearest cells of the target (carrying proximity weights) followed
    by noise cells (weight 0).  The partition function is computed over the
    candidate set only, which is the NCE-flavoured approximation the paper
    uses to reduce training cost from O(|y|·|V|) to O(|y|).  A candidate
    listed twice in a row (say, noise that repeats a K-nearest cell) counts
    twice in the partition.

    The loss is one tape node with a hand-derived backward.  The forward
    walks ``L3_TILE_ROWS``-row tiles: each gathers ``W[candidates]`` for
    its rows and takes the logits as a batched ``matmul`` with ``h``, then
    a stable log-sum-exp.  Between forward and backward only the
    ``(batch, M)`` softmax residual ``p·Σw − w`` is kept, in ``hidden``'s
    dtype.  The backward scales it per row into ``g`` and forms one sparse
    ``(batch, vocab)`` matrix of ``g`` at the candidate columns: ``dh`` is
    its product with ``W``, ``dW`` the product of its transpose with
    ``h`` and ``db`` a ``bincount``.  ``tests/loss_reference.py`` keeps
    the tape-built version as the parity oracle.

    Parameters
    ----------
    hidden:
        ``(batch, hidden)`` decoder states ``h_t``.
    proj_weight:
        ``(vocab, hidden)`` output projection; row ``u`` is ``W_u``.
    candidates:
        ``(batch, M)`` integer cell ids (K nearest + noise).
    weights:
        ``(batch, M)`` proximity weights; zero on noise columns; each row
        sums to 1 over the K-nearest block.
    mask:
        Optional ``(batch,)`` 0/1 padding mask.
    proj_bias:
        Optional ``(vocab,)`` bias added to the gathered logits.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    weights = np.asarray(weights)
    if candidates.shape != weights.shape:
        raise ValueError("candidates and weights must have the same shape")
    batch, width = candidates.shape
    if hidden.shape[0] != batch:
        raise ValueError("hidden batch size does not match candidates")
    h, table = hidden.data, proj_weight.data
    weights = weights.astype(h.dtype, copy=False)
    scale = _row_scale(mask, batch, h.dtype)

    per_row = np.empty(batch, dtype=h.dtype)
    residual = np.empty((batch, width), dtype=h.dtype)
    for start in range(0, batch, L3_TILE_ROWS):
        rows = slice(start, start + L3_TILE_ROWS)
        cand, w = candidates[rows], weights[rows]
        logits = np.matmul(table[cand], h[rows, :, None])[..., 0]
        if proj_bias is not None:
            logits += proj_bias.data[cand]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exps = np.exp(shifted)
        z = exps.sum(axis=1, keepdims=True)
        per_row[rows] = (w * (np.log(z) - shifted)).sum(axis=1)
        residual[rows] = exps / z * w.sum(axis=1, keepdims=True) - w

    parents = (hidden, proj_weight) + ((proj_bias,) if proj_bias is not None else ())
    out = Tensor._make(per_row @ scale, parents, "sampled_weighted_loss")
    if out.requires_grad:

        def backward(grad):
            g = residual * (grad * scale)[:, None]
            # Row b holds g[b] at its candidate columns; repeated candidates
            # are separate entries, and the products below add them up.
            spread = sparse.csr_matrix(
                (g.ravel(), candidates.ravel(),
                 np.arange(0, g.size + 1, width)), shape=(batch, len(table)))
            if hidden.requires_grad:
                hidden._accumulate(spread @ table)
            if proj_weight.requires_grad:
                proj_weight._accumulate(spread.T.tocsr() @ h)
            if proj_bias is not None and proj_bias.requires_grad:
                proj_bias._accumulate(np.bincount(
                    candidates.ravel(), weights=g.ravel(), minlength=len(table)))

        out._backward = backward
    return out
