"""Per-query reference paths: the oracles for the batched index kernels.

These are the implementations the blocked GEMM kernels replaced: a
direct ``sqrt(sum((x - q)²))`` scan of the whole database per query, and
one GEMV per LSH table.  They share no code with
:func:`~repro.core.index.blocked_topk` or
``LSHIndex._signatures_all``, so the parity tests compare two
independent derivations.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core import ExactIndex, LSHIndex


def knn_scan(index: ExactIndex, query: np.ndarray,
             k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Single-query k-NN by a full scan: ``(indices, distances)``."""
    query = np.asarray(query, dtype=index.vectors.dtype).reshape(-1)
    dists = np.sqrt(((index.vectors - query[None, :]) ** 2).sum(axis=1))
    k = min(k, len(dists))
    idx = np.argpartition(dists, k - 1)[:k]
    order = np.argsort(dists[idx], kind="stable")
    return idx[order], dists[idx[order]]


def table_signatures(lsh: LSHIndex, vectors: np.ndarray,
                     table: int) -> np.ndarray:
    """LSH signatures of ``(n, d)`` vectors in one table: ``(n,)``."""
    bits = (vectors @ lsh._planes[table].T) > 0          # (n, bits)
    powers = (1 << np.arange(lsh.num_bits)).astype(np.int64)
    return bits @ powers
