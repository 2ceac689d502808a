"""Vector indexes for k-NN search over trajectory representations.

* :class:`ExactIndex` — brute-force Euclidean search; O(N · |v|) per query,
  which is already the paper's headline complexity (Section IV-D) and at
  least an order of magnitude faster than the DP baselines.
* :class:`LSHIndex` — random-hyperplane locality-sensitive hashing with
  multiple tables; the paper's future-work item §VI.3.  Candidates from
  matching buckets are re-ranked exactly, so results degrade gracefully
  (recall < 1, never wrong distances).

Both indexes serve queries in *blocks*: ``knn_batch(queries, k)`` takes a
``(Q, d)`` matrix and computes all distances through the GEMM identity
``||x - q||² = ||x||² + ||q||² − 2·x·q``, tiled over database rows with a
configurable ``block_rows`` budget so the working set stays bounded at
million-vector scale.  A running per-query top-k is merged across tiles
(argpartition per tile, then concatenate + argpartition — no heaps).  The
distances of the final k neighbours are recomputed directly, so returned
values are exact even though the GEMM accumulates in the index dtype.
Single-query ``knn`` is a thin wrapper over the batched path.

Dtype: float input keeps its dtype end-to-end (float32 embeddings stay
float32 — half the memory and bandwidth); non-float input is cast to the
library default (:func:`repro.nn.get_default_dtype`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..nn.tensor import get_default_dtype
from ..telemetry import MetricsRegistry, get_registry

#: Default database-rows-per-tile budget for the blocked kernels.  At
#: float32 and |v| = 256 a tile is block_rows × 1 KiB, so 32k rows keeps
#: the per-tile working set around cache-friendly tens of MiB.
DEFAULT_BLOCK_ROWS = 32768


def _as_float_matrix(vectors: np.ndarray) -> np.ndarray:
    """Validate an ``(n, d)`` matrix, preserving float dtypes."""
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be (n, d), got {vectors.shape}")
    if not np.issubdtype(vectors.dtype, np.floating):
        vectors = vectors.astype(get_default_dtype())
    return np.ascontiguousarray(vectors)


def _as_query_block(queries: np.ndarray, dim: int,
                    dtype: np.dtype) -> np.ndarray:
    """Coerce one query or a block of queries to ``(Q, d)`` in ``dtype``."""
    queries = np.asarray(queries, dtype=dtype)
    if queries.ndim == 1:
        queries = queries.reshape(1, -1)
    if queries.ndim != 2 or queries.shape[1] != dim:
        raise ValueError(
            f"queries must be (Q, {dim}) or ({dim},), got {queries.shape}")
    return np.ascontiguousarray(queries)


def blocked_topk(queries: np.ndarray, vectors: np.ndarray,
                 sqnorms: Optional[np.ndarray] = None, k: int = 1,
                 block_rows: int = DEFAULT_BLOCK_ROWS,
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """k nearest rows of ``vectors`` for every row of ``queries``.

    Returns ``(indices, distances)``, each ``(Q, min(k, N))``, rows ordered
    by ``(distance, index)``.  Squared distances are accumulated tile by
    tile via the GEMM identity in the input dtype (float32 stays float32);
    the surviving k per query are then recomputed directly, so the
    returned distances carry no cancellation error — a query that *is* a
    database row reports distance exactly 0.
    """
    big_n = len(vectors)
    k = min(k, big_n)
    num_q = len(queries)
    if k < 1 or num_q == 0:
        empty_i = np.empty((num_q, max(k, 0)), dtype=np.int64)
        return empty_i, np.empty_like(empty_i, dtype=vectors.dtype)
    if sqnorms is None:
        sqnorms = np.einsum("nd,nd->n", vectors, vectors)
    block_rows = max(int(block_rows), 1)
    q_sq = np.einsum("qd,qd->q", queries, queries)[:, None]
    rows = np.arange(num_q)[:, None]
    best_d: Optional[np.ndarray] = None
    best_i: Optional[np.ndarray] = None
    for start in range(0, big_n, block_rows):
        stop = min(start + block_rows, big_n)
        sq = queries @ vectors[start:stop].T
        sq *= -2.0
        sq += sqnorms[start:stop][None, :]
        sq += q_sq
        width = stop - start
        if width > k:                       # shrink the tile to its top-k
            part = np.argpartition(sq, k - 1, axis=1)[:, :k]
            tile_d, tile_i = sq[rows, part], part + start
        else:
            tile_d = sq
            tile_i = np.broadcast_to(np.arange(start, stop), (num_q, width))
        if best_d is None:
            best_d, best_i = tile_d, tile_i
            continue
        cat_d = np.concatenate([best_d, tile_d], axis=1)
        cat_i = np.concatenate([best_i, tile_i], axis=1)
        if cat_d.shape[1] > k:
            sel = np.argpartition(cat_d, k - 1, axis=1)[:, :k]
            cat_d, cat_i = cat_d[rows, sel], cat_i[rows, sel]
        best_d, best_i = cat_d, cat_i
    # Exact distances for the survivors, then deterministic ordering.
    diff = queries[:, None, :] - vectors[best_i]
    dist = np.sqrt(np.einsum("qkd,qkd->qk", diff, diff))
    order = np.lexsort((best_i, dist))      # primary: distance, tie: index
    rows = np.arange(num_q)[:, None]
    return np.ascontiguousarray(best_i[rows, order]), \
        np.ascontiguousarray(dist[rows, order])


def pairwise_distances(queries: np.ndarray, vectors: np.ndarray,
                       block_rows: int = DEFAULT_BLOCK_ROWS) -> np.ndarray:
    """Full ``(Q, N)`` Euclidean distance matrix via the blocked GEMM path.

    One self-consistent formula for every entry, so downstream strict
    comparisons (rank counting) never mix rounding regimes.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=vectors.dtype))
    sqnorms = np.einsum("nd,nd->n", vectors, vectors)
    q_sq = np.einsum("qd,qd->q", queries, queries)[:, None]
    out = np.empty((len(queries), len(vectors)), dtype=vectors.dtype)
    block_rows = max(int(block_rows), 1)
    for start in range(0, len(vectors), block_rows):
        stop = min(start + block_rows, len(vectors))
        sq = queries @ vectors[start:stop].T
        sq *= -2.0
        sq += sqnorms[start:stop][None, :]
        sq += q_sq
        np.maximum(sq, 0.0, out=sq)
        np.sqrt(sq, out=sq)
        out[:, start:stop] = sq
    return out


class ExactIndex:
    """Brute-force Euclidean k-NN over a matrix of vectors."""

    def __init__(self, vectors: np.ndarray,
                 registry: Optional[MetricsRegistry] = None,
                 block_rows: int = DEFAULT_BLOCK_ROWS):
        self.vectors = _as_float_matrix(vectors)
        self.registry = registry
        self.block_rows = int(block_rows)
        self._sqnorms = np.einsum("nd,nd->n", self.vectors, self.vectors)

    def _registry(self) -> MetricsRegistry:
        return self.registry or get_registry()

    def __len__(self) -> int:
        return len(self.vectors)

    def knn(self, query: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(indices, distances)`` of the k nearest vectors.

        Thin wrapper over :meth:`knn_batch` for a single query.
        """
        reg = self._registry()
        reg.counter("index.exact.queries").inc()
        with reg.span("index.exact.knn"):
            queries = _as_query_block(query, self.vectors.shape[1],
                                      self.vectors.dtype)
            idx, dists = blocked_topk(queries, self.vectors, self._sqnorms,
                                      k, self.block_rows)
            return idx[0], dists[0]

    def knn_batch(self, queries: np.ndarray, k: int,
                  block_rows: Optional[int] = None,
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched k-NN: ``(Q, d)`` queries → ``(Q, k)`` indices + distances.

        Distances for the whole block are computed via the
        ``||x||² + ||q||² − 2·X@Qᵀ`` GEMM identity, tiled over database
        rows (``block_rows``, default from the constructor) with a running
        per-query top-k merge across tiles.  Rows are ordered by
        ``(distance, index)``.
        """
        reg = self._registry()
        queries = _as_query_block(queries, self.vectors.shape[1],
                                  self.vectors.dtype)
        reg.counter("index.exact.batch_queries").inc(len(queries))
        with reg.span("index.exact.knn_batch", queries=len(queries)):
            return blocked_topk(queries, self.vectors, self._sqnorms, k,
                                block_rows or self.block_rows)


class LSHIndex:
    """Random-hyperplane LSH with exact re-ranking of candidates.

    Each of ``num_tables`` tables hashes a vector to the sign pattern of
    ``num_bits`` random projections.  Buckets are stored CSR-style per
    table — a signature-sorted permutation of the row indices plus a
    sorted array of unique signatures with offsets — so a lookup is a
    ``searchsorted`` and a slice instead of a Python dict probe, and the
    members of any bucket come back in ascending index order.

    A query scans the union of its buckets across tables.  ``knn`` falls
    back to a brute-force scan when the buckets yield fewer than ``k``
    candidates, so it never returns fewer results than requested.
    """

    def __init__(self, vectors: np.ndarray, num_tables: int = 8,
                 num_bits: int = 12, seed: int = 0,
                 registry: Optional[MetricsRegistry] = None,
                 block_rows: int = DEFAULT_BLOCK_ROWS):
        self.registry = registry
        vectors = _as_float_matrix(vectors)
        if num_tables < 1 or num_bits < 1:
            raise ValueError("num_tables and num_bits must be >= 1")
        if num_bits > 62:
            raise ValueError("num_bits must fit in an int64 signature")
        self.vectors = vectors
        self.num_tables = num_tables
        self.num_bits = num_bits
        self.block_rows = int(block_rows)
        rng = np.random.default_rng(seed)
        dim = vectors.shape[1]
        self._planes = rng.standard_normal(
            (num_tables, num_bits, dim)).astype(vectors.dtype)
        self._sqnorms = np.einsum("nd,nd->n", vectors, vectors)
        # CSR bucket storage, one triple per table.
        signatures = self._signatures_all(vectors)           # (tables, n)
        self._order: List[np.ndarray] = []   # row ids, signature-sorted
        self._keys: List[np.ndarray] = []    # unique signatures, sorted
        self._starts: List[np.ndarray] = []  # offsets, len(keys) + 1
        for t in range(num_tables):
            order = np.argsort(signatures[t], kind="stable")
            keys, starts = np.unique(signatures[t][order], return_index=True)
            self._order.append(order.astype(np.int64))
            self._keys.append(keys)
            self._starts.append(np.append(starts, len(order)).astype(np.int64))

    def _registry(self) -> MetricsRegistry:
        return self.registry or get_registry()

    def __len__(self) -> int:
        return len(self.vectors)

    def _signatures_all(self, vectors: np.ndarray) -> np.ndarray:
        """Signatures of ``(n, d)`` vectors for *all* tables: ``(tables, n)``.

        One einsum per call instead of one GEMV per (query, table).
        """
        proj = np.einsum("tbd,nd->tnb", self._planes, vectors)
        powers = (1 << np.arange(self.num_bits)).astype(np.int64)
        return (proj > 0) @ powers

    def bucket_members(self, table: int, signature: int) -> np.ndarray:
        """Row indices hashed to ``signature`` in ``table``, ascending."""
        keys = self._keys[table]
        pos = np.searchsorted(keys, signature)
        if pos == len(keys) or keys[pos] != signature:
            return np.empty(0, dtype=np.int64)
        start, stop = self._starts[table][pos], self._starts[table][pos + 1]
        return self._order[table][start:stop]

    def _candidates_for(self, signatures: np.ndarray) -> np.ndarray:
        """Sorted union of bucket members for one per-table signature row."""
        parts = [self.bucket_members(t, int(signatures[t]))
                 for t in range(self.num_tables)]
        parts = [p for p in parts if len(p)]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def candidates(self, query: np.ndarray) -> np.ndarray:
        """Union of the query's bucket members across all tables, sorted.

        Sorted ascending so candidate order — and any tie-broken result
        derived from it — is deterministic across runs.
        """
        query = _as_query_block(query, self.vectors.shape[1],
                                self.vectors.dtype)
        return self._candidates_for(self._signatures_all(query)[:, 0])

    def knn(self, query: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate k-NN: exact re-ranking of LSH candidates."""
        reg = self._registry()
        reg.counter("index.lsh.queries").inc()
        with reg.span("index.lsh.knn"):
            queries = _as_query_block(query, self.vectors.shape[1],
                                      self.vectors.dtype)
            idx, dists = self._knn_block(queries, k, reg)
            return idx[0], dists[0]

    def knn_batch(self, queries: np.ndarray, k: int,
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched approximate k-NN over a ``(Q, d)`` query block.

        Queries are grouped by their joint bucket signature — queries
        hashing identically in every table share one candidate set — and
        each group is re-ranked exactly in one blocked-GEMM top-k.
        """
        reg = self._registry()
        queries = _as_query_block(queries, self.vectors.shape[1],
                                  self.vectors.dtype)
        reg.counter("index.lsh.batch_queries").inc(len(queries))
        with reg.span("index.lsh.knn_batch", queries=len(queries)):
            return self._knn_block(queries, k, reg)

    def _knn_block(self, queries: np.ndarray, k: int,
                   reg: MetricsRegistry) -> Tuple[np.ndarray, np.ndarray]:
        num_q = len(queries)
        k_out = min(k, len(self.vectors))
        out_i = np.empty((num_q, k_out), dtype=np.int64)
        out_d = np.empty((num_q, k_out), dtype=self.vectors.dtype)
        if num_q == 0 or k_out == 0:
            return out_i, out_d
        signatures = self._signatures_all(queries).T          # (Q, tables)
        groups, inverse = np.unique(signatures, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        reg.histogram("index.lsh.query_groups").observe(len(groups))
        for g in range(len(groups)):
            members = np.flatnonzero(inverse == g)
            cand = self._candidates_for(groups[g])
            if len(cand) < k:   # not enough candidates: degrade to exact scan
                cand = np.arange(len(self.vectors))
                reg.counter("index.lsh.fallback_scans").inc(len(members))
            for _ in members:
                reg.histogram("index.lsh.candidates").observe(len(cand))
            local_i, dists = blocked_topk(
                queries[members], self.vectors[cand],
                self._sqnorms[cand], k_out, self.block_rows)
            out_i[members] = cand[local_i]
            out_d[members] = dists
        return out_i, out_d
