"""Common machinery for trajectory distance measures.

Every measure implements :class:`TrajectoryDistance`:

* ``distance(a, b)`` — the distance of one pair.
* ``distance_to_many(query, candidates)`` — the query's distance to an
  entire database in one shot, used by the evaluation harness.

The DP measures (DTW, EDR, LCSS, ERP, EDwP) have one implementation
each: ``distance_to_many`` pads the candidates and runs the dynamic
program over anti-diagonal wavefronts with numpy, and ``distance`` calls
it with a single candidate.  The test suite pins every wavefront kernel
to an independent plain-loop DP oracle kept in ``tests/``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence, Tuple

import numpy as np

from ..data.trajectory import Trajectory

INF = np.inf


def stack_padded(trajectories: Sequence[Trajectory]) -> Tuple[np.ndarray, np.ndarray]:
    """Stack trajectories into ``(N, L_max, 2)`` padded with the last point.

    Padding with the final point (rather than zeros) keeps vectorized cost
    tensors finite; the DP reads results at each trajectory's true length,
    so padded cells never influence the answer.
    """
    lengths = np.array([len(t) for t in trajectories], dtype=np.int64)
    max_len = int(lengths.max())
    out = np.empty((len(trajectories), max_len, 2))
    for k, traj in enumerate(trajectories):
        n = len(traj)
        out[k, :n] = traj.points
        out[k, n:] = traj.points[-1]
    return out, lengths


def batched_cost_tensor(query: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Distance tensor ``(N, n, L)``: query point i vs candidate k point j."""
    diff = query[None, :, None, :] - candidates[:, None, :, :]
    return np.sqrt((diff ** 2).sum(axis=3))


def anti_diagonals(n: int, m: int):
    """Yield ``(I, J)`` index vectors for each anti-diagonal of an (n, m) grid."""
    for d in range(n + m - 1):
        lo = max(0, d - m + 1)
        hi = min(n - 1, d)
        i = np.arange(lo, hi + 1)
        yield i, d - i


class TrajectoryDistance(ABC):
    """Interface shared by t2vec and all baselines."""

    #: Short display name used in experiment tables.
    name: str = "distance"

    @abstractmethod
    def distance(self, a: Trajectory, b: Trajectory) -> float:
        """Distance between one pair of trajectories (lower = more similar)."""

    def distance_to_many(self, query: Trajectory,
                         candidates: Sequence[Trajectory]) -> np.ndarray:
        """Distances from ``query`` to every candidate.

        The base implementation loops; DP measures override it with a
        vectorized wavefront version.
        """
        return np.array([self.distance(query, c) for c in candidates])

    def distance_matrix(self, queries: Sequence[Trajectory],
                        candidates: Sequence[Trajectory]) -> np.ndarray:
        """All query-candidate distances as a ``(Q, N)`` matrix.

        The base implementation runs ``distance_to_many`` per query (the
        DP measures' batching axis is the candidate set); vector-space
        measures override it with one blocked GEMM over encoded queries.
        """
        if len(queries) == 0:
            return np.zeros((0, len(candidates)))
        return np.stack([self.distance_to_many(q, candidates)
                         for q in queries])

    def knn(self, query: Trajectory, candidates: Sequence[Trajectory],
            k: int) -> np.ndarray:
        """Indices of the k nearest candidates, nearest first."""
        dists = self.distance_to_many(query, candidates)
        k = min(k, len(dists))
        idx = np.argpartition(dists, k - 1)[:k]
        return idx[np.argsort(dists[idx], kind="stable")]

    def knn_batch(self, queries: Sequence[Trajectory],
                  candidates: Sequence[Trajectory], k: int) -> np.ndarray:
        """k nearest candidates for every query: ``(Q, min(k, N))`` indices.

        Row ``i`` equals ``knn(queries[i], candidates, k)`` — the per-row
        partition and stable sort are the same operations the single-query
        path applies, so results (ties included) are identical.
        """
        dists = self.distance_matrix(queries, candidates)
        k = min(k, dists.shape[1])
        if k < 1:
            return np.zeros((len(queries), 0), dtype=np.int64)
        if k < dists.shape[1]:
            idx = np.argpartition(dists, k - 1, axis=1)[:, :k]
        else:
            idx = np.broadcast_to(np.arange(k), (len(queries), k))
        rows = np.arange(len(queries))[:, None]
        order = np.argsort(dists[rows, idx], axis=1, kind="stable")
        return np.ascontiguousarray(idx[rows, order])

    def rank_of(self, query: Trajectory, candidates: Sequence[Trajectory],
                target_index: int) -> int:
        """1-based rank of ``candidates[target_index]`` in the query's result list.

        Ties are counted optimistically (strictly smaller distances only),
        which treats all measures uniformly in the mean-rank experiments.
        """
        dists = self.distance_to_many(query, candidates)
        return int((dists < dists[target_index]).sum()) + 1

    def rank_of_many(self, queries: Sequence[Trajectory],
                     candidates: Sequence[Trajectory],
                     target_indices: Sequence[int]) -> np.ndarray:
        """1-based rank of each query's target, computed in one batch.

        Same optimistic tie rule as :meth:`rank_of`; one ``distance_matrix``
        call serves every query.
        """
        dists = self.distance_matrix(queries, candidates)
        targets = np.asarray(target_indices, dtype=np.int64)
        own = dists[np.arange(len(dists)), targets]
        return (dists < own[:, None]).sum(axis=1).astype(np.int64) + 1
