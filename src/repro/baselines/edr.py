"""Edit Distance on Real sequences (Chen et al., SIGMOD 2005).

Two points match when they fall within ``epsilon`` in *both* coordinates
(the original paper's per-dimension threshold — this is the implicit
space partitioning the introduction of t2vec describes).  The distance is
the minimum number of insert/delete/substitute operations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..data.trajectory import Trajectory
from .base import TrajectoryDistance, anti_diagonals, stack_padded


def suggest_epsilon(trajectories: Sequence[Trajectory], fraction: float = 0.25) -> float:
    """Heuristic from the EDR paper: a fraction of the pooled coordinate std.

    Chen et al. report that ``eps`` equal to a quarter of the (minimum)
    coordinate standard deviation works well across datasets.
    """
    points = np.concatenate([t.points for t in trajectories], axis=0)
    return float(fraction * min(points[:, 0].std(), points[:, 1].std()))


class EDR(TrajectoryDistance):
    """EDR with matching threshold ``epsilon`` (meters)."""

    name = "EDR"

    def __init__(self, epsilon: float):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon

    def distance(self, a: Trajectory, b: Trajectory) -> float:
        return float(self.distance_to_many(a, [b])[0])

    def distance_to_many(self, query: Trajectory,
                         candidates: Sequence[Trajectory]) -> np.ndarray:
        points, lengths = stack_padded(candidates)
        diff = np.abs(query.points[None, :, None, :] - points[:, None, :, :])
        match = (diff <= self.epsilon).all(axis=3)         # (N, n, L)
        big_n, n, max_len = match.shape
        dp = np.zeros((big_n, n + 1, max_len + 1))
        dp[:, :, 0] = np.arange(n + 1)[None, :]
        dp[:, 0, :] = np.arange(max_len + 1)[None, :]
        for i, j in anti_diagonals(n, max_len):
            sub = dp[:, i, j] + (1.0 - match[:, i, j])
            gap = np.minimum(dp[:, i, j + 1], dp[:, i + 1, j]) + 1.0
            dp[:, i + 1, j + 1] = np.minimum(sub, gap)
        return dp[np.arange(big_n), n, lengths]
