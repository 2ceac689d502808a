"""Edit distance with Real Penalty (Chen & Ng, VLDB 2004).

ERP is a metric: gaps are penalized by the distance to a fixed gap point
``g`` (here the centroid of the data, or a user-supplied point), and
substitutions by the real inter-point distance.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..data.trajectory import Trajectory
from .base import (TrajectoryDistance, anti_diagonals, batched_cost_tensor,
                   stack_padded)


class ERP(TrajectoryDistance):
    """ERP with gap point ``g`` (defaults to the origin of the meter plane)."""

    name = "ERP"

    def __init__(self, gap_point: Optional[np.ndarray] = None):
        self.gap_point = (np.zeros(2) if gap_point is None
                          else np.asarray(gap_point, dtype=float).reshape(2))

    def _gap_costs(self, points: np.ndarray) -> np.ndarray:
        return np.sqrt(((points - self.gap_point) ** 2).sum(axis=-1))

    def distance(self, a: Trajectory, b: Trajectory) -> float:
        return float(self.distance_to_many(a, [b])[0])

    def distance_to_many(self, query: Trajectory,
                         candidates: Sequence[Trajectory]) -> np.ndarray:
        points, lengths = stack_padded(candidates)
        cost = batched_cost_tensor(query.points, points)   # (N, n, L)
        gap_q = self._gap_costs(query.points)              # (n,)
        gap_c = self._gap_costs(points)                    # (N, L)
        big_n, n, max_len = cost.shape
        dp = np.zeros((big_n, n + 1, max_len + 1))
        dp[:, 1:, 0] = np.cumsum(gap_q)[None, :]
        dp[:, 0, 1:] = np.cumsum(gap_c, axis=1)
        for i, j in anti_diagonals(n, max_len):
            best = np.minimum(
                dp[:, i, j] + cost[:, i, j],
                np.minimum(dp[:, i, j + 1] + gap_q[i],
                           dp[:, i + 1, j] + gap_c[:, j]),
            )
            dp[:, i + 1, j + 1] = best
        return dp[np.arange(big_n), n, lengths]
