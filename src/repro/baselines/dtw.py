"""Dynamic Time Warping (Yi et al., ICDE 1998).

The classic local-time-shift measure.  The paper excludes DTW from its
experiment tables (it is dominated by EDR on trajectory data) but we
implement it for completeness — it is the canonical pairwise
point-matching baseline and useful for users comparing measures.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..data.trajectory import Trajectory
from .base import (INF, TrajectoryDistance, anti_diagonals,
                   batched_cost_tensor, stack_padded)


class DTW(TrajectoryDistance):
    """Unconstrained DTW with Euclidean point costs."""

    name = "DTW"

    def distance(self, a: Trajectory, b: Trajectory) -> float:
        return float(self.distance_to_many(a, [b])[0])

    def distance_to_many(self, query: Trajectory,
                         candidates: Sequence[Trajectory]) -> np.ndarray:
        points, lengths = stack_padded(candidates)
        cost = batched_cost_tensor(query.points, points)   # (N, n, L)
        big_n, n, max_len = cost.shape
        dp = np.full((big_n, n + 1, max_len + 1), INF)
        dp[:, 0, 0] = 0.0
        for i, j in anti_diagonals(n, max_len):
            prev = np.minimum(
                np.minimum(dp[:, i, j + 1], dp[:, i + 1, j]),
                dp[:, i, j])
            dp[:, i + 1, j + 1] = cost[:, i, j] + prev
        return dp[np.arange(big_n), n, lengths]
