"""Longest Common SubSequence similarity (Vlachos et al., ICDE 2002).

Points match within ``epsilon`` per dimension; the similarity is the LCSS
length, turned into a distance ``1 - LCSS / min(n, m)`` so that all
measures in the library are "smaller = more similar".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..data.trajectory import Trajectory
from .base import TrajectoryDistance, anti_diagonals, stack_padded


class LCSS(TrajectoryDistance):
    """LCSS distance with matching threshold ``epsilon`` (meters)."""

    name = "LCSS"

    def __init__(self, epsilon: float):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon

    def similarity(self, a: Trajectory, b: Trajectory) -> int:
        """Raw LCSS length (number of matched point pairs)."""
        lcss = (1.0 - self.distance_to_many(a, [b])[0]) * min(len(a), len(b))
        return int(round(lcss))

    def distance(self, a: Trajectory, b: Trajectory) -> float:
        return float(self.distance_to_many(a, [b])[0])

    def distance_to_many(self, query: Trajectory,
                         candidates: Sequence[Trajectory]) -> np.ndarray:
        points, lengths = stack_padded(candidates)
        diff = np.abs(query.points[None, :, None, :] - points[:, None, :, :])
        match = (diff <= self.epsilon).all(axis=3)         # (N, n, L)
        big_n, n, max_len = match.shape
        table = np.zeros((big_n, n + 1, max_len + 1))
        for i, j in anti_diagonals(n, max_len):
            extend = table[:, i, j] + 1.0
            skip = np.maximum(table[:, i, j + 1], table[:, i + 1, j])
            table[:, i + 1, j + 1] = np.where(match[:, i, j], extend, skip)
        lcss = table[np.arange(big_n), n, lengths]
        return 1.0 - lcss / np.minimum(len(query), lengths)
