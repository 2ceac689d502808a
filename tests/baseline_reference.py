"""Plain-loop dynamic programs: the oracles for the wavefront kernels.

Each DP measure in :mod:`repro.baselines` computes its distances with one
vectorized anti-diagonal kernel (``distance_to_many``).  The functions
here fill the same DP table cell by cell in Python, from the measures'
published definitions, so the parity tests compare two independent
derivations.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import DTW, EDR, ERP, LCSS, TrajectoryDistance
from repro.data import Trajectory


def point_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances: ``(n, 2) x (m, 2) -> (n, m)``."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def matches(a: np.ndarray, b: np.ndarray, epsilon: float) -> np.ndarray:
    """(n, m) boolean: per-dimension |Δ| <= eps on both axes."""
    diff = np.abs(a[:, None, :] - b[None, :, :])
    return (diff <= epsilon).all(axis=2)


def dtw(a: Trajectory, b: Trajectory) -> float:
    cost = point_dists(a.points, b.points)
    n, m = cost.shape
    dp = np.full((n + 1, m + 1), np.inf)
    dp[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dp[i, j] = cost[i - 1, j - 1] + min(
                dp[i - 1, j], dp[i, j - 1], dp[i - 1, j - 1])
    return float(dp[n, m])


def edr(a: Trajectory, b: Trajectory, epsilon: float) -> float:
    match = matches(a.points, b.points, epsilon)
    n, m = match.shape
    dp = np.zeros((n + 1, m + 1))
    dp[:, 0] = np.arange(n + 1)
    dp[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dp[i - 1, j - 1] + (0.0 if match[i - 1, j - 1] else 1.0)
            dp[i, j] = min(sub, dp[i - 1, j] + 1.0, dp[i, j - 1] + 1.0)
    return float(dp[n, m])


def lcss(a: Trajectory, b: Trajectory, epsilon: float) -> float:
    match = matches(a.points, b.points, epsilon)
    n, m = match.shape
    table = np.zeros((n + 1, m + 1), dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if match[i - 1, j - 1]:
                table[i, j] = table[i - 1, j - 1] + 1
            else:
                table[i, j] = max(table[i - 1, j], table[i, j - 1])
    return 1.0 - int(table[n, m]) / min(n, m)


def erp(a: Trajectory, b: Trajectory, gap_point: np.ndarray) -> float:
    cost = point_dists(a.points, b.points)
    gap_a = np.sqrt(((a.points - gap_point) ** 2).sum(axis=1))
    gap_b = np.sqrt(((b.points - gap_point) ** 2).sum(axis=1))
    n, m = cost.shape
    dp = np.zeros((n + 1, m + 1))
    dp[1:, 0] = np.cumsum(gap_a)
    dp[0, 1:] = np.cumsum(gap_b)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dp[i, j] = min(
                dp[i - 1, j - 1] + cost[i - 1, j - 1],
                dp[i - 1, j] + gap_a[i - 1],
                dp[i, j - 1] + gap_b[j - 1],
            )
    return float(dp[n, m])


def reference_distance(measure: TrajectoryDistance, a: Trajectory,
                       b: Trajectory) -> float:
    """The loop-DP distance of ``measure`` for one pair.

    Measures without a loop oracle here (EDwP, CMS) fall back to their
    own ``distance``.
    """
    if isinstance(measure, DTW):
        return dtw(a, b)
    if isinstance(measure, EDR):
        return edr(a, b, measure.epsilon)
    if isinstance(measure, LCSS):
        return lcss(a, b, measure.epsilon)
    if isinstance(measure, ERP):
        return erp(a, b, measure.gap_point)
    return measure.distance(a, b)
