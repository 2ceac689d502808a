"""The paper's trajectory degradation transforms (Sections IV-B and V-A).

* :func:`downsample` — drop interior points with probability ``r1``,
  always keeping the first and last points ("the start and end points of
  Tb are preserved in Ta to avoid changing the underlying route").
* :func:`distort` — pick a fraction ``r2`` of points and add Gaussian
  noise with a 30 m radius (Eq. 3).
* :func:`drop_mask` / :func:`distort_points` — the array kernels behind
  the two transforms, shared with the training-data pipeline
  (:mod:`repro.data.pipeline`) so both draw identically.
* :func:`alternating_split` — Figure 4: split ``Tb`` into ``Ta`` (odd
  points) and ``Ta'`` (even points); the two halves share the underlying
  route, which is the basis of the most-similar-search experiments.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .trajectory import Trajectory

DISTORTION_RADIUS_M = 30.0
"""Gaussian noise radius used by the paper (Eq. 3)."""

#: The paper's training grid (Section V-A): every original is paired with
#: its degraded variant at each r1 x r2 combination, 16 pairs per original.
DEFAULT_DROPPING_RATES: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6)
DEFAULT_DISTORTING_RATES: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6)


def check_dropping_rate(rate: float) -> None:
    """Reject a dropping rate r1 outside ``[0, 1)``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropping rate must be in [0, 1), got {rate}")


def check_distorting_rate(rate: float) -> None:
    """Reject a distorting rate r2 outside ``[0, 1]``."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"distorting rate must be in [0, 1], got {rate}")


def drop_mask(n: int, rate: float,
              rng: np.random.Generator) -> Optional[np.ndarray]:
    """Array kernel of :func:`downsample`: which of ``n`` points survive.

    Returns a boolean mask with both endpoints set, or ``None`` (and
    draws nothing) when every point survives: ``rate=0`` or ``n <= 2``.
    """
    check_dropping_rate(rate)
    if rate == 0.0 or n <= 2:
        return None
    keep = rng.random(n) >= rate
    keep[0] = True
    keep[-1] = True
    return keep


def distort_points(points: np.ndarray, rate: float, rng: np.random.Generator,
                   radius: float = DISTORTION_RADIUS_M) -> np.ndarray:
    """Array kernel of :func:`distort`: Eq. 3 on a fraction ``rate`` of rows.

    Returns ``points`` itself when no row is selected, else a new array.
    """
    check_distorting_rate(rate)
    if rate == 0.0:
        return points
    selected = rng.random(len(points)) < rate
    if not selected.any():
        return points
    points = points.copy()
    noise = rng.standard_normal((int(selected.sum()), 2)) * radius
    points[selected] += noise
    return points


def downsample(trajectory: Trajectory, rate: float,
               rng: Optional[np.random.Generator] = None) -> Trajectory:
    """Randomly drop interior points with probability ``rate`` (r1).

    Endpoints are always preserved, and so are the surviving points'
    timestamps and the ids.  ``rate=0`` returns the trajectory unchanged.
    """
    keep = drop_mask(len(trajectory), rate, rng or np.random.default_rng())
    if keep is None:
        return trajectory
    return trajectory.subsequence(np.flatnonzero(keep))


def distort(trajectory: Trajectory, rate: float,
            rng: Optional[np.random.Generator] = None,
            radius: float = DISTORTION_RADIUS_M) -> Trajectory:
    """Distort a random fraction ``rate`` (r2) of the points (Eq. 3).

    Each selected point ``(px, py)`` becomes ``(px + radius * dx,
    py + radius * dy)`` with ``dx, dy ~ N(0, 1)``.
    """
    points = distort_points(trajectory.points, rate,
                            rng or np.random.default_rng(), radius)
    if points is trajectory.points:
        return trajectory
    return trajectory.with_points(points)


def degrade(trajectory: Trajectory, dropping_rate: float, distorting_rate: float,
            rng: Optional[np.random.Generator] = None,
            radius: float = DISTORTION_RADIUS_M) -> Trajectory:
    """Down-sample then distort — the full Ta construction of Section IV-B."""
    rng = rng or np.random.default_rng()
    return distort(downsample(trajectory, dropping_rate, rng),
                   distorting_rate, rng, radius=radius)


def alternating_split(trajectory: Trajectory) -> Tuple[Trajectory, Trajectory]:
    """Figure 4: ``Ta`` takes points 0, 2, 4, ...; ``Ta'`` takes 1, 3, 5, ...

    Both halves are sampled from the same underlying route, so in the
    most-similar-search experiments ``Ta'`` is the ground-truth top-1
    neighbour of ``Ta``.
    """
    if len(trajectory) < 4:
        raise ValueError(
            f"alternating split needs >= 4 points, got {len(trajectory)}")
    odd = np.arange(0, len(trajectory), 2)
    even = np.arange(1, len(trajectory), 2)
    return trajectory.subsequence(odd), trajectory.subsequence(even)
