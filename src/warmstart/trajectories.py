"""k-trajectory benchmark objects: day assignments, predictions, cost."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import row_distances


@dataclass(eq=False)
class TrajectorySet:
    """Days 1..t assigned to k trajectories, with a prediction for each day,
    as arrays in day order: ``assignment`` (t,) holds each day's trajectory,
    in 1..k, and ``predictions`` (t, dim) its prediction.

    Every trajectory implicitly starts at the all-zeros origin point; the
    first move of each trajectory is charged from there.
    """

    k: int
    assignment: np.ndarray
    predictions: np.ndarray

    @property
    def T(self) -> int:
        return len(self.assignment)


def trajectory_cost(
    traj: TrajectorySet, solutions: np.ndarray, norm: str
) -> tuple[float, float, float]:
    """(hit, movement, total) cost of a trajectory set against the solutions,
    whose row t - 1 is day t's (``Scenario.coords[1:]``).

    Hit cost sums each day's prediction-to-solution distance, by day;
    movement cost sums the distance each trajectory travels between its
    consecutive days, starting from the origin, trajectory by trajectory.
    Both sums run left to right, as a scalar ``total +=`` loop adds.
    """
    P = traj.predictions
    if len(solutions) < len(P):
        raise ValueError(f"missing solution for day {len(solutions) + 1}")
    order = np.argsort(traj.assignment, kind="stable")  # by trajectory, then day
    path = P[order]
    prev = np.zeros_like(path)
    prev[1:] = path[:-1]
    a = traj.assignment[order]
    prev[1:][a[1:] != a[:-1]] = 0.0  # each trajectory's first day moves from the origin
    hit = float(np.cumsum(row_distances(P, solutions[: len(P)], norm))[-1])
    movement = float(np.cumsum(row_distances(prev, path, norm))[-1])
    return hit, movement, hit + movement
