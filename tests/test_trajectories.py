import random

import numpy as np
import pytest

from warmstart.metric import L1, NORMS, Point, distance, origin
from warmstart.scenarios import gen_drifting_trajectories, traj_from_jsonable
from warmstart.trajectories import TrajectorySet, trajectory_cost


def _traj(k, assignment, predictions):
    """A trajectory set of days 1..t from its per-day lists."""
    return TrajectorySet(k, np.array(assignment), np.array(predictions, dtype=float))


def reference_trajectory_cost(traj, solutions, norm):
    """Reference: the cost as scalar ``distance`` calls over Points, hits
    day by day into one running sum, then the moves of each trajectory in
    turn, from the origin, into another."""
    preds = [Point(p) for p in traj.predictions.tolist()]
    sols = [Point(s) for s in solutions.tolist()]
    assignment = traj.assignment.tolist()
    hit = 0.0
    movement = 0.0
    for t in range(len(assignment)):
        if t >= len(sols):
            raise ValueError(f"missing solution for day {t + 1}")
        hit += distance(preds[t], sols[t], norm)
    for i in range(1, traj.k + 1):
        prev = origin(traj.predictions.shape[1])
        for t in [t for t, a in enumerate(assignment) if a == i]:
            movement += distance(prev, preds[t], norm)
            prev = preds[t]
    return hit, movement, hit + movement


def test_hand_cost_single_trajectory():
    traj = _traj(1, [1, 1, 1], [[0.0], [3.0], [5.0]])
    sols = np.array([[0.0], [4.0], [5.0]])
    hit, movement, total = trajectory_cost(traj, sols, L1)
    assert hit == pytest.approx(1.0)  # only day 2 misses, by 1
    assert movement == pytest.approx(5.0)  # 0 -> 0 -> 3 -> 5
    assert total == pytest.approx(6.0)


def test_hand_cost_two_trajectories():
    traj = _traj(2, [1, 2, 1], [[10.0], [-4.0], [12.0]])
    sols = np.array([[10.0], [-4.0], [12.0]])
    hit, movement, total = trajectory_cost(traj, sols, L1)
    assert hit == 0.0
    # trajectory 1: 0 -> 10 -> 12; trajectory 2: 0 -> -4
    assert movement == pytest.approx(16.0)
    assert total == pytest.approx(16.0)


def test_assignment_must_cover_days():
    def parse(assignment, predictions, k=1):
        return traj_from_jsonable({"k": k, "assignment": assignment, "predictions": predictions}, 1)

    with pytest.raises(ValueError, match="cover days"):
        parse({"1": 1, "3": 1}, {"1": [0.0], "3": [0.0]})
    with pytest.raises(ValueError, match="trajectories 1..k"):
        parse({"1": 2}, {"1": [0.0]})
    with pytest.raises(ValueError, match="assigned days"):
        parse({"1": 1}, {})
    # a prediction for a day the assignment does not cover
    with pytest.raises(ValueError, match="assigned days"):
        parse({"1": 1, "2": 1}, {"0": [5.0], "1": [0.0], "2": [0.0], "99": [5.0]})
    with pytest.raises(ValueError, match="non-finite"):
        parse({"1": 1}, {"1": [float("inf")]})
    traj = parse({"2": 2, "10": 1, "1": 1, **{str(t): 2 for t in range(3, 10)}}, {str(t): [t] for t in range(1, 11)}, k=2)
    assert traj.assignment.tolist() == [1, 2] + [2] * 7 + [1]
    assert traj.predictions.tolist() == [[float(t)] for t in range(1, 11)]


def test_missing_solution_rejected():
    traj = _traj(1, [1], [[0.0]])
    with pytest.raises(ValueError, match="missing solution for day 1"):
        trajectory_cost(traj, np.zeros((0, 1)), L1)


def test_array_cost_is_the_scalar_reference_in_repr():
    # Drifting scenarios at every norm, dim and k, from T = 1 up, with the
    # planted set as generated, cut shorter than T, and given a trajectory
    # with no days (k one larger).
    rng = random.Random(151)
    for seed in range(1, 13):
        for norm in NORMS:
            for dim in (1, 2, 3):
                k = rng.randint(1, 3)
                T = rng.choice((1, 2, 5, 17, 40))
                scen = gen_drifting_trajectories(seed, k=k, drift_per_day=rng.choice((0.0, 0.5, 3.0)), noise=0.5, T=T, dim=dim, norm=norm)
                p = scen.planted
                t = rng.randint(1, T)
                for traj in (p, TrajectorySet(k, p.assignment[:t], p.predictions[:t]), TrajectorySet(k + 1, p.assignment, p.predictions)):
                    got = trajectory_cost(traj, scen.coords[1:], norm)
                    assert repr(got) == repr(reference_trajectory_cost(traj, scen.coords[1:], norm)), (seed, norm, dim, k, T)
    # trajectories whose days interleave out of order, on an integer grid with repeats
    for case in range(300):
        norm, dim, k, T = NORMS[case % 3], rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 12)
        traj = _traj(k, [rng.randint(1, k) for _ in range(T)], [[rng.randint(-2, 2) * 0.5 for _ in range(dim)] for _ in range(T)])
        sols = np.array([[rng.uniform(-3, 3) for _ in range(dim)] for _ in range(T + rng.randint(0, 2))])
        assert repr(trajectory_cost(traj, sols, norm)) == repr(reference_trajectory_cost(traj, sols, norm)), case
