import random
from itertools import product

import pytest

from warmstart.baselines import (
    WorkFunctionState,
    brute_force_best_trajectories,
    offline_opt_kserver,
    wfa_step,
)
from warmstart.errors import CapExceeded
from warmstart.metric import L1, L2, NORMS, Point, distance, origin
from warmstart.trajectories import trajectory_cost


def independent_kserver_opt(solutions, k, norm):
    """Reference: enumerate every assignment of requests to servers.

    With k servers starting at the origin and each serving its requests in
    arrival order, the cheapest assignment is the offline optimum.
    """
    o = origin(solutions[0].dim)
    best = float("inf")
    for assign in product(range(k), repeat=len(solutions)):
        pos = [o] * k
        cost = 0.0
        for req, j in zip(solutions, assign):
            cost += distance(pos[j], req, norm)
            pos[j] = req
        best = min(best, cost)
    return best


def _rand_points(rng, T, dim, spread=15.0):
    return [
        Point(tuple(rng.uniform(-spread, spread) for _ in range(dim)))
        for _ in range(T)
    ]


def test_flow_optimum_matches_exhaustive():
    rng = random.Random(37)
    for _ in range(60):
        T = rng.randint(1, 5)
        k = rng.randint(1, 3)
        dim = rng.randint(1, 3)
        norm = rng.choice(NORMS)
        sols = _rand_points(rng, T, dim)
        got = offline_opt_kserver(sols, k, norm)
        exp = independent_kserver_opt(sols, k, norm)
        assert got == pytest.approx(exp, abs=1e-6)


def test_flow_optimum_hand_example():
    # two far requests, two servers: each server takes one
    sols = [Point.of(10.0), Point.of(-10.0)]
    assert offline_opt_kserver(sols, 2, L1) == pytest.approx(20.0)
    assert offline_opt_kserver(sols, 1, L1) == pytest.approx(30.0)


def test_extra_servers_never_hurt():
    rng = random.Random(53)
    sols = _rand_points(rng, 5, 2)
    costs = [offline_opt_kserver(sols, k, L2) for k in (1, 2, 3, 4)]
    assert costs == sorted(costs, reverse=True)


def test_brute_force_trajectories_witness_consistent():
    rng = random.Random(61)
    for _ in range(25):
        T = rng.randint(1, 6)
        k = rng.randint(1, 3)
        norm = rng.choice(NORMS)
        sols = _rand_points(rng, T, 1)
        cost, witness = brute_force_best_trajectories(sols, k, norm)
        sol_map = {t + 1: s for t, s in enumerate(sols)}
        _, _, total = trajectory_cost(witness, sol_map, norm)
        assert total == pytest.approx(cost, abs=1e-9)


def test_trajectories_k1_stationary_beats_chasing():
    # staying at 0 pays hit 100 twice (200); chasing pays movement 300
    sols = [Point.of(0.0), Point.of(100.0), Point.of(-100.0)]
    cost, witness = brute_force_best_trajectories(sols, 1, L1)
    assert cost == pytest.approx(200.0)
    sol_map = {t + 1: s for t, s in enumerate(sols)}
    hit, movement, total = trajectory_cost(witness, sol_map, L1)
    assert total == pytest.approx(200.0)


def test_trajectories_cap():
    sols = [Point.of(float(i)) for i in range(9)]
    with pytest.raises(CapExceeded):
        brute_force_best_trajectories(sols, 1, L2)
    with pytest.raises(CapExceeded):
        brute_force_best_trajectories(sols[:4], 4, L2)


def test_sandwich_against_kserver_opt():
    rng = random.Random(71)
    for _ in range(30):
        T = rng.randint(1, 6)
        k = rng.randint(1, 3)
        norm = rng.choice(NORMS)
        sols = _rand_points(rng, T, 2)
        traj, _ = brute_force_best_trajectories(sols, k, norm)
        server = offline_opt_kserver(sols, k, norm)
        assert traj <= server + 1e-9
        assert server <= 2 * traj + 1e-9


def test_wfa_single_server_chases_requests():
    state = WorkFunctionState(1, 1, L1)
    reqs = [Point.of(5.0), Point.of(2.0), Point.of(9.0)]
    moves = [wfa_step(state, r) for r in reqs]
    assert [m[0] for m in moves] == [0, 0, 0]
    assert [m[1] for m in moves] == pytest.approx([5.0, 3.0, 7.0])


def test_wfa_two_servers_split_far_clusters():
    state = WorkFunctionState(2, 1, L1)
    total = 0.0
    for r in [Point.of(0.0), Point.of(100.0), Point.of(1.0), Point.of(99.0)]:
        _, move = wfa_step(state, r)
        total += move
    # after warmup, one server stays near each cluster
    assert total <= 102.0 + 1e-9
    assert sorted(state.points[i][0] for i in state.config) == [1.0, 99.0]


def test_wfa_work_function_values_stay_sane():
    rng = random.Random(83)
    state = WorkFunctionState(2, 1, L2)
    prev_min = 0.0
    for _ in range(8):
        wfa_step(state, Point.of(rng.uniform(-10, 10)))
        values = state.table.values()
        assert all(v >= -1e-9 for v in values)
        cur_min = min(values)
        assert cur_min >= prev_min - 1e-9  # optimal offline cost is monotone
        prev_min = cur_min


def test_wfa_cached_distances_are_the_direct_ones():
    rng = random.Random(89)
    for norm in NORMS:
        state = WorkFunctionState(2, 2, norm)
        for _ in range(6):
            wfa_step(state, Point.of(float(rng.randint(-3, 3)), rng.uniform(-5, 5)))
        pts = state.points
        assert state.dist == [[distance(a, b, norm) for b in pts] for a in pts]


def test_wfa_caps():
    with pytest.raises(CapExceeded):
        WorkFunctionState(4, 1, L2)
    state = WorkFunctionState(1, 1, L2)
    with pytest.raises(CapExceeded):
        for i in range(20):
            wfa_step(state, Point.of(float(i + 1)))
