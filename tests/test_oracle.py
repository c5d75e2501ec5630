import random

import pytest

from warmstart.metric import L2, NORMS, Point, distance, search_steps
from warmstart.oracle import (
    HiddenInstance,
    SearchThread,
    hidden_solution,
    required_steps,
    run_parallel_k,
    run_parallel_k_detail,
)


def _inst(sol, preds_dim=None, norm=L2, day=1):
    return HiddenInstance(day, Point.of(*([0.0] * sol.dim)), sol, norm)


def independent_round_robin(needed: list[int]):
    """Hand simulation of sweep-synchronous parallel search.

    Given the per-thread step requirements, returns (total, winner, sweeps)
    with every thread stepping once per sweep and the earliest-in-list
    completion at sweep end winning.
    """
    sweeps = min(needed)
    winner = needed.index(sweeps)
    total = sweeps * len(needed)
    return total, winner, sweeps


def stepped_round_robin(inst, preds):
    """Reference: the round-robin loop itself, one SearchThread per
    prediction stepped a unit at a time, in list order, sweep by sweep."""
    if not preds:
        raise ValueError("need at least one prediction")
    threads = [SearchThread(inst, p) for p in preds]
    sweeps = 0
    while True:
        sweeps += 1
        winner = None
        for idx, t in enumerate(threads):
            if t.step() and winner is None:
                winner = idx
        if winner is not None:
            total = sum(t.radius for t in threads)
            return threads[winner].result(), total, winner, sweeps


def _grid_point(rng, dim):
    return Point(tuple(float(rng.randint(-3, 3)) for _ in range(dim)))


def test_closed_form_matches_stepped_round_robin():
    # Integer grids make ties, integer distances at the ceil boundary, zero
    # distances (the one-step floor) and duplicate predictions common.
    rng = random.Random(17)
    seen = {"tie": 0, "zero": 0, "duplicate": 0, "integer": 0}
    for norm in NORMS:
        for dim in (1, 2, 3):
            for k in range(1, 7):
                for _ in range(60):
                    sol = _grid_point(rng, dim)
                    preds = [_grid_point(rng, dim) for _ in range(k)]
                    inst = HiddenInstance(1, Point((0.0,) * dim), sol, norm)
                    assert run_parallel_k_detail(inst, preds) == stepped_round_robin(inst, preds)
                    needed = [search_steps(p, sol, norm) for p in preds]
                    seen["tie"] += needed.count(min(needed)) > 1
                    seen["zero"] += sol in preds
                    seen["duplicate"] += len(set(preds)) < k
                    seen["integer"] += any(
                        needed[i] > 1 and float(needed[i]) == distance(p, sol, norm)
                        for i, p in enumerate(preds)
                    )
    assert all(n >= 50 for n in seen.values()), seen


def test_single_thread_steps_and_result_guard():
    inst = _inst(Point.of(7.0))
    t = SearchThread(inst, Point.of(0.0))
    with pytest.raises(RuntimeError):
        t.result()
    for _ in range(6):
        assert not t.step()
    assert t.step()
    assert t.result() == Point.of(7.0)
    with pytest.raises(RuntimeError):
        t.step()


def test_advance_takes_many_steps_but_never_past_completion():
    inst = _inst(Point.of(7.0))
    t = SearchThread(inst, Point.of(0.0))
    assert not t.advance(0) and not t.advance(4)
    assert t.radius == 4
    with pytest.raises(RuntimeError):
        t.advance(4)
    with pytest.raises(RuntimeError):
        t.advance(-1)
    assert t.radius == 4
    with pytest.raises(RuntimeError):
        t.result()
    assert t.advance(3)
    assert t.result() == Point.of(7.0)
    with pytest.raises(RuntimeError):
        t.advance(1)


def test_exact_prediction_pays_one_step():
    inst = _inst(Point.of(3.0, 4.0))
    t = SearchThread(inst, Point.of(3.0, 4.0))
    assert t.step()
    assert t.radius == 1


def test_parallel_example_far_solution():
    # predictions 0 and 10, solution 7: needs 7 and 3 steps
    inst = _inst(Point.of(7.0))
    sol, total, winner, sweeps = run_parallel_k_detail(
        inst, [Point.of(0.0), Point.of(10.0)]
    )
    assert (sol, total, winner, sweeps) == (Point.of(7.0), 6, 1, 3)


def test_parallel_example_solution_at_prediction():
    inst = _inst(Point.of(10.0))
    sol, total, winner, sweeps = run_parallel_k_detail(
        inst, [Point.of(0.0), Point.of(10.0)]
    )
    assert (sol, total, winner, sweeps) == (Point.of(10.0), 2, 1, 1)


def test_parallel_tie_goes_to_earliest_in_list():
    inst = _inst(Point.of(5.0))
    _, _, winner, _ = run_parallel_k_detail(
        inst, [Point.of(2.0), Point.of(8.0), Point.of(5.0)]
    )
    # all three need 3, 3, 1 steps; only the third completes first
    assert winner == 2
    _, _, winner, _ = run_parallel_k_detail(inst, [Point.of(2.0), Point.of(8.0)])
    assert winner == 0


def test_parallel_matches_independent_simulation():
    rng = random.Random(11)
    for _ in range(300):
        dim = rng.randint(1, 4)
        k = rng.randint(1, 6)
        norm = rng.choice(NORMS)
        sol = Point(tuple(rng.uniform(-30, 30) for _ in range(dim)))
        preds = [
            Point(tuple(rng.uniform(-30, 30) for _ in range(dim))) for _ in range(k)
        ]
        inst = HiddenInstance(1, Point((0.0,) * dim), sol, norm)
        got_sol, total, winner, sweeps = run_parallel_k_detail(inst, preds)
        needed = [search_steps(p, sol, norm) for p in preds]
        exp_total, exp_winner, exp_sweeps = independent_round_robin(needed)
        assert got_sol == sol
        assert (total, winner, sweeps) == (exp_total, exp_winner, exp_sweeps)


def test_parallel_radius_bound():
    rng = random.Random(5)
    for _ in range(300):
        dim = rng.randint(1, 8)
        k = rng.randint(1, 8)
        sol = Point(tuple(rng.uniform(-100, 100) for _ in range(dim)))
        preds = [
            Point(tuple(rng.uniform(-100, 100) for _ in range(dim))) for _ in range(k)
        ]
        inst = HiddenInstance(1, Point((0.0,) * dim), sol, L2)
        _, total = run_parallel_k(inst, preds)
        best = min(search_steps(p, sol, L2) for p in preds)
        assert total <= k * best + k


def test_parallel_requires_predictions():
    with pytest.raises(ValueError):
        run_parallel_k(_inst(Point.of(1.0)), [])


def test_oracle_accessors():
    inst = _inst(Point.of(2.5))
    assert hidden_solution(inst) == Point.of(2.5)
    assert required_steps(inst, Point.of(0.0)) == 3
