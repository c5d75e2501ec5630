import math
import random

import pytest

from warmstart.baselines import WorkFunctionState, wfa_step
from warmstart.errors import CapExceeded
from warmstart.ledger import CostLedger, DayLedger
from warmstart.metric import L2, NORMS, Point, distance, origin
from warmstart.online import (
    ORIGIN_DAY,
    ThreadEntry,
    kserver_reduction,
    predict_yesterday,
    quadratic_decay_day,
    rate,
    run_quadratic_decay,
    subsume_check,
)
from warmstart.oracle import HiddenInstance, run_parallel_k_detail
from warmstart.scenarios import Scenario, gen_adversarial_switch, gen_drifting_trajectories


def _scen(solutions, norm=L2):
    dim = 1
    days = [
        HiddenInstance(t + 1, origin(dim), Point.of(s), norm)
        for t, s in enumerate(solutions)
    ]
    return Scenario("inline", 0, dim, norm, days, {}, 0.0)


def test_rate_values():
    assert rate(1) == 1.0
    assert rate(2) == pytest.approx(1.0 / (4 * math.log(2) ** 2))
    assert rate(3) == pytest.approx(1.0 / (9 * math.log(3) ** 2))
    assert rate(2, "harmonic") == pytest.approx(1.0 / (2 * math.log(2) ** 2))
    with pytest.raises(ValueError):
        rate(0)
    with pytest.raises(ValueError):
        rate(2, "linear")


def test_rate_series_stays_below_one():
    assert sum(rate(i) for i in range(2, 200000)) < 1.0


def test_predict_yesterday_hand_example():
    lg = predict_yesterday(_scen([0.0, 3.0, 5.0]))
    assert [d.radius_searched for d in lg.days] == [1, 3, 2]
    assert lg.total_radius == 6
    assert [d.solver_thread for d in lg.days] == [ORIGIN_DAY, 1, 2]


def test_first_day_runs_single_origin_thread():
    inst = HiddenInstance(1, origin(1), Point.of(6.0), L2)
    sol, day = quadratic_decay_day([], inst)
    assert sol == Point.of(6.0)
    assert day.radius_searched == day.virtual_radius == 6
    assert day.overhead_work == 6  # one rank-1 visit per step
    assert day.solver_thread == ORIGIN_DAY


def test_kill_trace_hand_computed():
    # two identical past solutions at 2.0, today's at 50.0; the duplicate is
    # subsumed at the second tick and the promoted origin thread two ticks on
    inst = HiddenInstance(3, origin(1), Point.of(50.0), L2)
    trace = []
    sol, day = quadratic_decay_day([Point.of(2.0), Point.of(2.0)], inst, trace=trace)
    assert sol == Point.of(50.0)
    assert trace == [("kill", 2, 1, 2), ("kill", 4, 0, 2), ("solve", 48, 2)]
    assert day.virtual_radius == 48
    assert day.radius_searched == 50  # 48 + 1 + 1
    assert day.solver_thread == 2


def test_subsume_check_is_ball_containment():
    a = ThreadEntry(1, Point.of(0.0), None, radius=2)
    b = ThreadEntry(2, Point.of(3.0), None, radius=6)
    assert subsume_check(a, b, L2)  # d=3 <= 6-2
    b.radius = 4
    assert not subsume_check(a, b, L2)  # d=3 > 4-2


def test_virtual_radius_dominates_half_total():
    rng = random.Random(13)
    sols = [rng.uniform(-40, 40) for _ in range(25)]
    lg = run_quadratic_decay(_scen(sols))
    for d in lg.days:
        assert d.radius_searched <= 2 * d.virtual_radius
        assert d.overhead_work <= 8 * d.radius_searched


def test_harmonic_mode_also_completes():
    rng = random.Random(19)
    sols = [rng.uniform(-20, 20) for _ in range(15)]
    lg = run_quadratic_decay(_scen(sols), mode="harmonic")
    assert lg.strategy == "harmonic-decay"
    assert len(lg.days) == 15


def test_decay_run_is_deterministic():
    scen = gen_adversarial_switch(301, phases=4, T=20, dim=1)
    a = run_quadratic_decay(scen).to_json_text()
    b = run_quadratic_decay(scen).to_json_text()
    assert a == b


def test_kserver_k1_matches_predict_yesterday():
    scen = gen_drifting_trajectories(77, k=2, drift_per_day=1.0, noise=0.5, T=15, dim=2)
    for alg in ("greedy", "wfa"):
        red = kserver_reduction(scen, alg, 1)
        py = predict_yesterday(scen)
        assert [d.radius_searched for d in red.days] == [
            d.radius_searched for d in py.days
        ]
        assert red.total_radius == py.total_radius


def test_kserver_per_day_bound_greedy():
    from warmstart.metric import distance
    from warmstart.oracle import hidden_solution

    scen = gen_drifting_trajectories(88, k=3, drift_per_day=1.0, noise=0.5, T=20, dim=2)
    for k in (1, 2, 3):
        lg = kserver_reduction(scen, "greedy", k)
        servers = [origin(scen.dim) for _ in range(k)]
        for inst, day in zip(scen.days, lg.days):
            sol = hidden_solution(inst)
            nearest = min(distance(s, sol, scen.norm) for s in servers)
            assert day.radius_searched <= k * max(1.0, nearest) + k
            # replay the greedy move
            best = min(range(k), key=lambda j: distance(servers[j], sol, scen.norm))
            servers[best] = sol


def test_invalid_strategy_arguments():
    scen = _scen([1.0])
    with pytest.raises(ValueError):
        kserver_reduction(scen, "greedy", 0)
    with pytest.raises(ValueError):
        kserver_reduction(scen, "lru", 2)
    with pytest.raises(ValueError):
        predict_yesterday(Scenario("empty", 0, 1, L2, [], {}, 0.0))


def test_wfa_fallback_day_is_recorded():
    from warmstart.baselines import WFA_MAX_POINTS

    # 14 distinct solutions, one repeated: the work-function table holds
    # WFA_MAX_POINTS = 12 distinct requests, so the 13th sends it to greedy.
    sols = [1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    first_seen = {}
    for day, s in enumerate(sols, start=1):
        first_seen.setdefault(s, day)
    assert len(first_seen) == 14
    cap_day = sorted(first_seen.values())[WFA_MAX_POINTS]
    assert cap_day == 14
    lg = kserver_reduction(_scen(sols), "wfa", 2)
    assert lg.params == {"k": 2, "server_alg": "wfa", "wfa_fallback_day": cap_day}
    short = kserver_reduction(_scen(sols[:5]), "wfa", 2)
    assert short.params == {"k": 2, "server_alg": "wfa"}


def reference_kserver_reduction(scenario, server_alg, k):
    """Reference: the k-server reduction over a list of all k servers."""
    servers = [origin(scenario.dim) for _ in range(k)]
    wfa_state = WorkFunctionState(k, scenario.dim, scenario.norm) if server_alg == "wfa" else None
    params = {"k": k, "server_alg": server_alg}
    days = []
    for inst in scenario.days:
        solution, total, winner, sweeps = run_parallel_k_detail(inst, servers)
        days.append(DayLedger(inst.day, total, 0, sweeps, winner + 1))
        idx = None
        if wfa_state is not None:
            try:
                idx, _ = wfa_step(wfa_state, solution)
            except CapExceeded:
                wfa_state = None
                params["wfa_fallback_day"] = inst.day
        if idx is None:
            dists = [distance(s, solution, scenario.norm) for s in servers]
            idx = dists.index(min(dists))
        servers[idx] = solution
    return CostLedger(scenario.name, f"kserver-{server_alg}", params, days)


def test_kserver_reduction_matches_the_full_server_list():
    # Grid solutions that often sit on the origin or repeat, so servers tie;
    # k runs past T, where servers that never move are no longer tracked.
    rng = random.Random(311)
    for case in range(150):
        norm = NORMS[case % 3]
        dim = rng.randint(1, 3)
        T = rng.randint(1, 12)
        half = rng.choice((1, 2, 4))
        sols = [Point(tuple(float(rng.randint(-half, half)) for _ in range(dim))) for _ in range(T)]
        days = [HiddenInstance(t + 1, origin(dim), s, norm) for t, s in enumerate(sols)]
        scen = Scenario("grid", case, dim, norm, days, {}, 0.0)
        for alg, ks in (("greedy", range(1, T + 4)), ("wfa", range(1, 4))):
            for k in ks:
                got = kserver_reduction(scen, alg, k).to_json_text()
                assert got == reference_kserver_reduction(scen, alg, k).to_json_text(), (alg, k, sols)

