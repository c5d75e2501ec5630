"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE n: PASS`` line on success (visible
with ``pytest -s``); any failure shows up as a normal pytest failure.
"""

import json
import math
import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import warmstart as ws
from warmstart.kmedians import cost_of_centers, learn_centers_subset_erm, median_point_detail
from warmstart.metric import L1, L2, NORMS, Point, distance, origin, search_steps
from warmstart.oracle import HiddenInstance, hidden_solution, run_parallel_k
from warmstart.partition import (
    CenterSet,
    LabeledSample,
    all_rotations,
    c_loss,
    compose,
    construct_rotation,
    cost_of_partition,
    enumerate_threshold_trees,
    rc_erm,
    rotate_centers,
)
from warmstart.scenarios import (
    Scenario,
    default_corpus,
    gen_drifting_trajectories,
    gen_planted_lower_bound,
    planted_baseline,
)

GOLDEN = Path(__file__).parent / "golden"


def _ok(n: int) -> None:
    print(f"ACCEPTANCE {n}: PASS")


def _rand_point(rng, dim, spread=50.0):
    return Point(tuple(rng.uniform(-spread, spread) for _ in range(dim)))


def _inline_scenario(sols, norm=L2):
    dim = sols[0].dim
    days = [
        HiddenInstance(t + 1, origin(dim), s, norm) for t, s in enumerate(sols)
    ]
    return Scenario.of_days("inline", 0, dim, norm, days, {})


def test_criterion_01_parallel_radius_bound():
    rng = random.Random(1001)
    for _ in range(500):
        dim = rng.randint(1, 16)
        k = rng.randint(1, 8)
        norm = rng.choice(NORMS)
        sol = _rand_point(rng, dim)
        preds = [_rand_point(rng, dim) for _ in range(k)]
        inst = HiddenInstance(1, origin(dim), sol, norm)
        _, total = run_parallel_k(inst, preds)
        best = min(search_steps(p, sol, norm) for p in preds)
        assert total <= k * best + k
    _ok(1)


def test_criterion_02_subset_erm_exact_and_near_unrestricted():
    rng = random.Random(1002)
    for _ in range(100):
        m = rng.randint(2, 12)
        k = rng.randint(1, min(4, m))
        dim = rng.randint(1, 3)
        norm = rng.choice(NORMS)
        X = [_rand_point(rng, dim, 9.0) for _ in range(m)]
        C = learn_centers_subset_erm(X, k, norm)
        naive = min(
            cost_of_centers(CenterSet(tuple(X[i] for i in idxs)), X, norm)
            for idxs in combinations(range(m), k)
        )
        assert cost_of_centers(C, X, norm) <= naive + 1e-9

    # 1-D: sample-restricted ERM within factor 2 of a grid-exact
    # unrestricted optimum
    for _ in range(20):
        m = rng.randint(2, 8)
        k = rng.randint(1, 2)
        pts = np.array(sorted(rng.uniform(0.0, 10.0) for _ in range(m)))
        X = [Point.of(float(p)) for p in pts]
        grid = np.linspace(pts.min(), pts.max(), 201)
        D = np.abs(grid[:, None] - pts[None, :])
        if k == 1:
            unrestricted = D.sum(axis=1).min()
        else:
            unrestricted = (
                np.minimum(D[:, None, :], D[None, :, :]).sum(axis=2).min()
            )
        unrestricted /= m
        C = learn_centers_subset_erm(X, k, L1)
        assert cost_of_centers(C, X, L1) <= 2 * unrestricted + 1e-9
    _ok(2)


def test_criterion_03_planted_lower_bound_exhibit():
    k = 4
    scen = gen_planted_lower_bound(seed=555, k=k, sep=10**6, T=1000, dim=1)
    preds = [Point(tuple(p)) for p in scen.meta["planted_points"]]
    total = 0
    for inst in scen.days:
        _, r = run_parallel_k(inst, preds)
        total += r
    mean_parallel = total / scen.T
    assert k <= mean_parallel <= 2 * k

    best_single, _ = median_point_detail(scen.points[1:], scen.norm)
    mean_single = sum(
        distance(best_single, hidden_solution(i), scen.norm) for i in scen.days
    ) / scen.T
    assert mean_single >= 10**5
    _ok(3)


def test_criterion_04_constructed_rotation_constants():
    rng = random.Random(1004)
    for _ in range(100):
        k = rng.randint(1, 3)
        dim = rng.randint(1, 2)
        norm = rng.choice(NORMS)
        data = [
            LabeledSample(_rand_point(rng, dim, 9.0), _rand_point(rng, dim, 9.0))
            for _ in range(rng.randint(2, 10))
        ]
        C = CenterSet(tuple(_rand_point(rng, dim, 9.0) for _ in range(k)))
        hyps = enumerate_threshold_trees([s.features for s in data], k, depth=1)
        h = hyps[rng.randrange(len(hyps))]
        phi = construct_rotation(h, C, data, norm)
        part_cost, _, _ = cost_of_partition(h, data, norm)
        center_cost = cost_of_centers(C, [s.solution for s in data], norm)
        assert c_loss(compose(h, phi), C, data, norm) <= 2 * part_cost + center_cost + 1e-9
    _ok(4)


def test_criterion_05_rotation_completion_erm():
    rng = random.Random(1005)
    for _ in range(20):
        k = rng.randint(1, 3)
        norm = rng.choice(NORMS)
        data = [
            LabeledSample(_rand_point(rng, 1, 9.0), _rand_point(rng, 1, 9.0))
            for _ in range(rng.randint(2, 7))
        ]
        C = CenterSet(tuple(_rand_point(rng, 1, 9.0) for _ in range(k)))
        hyps = enumerate_threshold_trees([s.features for s in data], k, depth=1)[:50]
        for h in hyps[:8]:
            for phi in all_rotations(k):
                assert c_loss(compose(h, phi), C, data, norm) == c_loss(
                    h, rotate_centers(C, phi), data, norm
                )
        h, phi = rc_erm(hyps, C, data, norm)
        got = c_loss(compose(h, phi), C, data, norm)
        exp = min(
            c_loss(compose(hh, pp), C, data, norm)
            for hh in hyps
            for pp in all_rotations(k)
        )
        assert got <= exp + 1e-12
    _ok(5)


def test_criterion_06_predict_yesterday_vs_single_trajectory():
    rng = random.Random(1006)
    for _ in range(50):
        T = rng.randint(1, 8)
        dim = rng.randint(1, 3)
        norm = rng.choice(NORMS)
        sols = [_rand_point(rng, dim, 20.0) for _ in range(T)]
        scen = _inline_scenario(sols, norm)
        lg = ws.predict_yesterday(scen)
        opt1 = ws.brute_force_best_trajectories(scen.distances, 1)
        assert lg.total_radius <= 2 * opt1 + T + 1e-9
    _ok(6)


def test_criterion_07_trajectory_kserver_sandwich():
    rng = random.Random(1007)
    for _ in range(50):
        T = rng.randint(1, 6)
        k = rng.randint(1, 3)
        dim = rng.randint(1, 3)
        norm = rng.choice(NORMS)
        sols = [_rand_point(rng, dim, 20.0) for _ in range(T)]
        scen = _inline_scenario(sols, norm)
        traj = ws.brute_force_best_trajectories(scen.distances, k)
        server = ws.offline_opt_kserver(scen.distances, [k])[0]
        assert traj <= server + 1e-9
        assert server <= 2 * traj + 1e-9
    _ok(7)


def test_criterion_08_decay_invariants_never_fire():
    for scen in default_corpus():
        # subsuming-identity and shadow-completion assertions are always on
        # inside the scheduler; any violation raises InvariantViolation here
        ws.run_quadratic_decay(scen, mode="quadratic")
    _ok(8)


def test_criterion_09_radius_vs_virtual_radius():
    for scen in default_corpus():
        lg = ws.run_quadratic_decay(scen, mode="quadratic")
        for d in lg.days:
            assert d.radius_searched <= 2 * d.virtual_radius
    i = np.arange(2, 10**6 + 1, dtype=np.float64)
    series = float(np.sum(1.0 / (i * i * np.log(i) ** 2)))
    tail = 1.0 / (10**6 * math.log(10**6) ** 2)
    assert series + tail < 1.0
    _ok(9)


def test_criterion_10_overhead_vs_radius():
    for scen in default_corpus():
        lg = ws.run_quadratic_decay(scen, mode="quadratic")
        for d in lg.days:
            assert d.overhead_work <= 8 * d.radius_searched
    _ok(10)


def test_criterion_11_k_oblivious_nonblowup_with_golden_ratios():
    golden = json.loads((GOLDEN / "acceptance11_ratios.json").read_text())
    measured = {}
    for k, seed in [(1, 101), (2, 102), (3, 103)]:
        scen = gen_drifting_trajectories(
            seed, k=k, drift_per_day=0.5, noise=0.5, T=40, dim=2
        )
        lg = ws.run_quadratic_decay(scen, mode="quadratic")  # takes no k
        base = planted_baseline(scen)
        bound = 1000 * k**4 * math.log(k + 1) ** 2
        assert lg.total_radius <= bound * base
        measured[str(k)] = lg.total_radius / base
    assert measured == golden  # regression lock on the measured ratios
    _ok(11)


def test_criterion_12_kserver_reduction_bound_and_k1_equality():
    for scen in default_corpus():
        for alg in ("greedy", "wfa"):
            for k in (1, 2, 3):
                lg = ws.kserver_reduction(scen, alg, k)
                servers = [origin(scen.dim) for _ in range(k)]
                wfa_state = (
                    ws.WorkFunctionState(k, scen.dim, scen.norm)
                    if alg == "wfa"
                    else None
                )
                for inst, day in zip(scen.days, lg.days):
                    sol = hidden_solution(inst)
                    nearest = min(
                        distance(s, sol, scen.norm) for s in servers
                    )
                    assert day.radius_searched <= k * max(1.0, nearest) + k
                    if wfa_state is not None:
                        try:
                            idx, _ = ws.wfa_step(wfa_state, sol)
                        except ws.CapExceeded:
                            wfa_state = None
                            idx = min(
                                range(k),
                                key=lambda j: distance(servers[j], sol, scen.norm),
                            )
                    else:
                        idx = min(
                            range(k),
                            key=lambda j: distance(servers[j], sol, scen.norm),
                        )
                    servers[idx] = sol
            red1 = ws.kserver_reduction(scen, alg, 1)
            py = ws.predict_yesterday(scen)
            assert [d.radius_searched for d in red1.days] == [
                d.radius_searched for d in py.days
            ]
    _ok(12)


def test_criterion_13_cli_determinism(tmp_path):
    from warmstart.cli import main

    scen = gen_drifting_trajectories(55, k=2, drift_per_day=0.5, noise=0.5, T=8, dim=2)
    scen_path = tmp_path / "scen.json"
    scen_path.write_text(scen.to_json_text())

    sim_outs, learn_outs, report_outs = [], [], []
    for tag in ("a", "b"):
        sim = tmp_path / f"sim_{tag}.json"
        assert (
            main(
                [
                    "simulate",
                    "--scenario",
                    str(scen_path),
                    "--strategy",
                    "quadratic-decay",
                    "--out",
                    str(sim),
                ]
            )
            == 0
        )
        sim_outs.append(sim.read_bytes())
        cfg = tmp_path / f"learn_{tag}.cfg"
        cfg.write_text(
            json.dumps({"scenario": str(scen_path), "learner": "centers", "k": 2})
        )
        learn = tmp_path / f"learn_{tag}.json"
        assert main(["learn", "--config", str(cfg), "--out", str(learn)]) == 0
        learn_outs.append(learn.read_bytes())
        report = tmp_path / f"report_{tag}.csv"
        assert main(["report", str(tmp_path / f"sim_{tag}.json"), "--out", str(report)]) == 0
        report_outs.append(report.read_bytes())
    assert sim_outs[0] == sim_outs[1]
    assert learn_outs[0] == learn_outs[1]
    assert report_outs[0] == report_outs[1]
    _ok(13)
