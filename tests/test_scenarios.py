import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from warmstart import scenarios
from warmstart.metric import NORMS, distance, origin, pairwise_max_distance
from warmstart.scenarios import (
    Scenario,
    _Philox,
    default_corpus,
    gen_adversarial_switch,
    gen_drifting_trajectories,
    gen_planted_lower_bound,
    gen_static_clusters,
    generate,
    planted_baseline,
    traj_from_jsonable,
)
from warmstart.trajectories import trajectory_cost

GOLDEN = Path(__file__).parent / "golden"


def _all_generated():
    return [
        gen_static_clusters(1, k=3, sep=50.0, spread=2.0, T=12, dim=2),
        gen_drifting_trajectories(2, k=2, drift_per_day=1.0, noise=0.5, T=12, dim=2),
        gen_planted_lower_bound(3, k=4, sep=1000.0, T=12, dim=1),
        gen_adversarial_switch(4, phases=3, T=12, dim=2),
    ]


def test_replay_is_byte_identical():
    for make in (
        lambda: gen_static_clusters(1, k=3, sep=50.0, spread=2.0, T=12, dim=2),
        lambda: gen_drifting_trajectories(2, k=2, drift_per_day=1.0, noise=0.5, T=12, dim=2),
        lambda: gen_planted_lower_bound(3, k=4, sep=1000.0, T=12, dim=1),
        lambda: gen_adversarial_switch(4, phases=3, T=12, dim=2),
    ):
        assert make().to_json_text() == make().to_json_text()


def test_different_seeds_differ():
    a = gen_static_clusters(1, k=2, sep=50.0, spread=2.0, T=12, dim=2)
    b = gen_static_clusters(2, k=2, sep=50.0, spread=2.0, T=12, dim=2)
    assert a.to_json_text() != b.to_json_text()


def test_round_trip_exact():
    for scen in _all_generated():
        text = scen.to_json_text()
        back = Scenario.from_json_text(text)
        assert back.to_json_text() == text
        assert back.points == scen.points


def test_d_max_bounds_every_pair():
    for scen in _all_generated():
        sols = scen.points[1:]
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                assert distance(sols[i], sols[j], scen.norm) <= scen.d_max + 1e-12


def test_d_max_is_the_largest_distance_between_solutions():
    # d_max is read off the scenario's one table, without the origin's row
    # and column, so it is what pairwise_max_distance gives on the solutions.
    scens = _all_generated() + [
        gen_static_clusters(6, k=2, sep=20.0, spread=1.0, T=9, dim=3, norm=norm) for norm in NORMS
    ]
    scens.append(gen_adversarial_switch(7, phases=1, T=1, dim=2))
    for scen in scens:
        expected = pairwise_max_distance(scen.points[1:], scen.norm)
        assert repr(scen.d_max) == repr(expected), scen.name
        assert scen.points == [origin(scen.dim)] + list(scen.solutions().values())
        assert scen.distances.shape == (scen.T + 1, scen.T + 1)


def test_a_file_d_max_is_not_read():
    # A scenario file's d_max is written from the solutions, never read: an
    # altered one loads, and the scenario writes the true value back.
    scen = gen_drifting_trajectories(8, k=2, drift_per_day=1.0, noise=0.5, T=10, dim=2)
    text = scen.to_json_text()
    altered = json.loads(text)
    altered["d_max"] = 12345.0
    back = Scenario.from_json_text(json.dumps(altered))
    assert back.d_max == scen.d_max != 12345.0
    assert back.to_json_text() == text


def test_a_scenario_with_a_non_finite_number_is_not_written():
    # Solutions 2e200 apart are finite, but their distance overflows to inf,
    # which JSON cannot hold; nor can a NaN or an infinity in meta.
    with pytest.raises(ValueError, match="d_max is inf"):
        gen_planted_lower_bound(3, k=2, sep=1e200, T=8, dim=1).to_json_text()
    scen = gen_planted_lower_bound(3, k=2, sep=10.0, T=8, dim=1)
    for bad in (float("inf"), float("nan")):
        scen.meta["params"]["sep"] = bad
        with pytest.raises(ValueError, match="meta holds one"):
            scen.to_json_text()


def running_planted_cost(planted, solutions, norm):
    """The planted cost as the drifting generator once summed it, day by
    day into one running total of hits and one of moves."""
    hit = movement = 0.0
    prev = {i: origin(planted.predictions[1].dim) for i in range(1, planted.k + 1)}
    for t in range(1, planted.T + 1):
        i, pred = planted.assignment[t], planted.predictions[t]
        movement += distance(prev[i], pred, norm)
        prev[i] = pred
        hit += distance(pred, solutions[t], norm)
    return hit + movement


def test_planted_cost_matches_trajectory_cost():
    for seed, k in [(2, 1), (2, 2), (5, 3)]:
        scen = gen_drifting_trajectories(seed, k=k, drift_per_day=1.0, noise=0.5, T=15, dim=2)
        planted = traj_from_jsonable(scen.meta["planted"])
        _, _, total = trajectory_cost(planted, scen.solutions(), scen.norm)
        assert total == pytest.approx(running_planted_cost(planted, scen.solutions(), scen.norm), abs=1e-6)
        assert planted_baseline(scen) == pytest.approx(total, abs=1e-12)
        assert scen.planted == planted
        assert "planted_cost" not in scen.meta  # planted_baseline is the one sum


@pytest.mark.parametrize("key", ["0_1", " 1", "+1", "01", "1 "])
def test_planted_day_keys_are_canonical(key):
    # int() reads each of these keys as day 1, so it would silently replace
    # the planted day 1 of the canonical key "1".
    planted = {"k": 1, "assignment": {"1": 1, key: 1}, "predictions": {"1": [0.0], key: [500.0]}}
    with pytest.raises(ValueError, match="planted day key"):
        traj_from_jsonable(planted)
    planted = {"k": 1, "assignment": {key: 1}, "predictions": {key: [0.0]}}
    with pytest.raises(ValueError, match="planted day key"):
        traj_from_jsonable(planted)


def test_planted_baseline_reads_the_trajectory_parsed_with_the_scenario(monkeypatch):
    scen = gen_drifting_trajectories(2, k=2, drift_per_day=1.0, noise=0.5, T=6, dim=2)
    expected = running_planted_cost(scen.planted, scen.solutions(), scen.norm)
    monkeypatch.setattr(scenarios, "traj_from_jsonable", lambda d: pytest.fail("parsed again"))
    assert planted_baseline(scen) == pytest.approx(expected, abs=1e-9)


def test_generators_and_direct_construction_check_the_structure():
    with pytest.raises(ValueError, match="no days"):
        gen_static_clusters(1, k=2, sep=10.0, spread=1.0, T=0, dim=1)
    scen = gen_drifting_trajectories(2, k=2, drift_per_day=1.0, noise=0.5, T=6, dim=2)
    assert gen_planted_lower_bound(3, k=2, sep=1000.0, T=4, dim=1).planted is None
    for bad in (
        {"dim": 2.0},
        {"dim": True},
        {"norm": "L3"},
        {"norm": "Linf"},  # the days stay in L2
        {"name": None},
        {"days": scen.days[1:]},
        {"meta": []},
        {"meta": {"planted": {"k": 0, "assignment": {}, "predictions": {}}}},
    ):
        fields = dict(name=scen.name, seed=scen.seed, dim=scen.dim, norm=scen.norm, days=scen.days, meta=scen.meta)
        with pytest.raises(ValueError):
            Scenario.of_days(**{**fields, **bad})
    arrays = dict(features=scen.features, solutions=scen.coords[1:])
    assert Scenario(scen.name, scen.seed, scen.dim, scen.norm, meta=scen.meta, **arrays).to_json_text() == scen.to_json_text()
    for bad in (
        {"features": scen.features[:0], "solutions": scen.coords[1:1]},
        {"solutions": scen.coords[2:]},
        {"solutions": scen.coords[1:, :1]},
        {"features": [[1.0, float("nan")]] * scen.T},
        {"solutions": [[float("inf"), 1.0]] * scen.T},
    ):
        with pytest.raises(ValueError):
            Scenario(scen.name, scen.seed, scen.dim, scen.norm, **{**arrays, **bad})


def test_static_cluster_geometry():
    scen = gen_static_clusters(9, k=3, sep=100.0, spread=2.0, T=20, dim=2)
    from warmstart.metric import Point

    centers = [Point(tuple(c)) for c in scen.meta["centers"]]
    for inst, lab in zip(scen.days, scen.meta["labels"]):
        sol = scen.solutions()[inst.day]
        assert distance(sol, centers[lab - 1], scen.norm) <= 2.0 + 1e-12
        # features hug the solution
        assert distance(inst.features, sol, scen.norm) <= 0.1


def test_planted_lower_bound_features_uninformative():
    scen = gen_planted_lower_bound(9, k=4, sep=1000.0, T=10, dim=1)
    feats = {inst.features.coords for inst in scen.days}
    assert len(feats) == 1
    planted = {tuple(p) for p in scen.meta["planted_points"]}
    for sol in scen.points[1:]:
        assert sol.coords in planted


def test_generate_dispatch_and_validation():
    s = generate("adversarial_switch", seed=1, phases=2, T=6, dim=1)
    assert s.T == 6
    with pytest.raises(ValueError):
        generate("nope", seed=1)
    with pytest.raises(ValueError):
        gen_static_clusters(1, k=2, sep=0.0, spread=1.0, T=5, dim=1)
    with pytest.raises(ValueError):
        gen_adversarial_switch(1, phases=5, T=3, dim=1)


def test_norm_parameter_respected():
    for norm in NORMS:
        s = gen_drifting_trajectories(6, k=1, drift_per_day=1.0, noise=0.5, T=6, dim=2, norm=norm)
        assert s.norm == norm
        for inst in s.days:
            assert inst.norm == norm


def test_golden_scenario_unchanged():
    scen = gen_drifting_trajectories(102, k=2, drift_per_day=0.5, noise=0.5, T=40, dim=2)
    golden = (GOLDEN / "drifting_k2_s102.json").read_text()
    assert scen.to_json_text() == golden


def test_default_corpus_shape():
    corpus = default_corpus()
    assert len(corpus) >= 5
    names = [s.name for s in corpus]
    assert len(set(names)) == len(names)
    for s in corpus:
        assert s.T >= 10


def test_stream_draws_what_numpy_philox_draws():
    # Random interleavings of the two draws, so the kept high half of a
    # 32-bit draw must survive whole-word draws; bounds cover the k = 1
    # no-draw case, the 32-bit path up to 2**32 and the 64-bit one above.
    rng = random.Random(89)
    for _ in range(1500):
        key = rng.choice([rng.randrange(1 << 128), rng.randrange(1000), (1 << 128) - 1, 1 << 64])
        ours, theirs = _Philox(key), np.random.Generator(np.random.Philox(key=key))
        for _ in range(rng.randint(0, 30)):
            if rng.random() < 0.5:
                low = rng.uniform(-1e3, 1e3)
                high = low + rng.choice([0.0, rng.uniform(0.0, 10.0), rng.uniform(0.0, 1e6)])
                size = rng.randint(0, 4)
                assert ours.uniform(low, high, size).tobytes() == theirs.uniform(low, high, size).tobytes()
            else:
                high = rng.choice(
                    [1, 2, 3, rng.randint(1, 100), rng.randint(1, (1 << 32) + 1), 1 << 32, rng.randint(1, 1 << 63)]
                )
                assert ours.integers(high) == theirs.integers(high)


def test_stream_takes_only_an_integer_key_below_2_to_the_128():
    for key in (-1, 1 << 128):
        with pytest.raises(ValueError):
            _Philox(key)
    for key in (None, 1.5, "3"):  # numpy coerces these, or draws OS entropy for None
        with pytest.raises(TypeError):
            _Philox(key)


def test_generating_the_corpus_leaves_numpy_random_unloaded():
    code = "import sys, warmstart; warmstart.default_corpus(); print('numpy.random' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_a_file_coordinate_must_be_a_finite_json_number():
    # JSON reads the literal 1e400 as inf; integers are numbers.  The other
    # types and ranges a file may hold are cases of the CLI's BAD_INPUTS.
    scen = gen_drifting_trajectories(8, k=1, drift_per_day=1.0, noise=0.5, T=3, dim=2)
    d = json.loads(scen.to_json_text())
    d["days"][1]["solution"] = ["@", 0.0]
    with pytest.raises(ValueError, match="non-finite"):
        Scenario.from_json_text(json.dumps(d).replace('"@"', "1e400"))
    d["days"][1]["solution"] = [3, -(10**20)]
    back = Scenario.from_json_text(json.dumps(d))
    assert back.points[2].coords == (3.0, -1e20) and back.coords.tolist()[2] == [3.0, -1e20]
