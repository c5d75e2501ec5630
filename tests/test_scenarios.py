import hashlib
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
    fields = dict(
        name=scen.name, seed=scen.seed, dim=scen.dim, norm=scen.norm,
        features=scen.features, solutions=scen.coords[1:], meta=scen.meta,
    )
    assert Scenario(**fields).to_json_text() == scen.to_json_text()
    for bad in (
        {"dim": 2.0},
        {"dim": True},
        {"dim": 3},
        {"norm": "L3"},
        {"name": None},
        {"meta": []},
        {"meta": {"planted": {"k": 0, "assignment": {}, "predictions": {}}}},
        {"features": scen.features[:0], "solutions": scen.coords[1:1]},
        {"solutions": scen.coords[2:]},
        {"solutions": scen.coords[1:, :1]},
        {"features": [[1.0, float("nan")]] * scen.T},
        {"solutions": [[float("inf"), 1.0]] * scen.T},
    ):
        with pytest.raises(ValueError):
            Scenario(**{**fields, **bad})


def test_generators_reject_k_0_and_a_negative_jitter():
    # k = 0 once failed inside the random stream ("high <= 0"), and a
    # negative jitter wrote every solution at its phase's center while the
    # meta recorded the jitter.
    with pytest.raises(ValueError, match="need k >= 1"):
        gen_static_clusters(1, k=0, sep=10.0, spread=1.0, T=3, dim=1)
    with pytest.raises(ValueError, match="need k >= 1"):
        gen_planted_lower_bound(1, k=0, sep=10.0, T=3, dim=1)
    with pytest.raises(ValueError, match="need jitter >= 0"):
        gen_adversarial_switch(1, phases=2, T=4, dim=1, jitter=-5.0)
    assert gen_adversarial_switch(1, phases=2, T=4, dim=1, jitter=0.0).coords[1:, 0].tolist() == [1e3, 1e3, 2e3, 2e3]


def test_static_cluster_geometry():
    scen = gen_static_clusters(9, k=3, sep=100.0, spread=2.0, T=20, dim=2)
    from warmstart.metric import Point

    centers = [Point(tuple(c)) for c in scen.meta["centers"]]
    for f, sol, lab in zip(scen.features.tolist(), scen.points[1:], scen.meta["labels"]):
        assert distance(sol, centers[lab - 1], scen.norm) <= 2.0 + 1e-12
        # features hug the solution
        assert distance(Point(f), sol, scen.norm) <= 0.1


def test_planted_lower_bound_features_uninformative():
    scen = gen_planted_lower_bound(9, k=4, sep=1000.0, T=10, dim=1)
    assert scen.features.tolist() == [[0.0]] * scen.T
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
        assert Scenario.from_json_text(s.to_json_text()).norm == norm
        assert s.distances[0, 1] == distance(s.points[0], s.points[1], norm)


def test_golden_scenario_unchanged():
    scen = gen_drifting_trajectories(102, k=2, drift_per_day=0.5, noise=0.5, T=40, dim=2)
    golden = (GOLDEN / "drifting_k2_s102.json").read_text()
    assert scen.to_json_text() == golden


# The sha256 of each generator's scenario text, in every norm and in dims
# 1-3, each case at its own seed.  drifting_k2_s102.json locks one more.
GENERATOR_LOCK_SHA256 = {
    "static_clusters/L1/d1": "758c7d78415187bb76ff7b8bbf8a5c29acf910712ed2567d12c7965e729f0f65",
    "static_clusters/L1/d2": "f6ad847c2e5ca199c19960a4cd7a3b99b578ba789657cfeca5da2c141688dd02",
    "static_clusters/L1/d3": "1ec19a559bff2db7a571e5b7e3eb1075bf994182d376693bd3b3272ed18fb8ab",
    "static_clusters/L2/d1": "d7b4df9334fe60c2d021509fce073a0bb9166be627787bd8d4a9e48e9ee609de",
    "static_clusters/L2/d2": "2038dddfd2ec45e3e393eaa7cc368c62a702ff56ff92b23403da6d7829d86c79",
    "static_clusters/L2/d3": "ee46acf4b16bddfc2bc74c5723657a6d608219dc4c90048f00c60fb0bbb6e023",
    "static_clusters/Linf/d1": "ccc0d5fa080080eeb3cc1adde0f37cd1fcec25b0c70b349cc2cb0f2684d0dc56",
    "static_clusters/Linf/d2": "20751d6b653e0fd501f83e58baf8966481bd9a616cc512cfc87c620fd74a08bc",
    "static_clusters/Linf/d3": "db76a0d6c7c30f9acae56977978dcca0aa5293511cd5ce297ef0f3debdc48e9a",
    "drifting_trajectories/L1/d1": "88ed52927419809d8db7730323257d59c79ec896ccaeb2f299bdf1bc225dad10",
    "drifting_trajectories/L1/d2": "d9b98d87b6316fed02177c2dccc1a7bdb8ebf9b533e7118810ee3aaa91635976",
    "drifting_trajectories/L1/d3": "40d078edf6410e8f1f3ce11e5bbb740b07a75ea86d51c2de57d85764b6599450",
    "drifting_trajectories/L2/d1": "0712aef1f72787252559d2817facbd5f7f1372279d0be4bed245a86878a08865",
    "drifting_trajectories/L2/d2": "493f80df9d95b571b56ba1ebeef9013826887251b0a7de694035d9dba2e081d4",
    "drifting_trajectories/L2/d3": "f6fee9f4eb04031a0bd6376fdb56327684700c689024a12348d0b7863c003ba4",
    "drifting_trajectories/Linf/d1": "77be1de638de512599c7f9ea0595b262db036787acaa86e61f7a5eab8c6be142",
    "drifting_trajectories/Linf/d2": "4b3547d4cc224a3808629e6a950c830c8d6eec6dc37b010fcdd9677716593fcd",
    "drifting_trajectories/Linf/d3": "064a2f42add33c2265e4954f0ac8cf20cee35a707179398f59811e5847c7824e",
    "planted_lower_bound/L1/d1": "27f6c54519f6ef72bc3882710e2d79adb6eb558dd90d22f6648d0ea28a2fa546",
    "planted_lower_bound/L1/d2": "600c4340f5035a6cd2ccd9b806077adb3efe44c7907a18605cd63aeaeca719ee",
    "planted_lower_bound/L1/d3": "f0e37c5dd0a6afd6d8ba3431142feab530e0af615df23522b99cc9aa7c279687",
    "planted_lower_bound/L2/d1": "7f61f6d6f459b1681f88242ceb2fe4796ec126aa2a1aa9cd833395dc8bde9a67",
    "planted_lower_bound/L2/d2": "a506f807f8fc4fd25c48b3d25bf552f4d8a2e8e2de6981daf8a5f3e5ed7f4c5f",
    "planted_lower_bound/L2/d3": "7107a416b36e7cca4677ff94fabe8c3858cb5194467dc82d2bb7da8c9f0d08ed",
    "planted_lower_bound/Linf/d1": "3fa5e93be25366708acfe9c2b48a0aa05cfb9d5bb5c6c7faee4198b445d6ed80",
    "planted_lower_bound/Linf/d2": "0438cbc6bfa5d3efbbaaf467f02cb72c21dc32aaf0c8a1f9065960a80341af5e",
    "planted_lower_bound/Linf/d3": "a05b9c7a463c1d8210fff158e7fb5b2975eef9214b9926b526eaab23c074e09c",
    "adversarial_switch/L1/d1": "11900dd0d4dfc4111e2efbfb609c332691c18be1a11cfb449491c4c031d0dee2",
    "adversarial_switch/L1/d2": "f7dbf0f2ba5e30c5547bd3d30dccf023126d6e806925474d952e7d7990b9ebb6",
    "adversarial_switch/L1/d3": "134e78619030107a9a4e5bdc160ac704586c6bc083a8d375e7d7a08685c3b755",
    "adversarial_switch/L2/d1": "c98c1d27313c94dd68ecf6fba879fabd81abddb05209c5402bb5c8a2e710be38",
    "adversarial_switch/L2/d2": "97c6716748529428985e19c02a6ea561ce35e3e6cdc71820122c0f85b8a98cf2",
    "adversarial_switch/L2/d3": "e8bc2f5d324109f037145653ab09ba57174fb76d987053f512258e1766c6ec0d",
    "adversarial_switch/Linf/d1": "5259bfe03f22d0d66d8e4d95203e0df3296ad8822eceb31cde596ec8f88f6acb",
    "adversarial_switch/Linf/d2": "c1a293e97732f9f66061e90b19c3c30b061e6ae8259545a2d44ca99828bcfd6c",
    "adversarial_switch/Linf/d3": "43708334ebb9f1dc4c3393840c404d8386d8dffdeaf86e180f022ff36d99cd52",
}
GENERATOR_LOCK_SCENARIOS = {
    "static_clusters": lambda seed, dim, norm: gen_static_clusters(
        seed, k=3, sep=30.0, spread=2.0, T=9, dim=dim, norm=norm
    ),
    "drifting_trajectories": lambda seed, dim, norm: gen_drifting_trajectories(
        seed, k=2, drift_per_day=1.0, noise=0.5, T=9, dim=dim, norm=norm
    ),
    "planted_lower_bound": lambda seed, dim, norm: gen_planted_lower_bound(
        seed, k=3, sep=500.0, T=9, dim=dim, norm=norm
    ),
    "adversarial_switch": lambda seed, dim, norm: gen_adversarial_switch(
        seed, phases=3, T=9, dim=dim, jitter=2.0, norm=norm
    ),
}


def test_generated_scenarios_are_byte_locked():
    texts = {
        f"{name}/{norm}/d{dim}": make(40 + 10 * dim + NORMS.index(norm), dim, norm).to_json_text()
        for name, make in GENERATOR_LOCK_SCENARIOS.items()
        for norm in NORMS
        for dim in (1, 2, 3)
    }
    assert {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()} == GENERATOR_LOCK_SHA256


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
