import random

import pytest

from warmstart.kmedians import CenterSet, cost_of_centers
from warmstart.metric import L1, L2, NORMS, Point
from warmstart.partition import (
    LabeledSample,
    ThresholdTree,
    all_rotations,
    c_loss,
    canonical_thresholds,
    compose,
    construct_rotation,
    cost_of_partition,
    enumerate_threshold_trees,
    identity_rotation,
    rc_erm,
    rotate_centers,
    two_step_learn,
)


def _random_data(rng, n, dim, spread=9.0):
    return [
        LabeledSample(
            Point(tuple(rng.uniform(-spread, spread) for _ in range(dim))),
            Point(tuple(rng.uniform(-spread, spread) for _ in range(dim))),
        )
        for _ in range(n)
    ]


def test_threshold_tree_routing_depths():
    t0 = ThresholdTree((), (), (2,), k=3)
    assert t0.label(Point.of(99.0)) == 2
    t1 = ThresholdTree((0,), (5.0,), (1, 2), k=2)
    assert t1.label(Point.of(5.0)) == 1
    assert t1.label(Point.of(5.1)) == 2
    t2 = ThresholdTree((0, 1, 1), (0.0, 0.0, 0.0), (1, 2, 3, 4), k=4)
    assert t2.label(Point.of(-1.0, -1.0)) == 1
    assert t2.label(Point.of(-1.0, 1.0)) == 2
    assert t2.label(Point.of(1.0, -1.0)) == 3
    assert t2.label(Point.of(1.0, 1.0)) == 4


def test_threshold_tree_validation():
    with pytest.raises(ValueError):
        ThresholdTree((0, 1), (0.0, 0.0), (1, 2, 1), k=2)
    with pytest.raises(ValueError):
        ThresholdTree((0,), (0.0,), (1, 3), k=2)


def test_canonical_thresholds_midpoints():
    assert canonical_thresholds([3.0, 1.0, 3.0, 7.0]) == [2.0, 5.0]
    assert canonical_thresholds([4.0]) == []


def test_enumerate_class_separates_training_points():
    feats = [Point.of(0.0), Point.of(10.0)]
    hyps = enumerate_threshold_trees(feats, k=2, depth=1)
    labelings = {tuple(h.label(f) for f in feats) for h in hyps}
    assert labelings == {(1, 1), (2, 2), (1, 2), (2, 1)}


def test_rotation_conversion_identity_exact():
    rng = random.Random(17)
    for _ in range(40):
        k = rng.randint(1, 3)
        dim = rng.randint(1, 2)
        norm = rng.choice(NORMS)
        data = _random_data(rng, rng.randint(2, 8), dim)
        C = CenterSet(
            tuple(
                Point(tuple(rng.uniform(-9, 9) for _ in range(dim)))
                for _ in range(k)
            )
        )
        hyps = enumerate_threshold_trees([s.features for s in data], k, depth=1)
        for h in hyps[:10]:
            for phi in all_rotations(k):
                lhs = c_loss(compose(h, phi), C, data, norm)
                rhs = c_loss(h, rotate_centers(C, phi), data, norm)
                assert lhs == rhs  # exact, same float operations


def test_rc_erm_matches_joint_brute_force():
    rng = random.Random(29)
    for _ in range(15):
        k = rng.randint(1, 3)
        dim = rng.randint(1, 2)
        norm = rng.choice(NORMS)
        data = _random_data(rng, rng.randint(3, 7), dim)
        C = CenterSet(
            tuple(
                Point(tuple(rng.uniform(-9, 9) for _ in range(dim)))
                for _ in range(k)
            )
        )
        hyps = enumerate_threshold_trees([s.features for s in data], k, depth=1)[:50]
        h, phi = rc_erm(hyps, C, data, norm)
        got = c_loss(compose(h, phi), C, data, norm)
        exp = min(
            c_loss(compose(hh, pp), C, data, norm)
            for hh in hyps
            for pp in all_rotations(k)
        )
        assert got == pytest.approx(exp, abs=1e-12)


def test_constructed_rotation_loss_bound():
    rng = random.Random(41)
    for _ in range(100):
        k = rng.randint(1, 3)
        dim = rng.randint(1, 2)
        norm = rng.choice(NORMS)
        data = _random_data(rng, rng.randint(2, 10), dim)
        C = CenterSet(
            tuple(
                Point(tuple(rng.uniform(-9, 9) for _ in range(dim)))
                for _ in range(k)
            )
        )
        hyps = enumerate_threshold_trees([s.features for s in data], k, depth=1)
        h = hyps[rng.randrange(len(hyps))]
        phi = construct_rotation(h, C, data, norm)
        part_cost, _, _ = cost_of_partition(h, data, norm)
        center_cost = cost_of_centers(C, [s.solution for s in data], norm)
        assert c_loss(compose(h, phi), C, data, norm) <= 2 * part_cost + center_cost + 1e-9


def test_cost_of_partition_handles_empty_parts():
    data = [LabeledSample(Point.of(0.0), Point.of(4.0))]
    h = ThresholdTree((), (), (1,), k=3)
    cost, C_h, capped = cost_of_partition(h, data, L1)
    assert cost == pytest.approx(0.0)  # the single sample is its own median
    assert C_h.k == 3
    assert C_h[0] == Point.of(4.0)
    assert C_h[1] == Point.of(0.0)  # empty parts get the origin placeholder
    assert capped == ()


def test_erm_ties_go_to_earliest_hypothesis():
    data = [LabeledSample(Point.of(0.0), Point.of(0.0))]
    C = CenterSet((Point.of(0.0), Point.of(0.0)))
    hyps = enumerate_threshold_trees([Point.of(0.0)], 2, depth=0)
    h, phi = rc_erm(hyps, C, data, L2)
    assert h is hyps[0] and phi == identity_rotation(2)


def test_two_step_learn_recovers_separable_clusters():
    # features reveal the cluster; solutions sit exactly at two centers
    data = []
    for i in range(6):
        data.append(LabeledSample(Point.of(0.0 + i * 0.1), Point.of(0.0)))
        data.append(LabeledSample(Point.of(100.0 + i * 0.1), Point.of(50.0)))
    h, phi, C_h, _, _ = two_step_learn(
        enumerate_threshold_trees([s.features for s in data], 2, depth=1),
        data,
        k=2,
        norm=L1,
    )
    g = compose(h, phi)
    assert c_loss(g, C_h, data, L1) == pytest.approx(0.0, abs=1e-9)


def test_identity_rotation_first_in_enumeration():
    rots = all_rotations(2)
    assert rots[0] == identity_rotation(2)
    assert len(rots) == 4
