import math

import pytest

from warmstart.errors import DimensionMismatch
from warmstart.metric import (
    L1,
    L2,
    LINF,
    NORMS,
    Point,
    distance,
    distance_matrix,
    origin,
    pairwise_max_distance,
    search_steps,
)


def test_distance_hand_values():
    u = Point.of(0.0, 0.0)
    v = Point.of(3.0, 4.0)
    assert distance(u, v, L1) == 7.0
    assert distance(u, v, L2) == 5.0
    assert distance(u, v, LINF) == 4.0


def test_distance_is_a_metric_on_random_points():
    import random

    rng = random.Random(7)
    for _ in range(200):
        dim = rng.randint(1, 5)
        pts = [Point(tuple(rng.uniform(-9, 9) for _ in range(dim))) for _ in range(3)]
        a, b, c = pts
        for norm in NORMS:
            assert distance(a, a, norm) == 0.0
            assert distance(a, b, norm) == distance(b, a, norm)
            assert distance(a, c, norm) <= distance(a, b, norm) + distance(b, c, norm) + 1e-12


def test_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        distance(Point.of(1.0), Point.of(1.0, 2.0), L2)


def test_unknown_norm_rejected():
    with pytest.raises(ValueError):
        distance(Point.of(0.0), Point.of(1.0), "L3")


def test_point_rejects_nonfinite_and_empty():
    with pytest.raises(ValueError):
        Point.of(float("nan"))
    with pytest.raises(ValueError):
        Point.of(float("inf"))
    with pytest.raises(ValueError):
        Point(())


def test_search_steps_floor_and_ceiling():
    s = Point.of(0.0)
    # exact prediction still costs one verification step
    assert search_steps(s, s, L2) == 1
    assert search_steps(Point.of(0.2), s, L2) == 1
    assert search_steps(Point.of(1.0), s, L2) == 1
    assert search_steps(Point.of(1.1), s, L2) == 2
    assert search_steps(Point.of(7.0), s, L2) == 7


def test_search_steps_matches_ceiling_of_distance():
    import random

    rng = random.Random(3)
    for _ in range(200):
        p = Point.of(rng.uniform(-50, 50), rng.uniform(-50, 50))
        s = Point.of(rng.uniform(-50, 50), rng.uniform(-50, 50))
        for norm in NORMS:
            d = distance(p, s, norm)
            assert search_steps(p, s, norm) == max(1, math.ceil(d))


def test_origin_and_pairwise_max():
    import random

    assert origin(3) == Point.of(0.0, 0.0, 0.0)
    pts = [Point.of(0.0), Point.of(4.0), Point.of(-3.0)]
    assert pairwise_max_distance(pts, L1) == 7.0
    assert pairwise_max_distance([], L2) == 0.0
    assert pairwise_max_distance(pts[:1], L2) == 0.0
    rng = random.Random(17)
    for norm in NORMS:
        pts = [Point.of(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(9)]
        best = max(distance(p, q, norm) for p in pts for q in pts)
        assert repr(pairwise_max_distance(pts, norm)) == repr(best)


def test_distance_matrix_is_bit_identical_to_distance():
    import random

    rng = random.Random(13)

    def coord():
        sign = rng.choice((1.0, -1.0))
        if rng.random() < 0.1:
            return sign * 0.0
        return sign * rng.uniform(1, 10) * 10.0 ** rng.randint(-8, 8)

    for case in range(180):
        norm = NORMS[case % 3]
        dim = 1 + case % 6
        X = [Point(tuple(coord() for _ in range(dim))) for _ in range(rng.randint(1, 7))]
        X.append(Point((0.0,) * dim))
        X.append(Point((-0.0,) * dim))
        Y = X[:2] + [Point(tuple(coord() for _ in range(dim)))]
        D = distance_matrix(X, norm)
        R = distance_matrix(X, norm, Y)
        assert D.shape == (len(X), len(X)) and R.shape == (len(X), 3)
        assert [list(map(repr, row)) for row in D.tolist()] == [
            [repr(distance(x, y, norm)) for y in X] for x in X
        ]
        assert [list(map(repr, row)) for row in R.tolist()] == [
            [repr(distance(x, y, norm)) for y in Y] for x in X
        ]
    a, b = Point.of(1.0), Point.of(1.0, 2.0)
    with pytest.raises(DimensionMismatch):
        distance_matrix([a, b], L2)
    with pytest.raises(DimensionMismatch):
        distance_matrix([a], L1, [b])
    with pytest.raises(ValueError):
        distance_matrix([a], "L3")
    assert distance_matrix([], L2).shape == (0, 0)
    assert distance_matrix([], L2, [a, a]).shape == (0, 2)
    assert distance_matrix([a, a], LINF, []).shape == (2, 0)
