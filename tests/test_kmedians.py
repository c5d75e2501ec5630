import random
from itertools import combinations

import pytest

from warmstart.errors import CapExceeded
from warmstart.kmedians import (
    CenterSet,
    cost_of_centers,
    learn_centers_local_search,
    learn_centers_subset_erm,
    _geometric_median,
    median_point_detail,
)
from warmstart.metric import L1, L2, LINF, NORMS, Point, distance


def naive_best_subset(X, k, norm):
    """Independent reference: direct scan over all k-subsets."""
    best_cost, best = float("inf"), None
    for idxs in combinations(range(len(X)), k):
        C = CenterSet(tuple(X[i] for i in idxs))
        c = cost_of_centers(C, X, norm)
        if c < best_cost:
            best_cost, best = c, C
    return best_cost, best


def test_hand_example_one_center():
    X = [Point.of(0.0), Point.of(1.0), Point.of(10.0), Point.of(11.0)]
    C = learn_centers_subset_erm(X, 1, L1)
    assert C.centers == (Point.of(1.0),)
    assert cost_of_centers(C, X, L1) == pytest.approx(5.0)


def test_hand_example_two_centers():
    X = [Point.of(0.0), Point.of(1.0), Point.of(10.0), Point.of(11.0)]
    C = learn_centers_subset_erm(X, 2, L1)
    assert cost_of_centers(C, X, L1) == pytest.approx(0.5)
    # lexicographically first optimal subset: indices (0, 2)
    assert C.centers == (Point.of(0.0), Point.of(10.0))


def test_subset_erm_matches_naive_enumeration():
    rng = random.Random(23)
    for _ in range(60):
        m = rng.randint(2, 12)
        k = rng.randint(1, min(4, m))
        dim = rng.randint(1, 3)
        norm = rng.choice(NORMS)
        X = [Point(tuple(rng.uniform(-9, 9) for _ in range(dim))) for _ in range(m)]
        C = learn_centers_subset_erm(X, k, norm)
        exp_cost, _ = naive_best_subset(X, k, norm)
        assert cost_of_centers(C, X, norm) == pytest.approx(exp_cost, abs=1e-12)


def test_subset_erm_cap_and_k_validation():
    X = [Point.of(float(i)) for i in range(60)]
    with pytest.raises(CapExceeded):
        learn_centers_subset_erm(X, 20, L2)
    with pytest.raises(ValueError):
        learn_centers_subset_erm(X[:3], 4, L2)


def test_local_search_never_worse_than_start_and_exact_on_small():
    rng = random.Random(9)
    for _ in range(30):
        m = rng.randint(3, 10)
        k = rng.randint(1, 3)
        norm = rng.choice(NORMS)
        X = [Point.of(rng.uniform(-9, 9)) for _ in range(m)]
        start = cost_of_centers(CenterSet(tuple(X[:k])), X, norm)
        C = learn_centers_local_search(X, k, norm)
        got = cost_of_centers(C, X, norm)
        assert got <= start + 1e-12
        # single-swap local optima of 1-D 1-median restricted to the sample
        # are global for k=1
        if k == 1:
            exp, _ = naive_best_subset(X, 1, norm)
            assert got == pytest.approx(exp, abs=1e-12)


def test_median_point_l1_lower_median():
    pts = [Point.of(1.0, 5.0), Point.of(2.0, 7.0), Point.of(9.0, 6.0), Point.of(4.0, 8.0)]
    # even count: lower median per coordinate
    assert median_point_detail(pts, L1)[0] == Point.of(2.0, 6.0)


def test_median_point_linf_midrange():
    pts = [Point.of(0.0), Point.of(3.0), Point.of(10.0)]
    assert median_point_detail(pts, LINF)[0] == Point.of(5.0)


def test_median_point_l2_geometric_median():
    # symmetric cross: geometric median is the center
    pts = [Point.of(1.0, 0.0), Point.of(-1.0, 0.0), Point.of(0.0, 1.0), Point.of(0.0, -1.0)]
    m, _ = median_point_detail(pts, L2)
    assert distance(m, Point.of(0.0, 0.0), L2) < 1e-6


def test_median_point_minimizes_total_distance():
    # Linf is excluded: its convention is the coordinate-wise midrange,
    # which need not minimize the summed distance.
    rng = random.Random(31)
    for norm in (L1, L2):
        pts = [Point.of(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(7)]
        m, _ = median_point_detail(pts, norm)
        total = sum(distance(m, p, norm) for p in pts)
        for _ in range(200):
            q = Point.of(rng.uniform(-5, 5), rng.uniform(-5, 5))
            alt = sum(distance(q, p, norm) for p in pts)
            assert total <= alt + 1e-6


def test_median_point_empty_rejected():
    with pytest.raises(ValueError):
        median_point_detail([], L2)


def ref_geometric_median(points, tol=1e-9, max_iter=1000):
    """Weiszfeld's iteration on ``Point``s through ``distance``, as the L2
    median was first written; also returns whether it hit ``max_iter``."""
    est = [0.0] * points[0].dim
    for p in points:  # the mean, summed left to right
        est = [e + c for e, c in zip(est, p.coords)]
    est = [e / len(points) for e in est]
    for _ in range(max_iter):
        num = [0.0] * len(est)
        denom = 0.0
        for p in points:
            d = distance(Point(tuple(est)), p, L2)
            w = 1.0 / max(d, 1e-12)
            denom += w
            for j in range(len(est)):
                num[j] += w * p[j]
        new = [v / denom for v in num]
        shift = max(abs(a - b) for a, b in zip(new, est))
        est = new
        if shift < tol:
            return Point(tuple(est)), False
    return Point(tuple(est)), True


def test_l2_median_matches_the_point_reference():
    # Uniform draws, integer grids and repeats from a small pool (medians on
    # a data point, where Weiszfeld crawls and often hits the cap).
    rng = random.Random(77)
    capped = 0
    for case in range(2000):
        dim = rng.randint(1, 3)
        n = rng.randint(1, 9)
        kind = case % 3
        if kind == 0:
            pts = [Point(tuple(rng.uniform(-50, 50) for _ in range(dim))) for _ in range(n)]
        else:
            pool = [Point(tuple(float(rng.randint(-3, 3)) for _ in range(dim))) for _ in range(n)]
            pts = pool if kind == 1 else [rng.choice(pool[: max(1, n // 2)]) for _ in range(n)]
        got, got_capped = median_point_detail(pts, L2)
        want, want_capped = ref_geometric_median(pts)
        assert repr(got) == repr(want) and got_capped == want_capped
        capped += got_capped
    assert capped >= 10  # the cap path is exercised, not only convergence


def test_geometric_median_starts_from_a_left_to_right_mean():
    # 1e16 + 1.0 rounds back to 1e16, so the mean summed left to right is
    # 0.0; a compensated sum (builtin ``sum`` from Python 3.12) gives 1/3.
    assert _geometric_median([(1e16,), (1.0,), (-1e16,)], max_iter=0) == ((0.0,), True)


def test_l2_median_rejects_a_non_finite_estimate():
    with pytest.raises(ValueError):
        median_point_detail([Point.of(1.5e308), Point.of(1.6e308)], L2)  # the mean overflows
