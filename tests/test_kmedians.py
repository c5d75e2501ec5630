import math
import random
from functools import reduce
from itertools import combinations
from operator import add, mul

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


def ref_geometric_median(P, tol=1e-9, max_iter=1000):
    """Weiszfeld's iteration from the mean over coordinate tuples, as the L2
    median ran before its Newton steps (bit for bit the ``Point`` form it
    was first written in); also returns whether it hit ``max_iter``."""
    n = len(P)
    cols = list(zip(*P))
    est = [reduce(add, col, 0.0) / n for col in cols]
    for _ in range(max_iter):
        e = est[0]
        sq = [(e - x) * (e - x) for x in cols[0]]
        for e, col in zip(est[1:], cols[1:]):
            sq = [s + (e - x) * (e - x) for s, x in zip(sq, col)]
        ws = [1.0 / max(d, 1e-12) for d in map(math.sqrt, sq)]
        denom = reduce(add, ws, 0.0)
        new = [reduce(add, map(mul, ws, col), 0.0) / denom for col in cols]
        shift = max(abs(a - b) for a, b in zip(new, est))
        est = new
        if shift < tol:
            return tuple(est), False
    return tuple(est), True


def distance_sum(y, P):
    total = 0.0
    for p in P:
        total += distance(Point(y), Point(p), L2)
    return total


def check_against_the_reference(P):
    """Assert that the L2 median of ``P`` converges, with a distance sum at
    most (1 + 1e-12) times the reference's; return whether the reference
    hit its cap."""
    got, got_capped = median_point_detail([Point(p) for p in P], L2)
    want, want_capped = ref_geometric_median(P)
    assert not got_capped
    assert distance_sum(got.coords, P) <= (1 + 1e-12) * distance_sum(want, P)
    return want_capped


def test_l2_median_matches_the_point_reference():
    # Uniform draws, integer grids and repeats from a small pool (medians on
    # a data point, where Weiszfeld crawls and often hits the cap), then
    # near-collinear 2-D sets (a sum nearly flat along a segment, where it
    # crawls too).
    rng = random.Random(77)
    ref_capped = 0
    for case in range(2000):
        dim = rng.randint(1, 3)
        n = rng.randint(1, 9)
        kind = case % 3
        if kind == 0:
            pts = [tuple(rng.uniform(-50, 50) for _ in range(dim)) for _ in range(n)]
        else:
            pool = [tuple(float(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(n)]
            pts = pool if kind == 1 else [rng.choice(pool[: max(1, n // 2)]) for _ in range(n)]
        ref_capped += check_against_the_reference(pts)
    assert ref_capped >= 10
    rng = random.Random(78)
    ref_capped = 0
    for _ in range(600):
        n = rng.randint(2, 12)
        length, width = rng.choice([1.0, 12.3, 68.0, 201.0]), rng.choice([0.0, 1e-6, 1e-3, 0.3, 0.95])
        ref_capped += check_against_the_reference(
            [(rng.uniform(0, length), rng.uniform(0, width)) for _ in range(n)]
        )
    assert ref_capped >= 60


@pytest.mark.parametrize("n, length, width", [(10, 12.3, 0.94), (18, 201.0, 0.95)])
def test_l2_median_converges_on_parts_shaped_like_the_capped_ones(n, length, width):
    # The shapes of the learn benchmark's parts whose Weiszfeld median
    # stopped at the cap: n points spread length x width.
    rng = random.Random(n)
    ref_capped = 0
    for _ in range(20):
        ref_capped += check_against_the_reference(
            [(rng.uniform(0, length), rng.uniform(0, width)) for _ in range(n)]
        )
    assert ref_capped >= 2


def test_a_two_point_l2_median_is_the_midpoint():
    for P in [[(0.0, 0.0), (3.0, 1.0)], [(-2.5,), (7.0,)], [(1.0, 2.0, 3.0), (1.0, 2.0, 3.5)]]:
        assert _geometric_median(P) == (tuple((a + b) / 2 for a, b in zip(*P)), False)


def test_a_forced_l2_median_cap_reports_capped():
    # A triangle's Fermat point, which no step lands on exactly: five steps
    # converge, four are capped.
    P = [(0.0, 0.0), (4.0, 0.0), (1.0, 3.0)]
    assert _geometric_median(P, max_iter=5)[1] is False
    sums = [distance_sum(_geometric_median(P, max_iter=m)[0], P) for m in range(5)]
    assert all(_geometric_median(P, max_iter=m)[1] for m in range(5))
    assert sums == sorted(sums, reverse=True) and sums[4] < sums[0]


def test_geometric_median_starts_from_a_left_to_right_mean():
    # 1e16 + 1.0 rounds back to 1e16, so the mean summed left to right is
    # 0.0; a compensated sum (builtin ``sum`` from Python 3.12) gives 1/3.
    assert _geometric_median([(1e16,), (1.0,), (-1e16,)], max_iter=0) == ((0.0,), True)


def test_l2_median_rejects_a_non_finite_estimate():
    with pytest.raises(ValueError):
        median_point_detail([Point.of(1.5e308), Point.of(1.6e308)], L2)  # the mean overflows
