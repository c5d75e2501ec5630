"""Offline learning of k fixed predictions (k-medians over solution samples).

Two learners are provided: an exact subset-enumeration ERM (feasible only at
desk scale, guarded by an enumeration cap) and a single-swap local search
fallback for larger samples.  Also houses the 1-median subroutines used by
the partition-learning module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import CapExceeded, DimensionMismatch
from .metric import L1, L2, LINF, Point, distance, distance_matrix, mean_left_to_right
from .oracle import HiddenInstance, run_parallel_k

ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class CenterSet:
    """An ordered set of k centers (not necessarily distinct)."""

    centers: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(self.centers))
        if not self.centers:
            raise ValueError("a center set needs at least one center")
        dims = {c.dim for c in self.centers}
        if len(dims) != 1:
            raise DimensionMismatch("centers must share one dimension")

    @property
    def k(self) -> int:
        return len(self.centers)

    def __getitem__(self, i: int) -> Point:
        return self.centers[i]

    def __iter__(self):
        return iter(self.centers)


def nearest_center_distance(x: Point, C: CenterSet, norm: str) -> float:
    return min(distance(c, x, norm) for c in C)


def cost_of_centers(C: CenterSet, X: Sequence[Point], norm: str) -> float:
    """Mean distance from each sample to its closest center."""
    if not X:
        raise ValueError("empty sample set")
    total = 0.0
    for x in X:
        total += nearest_center_distance(x, C, norm)
    return total / len(X)


def _nearest(D: np.ndarray, idxs: Sequence[int]) -> np.ndarray:
    """Distance from each sample to its closest center among rows ``idxs``
    of ``D``; infinite when there are none."""
    if not idxs:
        return np.full(D.shape[1], math.inf)
    return D[list(idxs)].min(axis=0)


def learn_centers_subset_erm(X: Sequence[Point], k: int, norm: str) -> CenterSet:
    """Exact ERM over all k-subsets of the sample.

    Ties are broken toward the lexicographically first subset of sorted
    member indices, which is the order ``itertools.combinations`` yields.
    Subsets are scored from one distance table: each (k-1)-prefix, in that
    order, scores all its extensions in one vector step, so the cost is
    C(m-1, k-1) steps over an m x m table.
    """
    m = len(X)
    if k > m:
        raise ValueError(f"k={k} exceeds sample size m={m}")
    if math.comb(m, k) > ENUMERATION_CAP:
        raise CapExceeded(
            f"C({m},{k}) subsets exceed the cap {ENUMERATION_CAP}; "
            "use learn_centers_local_search"
        )
    D = distance_matrix(X, norm)
    best_cost = math.inf
    best: tuple[int, ...] | None = None
    # The last prefix index is at most m-2, so every prefix has an extension.
    for prefix in combinations(range(m - 1), k - 1):
        first = prefix[-1] + 1 if prefix else 0
        costs = mean_left_to_right(np.minimum(D[first:], _nearest(D, prefix)))
        j = int(costs.argmin())
        if costs[j] < best_cost:
            best_cost = costs[j]
            best = prefix + (first + j,)
    assert best is not None
    return CenterSet(tuple(X[i] for i in best))


def learn_centers_local_search(
    X: Sequence[Point], k: int, norm: str, max_sweeps: int = 100
) -> CenterSet:
    """Single-swap local search over centers restricted to the sample.

    Starts from the k lexicographically first sample points and stops when no
    swap improves the cost or ``max_sweeps`` full sweeps have run.  The result
    never costs more than the initialization.
    """
    m = len(X)
    if k > m:
        raise ValueError(f"k={k} exceeds sample size m={m}")
    D = distance_matrix(X, norm)
    current = list(range(k))
    cost = float(mean_left_to_right(_nearest(D, current)))
    for _ in range(max_sweeps):
        improved = False
        for slot in range(k):
            # Accepting a swap changes only this slot, so the other centers,
            # and with them every trial cost of this slot, stay fixed.  The
            # costs are scored 64 candidates at a time to keep temporaries small.
            near = _nearest(D, current[:slot] + current[slot + 1 :])
            trial_costs = []
            for lo in range(0, m, 64):
                rows = np.minimum(D[lo : lo + 64], near)
                trial_costs += mean_left_to_right(rows).tolist()
            for cand in range(m):
                if cand in current:
                    continue
                if trial_costs[cand] < cost - 1e-12:
                    current[slot], cost = cand, trial_costs[cand]
                    improved = True
        if not improved:
            break
    return CenterSet(tuple(X[i] for i in current))


def learn_centers(X: Sequence[Point], k: int, norm: str) -> tuple[CenterSet, str]:
    """Exact subset ERM, or single-swap local search when the number of
    subsets exceeds ``ENUMERATION_CAP``.  Returns the centers and the method
    that found them: ``"subset-erm"`` or ``"local-search"``."""
    try:
        return learn_centers_subset_erm(X, k, norm), "subset-erm"
    except CapExceeded:
        return learn_centers_local_search(X, k, norm), "local-search"


def solve_with_learned_centers(
    inst: HiddenInstance, C: CenterSet
) -> tuple[Point, int]:
    """Solve an instance by running the learned centers in parallel."""
    return run_parallel_k(inst, list(C.centers))


def median_point(points: Sequence[Point], norm: str) -> Point:
    """Empirical 1-median of a nonempty point set under the given norm.

    Conventions: coordinate-wise lower median under L1 (exact), geometric
    median by iteratively reweighted averaging under L2, coordinate-wise
    midpoint of extremes under Linf.
    """
    if not points:
        raise ValueError("empty point set")
    dim = points[0].dim
    if norm == L1:
        coords = []
        for j in range(dim):
            col = sorted(p[j] for p in points)
            coords.append(col[(len(col) - 1) // 2])
        return Point(tuple(coords))
    if norm == LINF:
        coords = []
        for j in range(dim):
            col = [p[j] for p in points]
            coords.append((min(col) + max(col)) / 2.0)
        return Point(tuple(coords))
    if norm == L2:
        return _geometric_median(points)
    raise ValueError(f"unknown norm {norm!r}")


def _geometric_median(
    points: Sequence[Point], tol: float = 1e-9, max_iter: int = 1000
) -> Point:
    n = len(points)
    est = [sum(p[j] for p in points) / n for j in range(points[0].dim)]
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
            break
    return Point(tuple(est))
