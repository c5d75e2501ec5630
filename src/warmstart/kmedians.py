"""Offline learning of k fixed predictions (k-medians over solution samples).

Two learners are provided: an exact subset-enumeration ERM (feasible only at
desk scale, guarded by an enumeration cap) and a single-swap local search
fallback for larger samples.  Also houses the 1-median subroutines used by
the partition-learning module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, islice
from operator import add, mul
from typing import Sequence

import numpy as np

from .errors import CapExceeded, DimensionMismatch
from .metric import L1, L2, LINF, Point, distance_matrix, mean_left_to_right

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


def cost_of_centers(C: CenterSet, X: Sequence[Point], norm: str) -> float:
    """Mean distance from each sample to its closest center, summed left to
    right over the samples."""
    if not X:
        raise ValueError("empty sample set")
    return float(mean_left_to_right(distance_matrix(X, norm, C.centers).min(axis=1)))


def _nearest(D: np.ndarray, idxs: Sequence[int]) -> np.ndarray:
    """Distance from each sample to its closest center among rows ``idxs``
    of ``D``; infinite when there are none."""
    if not idxs:
        return np.full(D.shape[1], math.inf)
    return D[list(idxs)].min(axis=0)


# Table entries scored at once by subset ERM: a block of (k-1)-prefixes
# holds prefixes x m candidates x m samples of them.
SUBSET_ERM_BLOCK = 1 << 15


def learn_centers_subset_erm(X: Sequence[Point], k: int, norm: str) -> CenterSet:
    """Exact ERM over all k-subsets of the sample.

    Ties are broken toward the lexicographically first subset of sorted
    member indices, which is the order ``itertools.combinations`` yields.
    Subsets are scored from one distance table, a block of (k-1)-prefixes
    at a time: every prefix scores the candidate last members from the
    block's least valid one on at once, candidates at or below the prefix's
    last index score +inf, and the block's first least cost is its first
    subset in that order.  The cost is at most C(m-1, k-1) x m rows of m
    samples.
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
    # The last prefix index is at most m-2, so every prefix has an extension.
    prefixes = combinations(range(m - 1), k - 1)
    step = max(1, SUBSET_ERM_BLOCK // (m * m))
    best_cost = math.inf
    best: tuple[int, ...] | None = None
    while block := list(islice(prefixes, step)):
        P = np.array(block, dtype=np.intp).reshape(len(block), k - 1)
        near = D[P].min(axis=1) if k > 1 else np.full((1, m), math.inf)
        first = P[:, -1] + 1 if k > 1 else np.zeros(1, np.intp)
        lo = int(first.min())
        costs = mean_left_to_right(np.minimum(D[lo:], near[:, None, :]))
        costs[np.arange(lo, m) < first[:, None]] = math.inf
        p, j = divmod(int(costs.argmin()), m - lo)
        if costs[p, j] < best_cost:
            best_cost = costs[p, j]
            best = block[p] + (lo + j,)
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


MEDIAN_MAX_ITER = 1000


def median_point_detail(points: Sequence[Point], norm: str) -> tuple[Point, bool]:
    """Empirical 1-median of a nonempty point set under the given norm, and
    whether it stopped at ``MEDIAN_MAX_ITER`` iterations before converging
    (only the L2 median iterates).

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
        return Point(tuple(coords)), False
    if norm == LINF:
        coords = []
        for j in range(dim):
            col = [p[j] for p in points]
            coords.append((min(col) + max(col)) / 2.0)
        return Point(tuple(coords)), False
    if norm == L2:
        est, capped = _geometric_median([p.coords for p in points])
        return Point(est), capped
    raise ValueError(f"unknown norm {norm!r}")


def _geometric_median(
    P: Sequence[tuple[float, ...]], tol: float = 1e-9, max_iter: int = MEDIAN_MAX_ITER
) -> tuple[tuple[float, ...], bool]:
    """Weiszfeld's iteration from the mean, over coordinate tuples.

    The mean sums each coordinate in point order.  Each step computes every
    distance as ``distance`` does (squares summed left to right, then
    ``sqrt``), weighs each point by ``1 / max(d, 1e-12)`` and sums the
    weights and the weighted coordinates in point order, so the estimate is
    the same float at every step and on every Python version (builtin
    ``sum`` over floats is compensated from 3.12).
    Returns the estimate and whether ``max_iter`` steps ran without a shift
    below ``tol``.  A non-finite estimate raises ``ValueError``.
    """
    n = len(P)
    cols = list(zip(*P))
    est = [reduce(add, col, 0.0) / n for col in cols]
    for _ in range(max_iter):
        _check_finite(est)
        e = est[0]
        sq = [(e - x) * (e - x) for x in cols[0]]
        for e, col in zip(est[1:], cols[1:]):
            sq = [s + (e - x) * (e - x) for s, x in zip(sq, col)]
        # 1 / max(d, 1e-12), spelled so that a NaN d stays NaN as with max
        ws = [1.0 / (1e-12 if d < 1e-12 else d) for d in map(math.sqrt, sq)]
        denom = reduce(add, ws, 0.0)
        new = [reduce(add, map(mul, ws, col), 0.0) / denom for col in cols]
        shift = max(abs(a - b) for a, b in zip(new, est))
        est = new
        if shift < tol:
            capped = False
            break
    else:
        capped = True
    _check_finite(est)
    return tuple(est), capped


def _check_finite(coords: Sequence[float]) -> None:
    for c in coords:
        if not math.isfinite(c):
            raise ValueError(f"non-finite coordinate {c!r}")
