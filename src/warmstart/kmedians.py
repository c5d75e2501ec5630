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
    whether it stopped at ``MEDIAN_MAX_ITER`` steps before converging (only
    the L2 median iterates, and it converges in a handful of steps, so the
    cap is a safety net that reports when it fires).

    Conventions: coordinate-wise lower median under L1 (exact), geometric
    median by safeguarded Newton-Weiszfeld steps under L2 (see
    ``_geometric_median``), coordinate-wise midpoint of extremes under Linf.
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
        # The cap is read here, at call time, rather than bound as a default.
        est, capped = _geometric_median([p.coords for p in points], max_iter=MEDIAN_MAX_ITER)
        return Point(est), capped
    raise ValueError(f"unknown norm {norm!r}")


def _geometric_median(
    P: Sequence[tuple[float, ...]], tol: float = 1e-9, max_iter: int = MEDIAN_MAX_ITER
) -> tuple[tuple[float, ...], bool]:
    """The point minimizing the summed L2 distance to coordinate tuples ``P``,
    and whether ``max_iter`` steps ran without converging.

    Starts from the mean, each coordinate summed in point order.  Each step
    forms Weiszfeld's point (each point weighed by ``1 / max(d, 1e-12)``)
    and, unless the estimate sits within 1e-12 of a data point, the Newton
    step of the distance sum (see ``_newton_step``), halved while it does
    not beat Weiszfeld's point but still lowers the sum; it keeps whichever
    has the lower sum.  The iteration has converged when a step shifts no
    coordinate by ``tol`` or more (a two-point set stops at its midpoint
    so), when the kept point does not lower the sum (floating point can do
    no better), or when the data point nearest the new estimate passes
    Kuhn's optimality test (see ``_is_median``) and becomes the estimate.

    Distances are computed as ``distance`` does (squares summed left to
    right, then ``sqrt``), and every sum runs left to right through
    ``reduce``, so the estimate is the same float on every Python version
    (builtin ``sum`` over floats is compensated from 3.12).  With
    ``max_iter=0`` it returns the mean as capped.  A non-finite estimate
    raises ``ValueError``.
    """
    n = len(P)
    cols = list(zip(*P))
    est = [reduce(add, col, 0.0) / n for col in cols]
    ds = _distances(est, cols)
    capped = True
    for _ in range(max_iter):
        _check_finite(est)
        # 1 / max(d, 1e-12), spelled so that a NaN d stays NaN as with max
        ws = [1.0 / (1e-12 if d < 1e-12 else d) for d in ds]
        denom = reduce(add, ws, 0.0)
        new = [reduce(add, map(mul, ws, col), 0.0) / denom for col in cols]
        new_ds = _distances(new, cols)
        if min(ds) >= 1e-12:
            step = _newton_step(est, ws, denom, cols)
            if step is not None:
                damped = _damped_newton(est, step, cols, _total(new_ds))
                if damped is not None:
                    new, new_ds = damped
        if max(abs(a - b) for a, b in zip(new, est)) < tol:
            est, capped = new, False
            break
        if not _total(new_ds) < _total(ds):
            capped = False
            break
        est, ds = new, new_ds
        nearest = P[ds.index(min(ds))]
        if _is_median(nearest, cols):
            est, capped = list(nearest), False
            break
    _check_finite(est)
    return tuple(est), capped


def _distances(y: Sequence[float], cols: Sequence[Sequence[float]]) -> list[float]:
    """The L2 distance from ``y`` to each point of the columns ``cols``, as
    ``distance`` computes it."""
    e = y[0]
    sq = [(e - x) * (e - x) for x in cols[0]]
    for e, col in zip(y[1:], cols[1:]):
        sq = [s + (e - x) * (e - x) for s, x in zip(sq, col)]
    return list(map(math.sqrt, sq))


def _total(xs: Sequence[float]) -> float:
    return reduce(add, xs, 0.0)


# The Hessian's eigenvalues lie in [0, sum of weights]; a pivot at or below
# this share of that sum is rounding of a zero (one dimension, or every
# point on one line through the estimate), so the Hessian counts as singular.
SINGULAR_PIVOT = 1e-12


def _newton_step(
    est: Sequence[float], ws: Sequence[float], denom: float, cols: Sequence[Sequence[float]]
) -> list[float] | None:
    """The Newton step s of the distance sum at ``est``, which sits on no
    data point: with ``ws`` the inverse distances summing to ``denom`` and
    u_i the unit vectors from the points to ``est``, s solves H s = g for
    the gradient g = sum of u_i and the Hessian H = sum of (I - u_i u_i^T)
    w_i, by Gaussian elimination with partial pivoting.  None when H is
    singular (see ``SINGULAR_PIVOT``)."""
    dim = len(cols)
    us = [[(e - x) * w for x, w in zip(col, ws)] for e, col in zip(est, cols)]
    wus = [list(map(mul, u, ws)) for u in us]
    M = [
        [(denom if a == b else 0.0) - _total(map(mul, wus[a], us[b])) for b in range(dim)]
        + [_total(us[a])]
        for a in range(dim)
    ]
    for c in range(dim):
        p = max(range(c, dim), key=lambda r: abs(M[r][c]))
        if not abs(M[p][c]) > SINGULAR_PIVOT * denom:
            return None
        M[c], M[p] = M[p], M[c]
        for r in range(c + 1, dim):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    step = [0.0] * dim
    for c in reversed(range(dim)):
        step[c] = (M[c][dim] - _total(map(mul, M[c][c + 1 : dim], step[c + 1 :]))) / M[c][c]
    return step


def _damped_newton(
    est: Sequence[float], step: Sequence[float], cols: Sequence[Sequence[float]], bound: float
) -> tuple[list[float], list[float]] | None:
    """The first of ``est - step``, ``est - step/2``, ``est - step/4``, ...
    whose distance sum is below ``bound``, with its distances; None once the
    sums stop falling first.  The sum is convex, so along the step it falls
    until the halving passes its least value."""
    t, prev = 1.0, math.inf
    while True:
        trial = [e - t * s for e, s in zip(est, step)]
        trial_ds = _distances(trial, cols)
        f = _total(trial_ds)
        if f < bound:
            return trial, trial_ds
        if not f < prev:
            return None
        t, prev = t / 2, f


def _is_median(x: Sequence[float], cols: Sequence[Sequence[float]]) -> bool:
    """Kuhn's test: a data point ``x`` minimizes the distance sum if the
    unit vectors to it from the other points sum to a vector no longer than
    the number of points at ``x``."""
    dx = _distances(x, cols)
    pull = [_total([(a - c) / d for c, d in zip(col, dx) if d > 0.0]) for a, col in zip(x, cols)]
    return math.sqrt(_total([r * r for r in pull])) <= dx.count(0.0)


def _check_finite(coords: Sequence[float]) -> None:
    for c in coords:
        if not math.isfinite(c):
            raise ValueError(f"non-finite coordinate {c!r}")
