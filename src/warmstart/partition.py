"""Learning k-wise partitions of instance space with center-indexed loss.

A partition hypothesis routes an instance's features to one of k labels; the
loss of a hypothesis against a fixed center set is the distance from the true
solution to the center the hypothesis picked.  Rotations relabel hypothesis
outputs, and ERM over the rotationally completed class is done by enumerating
all k^k rotations against a base ERM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .errors import CapExceeded
from .kmedians import CenterSet, learn_centers, median_point
from .metric import Point, distance, distance_matrix, mean_left_to_right, origin
from .oracle import HiddenInstance, run_parallel_k_detail


@dataclass(frozen=True)
class LabeledSample:
    features: Point
    solution: Point


@dataclass(frozen=True)
class ThresholdTree:
    """An axis-aligned threshold tree of depth <= 2 with leaf labels in [k].

    Depth 0: no splits, one leaf.  Depth 1: one split, two leaves.  Depth 2:
    a root split whose children each split again, four leaves.  ``eval_work``
    is the flat work charge for evaluating the hypothesis on an instance.
    """

    feature_indices: tuple[int, ...]
    thresholds: tuple[float, ...]
    leaf_labels: tuple[int, ...]
    k: int
    eval_work: int = 1

    def __post_init__(self):
        depth_leaves = {0: 1, 1: 2, 3: 4}
        n = len(self.feature_indices)
        if n not in depth_leaves or len(self.thresholds) != n:
            raise ValueError("expected 0, 1, or 3 split nodes")
        if len(self.leaf_labels) != depth_leaves[n]:
            raise ValueError("leaf count does not match split count")
        if any(not (1 <= lab <= self.k) for lab in self.leaf_labels):
            raise ValueError("leaf labels must lie in 1..k")
        if self.eval_work < 1:
            raise ValueError("eval_work must be >= 1")

    def label(self, x: Point) -> int:
        f, t, leaves = self.feature_indices, self.thresholds, self.leaf_labels
        if not f:
            return leaves[0]
        if len(f) == 1:
            return leaves[0] if x[f[0]] <= t[0] else leaves[1]
        if x[f[0]] <= t[0]:
            return leaves[0] if x[f[1]] <= t[1] else leaves[1]
        return leaves[2] if x[f[2]] <= t[2] else leaves[3]


@dataclass(frozen=True)
class RotatedTree:
    """A hypothesis with a rotation applied to its output labels."""

    base: ThresholdTree
    phi: tuple[int, ...]

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def eval_work(self) -> int:
        return self.base.eval_work

    def label(self, x: Point) -> int:
        return self.phi[self.base.label(x) - 1]


Rotation = tuple[int, ...]


def identity_rotation(k: int) -> Rotation:
    return tuple(range(1, k + 1))


def rotate_centers(C: CenterSet, phi: Rotation) -> CenterSet:
    """phi(C) = (C^(phi(1)), ..., C^(phi(k)))."""
    return CenterSet(tuple(C[phi[i] - 1] for i in range(len(phi))))


def compose(h: ThresholdTree, phi: Rotation):
    if phi == identity_rotation(h.k):
        return h
    return RotatedTree(h, phi)


def canonical_thresholds(values: Sequence[float]) -> list[float]:
    """Midpoints between consecutive distinct values, in increasing order."""
    vs = sorted(set(values))
    return [(a + b) / 2.0 for a, b in zip(vs, vs[1:])]


def enumerate_threshold_trees(
    features: Sequence[Point], k: int, depth: int = 1, eval_work: int = 1
) -> list[ThresholdTree]:
    """Finite hypothesis class over the training features.

    Thresholds are canonicalized to midpoints between consecutive distinct
    feature values, so the class is exactly enumerable.  Depth 2 grows fast;
    keep it to desk-scale inputs.
    """
    dim = features[0].dim
    hyps: list[ThresholdTree] = []
    for lab in range(1, k + 1):
        hyps.append(ThresholdTree((), (), (lab,), k, eval_work))
    if depth == 0:
        return hyps
    per_feature = {
        f: canonical_thresholds([x[f] for x in features]) for f in range(dim)
    }
    for f in range(dim):
        for t in per_feature[f]:
            for a, b in product(range(1, k + 1), repeat=2):
                if a == b:
                    continue
                hyps.append(ThresholdTree((f,), (t,), (a, b), k, eval_work))
    if depth == 1:
        return hyps
    if depth != 2:
        raise ValueError("depth must be 0, 1, or 2")
    for f0 in range(dim):
        for t0 in per_feature[f0]:
            for f1 in range(dim):
                for t1 in per_feature[f1]:
                    for f2 in range(dim):
                        for t2 in per_feature[f2]:
                            for leaves in product(range(1, k + 1), repeat=4):
                                if len(set(leaves)) < 2:
                                    continue
                                hyps.append(
                                    ThresholdTree(
                                        (f0, f1, f2), (t0, t1, t2), leaves, k, eval_work
                                    )
                                )
    return hyps


def c_loss(
    h,
    phi: Rotation | None,
    C: CenterSet,
    data: Sequence[LabeledSample],
    norm: str,
) -> float:
    """Mean distance from each solution to the center the hypothesis routes to."""
    if not data:
        raise ValueError("empty data")
    if phi is None:
        phi = identity_rotation(C.k)
    total = 0.0
    for s in data:
        total += distance(s.solution, C[phi[h.label(s.features) - 1] - 1], norm)
    return total / len(data)


def cost_of_partition(
    h, data: Sequence[LabeledSample], norm: str
) -> tuple[float, CenterSet]:
    """Best per-partition 1-median cost of a hypothesis, and those centers.

    Empty partitions receive the origin as a placeholder center; they carry
    no samples, so the placeholder contributes zero cost.
    """
    if not data:
        raise ValueError("empty data")
    dim = data[0].solution.dim
    groups: dict[int, list[Point]] = {i: [] for i in range(1, h.k + 1)}
    for s in data:
        groups[h.label(s.features)].append(s.solution)
    centers = []
    total = 0.0
    for i in range(1, h.k + 1):
        if groups[i]:
            c = median_point(groups[i], norm)
            total += sum(distance(x, c, norm) for x in groups[i])
        else:
            c = origin(dim)
        centers.append(c)
    return total / len(data), CenterSet(tuple(centers))


def construct_rotation(
    h, C: CenterSet, data: Sequence[LabeledSample], norm: str
) -> Rotation:
    """Map each partition's best center to its nearest center in C.

    phi(i) = argmin_j distance(C^(j), C_h^(i)), ties to the lowest j.
    """
    _, C_h = cost_of_partition(h, data, norm)
    phi = []
    for i in range(h.k):
        best_j, best_d = 0, math.inf
        for j in range(C.k):
            d = distance(C[j], C_h[i], norm)
            if d < best_d:
                best_j, best_d = j, d
        phi.append(best_j + 1)
    return tuple(phi)


# Hypotheses labelled at once, so that memory does not grow with the class.
RC_ERM_BLOCK = 1024


def _erm_per_rotation(
    hyps: Sequence[ThresholdTree],
    C: CenterSet,
    data: Sequence[LabeledSample],
    norm: str,
    rotations: Sequence[Rotation],
) -> list[tuple[float, ThresholdTree | None]]:
    """For each rotation phi, the earliest hypothesis h minimizing
    l_C(phi o h), with that loss.

    Each hypothesis labels the data once; every rotation then gathers from
    one table of solution-to-center distances, and losses are summed left to
    right like ``c_loss``, so they are the same floats.
    """
    if not hyps:
        raise ValueError("empty hypothesis class")
    if not data:
        raise ValueError("empty data")
    n, k = len(data), C.k
    feats = [s.features for s in data]
    table = distance_matrix([s.solution for s in data], norm, C.centers)
    # gathers[r][s * k + label - 1] = distance(solution s, C[phi_r(label)])
    gathers = [table[:, np.subtract(phi, 1)].ravel() for phi in rotations]
    row_start = np.arange(n) * k - 1
    best: list[tuple[float, ThresholdTree | None]] = [(math.inf, None)] * len(rotations)
    for lo in range(0, len(hyps), RC_ERM_BLOCK):
        block = hyps[lo : lo + RC_ERM_BLOCK]
        labels = np.fromiter(
            (h.label(x) for h in block for x in feats), np.intp, len(block) * n
        ).reshape(len(block), n)
        if labels.min() < 1 or labels.max() > k:
            raise ValueError(f"hypothesis labels must lie in 1..{k}")
        flat = labels + row_start
        for r, gather in enumerate(gathers):
            losses = mean_left_to_right(gather[flat])
            i = int(losses.argmin())
            if losses[i] < best[r][0]:
                best[r] = (float(losses[i]), block[i])
    return best


def erm_partition(
    hyps: Sequence[ThresholdTree],
    C: CenterSet,
    data: Sequence[LabeledSample],
    norm: str,
) -> ThresholdTree:
    """Exact minimizer of empirical C-loss under the identity rotation.

    Ties go to the earliest hypothesis in the given enumeration order.
    """
    return _erm_per_rotation(hyps, C, data, norm, [identity_rotation(C.k)])[0][1]


def all_rotations(k: int) -> list[Rotation]:
    """All k^k maps [k] -> [k], identity first, then lexicographic."""
    ident = identity_rotation(k)
    rest = [phi for phi in product(range(1, k + 1), repeat=k) if phi != ident]
    return [ident] + rest


def rc_erm(
    hyps: Sequence[ThresholdTree],
    C: CenterSet,
    data: Sequence[LabeledSample],
    norm: str,
) -> tuple[ThresholdTree, Rotation]:
    """ERM over the rotational completion, by base ERM under each of the k^k
    rotations.

    Uses the identity l_C(phi o h) = l_{phi(C)}(h); ties favor identity, then
    lexicographically smaller rotations, then the earliest hypothesis.  The
    class is scored in blocks of ``RC_ERM_BLOCK`` hypotheses.
    """
    k = C.k
    if k > 4:
        raise CapExceeded(f"k^k rotation enumeration infeasible for k={k}")
    rotations = all_rotations(k)
    best = None
    best_loss = math.inf
    per_rotation = _erm_per_rotation(hyps, C, data, norm, rotations)
    for phi, (loss, h) in zip(rotations, per_rotation):
        if loss < best_loss:
            best, best_loss = (h, phi), loss
    return best


def two_step_learn(
    hyps: Sequence[ThresholdTree],
    train: Sequence[LabeledSample],
    k: int,
    norm: str,
) -> tuple[ThresholdTree, Rotation, CenterSet]:
    """Learn centers from solutions, then the best rotated hypothesis.

    Step 1 clusters the training solutions into k centers; step 2 runs
    rotation-complete ERM against those centers; step 3 recomputes the
    per-partition 1-medians for the chosen rotated hypothesis, which never
    increases the empirical objective.
    """
    C_hat = learn_centers([s.solution for s in train], k, norm)
    h, phi = rc_erm(hyps, C_hat, train, norm)
    _, C_h = cost_of_partition(compose(h, phi), train, norm)
    return h, phi, C_h


def predict_and_solve(
    h, phi: Rotation, C_h: CenterSet, inst: HiddenInstance
) -> tuple[Point, int]:
    """Route an instance through the hypothesis and run a single thread.

    Total cost is the hypothesis's evaluation work plus the thread radius; no
    parallelism is involved.
    """
    label = phi[h.label(inst.features) - 1]
    solution, radius, _, _ = run_parallel_k_detail(inst, [C_h[label - 1]])
    return solution, h.eval_work + radius
