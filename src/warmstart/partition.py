"""Learning k-wise partitions of instance space with center-indexed loss.

A partition hypothesis routes an instance's features to one of k labels; the
loss of a hypothesis against a fixed center set is the distance from the true
solution to the center the hypothesis picked.  Rotations relabel hypothesis
outputs, and ERM over the rotationally completed class is done by enumerating
all k^k rotations against a base ERM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from itertools import product
from operator import add
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceeded
from .kmedians import CenterSet, learn_centers, median_point_detail
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
    a root split whose children each split again, four leaves.
    """

    feature_indices: tuple[int, ...]
    thresholds: tuple[float, ...]
    leaf_labels: tuple[int, ...]
    k: int

    def __post_init__(self):
        depth_leaves = {0: 1, 1: 2, 3: 4}
        n = len(self.feature_indices)
        if n not in depth_leaves or len(self.thresholds) != n:
            raise ValueError("expected 0, 1, or 3 split nodes")
        if len(self.leaf_labels) != depth_leaves[n]:
            raise ValueError("leaf count does not match split count")
        if any(not (1 <= lab <= self.k) for lab in self.leaf_labels):
            raise ValueError("leaf labels must lie in 1..k")

    def label(self, x: Point) -> int:
        f, t, leaves = self.feature_indices, self.thresholds, self.leaf_labels
        if not f:
            return leaves[0]
        if len(f) == 1:
            return leaves[0] if x[f[0]] <= t[0] else leaves[1]
        if x[f[0]] <= t[0]:
            return leaves[0] if x[f[1]] <= t[1] else leaves[1]
        return leaves[2] if x[f[2]] <= t[2] else leaves[3]


Rotation = tuple[int, ...]


def identity_rotation(k: int) -> Rotation:
    return tuple(range(1, k + 1))


def rotate_centers(C: CenterSet, phi: Rotation) -> CenterSet:
    """phi(C) = (C^(phi(1)), ..., C^(phi(k)))."""
    return CenterSet(tuple(C[phi[i] - 1] for i in range(len(phi))))


def compose(h: ThresholdTree, phi: Rotation) -> ThresholdTree:
    """phi o h: the tree h with each leaf label i relabelled phi(i)."""
    return replace(h, leaf_labels=tuple(phi[lab - 1] for lab in h.leaf_labels))


def canonical_thresholds(values: Sequence[float]) -> list[float]:
    """Midpoints between consecutive distinct values, in increasing order."""
    vs = sorted(set(values))
    return [(a + b) / 2.0 for a, b in zip(vs, vs[1:])]


class ThresholdClass(Sequence[ThresholdTree]):
    """The finite class of threshold trees of depth <= ``depth`` over a set
    of features, in one fixed enumeration order, without building its trees.

    Thresholds are canonicalized to midpoints between consecutive distinct
    feature values, so the class is exactly enumerable.  The order is: the
    k one-leaf trees; then for each split (feature, threshold), features
    first, every leaf pair (a, b) with a != b; then for each triple of
    splits (root, left, right) every 4-tuple of leaves with at least two
    distinct labels.  ``self[i]`` decodes the i-th tree, and ``label_rows``
    labels data with every tree in that order, from one boolean mask per
    split.
    """

    def __init__(self, features: Sequence[Point], k: int, depth: int = 1):
        dim = features[0].dim
        if depth not in (0, 1, 2):
            raise ValueError("depth must be 0, 1, or 2")
        self.k, self.depth = k, depth
        labels = range(1, k + 1)
        self.splits = [
            (f, t) for f in range(dim) for t in canonical_thresholds([x[f] for x in features])
        ]
        self.pairs = [(a, b) for a, b in product(labels, repeat=2) if a != b]
        self.quads = [q for q in product(labels, repeat=4) if len(set(q)) >= 2]
        S = len(self.splits)
        self.sizes = (k, S * len(self.pairs), S**3 * len(self.quads))[: depth + 1]

    def __len__(self) -> int:
        return sum(self.sizes)

    def __getitem__(self, i: int) -> ThresholdTree:
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("hypothesis index out of range")
        k = self.k
        if i < k:
            return ThresholdTree((), (), (i + 1,), k)
        i -= k
        if i < self.sizes[1]:
            split, pair = divmod(i, len(self.pairs))
            f, t = self.splits[split]
            return ThresholdTree((f,), (t,), self.pairs[pair], k)
        i -= self.sizes[1]
        S = len(self.splits)
        triple, quad = divmod(i, len(self.quads))
        s0, rest = divmod(triple, S * S)
        (f0, t0), (f1, t1), (f2, t2) = (self.splits[s] for s in (s0, *divmod(rest, S)))
        return ThresholdTree((f0, f1, f2), (t0, t1, t2), self.quads[quad], k)

    def label_rows(self, features: Sequence[Point], block: int) -> Iterator[np.ndarray]:
        """Consecutive (trees x samples) label tables of at most ``block``
        rows, covering the class in order."""
        n = len(features)
        X = np.array([x.coords for x in features]).reshape(n, -1)
        f = np.array([f for f, _ in self.splits], dtype=np.intp)
        t = np.array([t for _, t in self.splits])
        masks = (X[:, f] <= t).T  # masks[s] = x[f_s] <= t_s
        yield from _chunks(np.repeat(np.arange(1, self.k + 1)[:, None], n, axis=1), block)
        if self.depth >= 1 and self.pairs:
            first, second = (np.array(c)[None, :, None] for c in zip(*self.pairs))
            step = max(1, block // len(self.pairs))
            for lo in range(0, len(self.splits), step):
                m = masks[lo : lo + step, None, :]
                yield from _chunks(np.where(m, first, second).reshape(-1, n), block)
        if self.depth == 2 and self.quads:
            S, quads = len(self.splits), np.array(self.quads)
            rows = np.arange(len(quads))[None, :, None]
            step = max(1, block // len(quads))
            for lo in range(0, S**3, step):
                triple = np.arange(lo, min(lo + step, S**3))
                root, left, right = masks[triple // (S * S)], masks[triple // S % S], masks[triple % S]
                leaf = np.where(root, np.where(left, 0, 1), np.where(right, 2, 3))
                yield from _chunks(quads[rows, leaf[:, None, :]].reshape(-1, n), block)


def _chunks(rows: np.ndarray, block: int) -> Iterator[np.ndarray]:
    for lo in range(0, len(rows), block):
        yield rows[lo : lo + block]


def enumerate_threshold_trees(
    features: Sequence[Point], k: int, depth: int = 1
) -> list[ThresholdTree]:
    """Every tree of ``ThresholdClass(features, k, depth)``, in its order.
    Depth 2 grows fast; keep a list of it to desk-scale inputs."""
    return list(ThresholdClass(features, k, depth))


def c_loss(
    h: ThresholdTree, C: CenterSet, data: Sequence[LabeledSample], norm: str
) -> float:
    """Mean distance from each solution to the center the hypothesis routes
    to; a rotated hypothesis phi o h is ``compose(h, phi)``."""
    if not data:
        raise ValueError("empty data")
    total = 0.0
    for s in data:
        total += distance(s.solution, C[h.label(s.features) - 1], norm)
    return total / len(data)


def cost_of_partition(
    h: ThresholdTree, data: Sequence[LabeledSample], norm: str
) -> tuple[float, CenterSet, tuple[int, ...]]:
    """Best per-partition 1-median cost of a hypothesis, those centers, and
    the labels of the parts whose 1-median stopped at ``MEDIAN_MAX_ITER``
    steps before converging (see ``median_point_detail``): only an L2
    median iterates, and it converges in a handful of steps, so the tuple
    is empty unless a part defeats it.

    Empty partitions receive the origin as a placeholder center; they carry
    no samples, so the placeholder contributes zero cost.  Each part's
    distances are summed left to right (builtin ``sum`` over floats is
    compensated from Python 3.12), then the parts in label order.
    """
    if not data:
        raise ValueError("empty data")
    dim = data[0].solution.dim
    groups: dict[int, list[Point]] = {i: [] for i in range(1, h.k + 1)}
    for s in data:
        groups[h.label(s.features)].append(s.solution)
    centers = []
    capped = []
    total = 0.0
    for i in range(1, h.k + 1):
        if groups[i]:
            c, cap = median_point_detail(groups[i], norm)
            if cap:
                capped.append(i)
            total += reduce(add, (distance(x, c, norm) for x in groups[i]), 0.0)
        else:
            c = origin(dim)
        centers.append(c)
    return total / len(data), CenterSet(tuple(centers)), tuple(capped)


def construct_rotation(
    h: ThresholdTree, C: CenterSet, data: Sequence[LabeledSample], norm: str
) -> Rotation:
    """Map each partition's best center to its nearest center in C.

    phi(i) = argmin_j distance(C_h^(i), C^(j)), ties to the lowest j.
    """
    _, C_h, _ = cost_of_partition(h, data, norm)
    nearest = distance_matrix(C_h.centers, norm, C.centers).argmin(axis=1)
    return tuple(int(j) + 1 for j in nearest)


# Hypotheses labelled at once, so that memory does not grow with the class.
RC_ERM_BLOCK = 1024


def _label_rows(hyps: Sequence[ThresholdTree], features: Sequence[Point]) -> Iterator[np.ndarray]:
    """The class's label tables on ``features``, ``RC_ERM_BLOCK`` trees at a
    time: from split masks for a ``ThresholdClass``, by ``label`` otherwise."""
    if isinstance(hyps, ThresholdClass):
        yield from hyps.label_rows(features, RC_ERM_BLOCK)
        return
    n = len(features)
    for lo in range(0, len(hyps), RC_ERM_BLOCK):
        block = hyps[lo : lo + RC_ERM_BLOCK]
        yield np.fromiter(
            (h.label(x) for h in block for x in features), np.intp, len(block) * n
        ).reshape(len(block), n)


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
    right like ``c_loss``, so they are the same floats.  Only the winners
    are read out of ``hyps``.
    """
    if not hyps:
        raise ValueError("empty hypothesis class")
    if not data:
        raise ValueError("empty data")
    n, k = len(data), C.k
    table = distance_matrix([s.solution for s in data], norm, C.centers)
    # gathers[r][s * k + label - 1] = distance(solution s, C[phi_r(label)])
    gathers = [table[:, np.subtract(phi, 1)].ravel() for phi in rotations]
    row_start = np.arange(n) * k - 1
    best: list[tuple[float, int | None]] = [(math.inf, None)] * len(rotations)
    lo = 0
    for labels in _label_rows(hyps, [s.features for s in data]):
        if labels.min() < 1 or labels.max() > k:
            raise ValueError(f"hypothesis labels must lie in 1..{k}")
        flat = labels + row_start
        for r, gather in enumerate(gathers):
            losses = mean_left_to_right(gather[flat])
            i = int(losses.argmin())
            if losses[i] < best[r][0]:
                best[r] = (float(losses[i]), lo + i)
        lo += len(labels)
    return [(loss, None if i is None else hyps[i]) for loss, i in best]


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
) -> tuple[ThresholdTree, Rotation, CenterSet, str, tuple[int, ...]]:
    """Learn centers from solutions, then the best rotated hypothesis.

    Step 1 clusters the training solutions into k centers; step 2 runs
    rotation-complete ERM against those centers; step 3 recomputes the
    per-partition 1-medians for the chosen rotated hypothesis, which never
    increases the empirical objective.  ``hyps`` may be a list of trees or
    a ``ThresholdClass``, which is scored without building its trees.  The
    last two values returned are the method step 1 used (see
    ``learn_centers``) and the parts whose step-3 median stopped at its
    step cap before converging, normally none (see ``cost_of_partition``).
    """
    C_hat, centers_method = learn_centers([s.solution for s in train], k, norm)
    h, phi = rc_erm(hyps, C_hat, train, norm)
    _, C_h, capped = cost_of_partition(compose(h, phi), train, norm)
    return h, phi, C_h, centers_method, capped


def predict_and_solve(
    h: ThresholdTree, phi: Rotation, C_h: CenterSet, inst: HiddenInstance
) -> tuple[Point, int]:
    """Route an instance through the hypothesis and run a single thread.

    Total cost is one unit of evaluation work plus the thread radius; no
    parallelism is involved.
    """
    label = phi[h.label(inst.features) - 1]
    solution, radius, _, _ = run_parallel_k_detail(inst, [C_h[label - 1]])
    # A tree of depth <= 2 picks its leaf in at most two comparisons, a
    # constant next to the search radius, so routing costs one unit of work.
    return solution, 1 + radius
