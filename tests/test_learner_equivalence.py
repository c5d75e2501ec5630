"""The table-driven learners return exactly what the enumerating ones did.

The reference oracles below are the learners as they were written before
they read one precomputed distance table: they call ``distance`` (through
``ref_cost_of_centers`` and ``c_loss``) for every candidate.  The fuzz forces
ties with integer-grid coordinates and duplicate points, so the tie-breaks
are checked as well as the optimum.
"""

import math
import random
from itertools import combinations, product

import numpy as np
import pytest

from warmstart import kmedians, partition
from warmstart.kmedians import (
    CenterSet,
    cost_of_centers,
    learn_centers_local_search,
    learn_centers_subset_erm,
)
from warmstart.metric import NORMS, Point, distance
from warmstart.partition import (
    LabeledSample,
    ThresholdClass,
    ThresholdTree,
    all_rotations,
    c_loss,
    canonical_thresholds,
    compose,
    construct_rotation,
    cost_of_partition,
    enumerate_threshold_trees,
    rc_erm,
    rotate_centers,
)


def ref_cost_of_centers(C, X, norm):
    """Mean distance from each sample to its closest center, one
    ``distance`` call per (sample, center) pair."""
    total = 0.0
    for x in X:
        total += min(distance(c, x, norm) for c in C)
    return total / len(X)


def ref_construct_rotation(h, C, data, norm):
    _, C_h, _ = cost_of_partition(h, data, norm)
    phi = []
    for i in range(h.k):
        best_j, best_d = 0, math.inf
        for j in range(C.k):
            d = distance(C[j], C_h[i], norm)
            if d < best_d:
                best_j, best_d = j, d
        phi.append(best_j + 1)
    return tuple(phi)


def ref_subset_erm(X, k, norm):
    best_cost = math.inf
    best = None
    for idxs in combinations(range(len(X)), k):
        C = CenterSet(tuple(X[i] for i in idxs))
        c = ref_cost_of_centers(C, X, norm)
        if c < best_cost:
            best_cost = c
            best = idxs
    return CenterSet(tuple(X[i] for i in best))


def ref_enumerate_threshold_trees(features, k, depth):
    """The class as nested loops, in the order the learners' ties follow."""
    dim = features[0].dim
    hyps = [ThresholdTree((), (), (lab,), k) for lab in range(1, k + 1)]
    if depth == 0:
        return hyps
    per_feature = {f: canonical_thresholds([x[f] for x in features]) for f in range(dim)}
    splits = [(f, t) for f in range(dim) for t in per_feature[f]]
    for f, t in splits:
        for a, b in product(range(1, k + 1), repeat=2):
            if a != b:
                hyps.append(ThresholdTree((f,), (t,), (a, b), k))
    if depth == 1:
        return hyps
    for (f0, t0), (f1, t1), (f2, t2) in product(splits, repeat=3):
        for leaves in product(range(1, k + 1), repeat=4):
            if len(set(leaves)) >= 2:
                hyps.append(ThresholdTree((f0, f1, f2), (t0, t1, t2), leaves, k))
    return hyps


def ref_local_search(X, k, norm, max_sweeps=100):
    m = len(X)
    current = list(range(k))
    cost = ref_cost_of_centers(CenterSet(tuple(X[i] for i in current)), X, norm)
    for _ in range(max_sweeps):
        improved = False
        for slot in range(k):
            for cand in range(m):
                if cand in current:
                    continue
                trial = list(current)
                trial[slot] = cand
                c = ref_cost_of_centers(CenterSet(tuple(X[i] for i in trial)), X, norm)
                if c < cost - 1e-12:
                    current, cost = trial, c
                    improved = True
        if not improved:
            break
    return CenterSet(tuple(X[i] for i in current))


def ref_erm_partition(hyps, C, data, norm):
    best = None
    best_loss = math.inf
    for h in hyps:
        loss = c_loss(h, C, data, norm)
        if loss < best_loss:
            best, best_loss = h, loss
    return best


def ref_rc_erm(hyps, C, data, norm):
    best = None
    best_loss = math.inf
    for phi in all_rotations(C.k):
        h = ref_erm_partition(hyps, rotate_centers(C, phi), data, norm)
        loss = c_loss(compose(h, phi), C, data, norm)
        if loss < best_loss:
            best, best_loss = (h, phi), loss
    return best


def _points(rng, m, dim):
    """Uniform floats, an integer grid (many equal costs), or repeats drawn
    from a small pool (duplicate points)."""
    kind = rng.choice(("float", "grid", "dup"))
    if kind == "float":
        return [Point(tuple(rng.uniform(-9, 9) for _ in range(dim))) for _ in range(m)]
    grid = [Point(tuple(float(rng.randint(-2, 2)) for _ in range(dim))) for _ in range(m)]
    if kind == "grid":
        return grid
    return [rng.choice(grid[: max(1, m // 3)]) for _ in range(m)]


@pytest.mark.parametrize("norm", NORMS)
def test_subset_erm_matches_enumerating_reference(norm):
    rng = random.Random(f"erm/{norm}")
    for _ in range(40):
        m = rng.randint(1, 14)
        k = rng.randint(1, min(4, m))
        X = _points(rng, m, rng.randint(1, 3))
        assert learn_centers_subset_erm(X, k, norm).centers == ref_subset_erm(X, k, norm).centers


@pytest.mark.parametrize("norm", NORMS)
def test_local_search_matches_enumerating_reference(norm):
    rng = random.Random(f"local/{norm}")
    for _ in range(25):
        m = rng.randint(1, 30)
        k = rng.randint(1, min(4, m))
        X = _points(rng, m, rng.randint(1, 3))
        sweeps = rng.choice((1, 2, 100))
        got = learn_centers_local_search(X, k, norm, max_sweeps=sweeps)
        assert got.centers == ref_local_search(X, k, norm, max_sweeps=sweeps).centers


def _partition_case(rng, norm, depth, k=None):
    k = k or rng.randint(1, 4 if depth < 2 else 3)
    n = rng.randint(1, 12 if depth < 2 else 4)
    dim = rng.randint(1, 2 if depth < 2 else 1)
    feats = _points(rng, n, dim)
    sols = _points(rng, n, dim)
    data = [LabeledSample(f, s) for f, s in zip(feats, sols)]
    # Centers on solutions, repeated when k > n, tie many hypotheses exactly.
    centers = _points(rng, k, dim) if rng.random() < 0.5 else [sols[i % n] for i in range(k)]
    hyps = enumerate_threshold_trees(feats, k, depth)
    if len(hyps) > 400:  # keep the reference's k^k * |H| * n loop quick
        hyps = [hyps[i] for i in sorted(rng.sample(range(len(hyps)), 400))]
    return hyps, CenterSet(tuple(centers)), data


@pytest.mark.parametrize("depth", (0, 1, 2))
@pytest.mark.parametrize("norm", NORMS)
def test_rc_erm_matches_enumerating_reference(norm, depth):
    rng = random.Random(f"rc/{norm}/{depth}")
    for _ in range(12):
        hyps, C, data = _partition_case(rng, norm, depth)
        h, phi = rc_erm(hyps, C, data, norm)
        ref_h, ref_phi = ref_rc_erm(hyps, C, data, norm)
        assert h is ref_h and phi == ref_phi
        rotations = all_rotations(C.k)
        per_rotation = partition._erm_per_rotation(hyps, C, data, norm, rotations)
        assert per_rotation[0][1] is ref_erm_partition(hyps, C, data, norm)  # the identity row
        for rot, (loss, best) in zip(rotations, per_rotation):
            assert loss == c_loss(compose(best, rot), C, data, norm)  # bit for bit


@pytest.mark.parametrize("depth", (0, 1, 2))
@pytest.mark.parametrize("norm", NORMS)
def test_table_costs_and_rotations_match_the_scalar_references(norm, depth):
    rng = random.Random(f"tables/{norm}/{depth}")
    for _ in range(12):
        hyps, C, data = _partition_case(rng, norm, depth)
        sols = [s.solution for s in data]
        assert repr(cost_of_centers(C, sols, norm)) == repr(ref_cost_of_centers(C, sols, norm))
        h = hyps[rng.randrange(len(hyps))]
        phi = tuple(rng.randint(1, C.k) for _ in range(C.k))
        g = compose(h, phi)
        assert g.feature_indices == h.feature_indices and g.thresholds == h.thresholds
        assert all(g.label(s.features) == phi[h.label(s.features) - 1] for s in data)
        assert construct_rotation(h, C, data, norm) == ref_construct_rotation(h, C, data, norm)


def test_rc_erm_block_size_does_not_change_the_choice(monkeypatch):
    rng = random.Random(5)
    for norm in NORMS:
        for _ in range(4):
            hyps = []
            while len(hyps) <= 3:
                hyps, C, data = _partition_case(rng, norm, 1, k=3)
            C = CenterSet((C[0], C[0], C[1]))  # equal centers: ties across blocks
            whole = rc_erm(hyps, C, data, norm)
            monkeypatch.setattr(partition, "RC_ERM_BLOCK", 3)
            blocked = rc_erm(hyps, C, data, norm)
            monkeypatch.undo()
            assert blocked[0] is whole[0] and blocked[1] == whole[1]
            ref_h, ref_phi = ref_rc_erm(hyps, C, data, norm)
            assert whole[0] is ref_h and whole[1] == ref_phi


def test_local_search_keeps_the_acceptance_margin_on_near_ties():
    # Mirror-image center sets on a symmetric grid have equal costs in exact
    # arithmetic; summed in another order they differ in the last bits, and
    # only the 1e-12 margin keeps such a swap from being taken.
    X = [Point((float(x), float(y))) for x in range(-2, 3) for y in range(-2, 3)]
    X += [Point((x * 0.1, 0.3 - x * 0.1)) for x in range(4)]
    for norm in NORMS:
        for k in (2, 3, 4):
            got = learn_centers_local_search(X, k, norm)
            assert got.centers == ref_local_search(X, k, norm).centers


@pytest.mark.parametrize("norm", NORMS)
def test_blocked_subset_erm_matches_enumerating_reference(norm, monkeypatch):
    # Blocks of one or a few prefixes put ties across block boundaries.
    rng = random.Random(f"erm-block/{norm}")
    for block in (1, 40, 300):
        monkeypatch.setattr(kmedians, "SUBSET_ERM_BLOCK", block)
        for _ in range(15):
            m = rng.randint(1, 12)
            k = rng.randint(1, min(4, m))
            X = _points(rng, m, rng.randint(1, 3))
            assert learn_centers_subset_erm(X, k, norm).centers == ref_subset_erm(X, k, norm).centers


@pytest.mark.parametrize("depth", (0, 1, 2))
def test_threshold_class_order_and_mask_labels(depth):
    rng = random.Random(f"class/{depth}")
    for _ in range(30):
        k = rng.randint(1, 3)
        dim = rng.randint(1, 2)
        feats = _points(rng, rng.randint(1, 6 if depth < 2 else 4), dim)
        hyps = ThresholdClass(feats, k, depth)
        trees = ref_enumerate_threshold_trees(feats, k, depth)
        assert len(hyps) == len(trees) and list(hyps) == trees
        assert enumerate_threshold_trees(feats, k, depth) == trees
        assert hyps[-1] == trees[-1]
        # Labels of other points too (threshold ties included), in blocks
        # smaller and larger than one split's or one triple's rows.
        data = feats + _points(rng, 3, dim)
        want = np.array([[h.label(x) for x in data] for h in trees])
        for block in (1, 5, 1024):
            rows = list(hyps.label_rows(data, block))
            assert all(len(r) <= block for r in rows)
            assert np.array_equal(np.concatenate(rows), want)


@pytest.mark.parametrize("depth", (0, 1, 2))
@pytest.mark.parametrize("norm", NORMS)
def test_rc_erm_on_a_threshold_class_matches_the_tree_list(norm, depth, monkeypatch):
    rng = random.Random(f"rc-class/{norm}/{depth}")
    for block in (3, 1024):
        monkeypatch.setattr(partition, "RC_ERM_BLOCK", block)
        for _ in range(6):
            k = rng.randint(1, 3)
            n = rng.randint(1, 8 if depth < 2 else 4)
            dim = rng.randint(1, 2)
            feats, sols = _points(rng, n, dim), _points(rng, n, dim)
            data = [LabeledSample(f, s) for f, s in zip(feats, sols)]
            C = CenterSet(tuple(sols[i % n] for i in range(k)))
            hyps = ThresholdClass(feats, k, depth)
            trees = list(hyps)
            assert rc_erm(hyps, C, data, norm) == rc_erm(trees, C, data, norm)
            rotations = all_rotations(k)
            assert partition._erm_per_rotation(hyps, C, data, norm, rotations) == partition._erm_per_rotation(
                trees, C, data, norm, rotations
            )
