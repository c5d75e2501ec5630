"""Normed vector-space geometry and the discretized search-step model.

Every cost in the simulator derives from these two functions: ``distance``
(the norm distance between two points) and ``search_steps`` (the number of
unit oracle steps needed to reach a hidden solution from a prediction, with
a floor of one step for verification).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch

L1 = "L1"
L2 = "L2"
LINF = "Linf"
NORMS = (L1, L2, LINF)


@dataclass(frozen=True, init=False)
class Point:
    """An immutable point in R^dim. All coordinates must be finite."""

    coords: tuple[float, ...]

    def __init__(self, coords: Iterable[float]):
        try:
            coords = tuple(map(float, coords))
        except OverflowError as e:  # an int beyond the float range
            raise ValueError(f"coordinate out of the float range: {e}") from None
        if not coords:
            raise ValueError("a point needs at least one coordinate")
        if not all(map(math.isfinite, coords)):
            bad = next(c for c in coords if not math.isfinite(c))
            raise ValueError(f"non-finite coordinate {bad!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> float:
        return self.coords[i]

    @staticmethod
    def of(*coords: float) -> "Point":
        return Point(tuple(coords))


def origin(dim: int) -> Point:
    return Point((0.0,) * dim)


def distance(u: Point, v: Point, norm: str = L2) -> float:
    """Norm distance between two points of equal dimension.

    Coordinates are accumulated strictly left to right so replays are
    bit-identical.
    """
    uc, vc = u.coords, v.coords
    if len(uc) != len(vc):
        raise DimensionMismatch(f"dimension mismatch: {len(uc)} vs {len(vc)}")
    if norm == L1:
        total = 0.0
        for a, b in zip(uc, vc):
            total += abs(a - b)
        return total
    if norm == L2:
        total = 0.0
        for a, b in zip(uc, vc):
            d = a - b
            total += d * d
        return math.sqrt(total)
    if norm == LINF:
        best = 0.0
        for a, b in zip(uc, vc):
            d = abs(a - b)
            if d > best:
                best = d
        return best
    raise ValueError(f"unknown norm {norm!r}; expected one of {NORMS}")


def distance_matrix(X, norm: str, Y=None) -> np.ndarray:
    """Float64 table with ``D[i, j] = distance(X[i], Y[j], norm)``; ``Y``
    defaults to ``X``.  Each of ``X`` and ``Y`` is a sequence of Points or
    an array of their coordinates, one point per row (``row_distances``).
    """
    A = _coordinate_rows(X)
    B = A if Y is None else _coordinate_rows(Y)
    if not (len(A) and len(B)):
        return np.zeros((len(A), len(B)))
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    return row_distances(A[:, None], B[None], norm)


def row_distances(A: np.ndarray, B: np.ndarray, norm: str) -> np.ndarray:
    """``distance`` between the rows of two coordinate arrays, the other
    axes broadcast, accumulated one coordinate column at a time in the same
    order and with the same operations as ``distance``, so every one is
    bit-identical to the direct call.  One temporary is reused per column.
    """
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}; expected one of {NORMS}")
    acc = np.zeros(np.broadcast_shapes(A.shape[:-1], B.shape[:-1]))
    tmp = np.empty_like(acc)
    for c in range(A.shape[-1]):
        np.subtract(A[..., c], B[..., c], out=tmp)
        if norm == L2:
            np.multiply(tmp, tmp, out=tmp)
            acc += tmp
        else:
            np.abs(tmp, out=tmp)
            if norm == L1:
                acc += tmp
            else:
                np.maximum(acc, tmp, out=acc)
    if norm == L2:
        np.sqrt(acc, out=acc)
    return acc


def _coordinate_rows(X) -> np.ndarray:
    """``X`` as an array with one row of coordinates per point."""
    if isinstance(X, np.ndarray):
        return X
    dims = sorted({p.dim for p in X})
    if len(dims) > 1:
        raise DimensionMismatch(f"dimension mismatch: {dims[0]} vs {dims[1]}")
    return np.array([p.coords for p in X])


def mean_left_to_right(rows: np.ndarray) -> np.ndarray:
    """Means along the last axis, summed strictly left to right like a scalar
    ``total += x`` loop, so they are the same floats (``np.sum`` and
    ``np.mean`` add pairwise and can differ in the last bits).

    The sums run in place, so ``rows`` is overwritten: pass a temporary.
    """
    np.cumsum(rows, axis=-1, out=rows)
    return rows[..., -1] / rows.shape[-1]


def search_steps(p: Point, s: Point, norm: str = L2) -> int:
    """Unit oracle steps a warm-start thread needs to reach ``s`` from ``p``.

    This is the ceiling of the distance, floored at one step: even an exact
    prediction still pays one step to verify the solution.
    """
    return max(1, math.ceil(distance(p, s, norm)))


def pairwise_max_distance(points: Iterable[Point], norm: str) -> float:
    pts = list(points)
    if len(pts) < 2:
        return 0.0
    return float(distance_matrix(pts, norm).max())
