"""Normed vector-space geometry and the discretized search-step model.

Every cost in the simulator derives from these two functions: ``distance``
(the norm distance between two points) and ``search_steps`` (the number of
unit oracle steps needed to reach a hidden solution from a prediction, with
a floor of one step for verification).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch

L1 = "L1"
L2 = "L2"
LINF = "Linf"
NORMS = (L1, L2, LINF)


@dataclass(frozen=True)
class Point:
    """An immutable point in R^dim. All coordinates must be finite."""

    coords: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))
        if len(self.coords) == 0:
            raise ValueError("a point needs at least one coordinate")
        for c in self.coords:
            if not math.isfinite(c):
                raise ValueError(f"non-finite coordinate {c!r}")

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


def _check_dims(u: Point, v: Point) -> None:
    if u.dim != v.dim:
        raise DimensionMismatch(f"dimension mismatch: {u.dim} vs {v.dim}")


def distance(u: Point, v: Point, norm: str = L2) -> float:
    """Norm distance between two points of equal dimension.

    Coordinates are accumulated strictly left to right so replays are
    bit-identical.
    """
    _check_dims(u, v)
    uc, vc = u.coords, v.coords
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


def distance_matrix(
    X: Sequence[Point], norm: str, Y: Sequence[Point] | None = None
) -> np.ndarray:
    """Float64 table with ``D[i, j] = distance(X[i], Y[j], norm)``; ``Y``
    defaults to ``X``.

    Rows are filled one at a time by ``distance`` itself, so every entry is
    bit-identical to the direct call.
    """
    cols = X if Y is None else Y
    D = np.empty((len(X), len(cols)))
    for i, x in enumerate(X):
        D[i] = [distance(x, y, norm) for y in cols]
    return D


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
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = distance(pts[i], pts[j], norm)
            if d > best:
                best = d
    return best
