"""Steppable simulation of a warm-start solver with a hidden solution.

The solver is modelled adversarially: a thread opened at prediction ``p``
completes after exactly ``search_steps(p, solution)`` unit steps, i.e. the
runtime upper bound is realized as equality.  Strategy code never reads the
hidden solution directly; it only learns it when a thread completes.

A strategy whose predictions are points of its scenario (the origin and past
solutions) names them by their index in the scenario's distance table, and
the oracle reads their step counts off the day's row of that table
(``table_steps``); ``parallel_search`` runs its threads from their step
counts.  Table entries are bit-identical to ``distance``, so the counts are
the same.
"""

from __future__ import annotations

import math

from .errors import DimensionMismatch
from .metric import L2, Point, search_steps


class HiddenInstance:
    """A day's instance: visible features, hidden solution."""

    def __init__(self, day: int, features: Point, solution: Point, norm: str = L2):
        self.day = day
        self.features = features
        self.norm = norm
        self._solution = solution

    @property
    def dim(self) -> int:
        return self._solution.dim


def hidden_solution(inst: HiddenInstance) -> Point:
    """Oracle-side accessor for the ground truth.

    For simulator accounting and invariant checks only; strategies must go
    through thread completion.
    """
    return inst._solution


def required_steps(inst: HiddenInstance, p: Point) -> int:
    """Oracle-side accessor: steps a thread from ``p`` would need."""
    return search_steps(p, inst._solution, inst.norm)


def table_steps(row, s: int) -> int:
    """Oracle-side accessor: steps a thread from scenario point ``s`` would
    need on the day whose row of the scenario's distance table is ``row``:
    ``max(1, ceil(D[t, s]))``, what ``search_steps`` gives for the two
    points."""
    return max(1, math.ceil(row[s]))


class SearchThread:
    """One running copy of the warm-start solver, advanced by unit steps;
    it completes when ``radius`` reaches ``needed``, the oracle-side step
    count from its origin."""

    __slots__ = ("origin", "inst", "radius", "needed")

    def __init__(self, inst: HiddenInstance, origin: Point):
        if len(origin.coords) != len(inst._solution.coords):
            raise DimensionMismatch(
                f"prediction dim {origin.dim} != solution dim {inst.dim}"
            )
        self.origin = origin
        self.inst = inst
        self.radius = 0
        self.needed = required_steps(inst, origin)

    @property
    def completed(self) -> bool:
        return self.radius >= self.needed

    def step(self) -> bool:
        """Advance the search radius by one unit; returns the completed flag."""
        if self.completed:
            raise RuntimeError("cannot step a completed thread")
        self.radius += 1
        return self.completed

    def advance(self, n: int) -> bool:
        """Take ``n`` unit steps at once; returns the completed flag.  Refuses
        to step past completion."""
        if n < 0 or self.radius + n > self.needed:
            raise RuntimeError(f"cannot advance {n} steps from radius {self.radius}")
        self.radius += n
        return self.completed

    def result(self) -> Point:
        if not self.completed:
            raise RuntimeError("solution is hidden until the thread completes")
        return self.inst._solution


def parallel_search(needed: list[int]) -> tuple[int, int, int]:
    """Round-robin parallel search by threads that need ``needed`` steps.

    Each sweep advances every thread by one step in list order; the run stops
    at the end of the first sweep in which some thread completes, with the
    earliest-in-list completion winning.  That is a closed function of the
    step counts: the run lasts ``min(needed)`` sweeps, every thread steps in
    each of them, and the winner is the first thread needing that many.
    Returns ``(total_radius, winner_index, sweeps)``.
    """
    if not needed:
        raise ValueError("need at least one prediction")
    sweeps = min(needed)
    return len(needed) * sweeps, needed.index(sweeps), sweeps


def run_parallel_k_detail(inst: HiddenInstance, preds: list[Point]):
    """``parallel_search`` from ``preds`` on ``inst``.  Returns
    ``(solution, total_radius, winner_index, sweeps)``."""
    return (inst._solution, *parallel_search([required_steps(inst, p) for p in preds]))


def run_parallel_k(inst: HiddenInstance, preds: list[Point]) -> tuple[Point, int]:
    """Solve ``inst`` with k predictions in parallel.

    The total radius is exactly ``k * search_steps(best, solution)`` where
    ``best`` is the distance-minimizing prediction.
    """
    solution, total, _, _ = run_parallel_k_detail(inst, preds)
    return solution, total
