"""Exact offline benchmarks.

Offline optimal k-server cost via minimum-cost flow on the acyclic request
network, brute-force optimal k-trajectory cost over a restricted candidate
set, and the work-function k-server algorithm used by the online reduction.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations_with_replacement

import numpy as np

from .errors import CapExceeded, InvariantViolation
from .metric import Point, distance, distance_matrix, origin
from .trajectories import TrajectorySet

TRAJ_MAX_T = 8
TRAJ_MAX_K = 3
WFA_MAX_K = 3
WFA_MAX_POINTS = 12

_EPS = 1e-9


def offline_opt_kserver(solutions: list[Point], ks: list[int], norm: str) -> list[float]:
    """Exact minimum total movement to serve the requests in order with k
    servers, for each k in ``ks`` (costs returned in the same order).

    All servers start at the origin.  Min-cost flow by successive shortest
    paths with Johnson potentials on the acyclic request network: the
    source feeds K = min(max(ks), T) interchangeable server nodes, each
    request is an (in, out) node pair whose serving arc carries a large
    negative reward M (added back at the end) so that every request is
    forced into the flow, and every node may leave for the sink.  Each
    augmentation adds one server, so the cost for k is the running total
    after the k-th augmentation; more than T servers cannot help, so k > T
    reads the total after T.

    The residual network is a dense table (``cap`` int8, ``cost`` float64,
    ``cost[v, u] = -cost[u, v]``) over nodes numbered in topological order:
    source, servers, in/out per request, sink.  Each Dijkstra step settles
    the pending node with the least (distance, id) and relaxes all of its
    arcs at once.
    """
    T = len(solutions)
    if T < 1 or any(k < 1 for k in ks):
        raise ValueError("need T >= 1 and k >= 1")
    K = min(max(ks, default=0), T)
    D = distance_matrix([origin(solutions[0].dim)] + list(solutions), norm)
    from_origin = D[0, 1:]
    chain = float(from_origin[0]) + sum(D[i, i + 1].item() for i in range(1, T))
    M = chain + 1.0

    n = 2 * T + K + 2
    source, sink = 0, n - 1
    servers = np.arange(1, K + 1)
    node_in = np.arange(K + 1, sink, 2)
    node_out = node_in + 1
    cap = np.zeros((n, n), dtype=np.int8)
    cost = np.zeros((n, n))

    def arcs(u, v, c):
        cap[u, v] = 1
        cost[u, v] = c
        cost[v, u] = -c

    arcs(source, servers, 0.0)
    arcs(servers, sink, 0.0)
    arcs(servers[:, None], node_in[None, :], from_origin[None, :])
    arcs(node_in, node_out, -M)
    arcs(node_out, sink, 0.0)
    i, j = np.triu_indices(T, 1)
    arcs(node_out[i], node_in[j], D[1:, 1:][i, j])

    pot = np.full(n, math.inf)
    pot[source] = 0.0
    for u in range(n):  # forward DP over the topological order
        cand = pot[u] + cost[u]
        better = (cap[u] > 0) & (cand < pot)
        pot[better] = cand[better]

    totals = [0.0]
    total = 0.0
    for _ in range(K):
        dist = np.full(n, math.inf)
        dist[source] = 0.0
        pending = dist.copy()  # dist of the nodes waiting to be settled, inf elsewhere
        prev = np.zeros(n, dtype=np.intp)
        while True:
            u = int(pending.argmin())
            d = pending[u]
            if d == math.inf:
                break
            pending[u] = math.inf
            nd = ((d + cost[u]) + pot[u]) - pot
            better = (cap[u] > 0) & (nd < dist - _EPS)
            dist[better] = pending[better] = nd[better]
            prev[better] = u
        reached = dist < math.inf
        pot[reached] += dist[reached]
        v = sink
        for _ in range(n):  # a shortest path has fewer than n arcs
            u = prev[v]
            cap[u, v] -= 1
            cap[v, u] += 1
            total += cost[u, v].item()
            v = u
            if v == source:
                break
        else:
            raise InvariantViolation(
                "min-cost flow: rounding error beyond the tie margin left a cycle "
                "in the shortest-path tree"
            )
        totals.append(total)
    return [totals[min(k, T)] + T * M for k in ks]


def _canonical_assignments(T: int, k: int):
    """Day-to-trajectory assignments up to trajectory relabeling.

    Yields restricted-growth tuples: day 1 gets label 1 and each new label is
    one more than the current maximum.
    """
    def rec(prefix: tuple[int, ...], high: int):
        if len(prefix) == T:
            yield prefix
            return
        for lab in range(1, min(high + 1, k) + 1):
            yield from rec(prefix + (lab,), max(high, lab))

    yield from rec((), 0)


@functools.cache
def _assignment_masks(T: int, k: int) -> np.ndarray:
    """One row per canonical assignment of T days to k labels, in
    ``_canonical_assignments`` order: column j holds the day bitmask of
    label j + 1 (bit t set when day t + 1 has that label, 0 if unused).

    Cached per (T, k), which the brute force's caps bound to 24 tables; the
    array is read-only because every caller shares it.
    """
    rows = []
    for assign in _canonical_assignments(T, k):
        row = [0] * k
        for t, lab in enumerate(assign):
            row[lab - 1] |= 1 << t
        rows.append(row)
    masks = np.array(rows, dtype=np.intp)
    masks.flags.writeable = False
    return masks


def brute_force_best_trajectories(
    solutions: list[Point], k: int, norm: str
) -> tuple[float, TrajectorySet]:
    """Exact best k-trajectory cost with predictions restricted to
    {origin} union {solutions}.

    This restricted optimum upper-bounds the unrestricted one and contains
    every zero-hit (k-server style) schedule.  Enumeration caps: T <= 8,
    k <= 3.

    ``V[m]`` is one trajectory's DP over the days in bitmask m: its least
    cost ending at each candidate.  All subsets whose last day is t extend
    the subsets of earlier days in one step, with the same adds and mins as
    a DP run day by day over that subset, so ``C[m]`` is the same float.
    Each canonical assignment costs ``C[m1] + C[m2] + ...`` summed left to
    right, and the first least one wins.  Costs are nonnegative, so this is
    the pick of an enumeration that stops summing an assignment once it
    reaches the best so far.
    """
    T = len(solutions)
    if T > TRAJ_MAX_T or k > TRAJ_MAX_K:
        raise CapExceeded(f"brute force capped at T<={TRAJ_MAX_T}, k<={TRAJ_MAX_K}")
    if T < 1 or k < 1:
        raise ValueError("need T >= 1 and k >= 1")
    o = origin(solutions[0].dim)
    candidates: list[Point] = [o]
    seen = {o.coords}
    for s in solutions:
        if s.coords not in seen:
            seen.add(s.coords)
            candidates.append(s)
    D = distance_matrix(candidates, norm)
    H = distance_matrix(candidates, norm, solutions)

    V = np.empty((1 << T, len(candidates)))
    for t in range(T):
        lo = 1 << t
        V[lo] = D[0] + H[:, t]
        V[lo + 1 : 2 * lo] = (V[1:lo][:, :, None] + D).min(axis=1) + H[:, t]
    C = V.min(axis=1)
    C[0] = 0.0  # an unused label

    masks = _assignment_masks(T, k)
    totals = C[masks[:, 0]]
    for j in range(1, k):
        totals = totals + C[masks[:, j]]
    best = int(totals.argmin())
    best_assign = tuple(
        1 + next(j for j in range(k) if masks[best, j] >> t & 1) for t in range(T)
    )
    witness = _reconstruct_witness(best_assign, candidates, D, H, k, solutions)
    return float(totals[best]), witness


def _reconstruct_witness(assign, candidates, D, H, k, solutions):
    T = len(solutions)
    predictions: dict[int, Point] = {}
    for traj in range(1, max(assign) + 1):
        days = [t for t in range(T) if assign[t] == traj]
        dp = D[0, :] + H[:, days[0]]
        parents = []
        for t in days[1:]:
            step = dp[:, None] + D
            parent = step.argmin(axis=0)
            dp = step.min(axis=0) + H[:, t]
            parents.append(parent)
        c = int(dp.argmin())
        choices = [c]
        for parent in reversed(parents):
            c = int(parent[c])
            choices.append(c)
        choices.reverse()
        for day, ci in zip(days, choices):
            predictions[day + 1] = candidates[ci]
    return TrajectorySet(
        k=k,
        assignment={t + 1: assign[t] for t in range(T)},
        predictions=predictions,
    )


class WorkFunctionState:
    """Work-function table over configurations of k points.

    Points are the origin plus every distinct seen request; configurations
    are size-k multisets of point indices, kept as sorted tuples.  ``table``
    holds the current work function on every configuration of the points
    seen so far: a new point's configurations get their values when the
    point is added (``_extend_table``), and ``wfa_step`` advances it by one
    request.
    The caps (k <= WFA_MAX_K, at most WFA_MAX_POINTS distinct requests)
    bound the table's size; exceeding one raises CapExceeded so callers can
    fall back to a greedy server rule.  ``dist[a][b]`` caches ``distance``
    from point ``a`` to point ``b``; a point's entries are computed once,
    when it is added.
    """

    def __init__(self, k: int, dim: int, norm: str):
        if k > WFA_MAX_K:
            raise CapExceeded(f"work function capped at k<={WFA_MAX_K}")
        self.k = k
        self.norm = norm
        o = origin(dim)
        self.points: list[Point] = [o]
        self.dist: list[list[float]] = [[distance(o, o, norm)]]
        self.config: tuple[int, ...] = (0,) * k  # current server point ids
        self.table: dict[tuple[int, ...], float] = {self.config: 0.0}

    def _point_id(self, p: Point) -> int:
        for i, q in enumerate(self.points):
            if q.coords == p.coords:
                return i
        if len(self.points) - 1 >= WFA_MAX_POINTS:
            raise CapExceeded(
                f"work function capped at {WFA_MAX_POINTS} distinct requests"
            )
        for q, row in zip(self.points, self.dist):
            row.append(distance(q, p, self.norm))
        self.points.append(p)
        self.dist.append([distance(p, q, self.norm) for q in self.points])
        self._extend_table()
        return len(self.points) - 1

    def _extend_table(self) -> None:
        """Give the work function values on the configurations that hold the
        newest point p, by the one-point rule w(X) = min_y w(X - p + y) + d(y, p)
        over the old points y.

        A work function is 1-Lipschitz under matching distance, so this
        equals the minimum over every old configuration Y of w(Y) plus the
        matching distance from Y to X.  Configurations holding p once are
        filled first, then twice, and so on, so X - p + y is already in the
        table.
        """
        p = len(self.points) - 1
        dist, table = self.dist, self.table
        for m in range(1, self.k + 1):
            for rest in combinations_with_replacement(range(p), self.k - m):
                cfg = rest + (p,) * m
                table[cfg] = min(
                    table[_replace(cfg, p, y)] + dist[y][p] for y in range(p)
                )


def _replace(cfg: tuple[int, ...], x: int, y: int) -> tuple[int, ...]:
    """The configuration ``cfg`` with one server moved from point x to y."""
    rest = list(cfg)
    rest.remove(x)
    return tuple(sorted(rest + [y]))


def wfa_step(state: WorkFunctionState, request: Point) -> tuple[int, float]:
    """Advance the work function by one request and pick the server to move.

    A configuration X that holds the request r keeps its value,
    w_t(X) = w_{t-1}(X); any other takes w_t(X) = min_x w_t(X - x + r) + d(x, r)
    over its points x.  Standard rule: move the server minimizing w_t(config
    with that server on the request) plus its own movement; ties break to
    the lowest server index.  Returns (server index, movement cost) and
    updates the state.
    """
    r = state._point_id(request)
    dist, table = state.dist, state.table
    for cfg in table:
        if r not in cfg:
            table[cfg] = min(
                table[_replace(cfg, x, r)] + dist[x][r] for x in set(cfg)
            )
    # choose the server to move from the current configuration
    best_idx, best_val, best_move = 0, math.inf, 0.0
    for idx, x in enumerate(state.config):
        move = dist[x][r]
        v = table[_replace(state.config, x, r)] + move
        if v < best_val - _EPS:
            best_idx, best_val, best_move = idx, v, move
    cfg = list(state.config)
    cfg[best_idx] = r
    state.config = tuple(cfg)
    return best_idx, best_move
