"""Exact offline benchmarks.

Offline optimal k-server cost (a DP over server positions for k <= 3,
minimum-cost flow on the acyclic request network beyond), optimal
k-trajectory cost over a restricted candidate set (one DP over the days for
k = 1, brute force for k >= 2), and the work-function k-server algorithm
used by the online reduction.
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

    All servers start at the origin, and more than T servers cannot help, so
    k reads the cost of k' = min(k, T) servers.  Every k' <= 3 comes from a
    dynamic program (``_kserver_dp``) whose value is the least left-to-right
    float sum of per-request movement over all schedules; the entries with
    k' >= 4 share one min-cost flow solve (``_kserver_flow``).  Both read one
    distance table over the origin and the requests.
    """
    T = len(solutions)
    if T < 1 or any(k < 1 for k in ks):
        raise ValueError("need T >= 1 and k >= 1")
    D = distance_matrix([origin(solutions[0].dim)] + list(solutions), norm)
    cost = {kk: _kserver_dp(D, kk) for kk in {min(k, T) for k in ks} if kk <= 3}
    flow_ks = [k for k in ks if min(k, T) > 3]
    if flow_ks:
        cost.update(zip((min(k, T) for k in flow_ks), _kserver_flow(D, flow_ks)))
    return [cost[min(k, T)] for k in ks]


def _kserver_dp(D: np.ndarray, k: int) -> float:
    """The offline k-server optimum for k <= 3 and k <= T servers, where
    ``D`` is the distance table over the origin (index 0) and the requests
    (index t for request t).

    After request t one server stands on it; the state is where the other
    k - 1 stand: request indices below t, the origin being 0.  ``V`` holds
    the least cost of each state.  Request t + 1 is served either by the
    server on t (every state adds ``D[t, t + 1]``) or by another one, which
    leaves the server on t among the others at the least cost ``moved``.
    k = 3 keeps a symmetric table over the two other servers (entries i = j > 0
    cannot occur and stay inf).  IEEE addition is monotone, so the least of
    ``V + d`` is the least sum over every schedule, summed left to right in
    request order, and the value does not depend on ties.
    """
    T = len(D) - 1
    if k == 1:
        return float(np.cumsum(D.diagonal(1))[-1])  # cumsum adds left to right
    if k == 2:
        V = np.empty(T)
        V[0] = D[0, 1]
        for t in range(1, T):
            moved = (V[:t] + D[:t, t + 1]).min()
            V[:t] += D[t, t + 1]
            V[t] = moved
        return float(V.min())
    V = np.full((T, T), math.inf)
    V[0, 0] = D[0, 1]
    for t in range(1, T):
        moved = (V[:t, :t] + D[:t, t + 1, None]).min(axis=0)
        V[:t, :t] += D[t, t + 1]
        V[:t, t] = moved
        V[t, :t] = moved
    return float(V.min())


def _kserver_flow(D: np.ndarray, ks: list[int]) -> list[float]:
    """The offline k-server optimum for each k in ``ks`` by min-cost flow
    over the distance table ``D`` of ``offline_opt_kserver``.

    Successive shortest paths with Johnson potentials on the acyclic request
    network: the source feeds K = min(max(ks), T) interchangeable server
    nodes, each request is an (in, out) node pair whose serving arc carries
    a large negative reward M (added back at the end) so that every request
    is forced into the flow, and every node may leave for the sink.  Each
    augmentation adds one server, so the cost for k is the running total
    after the k-th augmentation.  The reward leaves rounding noise of the
    order of one ulp of T * M in the low bits.

    The residual network is a dense table (``cap`` int8, ``cost`` float64,
    ``cost[v, u] = -cost[u, v]``) over nodes numbered in topological order:
    source, servers, in/out per request, sink.  Each Dijkstra step settles
    the pending node with the least (distance, id) and relaxes all of its
    arcs at once.
    """
    T = len(D) - 1
    K = min(max(ks), T)
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
    every zero-hit (k-server style) schedule.  k = 1 has one assignment, so
    it is one run of the one-trajectory DP over all days, at any T.  k >= 2
    enumerates assignments, capped at T <= 8, k <= 3.

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
    if k > 1 and (T > TRAJ_MAX_T or k > TRAJ_MAX_K):
        raise CapExceeded(f"brute force capped at T<={TRAJ_MAX_T}, k<={TRAJ_MAX_K} for k>=2")
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
    if k == 1:
        cost, choices = _one_trajectory(range(T), D, H)
        witness = TrajectorySet(
            k=1,
            assignment=dict.fromkeys(range(1, T + 1), 1),
            predictions={t + 1: candidates[c] for t, c in enumerate(choices)},
        )
        return cost, witness

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


def _one_trajectory(days, D: np.ndarray, H: np.ndarray) -> tuple[float, list[int]]:
    """One trajectory's least cost over ``days`` (hit ``H[c, t]`` plus
    movement ``D``, from the origin, candidate 0) and the candidate it
    predicts on each of those days; ties go to the lowest candidate.

    ``D`` is a distance table, so it is symmetric to the bit and row j of
    ``D + dp`` holds ``dp[i] + D[i, j]`` over i: each day is one contiguous
    argmin per row, and the least entry is read at its argmin.
    """
    days = list(days)
    cols = np.arange(len(D))
    step = np.empty_like(D)
    dp = D[0] + H[:, days[0]]
    parents = []
    for t in days[1:]:
        np.add(D, dp, out=step)
        parent = step.argmin(axis=1)
        dp = step[cols, parent] + H[:, t]
        parents.append(parent)
    c = int(dp.argmin())
    cost = float(dp[c])
    choices = [c]
    for parent in reversed(parents):
        c = int(parent[c])
        choices.append(c)
    choices.reverse()
    return cost, choices


def _reconstruct_witness(assign, candidates, D, H, k, solutions):
    T = len(solutions)
    predictions: dict[int, Point] = {}
    for traj in range(1, max(assign) + 1):
        days = [t for t in range(T) if assign[t] == traj]
        _, choices = _one_trajectory(days, D, H)
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
