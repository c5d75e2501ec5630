"""Exact offline benchmarks.

Offline optimal k-server cost via minimum-cost flow on the acyclic request
network, brute-force optimal k-trajectory cost over a restricted candidate
set, and the work-function k-server algorithm used by the online reduction.
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations_with_replacement, permutations

import numpy as np

from .errors import CapExceeded
from .metric import Point, distance, origin
from .trajectories import TrajectorySet

TRAJ_MAX_T = 8
TRAJ_MAX_K = 3
WFA_MAX_K = 3
WFA_MAX_POINTS = 12

_EPS = 1e-9


class _MinCostFlow:
    """Successive shortest paths with Johnson potentials.

    Nodes must be numbered in topological order of the original arcs so the
    initial potentials can come from one forward DP pass; afterwards every
    augmentation runs Dijkstra on reduced costs.
    """

    def __init__(self, n: int):
        self.n = n
        self.graph: list[list[list]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int, cost: float) -> None:
        self.graph[u].append([v, cap, cost, len(self.graph[v])])
        self.graph[v].append([u, 0, -cost, len(self.graph[u]) - 1])

    def solve(self, s: int, t: int, flow: int) -> float:
        potential = [math.inf] * self.n
        potential[s] = 0.0
        for u in range(self.n):  # forward DP over the topological order
            if potential[u] == math.inf:
                continue
            for v, cap, cost, _ in self.graph[u]:
                if cap > 0 and potential[u] + cost < potential[v]:
                    potential[v] = potential[u] + cost
        total = 0.0
        for _ in range(flow):
            dist = [math.inf] * self.n
            dist[s] = 0.0
            prev_edge: list[tuple[int, int] | None] = [None] * self.n
            heap = [(0.0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u] + _EPS:
                    continue
                for ei, (v, cap, cost, _) in enumerate(self.graph[u]):
                    if cap <= 0:
                        continue
                    nd = d + cost + potential[u] - potential[v]
                    if nd < dist[v] - _EPS:
                        dist[v] = nd
                        prev_edge[v] = (u, ei)
                        heapq.heappush(heap, (nd, v))
            if dist[t] == math.inf:
                raise RuntimeError("flow network infeasible")
            for u in range(self.n):
                if dist[u] < math.inf:
                    potential[u] += dist[u]
            v = t
            while v != s:
                u, ei = prev_edge[v]
                edge = self.graph[u][ei]
                edge[1] -= 1
                self.graph[v][edge[3]][1] += 1
                total += edge[2]
                v = u
        return total


def offline_opt_kserver(solutions: list[Point], k: int, norm: str) -> float:
    """Exact minimum total movement to serve the requests in order.

    All k servers start at the origin.  Serving arcs carry a large negative
    reward so every request is forced into the optimal flow; the reward is
    added back at the end.
    """
    T = len(solutions)
    if T < 1 or k < 1:
        raise ValueError("need T >= 1 and k >= 1")
    o = origin(solutions[0].dim)
    from_origin = [distance(o, s, norm) for s in solutions]
    chain = from_origin[0] + sum(
        distance(solutions[i - 1], solutions[i], norm) for i in range(1, T)
    )
    M = chain + 1.0
    # node ids: source, k server nodes, (in_i, out_i) per request, sink
    source = 0
    server = lambda j: 1 + j
    node_in = lambda i: 1 + k + 2 * i
    node_out = lambda i: 1 + k + 2 * i + 1
    sink = 1 + k + 2 * T
    net = _MinCostFlow(sink + 1)
    for j in range(k):
        net.add_edge(source, server(j), 1, 0.0)
        net.add_edge(server(j), sink, 1, 0.0)
        for i in range(T):
            net.add_edge(server(j), node_in(i), 1, from_origin[i])
    for i in range(T):
        net.add_edge(node_in(i), node_out(i), 1, -M)
        net.add_edge(node_out(i), sink, 1, 0.0)
        for j in range(i + 1, T):
            net.add_edge(
                node_out(i), node_in(j), 1, distance(solutions[i], solutions[j], norm)
            )
    cost = net.solve(source, sink, k)
    return cost + T * M


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


def brute_force_best_trajectories(
    solutions: list[Point], k: int, norm: str
) -> tuple[float, TrajectorySet]:
    """Exact best k-trajectory cost with predictions restricted to
    {origin} union {solutions}.

    This restricted optimum upper-bounds the unrestricted one and contains
    every zero-hit (k-server style) schedule.  Enumeration caps: T <= 8,
    k <= 3.
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
    n = len(candidates)
    D = np.array(
        [[distance(a, b, norm) for b in candidates] for a in candidates]
    )
    H = np.array(
        [[distance(c, s, norm) for s in solutions] for c in candidates]
    )

    def traj_min_cost(days: list[int]) -> float:
        dp = D[0, :] + H[:, days[0]]
        for t in days[1:]:
            dp = (dp[:, None] + D).min(axis=0) + H[:, t]
        return float(dp.min())

    best_cost = math.inf
    best_assign: tuple[int, ...] | None = None
    for assign in _canonical_assignments(T, k):
        cost = 0.0
        for traj in range(1, max(assign) + 1):
            days = [t for t in range(T) if assign[t] == traj]
            cost += traj_min_cost(days)
            if cost >= best_cost:
                break
        if cost < best_cost:
            best_cost = cost
            best_assign = assign
    witness = _reconstruct_witness(best_assign, candidates, D, H, k, solutions)
    return best_cost, witness


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

    Points are the origin plus every distinct seen request, capped at
    WFA_MAX_POINTS distinct requests; configurations are size-k multisets of
    point indices.  Exceeding a cap raises CapExceeded so callers can fall
    back to a greedy server rule.  ``dist[a][b]`` caches ``distance`` from point
    ``a`` to point ``b``; a point's entries are computed once, when it is added.
    """

    def __init__(self, k: int, dim: int, norm: str):
        if k > WFA_MAX_K:
            raise CapExceeded(f"work function capped at k<={WFA_MAX_K}")
        self.k = k
        self.norm = norm
        self.points: list[Point] = []
        self.dist: list[list[float]] = []
        self._add_point(origin(dim))
        self.table: dict[tuple[int, ...], float] = {}
        self.config: tuple[int, ...] = tuple([0] * k)  # current server point ids
        for cfg in combinations_with_replacement(range(1), k):
            self.table[cfg] = 0.0

    def _dist(self, a: int, b: int) -> float:
        return self.dist[a][b]

    def _add_point(self, p: Point) -> int:
        for q, row in zip(self.points, self.dist):
            row.append(distance(q, p, self.norm))
        self.points.append(p)
        self.dist.append([distance(p, q, self.norm) for q in self.points])
        return len(self.points) - 1

    def _point_id(self, p: Point) -> int:
        for i, q in enumerate(self.points):
            if q.coords == p.coords:
                return i
        if len(self.points) - 1 >= WFA_MAX_POINTS:
            raise CapExceeded(
                f"work function capped at {WFA_MAX_POINTS} distinct requests"
            )
        return self._add_point(p)

    def _match_dist(self, a: tuple[int, ...], b: tuple[int, ...]) -> float:
        """Minimum-cost perfect matching between two size-k configurations."""
        best = math.inf
        dist = self.dist
        for perm in permutations(a):
            c = sum(dist[x][y] for x, y in zip(perm, b))
            if c < best:
                best = c
        return best

    def _extend_table(self) -> None:
        """Extend the current work function to configurations that mention a
        newly seen point, via the Lipschitz identity
        w(X) = min_Y [w(Y) + matching_distance(Y, X)]."""
        fresh = [
            cfg
            for cfg in combinations_with_replacement(range(len(self.points)), self.k)
            if cfg not in self.table
        ]
        if not fresh:
            return
        old_items = list(self.table.items())
        for cfg in fresh:
            self.table[cfg] = min(
                w + self._match_dist(y_cfg, cfg) for y_cfg, w in old_items
            )


def wfa_step(state: WorkFunctionState, request: Point) -> tuple[int, float]:
    """Advance the work function by one request and pick the server to move.

    Standard rule: move the server minimizing w_t(config with that server on
    the request) plus its own movement; ties break to the lowest server
    index.  Returns (server index, movement cost) and updates the state.
    """
    r = state._point_id(request)
    state._extend_table()
    k = state.k
    npts = len(state.points)
    old = state.table
    new: dict[tuple[int, ...], float] = {}
    with_r = [
        cfg
        for cfg in combinations_with_replacement(range(npts), k)
        if r in cfg
    ]
    for cfg in with_r:
        rest = list(cfg)
        rest.remove(r)
        best = math.inf
        for y in range(npts):
            prev_cfg = tuple(sorted(rest + [y]))
            v = old[prev_cfg] + state._dist(y, r)
            if v < best:
                best = v
        new[cfg] = best
    for cfg in combinations_with_replacement(range(npts), k):
        if cfg in new:
            continue
        best = math.inf
        for x in set(cfg):
            rest = list(cfg)
            rest.remove(x)
            v = new[tuple(sorted(rest + [r]))] + state._dist(x, r)
            if v < best:
                best = v
        new[cfg] = best
    # choose the server to move from the current configuration
    best_idx, best_val, best_move = 0, math.inf, 0.0
    for idx in range(k):
        rest = list(state.config)
        x = rest.pop(idx)
        cfg = tuple(sorted(rest + [r]))
        move = state._dist(x, r)
        v = new[cfg] + move
        if v < best_val - _EPS:
            best_idx, best_val, best_move = idx, v, move
    cfg = list(state.config)
    cfg[best_idx] = r
    state.config = tuple(cfg)
    state.table = new
    return best_idx, best_move
