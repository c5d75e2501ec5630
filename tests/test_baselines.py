import heapq
import math
import random
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest

from warmstart.baselines import (
    _EPS,
    TRAJ_MAX_K,
    TRAJ_MAX_T,
    WFA_MAX_K,
    WFA_MAX_POINTS,
    WorkFunctionState,
    brute_force_best_trajectories,
    offline_opt_kserver,
    wfa_step,
)
from warmstart.errors import CapExceeded
from warmstart.metric import L1, L2, NORMS, Point, distance, distance_matrix, origin, search_steps
from warmstart.oracle import table_steps
from warmstart.scenarios import (
    default_corpus,
    gen_adversarial_switch,
    gen_drifting_trajectories,
    gen_static_clusters,
)


def kserver_costs(solutions, ks, norm):
    """``offline_opt_kserver`` on the table a scenario with these solutions
    holds: the distances over the origin, then the solutions."""
    return offline_opt_kserver(distance_matrix([origin(solutions[0].dim)] + solutions, norm), ks)


def best_trajectories(solutions, k, norm):
    """``brute_force_best_trajectories`` on a scenario's table."""
    points = [origin(solutions[0].dim)] + solutions
    return brute_force_best_trajectories(distance_matrix(points, norm), k)


def independent_kserver_opt(solutions, k, norm):
    """Reference: enumerate every assignment of requests to servers.

    With k servers starting at the origin and each serving its requests in
    arrival order, the cheapest assignment is the offline optimum.  The
    servers are interchangeable, so only assignments whose servers are first
    used in order 0, 1, 2, ... are listed: relabeling one makes the same
    moves in the same order.  Each assignment's movement is summed left to
    right in request order, from a table of ``distance`` values (index 0 is
    the origin, t is request t); assignments that share a prefix share its
    partial sum.
    """
    points = [origin(solutions[0].dim)] + list(solutions)
    dist = [[distance(a, b, norm) for b in points] for a in points]
    T = len(solutions)

    def walk(t, pos, cost):  # pos: where each server used so far stands
        if t > T:
            return cost
        best = math.inf
        for j in range(min(len(pos) + 1, k)):
            moved = cost + dist[pos[j] if j < len(pos) else 0][t]
            best = min(best, walk(t + 1, pos[:j] + (t,) + pos[j + 1 :], moved))
        return best

    return walk(1, (), 0.0)


def configuration_kserver_opt(solutions, k, norm):
    """Reference: enumerate schedules request by request, keeping for each
    multiset of server positions only the least cost so far.

    Two partial schedules at the same positions go on with the same moves,
    and IEEE addition is monotone, so the one dropped never ends strictly
    below the one kept: the value is ``independent_kserver_opt``'s, at
    horizons where k^T assignments are too many to list.
    """
    points = [origin(solutions[0].dim)] + list(solutions)
    dist = [[distance(a, b, norm) for b in points] for a in points]
    best = {(0,) * k: 0.0}
    for t in range(1, len(points)):
        reached = {}
        for cfg, cost in best.items():
            for x in set(cfg):
                c = cost + dist[x][t]
                rest = list(cfg)
                rest.remove(x)
                after = tuple(sorted(rest + [t]))
                if c < reached.get(after, math.inf):
                    reached[after] = c
        best = reached
    return min(best.values())


class _MinCostFlow:
    """Cross-check: an adjacency-list successive-shortest-paths solver, one
    network and one solve per k.  Its -M serving reward leaves rounding
    noise in the low bits, so it checks the k >= 4 path cover only to a
    relative tolerance."""

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


def reference_offline_opt_kserver(solutions, k, norm):
    """Reference: build the k-server network arc by arc and solve k units."""
    T = len(solutions)
    o = origin(solutions[0].dim)
    from_origin = [distance(o, s, norm) for s in solutions]
    chain = from_origin[0] + sum(
        distance(solutions[i - 1], solutions[i], norm) for i in range(1, T)
    )
    M = chain + 1.0
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
    return net.solve(source, sink, k) + T * M


class ReferenceWorkFunction:
    """Reference: the work-function table that extends itself to a new
    point's configurations by the minimum over every old configuration and
    every k! matching, and recomputes the configurations that hold the
    request on each step."""

    def __init__(self, k, dim, norm):
        if k > WFA_MAX_K:
            raise CapExceeded(f"work function capped at k<={WFA_MAX_K}")
        self.k = k
        self.norm = norm
        self.points = []
        self.dist = []
        self._add_point(origin(dim))
        self.table = {}
        self.config = tuple([0] * k)
        for cfg in combinations_with_replacement(range(1), k):
            self.table[cfg] = 0.0

    def _add_point(self, p):
        for q, row in zip(self.points, self.dist):
            row.append(distance(q, p, self.norm))
        self.points.append(p)
        self.dist.append([distance(p, q, self.norm) for q in self.points])
        return len(self.points) - 1

    def _point_id(self, p):
        for i, q in enumerate(self.points):
            if q.coords == p.coords:
                return i
        if len(self.points) - 1 >= WFA_MAX_POINTS:
            raise CapExceeded(f"work function capped at {WFA_MAX_POINTS} distinct requests")
        return self._add_point(p)

    def _match_dist(self, a, b):
        best = math.inf
        for perm in permutations(a):
            c = sum(self.dist[x][y] for x, y in zip(perm, b))
            if c < best:
                best = c
        return best

    def _extend_table(self):
        fresh = [
            cfg
            for cfg in combinations_with_replacement(range(len(self.points)), self.k)
            if cfg not in self.table
        ]
        if not fresh:
            return
        old_items = list(self.table.items())
        for cfg in fresh:
            self.table[cfg] = min(w + self._match_dist(y_cfg, cfg) for y_cfg, w in old_items)

    def step(self, request):
        r = self._point_id(request)
        self._extend_table()
        k = self.k
        npts = len(self.points)
        old = self.table
        new = {}
        with_r = [cfg for cfg in combinations_with_replacement(range(npts), k) if r in cfg]
        for cfg in with_r:
            rest = list(cfg)
            rest.remove(r)
            best = math.inf
            for y in range(npts):
                v = old[tuple(sorted(rest + [y]))] + self.dist[y][r]
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
                v = new[tuple(sorted(rest + [r]))] + self.dist[x][r]
                if v < best:
                    best = v
            new[cfg] = best
        best_idx, best_val, best_move = 0, math.inf, 0.0
        for idx in range(k):
            rest = list(self.config)
            x = rest.pop(idx)
            move = self.dist[x][r]
            v = new[tuple(sorted(rest + [r]))] + move
            if v < best_val - _EPS:
                best_idx, best_val, best_move = idx, v, move
        cfg = list(self.config)
        cfg[best_idx] = r
        self.config = tuple(cfg)
        self.table = new
        return best_idx, best_move


def _replace(cfg, x, y):
    """The configuration ``cfg`` with one server moved from point x to y."""
    rest = list(cfg)
    rest.remove(x)
    return tuple(sorted(rest + [y]))


class DictWorkFunction:
    """Reference: the work-function table as a dict over sorted-tuple
    configurations, filled by the one-point rule with scalar ``distance``
    calls, one configuration at a time."""

    def __init__(self, k, dim, norm):
        if k > WFA_MAX_K:
            raise CapExceeded(f"work function capped at k<={WFA_MAX_K}")
        self.k = k
        self.norm = norm
        o = origin(dim)
        self.points = [o]
        self.dist = [[distance(o, o, norm)]]
        self.config = (0,) * k
        self.table = {self.config: 0.0}

    def _point_id(self, p):
        for i, q in enumerate(self.points):
            if q.coords == p.coords:
                return i
        if len(self.points) - 1 >= WFA_MAX_POINTS:
            raise CapExceeded(f"work function capped at {WFA_MAX_POINTS} distinct requests")
        for q, row in zip(self.points, self.dist):
            row.append(distance(q, p, self.norm))
        self.points.append(p)
        self.dist.append([distance(p, q, self.norm) for q in self.points])
        p = len(self.points) - 1
        for m in range(1, self.k + 1):
            for rest in combinations_with_replacement(range(p), self.k - m):
                cfg = rest + (p,) * m
                self.table[cfg] = min(
                    self.table[_replace(cfg, p, y)] + self.dist[y][p] for y in range(p)
                )
        return p

    def step(self, request):
        r = self._point_id(request)
        dist, table = self.dist, self.table
        for cfg in table:
            if r not in cfg:
                table[cfg] = min(table[_replace(cfg, x, r)] + dist[x][r] for x in set(cfg))
        best_idx, best_val, best_move = 0, math.inf, 0.0
        for idx, x in enumerate(self.config):
            move = dist[x][r]
            v = table[_replace(self.config, x, r)] + move
            if v < best_val - _EPS:
                best_idx, best_val, best_move = idx, v, move
        cfg = list(self.config)
        cfg[best_idx] = r
        self.config = tuple(cfg)
        return best_idx, best_move


def _rand_points(rng, T, dim, spread=15.0):
    return [
        Point(tuple(rng.uniform(-spread, spread) for _ in range(dim)))
        for _ in range(T)
    ]


def test_kserver_optimum_matches_exhaustive():
    rng = random.Random(37)
    for _ in range(60):
        T = rng.randint(1, 5)
        k = rng.randint(1, 3)
        dim = rng.randint(1, 3)
        norm = rng.choice(NORMS)
        sols = _rand_points(rng, T, dim)
        got = kserver_costs(sols, [k], norm)[0]
        exp = independent_kserver_opt(sols, k, norm)
        assert got == pytest.approx(exp, abs=1e-6)


def test_kserver_optimum_hand_example():
    # two far requests, two servers: each server takes one
    sols = [Point.of(10.0), Point.of(-10.0)]
    assert kserver_costs(sols, [2], L1)[0] == pytest.approx(20.0)
    assert kserver_costs(sols, [1], L1)[0] == pytest.approx(30.0)


def test_extra_servers_never_hurt():
    rng = random.Random(53)
    sols = _rand_points(rng, 5, 2)
    costs = [kserver_costs(sols, [k], L2)[0] for k in (1, 2, 3, 4)]
    assert costs == sorted(costs, reverse=True)


def test_trajectories_k1_stationary_beats_chasing():
    # staying at 0 pays hit 100 twice (200); chasing pays movement 300
    sols = [Point.of(0.0), Point.of(100.0), Point.of(-100.0)]
    assert best_trajectories(sols, 1, L1) == pytest.approx(200.0)


def test_trajectories_cap():
    # The caps bound the (n,)*k table of k >= 2; k = 1 runs at any T.  A
    # capped call raises before it builds the DP's tables: with k = 10**9
    # they could not exist at all.
    sols = [Point.of(float(i)) for i in range(TRAJ_MAX_T + 1)]
    assert isinstance(best_trajectories(sols, 1, L2), float)
    for T, k in [(TRAJ_MAX_T + 1, 2), (4, TRAJ_MAX_K + 1), (1, 10**9), (TRAJ_MAX_T, 10**9)]:
        with pytest.raises(CapExceeded):
            best_trajectories(sols[:T], k, L2)


def _canonical_assignments(T, k):
    """Day-to-trajectory assignments up to trajectory relabeling: restricted-
    growth tuples, where day 1 gets label 1 and each new label is one more
    than the current maximum."""
    def rec(prefix, high):
        if len(prefix) == T:
            yield prefix
            return
        for lab in range(1, min(high + 1, k) + 1):
            yield from rec(prefix + (lab,), max(high, lab))

    yield from rec((), 0)


def reference_best_trajectories(solutions, k, norm):
    """The per-label definition the trajectory DP replaced: every canonical
    assignment sums the one-trajectory DP of its labels' days in label
    order, and stops summing once it reaches the best cost so far.  Each day
    subset's DP is memoized, which changes no value.  Its value can differ
    from the least day-order sum in the last bits only."""
    T = len(solutions)
    candidates = [origin(solutions[0].dim)]
    for s in solutions:
        if s.coords not in {c.coords for c in candidates}:
            candidates.append(s)
    D = distance_matrix(candidates, norm)
    H = distance_matrix(candidates, norm, solutions)
    memo = {}

    def traj_min_cost(days):
        if days not in memo:
            dp = D[0, :] + H[:, days[0]]
            for t in days[1:]:
                dp = (dp[:, None] + D).min(axis=0) + H[:, t]
            memo[days] = float(dp.min())
        return memo[days]

    best_cost = math.inf
    for assign in _canonical_assignments(T, k):
        cost = 0.0
        for traj in range(1, max(assign) + 1):
            cost += traj_min_cost(tuple(t for t in range(T) if assign[t] == traj))
            if cost >= best_cost:
                break
        best_cost = min(best_cost, cost)
    return best_cost


def configuration_traj_opt(solutions, k, norm):
    """Reference: enumerate schedules day by day, keeping for each multiset
    of trajectory positions only the least day-order partial sum.

    Positions are candidates: the origin (index 0, where every trajectory
    starts) and the distinct solutions.  Day t moves one trajectory from x
    to a candidate c and makes the sum ``(cost + d(x, c)) + d(c, s_t)``.
    Two partial schedules at the same positions go on with the same moves,
    and IEEE addition is monotone, so the one dropped never ends strictly
    below the one kept: the value is the least day-order sum over every
    schedule.
    """
    cands = [origin(solutions[0].dim)]
    for s in solutions:
        if s not in cands:
            cands.append(s)
    dist = [[distance(a, b, norm) for b in cands] for a in cands]
    best = {(0,) * k: 0.0}
    for s in solutions:
        hit = [distance(c, s, norm) for c in cands]
        reached = {}
        for cfg, cost in best.items():
            for x in set(cfg):
                rest = list(cfg)
                rest.remove(x)
                for c, h in enumerate(hit):
                    v = (cost + dist[x][c]) + h
                    after = tuple(sorted(rest + [c]))
                    if v < reached.get(after, math.inf):
                        reached[after] = v
        best = reached
    return min(best.values())


def _trajectory_cases():
    # Half the cases sit on a small integer grid, where ties between
    # schedules and repeated solutions are common.
    rng = random.Random(83)
    for case in range(1200):
        T = rng.randint(1, TRAJ_MAX_T)
        k = rng.randint(1, TRAJ_MAX_K)
        norm = rng.choice(NORMS)
        dim = rng.randint(1, 3)
        if case % 2:
            sols = _grid_points(rng, T, dim, rng.randint(1, 3), 1.0)
        else:
            sols = _rand_points(rng, T, dim, spread=rng.choice([1.0, 15.0, 1e4]))
        yield case, T, k, norm, sols


def test_trajectory_dp_is_the_least_day_order_sum():
    # The value is the least day-order sum over every schedule, bit for bit.
    for case, T, k, norm, sols in _trajectory_cases():
        cost = best_trajectories(sols, k, norm)
        assert repr(cost) == repr(configuration_traj_opt(sols, k, norm)), (case, T, k, norm)


def test_trajectory_dp_is_within_two_ulps_a_day_of_the_per_label_sum():
    # The per-label definition sums each label's cost, then the labels; the
    # day-order sum interleaves them.  Both round sums of the same 2T
    # nonnegative terms per schedule, each within about 2T half-ulps of the
    # exact least sum, so they are within 2T ulps of each other.  With one
    # label the two sums are the same.
    for case, T, k, norm, sols in _trajectory_cases():
        cost = best_trajectories(sols, k, norm)
        old_cost = reference_best_trajectories(sols, k, norm)
        assert abs(cost - old_cost) <= 2 * T * 2**-52 * old_cost, (case, T, k, norm)
        if k == 1:
            assert repr(cost) == repr(old_cost), (case, T, norm)


def test_one_trajectory_beyond_the_cap_is_the_plain_dp():
    # k = 1 runs at any T: its value is a plain day-by-day DP over all days.
    rng = random.Random(89)
    for case in range(60):
        T = rng.randint(TRAJ_MAX_T + 1, 60)
        norm = NORMS[case % 3]
        dim = rng.randint(1, 3)
        if case % 2:
            sols = _grid_points(rng, T, dim, rng.randint(1, 5), rng.choice((0.1, 1.0)))
        else:
            sols = _rand_points(rng, T, dim, spread=rng.choice([1.0, 15.0, 1e4]))
        candidates = [origin(dim)]
        for s in sols:
            if s not in candidates:
                candidates.append(s)
        D = distance_matrix(candidates, norm)
        H = distance_matrix(candidates, norm, sols)
        dp = D[0] + H[:, 0]
        for t in range(1, T):
            dp = (dp[:, None] + D).min(axis=0) + H[:, t]
        assert repr(best_trajectories(sols, 1, norm)) == repr(float(dp.min())), (case, T, norm)


def table_building_best_trajectories(solutions, k, norm):
    """Reference: the trajectory DP as it was before it read a scenario's
    table.  It takes the solutions and a norm, lists the candidates itself
    (the origin, then each distinct solution at its first day) and builds two
    tables over them: candidate to candidate and candidate to solution.  Its
    DP is the one ``brute_force_best_trajectories`` runs over every point of
    the scenario's table, repeats included, with day 1 written out."""
    T = len(solutions)
    if k > 1 and (T > TRAJ_MAX_T or k > TRAJ_MAX_K):
        raise CapExceeded(
            f"trajectory DP capped at T<={TRAJ_MAX_T}, k<={TRAJ_MAX_K} for k>=2"
        )
    if T < 1 or k < 1:
        raise ValueError("need T >= 1 and k >= 1")
    o = origin(solutions[0].dim)
    candidates = [o]
    seen = {o.coords}
    for s in solutions:
        if s.coords not in seen:
            seen.add(s.coords)
            candidates.append(s)
    D = distance_matrix(candidates, norm)
    H = distance_matrix(candidates, norm, solutions)
    n = len(candidates)
    shape = (n,) * k
    hits = H.T.reshape((T, n) + (1,) * (k - 1))
    D_c = D.reshape((n,) + (1,) * (k - 1) + (n,))
    step = np.empty(shape + (n,))  # step[c, rest, a] = D[c, a] + V[rest, a]
    flat = step.reshape(-1, n)
    rows = np.arange(n**k).reshape(shape)
    W = np.full(shape, math.inf)
    W[(slice(None),) + (0,) * (k - 1)] = D[0] + H[:, 0]
    for t in range(1, T + 1):
        V = W
        for j in range(1, k):
            V = np.minimum(V, W.swapaxes(0, j))
        if t == T:
            break
        np.add(D_c, V, out=step)
        W = flat[rows, step.argmin(axis=-1)]
        W += hits[t]
    return float(V.min())


def _repeating_grid(rng, T, dim):
    """T points of a small integer grid, so solutions repeat, with the
    origin (sometimes as -0.0, which is the same point) on at least one day."""
    sols = _grid_points(rng, T, dim, rng.randint(1, 2), 1.0)
    for t in rng.sample(range(T), rng.randint(1, max(1, T // 3))):
        sols[t] = Point((rng.choice((0.0, -0.0)),) * dim)
    return sols


def test_trajectory_dp_on_the_scenario_table_matches_the_table_building_reference():
    # The DP reads every row of the scenario's table, repeated points and
    # the origin's copies included, instead of building its own tables over
    # the distinct candidates; the value must match in repr.
    rng = random.Random(137)
    cases = [(rng.randint(1, TRAJ_MAX_T), rng.randint(1, TRAJ_MAX_K)) for _ in range(600)]
    cases += [(rng.randint(TRAJ_MAX_T + 1, 40), 1) for _ in range(150)]
    for case, (T, k) in enumerate(cases):
        norm = NORMS[case % 3]
        sols = _repeating_grid(rng, T, rng.randint(1, 3))
        cost = best_trajectories(sols, k, norm)
        assert repr(cost) == repr(table_building_best_trajectories(sols, k, norm)), (case, T, k, norm, sols)


def test_sandwich_against_kserver_opt():
    rng = random.Random(71)
    for _ in range(30):
        T = rng.randint(1, 6)
        k = rng.randint(1, 3)
        norm = rng.choice(NORMS)
        sols = _rand_points(rng, T, 2)
        traj = best_trajectories(sols, k, norm)
        server = kserver_costs(sols, [k], norm)[0]
        assert traj <= server + 1e-9
        assert server <= 2 * traj + 1e-9


def test_trajectory_optimum_never_exceeds_the_kserver_optimum():
    # Every zero-hit schedule is a k-server schedule with the same moves in
    # the same order and hits of exactly 0.0, so the least day-order sum is
    # at most the least k-server sum, with no slack.  Grids of step 0.1
    # round in every sum and tie often; uniform points reach 1e7.
    rng = random.Random(113)
    for case in range(1000):
        norm = NORMS[case % 3]
        T = rng.randint(1, TRAJ_MAX_T)
        dim = rng.randint(1, 3)
        if case % 2:
            sols = _grid_points(rng, T, dim, rng.randint(1, 5), 0.1)
        else:
            sols = _rand_points(rng, T, dim, spread=rng.choice([1.0, 15.0, 1e4, 1e7]))
        servers = kserver_costs(sols, [1, 2, 3], norm)
        for k, server in zip((1, 2, 3), servers):
            traj = best_trajectories(sols, k, norm)
            assert traj <= server, (case, k, norm, sols)


def _wfa_state(k, norm, requests):
    """The work-function state over the table of the origin and the Points
    ``requests``, as a scenario's; ``wfa_step(state, t)`` serves request t."""
    coords = np.array([origin(requests[0].dim).coords] + [r.coords for r in requests])
    return WorkFunctionState(k, distance_matrix(coords, norm), coords)


def test_wfa_single_server_chases_requests():
    state = _wfa_state(1, L1, [Point.of(5.0), Point.of(2.0), Point.of(9.0)])
    moves = [wfa_step(state, t) for t in (1, 2, 3)]
    assert [m[0] for m in moves] == [0, 0, 0]
    assert [m[1] for m in moves] == pytest.approx([5.0, 3.0, 7.0])


def test_wfa_two_servers_split_far_clusters():
    reqs = [Point.of(0.0), Point.of(100.0), Point.of(1.0), Point.of(99.0)]
    state = _wfa_state(2, L1, reqs)
    total = 0.0
    for t in range(1, 5):
        _, move = wfa_step(state, t)
        total += move
    # after warmup, one server stays near each cluster
    assert total <= 102.0 + 1e-9
    points = [origin(1)] + reqs
    assert sorted(points[state.ids[i]][0] for i in state.config) == [1.0, 99.0]


def test_wfa_work_function_values_stay_sane():
    rng = random.Random(83)
    state = _wfa_state(2, L2, [Point.of(rng.uniform(-10, 10)) for _ in range(8)])
    prev_min = 0.0
    for t in range(1, 9):
        wfa_step(state, t)
        values = state.table.ravel()
        assert all(v >= -1e-9 for v in values)
        cur_min = min(values)
        assert cur_min >= prev_min - 1e-9  # optimal offline cost is monotone
        prev_min = cur_min


def test_wfa_cached_distances_are_the_direct_ones():
    # The state's points are the first occurrences of their coordinates,
    # and each move is the direct distance from the moved server's point.
    rng = random.Random(89)
    for norm in NORMS:
        reqs = [Point.of(float(rng.randint(-1, 1)), float(rng.randint(-1, 1))) for _ in range(12)]
        reqs[3] = Point.of(-0.0, 0.0)
        state = _wfa_state(2, norm, reqs)
        points = [origin(2)] + reqs
        for t in range(1, len(points)):
            before = state.config
            idx, move = wfa_step(state, t)
            assert move == distance(points[state.ids[before[idx]]], points[t], norm)
        assert [points[i] for i in state.ids] == list(dict.fromkeys(points))
        assert state.ids == sorted(points.index(p) for p in set(points))


def test_wfa_caps():
    with pytest.raises(CapExceeded):
        _wfa_state(4, L2, [Point.of(1.0)])
    state = _wfa_state(1, L2, [Point.of(float(i + 1)) for i in range(20)])
    with pytest.raises(CapExceeded):
        for t in range(1, 21):
            wfa_step(state, t)
    assert len(state.ids) == WFA_MAX_POINTS + 1 and state.table.shape == (WFA_MAX_POINTS + 1,)


def _grid_points(rng, T, dim, half, step):
    return [
        Point(tuple(step * rng.randint(-half, half) for _ in range(dim)))
        for _ in range(T)
    ]


def test_kserver_matches_the_reference_solvers():
    # Grid points make ties and duplicate points common.  A step of 0.1 is
    # not a binary fraction, so sums of L1 and Linf distances round too and
    # two tied schedules can give different bits.  Entries with
    # min(k, T) <= 3 come from the DP and must be the least left-to-right
    # sum over every schedule; the others come from the path cover and are
    # cross-checked against the reference flow.
    rng = random.Random(97)
    for case in range(100):
        norm = NORMS[case % 3]
        T = rng.randint(1, 25)
        dim = rng.randint(1, 3)
        step = 0.1 if case % 5 else 1.0
        sols = _grid_points(rng, T, dim, rng.choice((1, 2, 3, 5)), step)
        ks = list(range(1, T + 4))
        got = kserver_costs(sols, ks, norm)
        for k, c in zip(ks, got):
            if min(k, T) <= 3:
                exp = configuration_kserver_opt(sols, k, norm)
                assert repr(c) == repr(exp), (case, k, norm, sols)
            else:
                exp = reference_offline_opt_kserver(sols, k, norm)
                assert math.isclose(c, exp, rel_tol=1e-9), (case, k, norm, sols)


def test_more_servers_than_requests_cost_the_same_as_t():
    rng = random.Random(101)
    for case in range(30):
        T = rng.randint(1, 12)
        sols = _grid_points(rng, T, rng.randint(1, 3), 3, 0.1)
        norm = NORMS[case % 3]
        costs = kserver_costs(sols, list(range(T, T + 11)), norm)
        assert [repr(c) for c in costs] == [repr(costs[0])] * 11
        if T <= 3:
            assert repr(independent_kserver_opt(sols, T + 10, norm)) == repr(costs[0])
        else:
            ref = reference_offline_opt_kserver(sols, T + 10, norm)
            assert math.isclose(costs[0], ref, rel_tol=1e-9), (case, norm, sols)


def test_kserver_dp_is_the_least_schedule_sum_bit_for_bit():
    # Every entry with min(k, T) <= 3 must be exactly the least left-to-right
    # float sum over all k^T assignments.  Grids of step 0.1 round in every
    # sum and tie often; uniform points reach coordinates of 1e8.  The
    # k >= 4 entry runs the path cover when T >= 4: its value is one
    # schedule's sum, so it is never below the least one, and a near-tie
    # broken by rounding in the potentials may leave it up to 2T ulps above.
    rng = random.Random(109)
    cover_checked = 0
    for case in range(1500):
        norm = NORMS[case % 3]
        T = rng.randint(1, 8)
        dim = rng.randint(1, 3)
        if case % 2:
            sols = _grid_points(rng, T, dim, rng.randint(1, 5), rng.choice((0.1, 1.0)))
        else:
            sols = _rand_points(rng, T, dim, spread=rng.choice([1.0, 15.0, 1e4, 1e8]))
        ks = [1, 2, 3, rng.randint(4, 10)]
        for k, c in zip(ks, kserver_costs(sols, ks, norm)):
            if min(k, T) <= 3:
                exp = independent_kserver_opt(sols, k, norm)
                assert repr(c) == repr(exp), (case, k, norm, sols)
                assert repr(configuration_kserver_opt(sols, k, norm)) == repr(exp)
            else:
                ref = configuration_kserver_opt(sols, k, norm)
                assert ref <= c <= ref * (1 + 2 * T * 2**-52), (case, k, norm, sols)
                cover_checked += 1
    assert cover_checked >= 500


def reference_kserver_dp(D, k):
    """Reference: the offline optimum for one k <= 3 servers (k <= T) on its
    own, as the DP computed it before the values for k <= 3 came from one
    table: the chain for k = 1, a table over the other server's request for
    k = 2, and a symmetric table over the other two servers' for k = 3."""
    T = len(D) - 1
    if k == 1:
        return float(np.cumsum(D.diagonal(1))[-1])
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


def _bench_style_scenarios():
    """Scenarios of the benchmark's kinds: the default corpus, its 8-day
    L1/Linf variants, the drifting k = 3 horizon ladder from T = 10 to 159,
    and far-jump switches in every norm."""
    scens = default_corpus()
    for norm in ("L1", "Linf"):
        scens += [
            gen_drifting_trajectories(11, k=2, drift_per_day=0.5, noise=0.5, T=8, dim=2, norm=norm),
            gen_static_clusters(12, k=3, sep=100.0, spread=1.0, T=8, dim=2, norm=norm),
            gen_adversarial_switch(13, phases=4, T=8, dim=1, norm=norm),
        ]
    scens += [
        gen_drifting_trajectories(20 + i, k=3, drift_per_day=0.5, noise=0.5, T=round(10 * 1.1**i), dim=2)
        for i in range(0, 30, 3)
    ]
    scens += [
        gen_adversarial_switch(50 + i, phases=3, T=6, dim=1 + i % 3, jump=jump, norm=NORMS[i % 3])
        for i, jump in enumerate((1e2, 1e3, 1e4, 1e5))
    ]
    return scens


def test_one_table_gives_every_k_up_to_three_as_the_standalone_dps():
    # Each k' <= 3 is read off the table of the largest k' <= 3 in the call;
    # it must equal the standalone DP's value in repr, whichever other k'
    # share the call.  Integer grids tie often and repeat points.  The same
    # tables check the oracle's step answer against search_steps.
    rng = random.Random(139)
    cases = []
    for T in range(1, 17):
        for case in range(30):
            norm, dim = NORMS[case % 3], 1 + case % 2
            points = [origin(dim)] + _grid_points(rng, T, dim, rng.choice((1, 2, 3)), 1.0)
            cases.append((points, norm))
    cases += [(scen.points, scen.norm) for scen in _bench_style_scenarios()]
    calls = [[1], [2], [3], [1, 2], [1, 3], [2, 3], [3, 2, 1], [2, 5, 1]]
    for points, norm in cases:
        D = distance_matrix(points, norm)
        T = len(D) - 1
        want = {k: repr(reference_kserver_dp(D, min(k, T))) for k in (1, 2, 3)}
        for ks in calls if T <= 16 else calls[6:7]:
            got = offline_opt_kserver(D, ks)
            assert [repr(c) for k, c in zip(ks, got) if min(k, T) <= 3] == [
                want[min(k, T)] for k in ks if min(k, T) <= 3
            ], (ks, norm, points)
        if T <= 16:
            for t in range(1, T + 1):
                for s in range(T + 1):
                    assert table_steps(D[t], s) == search_steps(points[s], points[t], norm), (s, t, points)
    assert len(cases) > 500


def test_rounding_beyond_the_tie_margin_fails_loudly():
    # At coordinates near 1e7 a min-cost flow with a -M serving reward has
    # potentials near 3e9, where one ulp exceeds a 1e-9 tie margin; on this
    # input its shortest-path tree got a cycle at the fourth augmentation.
    # The path cover has no reward, and its settled columns are blocked, so
    # rounding cannot form a cycle; here it finds the least sum to the bit.
    e = 10**7
    sols = [
        Point.of(-2 * e, 2 * e, -2 * e), Point.of(2 * e, 0, e), Point.of(-e, -e, 0),
        Point.of(e, -e, e), Point.of(-2 * e, -2 * e, 2 * e), Point.of(-e, -2 * e, 0),
        Point.of(-e, 0, -e), Point.of(-2 * e, -2 * e, -2 * e), Point.of(2 * e, -e, -e),
    ]
    assert len(kserver_costs(sols, [1, 2, 3], L2)) == 3
    got = kserver_costs(sols, [4], L2)[0]
    assert repr(got) == repr(configuration_kserver_opt(sols, 4, L2)) == "191005039.55039376"


def test_four_servers_never_cost_more_than_three():
    # k = 3 comes from the DP and k = 4 from the path cover.  The least
    # four-server sum is at most the least three-server one, and the cover
    # may sit up to 2T ulps above its own least sum.
    rng = random.Random(127)
    for case in range(300):
        norm = NORMS[case % 3]
        T = rng.randint(4, 10)
        dim = rng.randint(1, 3)
        if case % 2:
            sols = _grid_points(rng, T, dim, rng.randint(1, 5), rng.choice((0.1, 1.0)))
        else:
            sols = _rand_points(rng, T, dim, spread=rng.choice([1.0, 15.0, 1e4, 1e8]))
        k3, k4 = kserver_costs(sols, [3, 4], norm)
        assert k4 <= k3 * (1 + 2 * T * 2**-52), (case, norm, sols)


def four_server_dp(D):
    """Reference: ``_kserver_dp`` one server further, over a (T, T, T) table
    of where the three servers not on the last request stand.  Its value is
    the least left-to-right schedule sum for four servers, at horizons too
    long for ``configuration_kserver_opt``."""
    T = len(D) - 1
    V = np.full((T, T, T), math.inf)
    V[0, 0, 0] = D[0, 1]
    for t in range(1, T):
        moved = (V[:t, :t, :t] + D[:t, t + 1, None, None]).min(axis=0)
        V[:t, :t, :t] += D[t, t + 1]
        V[t, :t, :t] = V[:t, t, :t] = V[:t, :t, t] = moved
    return float(V.min())


def test_path_cover_at_forty_requests_is_within_2t_ulps_of_the_least_sum():
    rng = random.Random(131)
    for case in range(6):
        norm = NORMS[case % 3]
        T = 40
        if case < 3:
            sols = _grid_points(rng, T, 2, 4, 0.1)
        else:
            sols = _rand_points(rng, T, 2, spread=1e7)
        ref = four_server_dp(distance_matrix([origin(2)] + sols, norm))
        got = kserver_costs(sols, [4], norm)[0]
        assert ref <= got <= ref * (1 + 2 * T * 2**-52), (case, norm)


def _run_wfa(step, requests):
    """(index, move) per request up to the first CapExceeded, and the index
    of the request that raised it (None if none did)."""
    moves = []
    for t, r in enumerate(requests):
        try:
            moves.append(step(r))
        except CapExceeded:
            return moves, t
    return moves, None


def _check_wfa_against_reference(k, dim, norm, requests):
    """Assert the same moves and the same capped request as both references,
    every table value equal in ``repr`` to the dict table's at every
    permutation of its configuration, and within 1e-15 relative of the
    matching reference's; return the index of the capped request."""
    state = _wfa_state(k, norm, requests)
    exact = DictWorkFunction(k, dim, norm)
    ref = ReferenceWorkFunction(k, dim, norm)
    got = _run_wfa(lambda t: wfa_step(state, t), range(1, len(requests) + 1))
    assert repr(got) == repr(_run_wfa(exact.step, requests)), (norm, k, requests)
    exp = _run_wfa(ref.step, requests)
    assert got == exp, (norm, k, requests)
    assert state.table.shape == (len(ref.points),) * k
    assert exact.table.keys() == ref.table.keys()
    for cfg, w in exact.table.items():
        for x in set(permutations(cfg)):
            assert repr(state.table.item(x)) == repr(w), (norm, k, requests, x)
        assert math.isclose(state.table[cfg], ref.table[cfg], rel_tol=1e-15, abs_tol=0.0), (norm, k, requests, cfg)
    return exp[1]


def test_wfa_matches_matching_reference():
    # Half the cases lie on a small integer grid, so tied server choices and
    # repeated requests are common; the others are uniform, and those with
    # more than 12 distinct requests run into the cap.  The reference's
    # table extension costs about n^6 steps for k = 3 and n points, so k = 3
    # requests repeat a pool of at most 7 points (the next test covers the
    # cap at k = 3).  Every fourth case also requests the origin, as -0.0 in
    # its first coordinate, and one of its requests a second time.
    rng = random.Random(103)
    capped = 0
    for case in range(1000):
        norm = NORMS[case % 3]
        dim = rng.randint(1, 3)
        k = rng.randint(1, 3)
        T = rng.randint(1, 16)
        n = T if k < 3 else rng.randint(1, 7)
        if case % 2:
            pool = _grid_points(rng, n, dim, rng.choice((1, 2, 3)), 1.0)
        else:
            pool = _rand_points(rng, n, dim)
        reqs = pool if k < 3 else [rng.choice(pool) for _ in range(T)]
        if case % 4 == 1:
            reqs.insert(rng.randint(0, len(reqs)), Point((-0.0,) + (0.0,) * (dim - 1)))
            reqs.insert(rng.randint(1, len(reqs)), rng.choice(reqs))
        capped += _check_wfa_against_reference(k, dim, norm, reqs) is not None
    assert capped >= 50


def test_wfa_matches_matching_reference_at_the_cap_with_three_servers():
    reqs = _rand_points(random.Random(107), 14, 2)
    assert _check_wfa_against_reference(3, 2, L2, reqs) == WFA_MAX_POINTS
