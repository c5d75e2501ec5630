"""Exact offline benchmarks.

Offline optimal k-server cost (a DP over server positions for k <= 3, a
least-cost path cover of the requests beyond), optimal k-trajectory cost
over a restricted candidate set (one DP over the days and the placements of
the k trajectories, for every k), and the work-function k-server algorithm
used by the online reduction.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded

TRAJ_MAX_T = 8
TRAJ_MAX_K = 3
WFA_MAX_K = 3
WFA_MAX_POINTS = 12

_EPS = 1e-9


def offline_opt_kserver(D: np.ndarray, ks: list[int]) -> list[float]:
    """Least total movement to serve the requests in order with k servers,
    for each k in ``ks`` (costs returned in the same order).  ``D`` is the
    distance table over the origin (index 0) and the T requests (index t for
    request t), as ``Scenario.distances`` is.

    All servers start at the origin, and more than T servers cannot help, so
    k reads the cost of k' = min(k, T) servers.  Every k' <= 3 comes from one
    dynamic program (``_kserver_dp``), run for the largest such k', whose
    value is the least left-to-right float sum of per-request movement over
    all schedules; every k' >= 4 from a path-cover assignment
    (``_kserver_cover``) that reports that sum along the schedule it finds.
    """
    T = len(D) - 1
    if T < 1 or any(k < 1 for k in ks):
        raise ValueError("need T >= 1 and k >= 1")
    wanted = {min(k, T) for k in ks}
    small = max((kk for kk in wanted if kk <= 3), default=0)
    cost = dict(enumerate(_kserver_dp(D, small), start=1)) if small else {}
    cost.update((kk, _kserver_cover(D, kk)) for kk in wanted if kk > 3)
    return [cost[min(k, T)] for k in ks]


def _kserver_dp(D: np.ndarray, k: int) -> list[float]:
    """The offline optimum for 1..k servers, k <= 3 and k <= T, over the
    distance table ``D`` of ``offline_opt_kserver``.

    One server is the chain of requests.  For more, after request t one
    server stands on it; the state is where the other k - 1 stand: request
    indices below t, the origin being 0.  ``V[i, j]`` holds the least cost of
    the state with the others on i and j; two servers keep column 0 only,
    where the other one is on i.  Request t + 1 is served either by the
    server on t (every state adds ``D[t, t + 1]``) or by another one, which
    leaves the server on t among the others at the least cost ``moved``.
    Entries i = j > 0 cannot occur and stay inf.  IEEE addition is monotone,
    so the least of ``V + d`` is the least sum over every schedule, summed
    left to right in request order, and the value does not depend on ties.

    Servers never return to the origin and column 0 is updated from column
    0 alone, so column 0 of the three-server table is the two-server table,
    sum for sum, and ``V[0, 0]`` is the chain: every value comes from the one
    table of the largest k.
    """
    if k == 1:
        return [float(np.cumsum(D.diagonal(1))[-1])]  # cumsum adds left to right
    T = len(D) - 1
    cols = T if k == 3 else 1
    V = np.full((T, cols), math.inf)
    V[0, 0] = D[0, 1]
    for t in range(1, T):
        w = min(t, cols)
        moved = (V[:t, :w] + D[:t, t + 1, None]).min(axis=0)
        V[:t, :w] += D[t, t + 1]
        V[t, :w] = moved
        if cols > 1:
            V[:t, t] = moved
    return [float(V[0, 0]), float(V[:, 0].min()), float(V.min())][:k]


def _kserver_cover(D: np.ndarray, k: int) -> float:
    """The offline k-server optimum for 4 <= k <= T servers as a least-cost
    path cover, over the distance table ``D`` of ``offline_opt_kserver``;
    the paths are the servers' routes.

    Each request takes one predecessor, each at most once: one of k
    interchangeable origin slots at cost ``D[0, j]``, or an earlier request
    i at cost ``D[i, j]``.  So row i of the table ``C`` (request i + 1) can
    take the first k + i of its k + T - 1 columns (the slots, then requests
    1..T-1).  Shortest augmenting paths assign the rows, the last request
    first: each is a Dijkstra over the columns on the reduced costs
    ``C - u - v`` with the settled columns blocked, so the back pointers
    lead to the root whatever the rounding; then the potentials u, v move
    by the settled distances.

    The value is the schedule's movement summed left to right in request
    order, the sum ``_kserver_dp`` minimizes: never below the least one,
    and above it only where rounding in the potentials breaks a near-tie.
    """
    T = len(D) - 1
    m = k + T - 1
    C = np.empty((T, m))
    C[:, :k] = D[0, 1:, None]
    C[:, k:] = D[1:T, 1:].T
    u = np.zeros(T)
    v = np.zeros(m)
    owner = np.full(m + 1, -1)  # the row holding each column; column m is the root
    way = np.empty(m, dtype=np.intp)
    for r in reversed(range(T)):
        d = np.full(m, math.inf)  # path lengths to the unsettled columns
        blocked = np.zeros(m)  # inf on the settled columns
        owner[m], c, dc = r, m, 0.0
        settled, dist = [], []
        while True:
            i = owner[c]
            w = k + i
            cand = C[i, :w] - v[:w]
            cand += dc - u[i]
            cand += blocked[:w]
            better = cand < d[:w]
            np.copyto(d[:w], cand, where=better)
            np.copyto(way[:w], c, where=better)
            c = int(d.argmin())
            dc = d[c]
            if owner[c] < 0:
                break
            settled.append(c)
            dist.append(dc)
            d[c] = blocked[c] = math.inf
        gain = dc - np.array(dist)
        u[r] += dc
        u[owner[settled]] += gain
        v[settled] -= gain
        while c != m:
            owner[c] = owner[way[c]]
            c = way[c]
    cols = np.flatnonzero(owner[:m] >= 0)
    pred = np.empty(T, dtype=np.intp)
    pred[owner[cols]] = np.maximum(cols - k + 1, 0)
    return float(np.cumsum(D[pred, np.arange(1, T + 1)])[-1])


def brute_force_best_trajectories(D: np.ndarray, k: int) -> float:
    """Exact best k-trajectory cost with predictions restricted to the
    origin and the T solutions, over their distance table ``D`` (index 0 the
    origin, t the solution of day t), as ``Scenario.distances`` is.

    The restricted optimum upper-bounds the unrestricted one and contains
    every zero-hit (k-server style) schedule.  Its value is the least
    day-order float sum ``((move_1 + hit_1) + move_2) + hit_2 ...`` over all
    schedules, where day t's move is the distance its trajectory travels
    from its last prediction (the origin before its first day).

    One DP over the days keeps a symmetric table ``V`` of shape (n,)*k over
    the n = T + 1 candidates: the least sum that leaves the k trajectories
    there.  All k start on the origin: ``V`` is 0 there and inf elsewhere.
    Day t moves one trajectory, put in slot 0:
    ``W[c, rest] = min_a (D[c, a] + V[a, rest]) + D[t, c]``, and ``V``
    becomes the least of ``W`` and its k - 1 transposes that swap axis 0
    with axis j.  IEEE addition is monotone, so each entry is the least sum
    over every schedule that reaches its state.  ``D`` is symmetric to the
    bit and ``V`` is symmetric, so the min over a is a contiguous argmin
    along the last axis of ``D[c, a] + V[rest, a]``.  A repeated point has
    bit-identical rows and columns in ``D``, so its copies reach the same
    sums and change no minimum.

    k = 1 runs at any T; k >= 2 is capped at T <= TRAJ_MAX_T and
    k <= TRAJ_MAX_K, checked before the DP's tables are built.
    """
    T = len(D) - 1
    if k > 1 and (T > TRAJ_MAX_T or k > TRAJ_MAX_K):
        raise CapExceeded(
            f"trajectory DP capped at T<={TRAJ_MAX_T}, k<={TRAJ_MAX_K} for k>=2"
        )
    if T < 1 or k < 1:
        raise ValueError("need T >= 1 and k >= 1")
    n = T + 1
    shape = (n,) * k
    hits = D[1:].reshape((T, n) + (1,) * (k - 1))  # hits[t - 1][c] = D[t, c]
    D_c = D.reshape((n,) + (1,) * (k - 1) + (n,))
    step = np.empty(shape + (n,))  # step[c, rest, a] = D[c, a] + V[rest, a]
    flat = step.reshape(-1, n)
    rows = np.arange(n**k).reshape(shape)
    V = np.full(shape, math.inf)
    V[(0,) * k] = 0.0
    for hit in hits:
        np.add(D_c, V, out=step)
        W = flat[rows, step.argmin(axis=-1)]
        W += hit
        V = W  # the least of W over the slot that moved
        for j in range(1, k):
            V = np.minimum(V, W.swapaxes(0, j))
    return float(V.min())


class WorkFunctionState:
    """Work-function table over configurations of k points.

    ``D`` is the distance table over ``coords``, the origin and then the
    requests, as ``Scenario.distances`` is.  Point ids index ``ids``, the
    row where each point's coordinates first occur (``first``; -0.0 equals
    0.0): the origin (id 0), then every distinct request in order of first
    arrival.  ``table`` is one symmetric float64 array of shape (n,)*k
    over the n point ids: ``table[X]`` is the current work function at the
    configuration X, in any order of X's ids.  A new point's configurations
    get their values when the point is added (``_extend_table``), and
    ``wfa_step`` advances the table by one request.  The caps (k <=
    WFA_MAX_K, at most WFA_MAX_POINTS distinct requests) bound the table's
    size; exceeding one raises CapExceeded so callers can fall back to a
    greedy server rule.
    """

    def __init__(self, k: int, D, coords: np.ndarray):
        if k > WFA_MAX_K:
            raise CapExceeded(f"work function capped at k<={WFA_MAX_K}")
        self.k = k
        self.D = D
        seen: dict[tuple, int] = {}
        self.first = [seen.setdefault(tuple(row), i) for i, row in enumerate(coords.tolist())]
        self.ids = [0]
        self.config: tuple[int, ...] = (0,) * k  # current server point ids
        self.table = np.zeros((1,) * k)

    def _extend_table(self, d: np.ndarray) -> None:
        """Give the work function values on the configurations that hold the
        newest point p, by the one-point rule w(X) = min_y w(X - p + y) + d(y, p)
        over the old points y, whose distances to p are ``d``.

        A work function is 1-Lipschitz under matching distance, so this
        equals the minimum over every old configuration Y of w(Y) plus the
        matching distance from Y to X.  The table grows by inf faces at p;
        each of k passes takes the rule over axis 0 and writes the result to
        every face at p, and pass m fixes the configurations that hold p m
        times, since X - p + y holds p once less.
        """
        p, k = len(d), self.k
        W = np.full((p + 1,) * k, math.inf)
        W[(slice(p),) * k] = self.table
        d = d.reshape((p,) + (1,) * (k - 1))
        for _ in range(k):
            new = (W[:p] + d).min(axis=0)
            for j in range(k):
                W.swapaxes(0, j)[p] = new
        self.table = W


def wfa_step(state: WorkFunctionState, t: int) -> tuple[int, float]:
    """Advance the work function by the request at row ``t`` of the state's
    table and pick the server to move.

    A configuration X that holds the request r keeps its value,
    w_t(X) = w_{t-1}(X); any other takes w_t(X) = min_x w_t(X - x + r) + d(x, r)
    over its points x.  With ``A[x, rest] = d(x, r) + w_{t-1}(rest + r)``
    (``table[r]`` along the other axes), that is the least of ``A`` and its
    k - 1 transposes that swap axis 0 with axis j, and the faces at r are
    then copied back from the old table.  Standard rule: move the server
    minimizing w_t(config with that server on the request) plus its own
    movement; ties break to the lowest server index.  Returns (server index,
    movement cost) and updates the state.
    """
    s = state.first[t]
    added = s not in state.ids
    if added:
        if len(state.ids) > WFA_MAX_POINTS:
            raise CapExceeded(f"work function capped at {WFA_MAX_POINTS} distinct requests")
        state.ids.append(s)
    dist = state.D[state.ids, s]  # the distances from every point to the request
    if added:
        state._extend_table(dist[:-1])
    r = state.ids.index(s)
    k, face = state.k, state.table[r]
    A = dist.reshape((-1,) + (1,) * (k - 1)) + face
    new = A
    for j in range(1, k):
        new = np.minimum(new, A.swapaxes(0, j))
    for j in range(k):
        new.swapaxes(0, j)[r] = face  # a configuration that holds r keeps its value
    # choose the server to move from the current configuration
    best_idx, best_val, best_move = 0, math.inf, 0.0
    for idx, x in enumerate(state.config):
        move = dist.item(x)
        v = new.item(state.config[:idx] + (r,) + state.config[idx + 1 :]) + move
        if v < best_val - _EPS:
            best_idx, best_val, best_move = idx, v, move
    state.table = new
    state.config = state.config[:best_idx] + (r,) + state.config[best_idx + 1 :]
    return best_idx, best_move
