"""Online search strategies over day sequences of hidden solutions.

Four families: predict-yesterday (single thread from the previous day's
solution), rate-decay search from all past solutions with subsumption
pruning (quadratic or harmonic rate schedules), a reduction that tracks
k server positions with equal-rate parallel search, and parallel search from
k fixed learned predictions.  ``STRATEGIES`` names them all.

The rate-decay scheduler is event-driven.  The rank-i thread has taken
F_i(V) = floor(V * rate(i)) steps by virtual tick V (V itself when the rate
is 1 or more, since a thread steps at most once per tick), so between two
events every radius, the overhead and every shadow radius follow in closed
form.  Only event ticks (a completion, a successful kill check, a shadow
radius reaching its needed steps) run the rank loop one rank at a time.
"""

from __future__ import annotations

import math

from . import baselines
from .errors import CapExceeded, InvariantViolation
from .kmedians import learn_centers
from .ledger import CostLedger, DayLedger
from .metric import Point, distance_matrix, origin, search_steps
from .metric import distance  # noqa: F401  traced by bench/tracing.py until ROADMAP item 5
from .oracle import (
    HiddenInstance,
    SearchThread,
    hidden_solution,
    parallel_search,
    table_steps,
)

ORIGIN_DAY = 0

_IDENTITY_TOL = 1e-9


def rate(i: int, mode: str = "quadratic") -> float:
    """Stepping rate of the rank-i thread; rank 1 always runs at rate 1.

    A thread steps at most once per tick, so a rate of 1 or more means one
    step every tick: harmonic rank 2, at 1 / (2 ln^2 2) ~ 1.04, steps exactly
    as often as rank 1.
    """
    if i < 1:
        raise ValueError("rank must be >= 1")
    if i == 1:
        return 1.0
    ln = math.log(i)
    if mode == "quadratic":
        return 1.0 / (i * i * ln * ln)
    if mode == "harmonic":
        return 1.0 / (i * ln * ln)
    raise ValueError(f"unknown rate mode {mode!r}")


def _steps_by(V: int, r: float) -> int:
    """F(V): the steps a thread at rate ``r`` has taken by the end of tick V.

    It steps at tick V iff F(V) > F(V - 1), so over the ticks (a, b] it takes
    F(b) - F(a) steps.
    """
    return V if r >= 1.0 else math.floor(V * r)


def _tick_of(c: int, r: float) -> int:
    """The tick of a thread's c-th step: the first tick t with F(t) >= c."""
    if r >= 1.0:
        return c
    t = math.ceil(c / r)
    while math.floor((t - 1) * r) >= c:
        t -= 1
    while math.floor(t * r) < c:
        t += 1
    return t


class ThreadEntry(SearchThread):
    """One search thread in the rate-decay scheduler, opened at the scenario
    point of index ``source``: the solution of day ``source``, or the origin
    (0).  The scheduler reads the day's solution by its index, so an entry
    has no instance to return it from: its ``origin`` and ``inst`` stay
    unset, and ``result`` raises.  It is a ``SearchThread`` so that
    ``bench/tracing.py``'s count of ``SearchThread.step`` calls sees the
    decay's steps (ROADMAP item 5).

    ``radius`` counts real steps taken while alive; ``shadow_radius`` keeps
    accruing after subsumption, at the (ultimate) subsumer's rate, so the
    subsuming identity stays checkable.  ``needed`` is the oracle-side step
    count, read by the invariant checks and to schedule events.
    ``dependents`` lists the dead entries whose ultimate subsumer this entry
    is.
    """

    __slots__ = ("source", "alive", "subsumed_by", "shadow_radius", "dependents")

    def __init__(self, source: int, needed: int):
        self.source = source
        self.needed = needed
        self.radius = 0
        self.alive = True
        self.subsumed_by: ThreadEntry | None = None
        self.shadow_radius = 0
        self.dependents: list[ThreadEntry] = []

    def result(self) -> Point:
        raise TypeError("a decay thread's solution is the scenario point of the day it solved")

    def ultimate_subsumer(self) -> "ThreadEntry":
        e = self
        while not e.alive:
            e = e.subsumed_by
        return e


def subsume_check(slow: ThreadEntry, fast: ThreadEntry, rows) -> bool:
    """True iff the fast thread's searched ball fully contains the slow one's;
    ``rows`` is the distance table over the scenario points."""
    return rows[slow.source][fast.source] <= fast.radius - slow.radius


def _assert_subsuming_identity(dead: list[ThreadEntry], rows) -> None:
    for j in dead:
        i = j.ultimate_subsumer()
        if rows[i.source][j.source] > i.radius - j.shadow_radius + _IDENTITY_TOL:
            raise InvariantViolation(
                f"subsuming identity violated: d(S_{i.source}, S_{j.source}) "
                f"> {i.radius} - {j.shadow_radius}"
            )


def _rank_table(n: int, mode: str) -> tuple[list[float], list[int]]:
    """Rates of ranks 1..n and the tick of each rank's first step from tick
    0.  Rank 1 first steps at tick 1 and rates fall with rank from rank 2
    on, so first-step ticks never decrease with rank."""
    rates = [rate(i, mode) for i in range(1, n + 1)]
    return rates, [_tick_of(1, r) for r in rates]


def _first_kill(slow_f, slow_r, fast_f, fast_r, lead, d, M):
    """First m in 1..M at which a kill check can succeed, or None.

    At the slow thread's m-th step from now (tick t_m, its step number
    ``slow_f + m``), the fast thread leads it by
    ``lead + F_fast(t_m) - fast_f - m``.  The fast thread steps at least once
    between two slow steps, so that gap never decreases in m and a bisection
    finds the first m at which it reaches ``d``.
    """

    def gap(m):
        return lead + _steps_by(_tick_of(slow_f + m, slow_r), fast_r) - fast_f - m

    if gap(M) < d:
        return None
    lo, hi = 1, M
    while lo < hi:
        mid = (lo + hi) // 2
        if gap(mid) >= d:
            hi = mid
        else:
            lo = mid + 1
    return lo


class _DecayDay:
    """Day t of the rate-decay search, from event tick to event tick, over
    ``rows``, the distance table of the scenario's points as nested lists
    (index 0 the origin, s the solution of day s).

    The sources are days t - 1, ..., 1 and then the origin.  Their distances
    to each other are read from ``rows``; row t only through the oracle
    (``table_steps``), which gives an opened thread its needed steps.
    ``active`` holds the open alive entries, rank order; the sources not yet
    opened rank below all of them, in order.  A source is opened (entry and
    needed steps) only when its rank can step, so a rank whose first step
    from tick 0 lies beyond the day costs nothing: every rank slower than it
    starts later still, and an unopened source has taken no step.
    """

    def __init__(self, rows, t, rates, first, trace):
        self.rows = rows
        self.row = rows[t]
        self.rates = rates
        self.first = first
        self.trace = trace
        self.sources = range(t - 1, ORIGIN_DAY - 1, -1)
        self.opened = 0
        self.active: list[ThreadEntry] = []
        self.dead: list[ThreadEntry] = []
        self.overhead = 0
        self._open(first[0])

    def _open(self, bound) -> None:
        """Open, in rank order, the sources whose ranks first step by tick
        ``bound``."""
        stop, rank = self.opened, len(self.active)  # 0-based rank of sources[stop]
        while stop < len(self.sources) and self.first[rank] <= bound:
            stop, rank = stop + 1, rank + 1
        for s in self.sources[self.opened : stop]:
            self.active.append(ThreadEntry(s, table_steps(self.row, s)))
        self.opened = stop

    def next_event(self, V: int) -> tuple[int, list[int]]:
        """The first tick after V at which a thread completes, a dead entry's
        shadow radius reaches its needed steps, or a kill check succeeds,
        with F(V) of every rank that can step before it.

        A rank that has not stepped yet and first steps at or after the
        current candidate cannot act before it, and neither can any slower
        rank.
        """
        active, rates, first, rows = self.active, self.rates, self.first, self.rows
        E = math.inf
        base: list[int] = []
        i = 0
        while True:
            if i == len(active):
                self._open(max(V, E - 1))
                if i == len(active):
                    break
            if first[i] > V and first[i] >= E:
                break
            entry, r = active[i], rates[i]
            f = _steps_by(V, r)
            base.append(f)
            room = entry.needed - entry.radius
            for j in entry.dependents:
                room = min(room, j.needed - j.shadow_radius)
            E = min(E, _tick_of(f + room, r))
            M = _steps_by(E - 1, r) - f  # its steps strictly before E
            from_entry = rows[entry.source]
            for k in range(i):
                if M <= 0:
                    break
                fast = active[k]
                lead = fast.radius - entry.radius
                d = from_entry[fast.source]
                m = _first_kill(f, r, base[k], rates[k], lead, d, M)
                if m is not None:
                    E = _tick_of(f + m, r)
                    M = m - 1
            i += 1
        return E, base

    def advance(self, base: list[int], W: int) -> None:
        """Move every thread to the end of tick W in closed form, over an
        event-free span that starts after the tick ``base`` was taken at."""
        for i, (entry, f) in enumerate(zip(self.active, base), start=1):
            steps = _steps_by(W, self.rates[i - 1]) - f
            if steps:
                entry.advance(steps)
                self.overhead += steps * (2 * i - 1)  # rank walk, i - 1 failed checks
                for j in entry.dependents:
                    j.shadow_radius += steps

    def tick(self, V: int) -> ThreadEntry | None:
        """Run tick V one rank at a time; returns the completed entry, if any."""
        active, rows = self.active, self.rows
        i = 1
        while True:
            if i > len(active):
                self._open(V)
                if i > len(active):
                    return None
            if self.first[i - 1] > V:
                return None  # no slower rank steps yet
            r = self.rates[i - 1]
            if _steps_by(V, r) <= _steps_by(V - 1, r):
                i += 1
                continue
            entry = active[i - 1]
            self.overhead += i  # rank walk down the active list
            done = entry.step()
            for j in entry.dependents:
                j.shadow_radius += 1
                if j.shadow_radius >= j.needed:
                    # A subsumed thread that would have completed implies
                    # its alive subsumer has completed.
                    if entry.radius < entry.needed:
                        raise InvariantViolation(
                            "subsumed thread virtually completed but its "
                            "subsumer has not"
                        )
            if done:
                return entry
            for rank_j in range(1, i):
                self.overhead += 1  # one distance query
                faster = active[rank_j - 1]
                if subsume_check(entry, faster, rows):
                    self.overhead += 1  # list surgery
                    entry.alive = False
                    entry.subsumed_by = faster
                    entry.shadow_radius = entry.radius
                    faster.dependents += entry.dependents + [entry]
                    entry.dependents = []
                    active.pop(i - 1)
                    self.dead.append(entry)
                    _assert_subsuming_identity(self.dead, rows)
                    if self.trace is not None:
                        self.trace.append(("kill", V, entry.source, faster.source))
                    break
            i += 1

    def run(self, day: int) -> DayLedger:
        """Search until a thread completes; the ledger row of ``day``."""
        V = 0
        solver = None
        while solver is None:
            E, base = self.next_event(V)
            self.advance(base, E - 1)
            V = E
            solver = self.tick(V)
        _assert_subsuming_identity(self.dead, self.rows)
        total_radius = sum(e.radius for e in self.active) + sum(e.radius for e in self.dead)
        if self.trace is not None:
            self.trace.append(("solve", V, solver.source))
        return DayLedger(
            day=day,
            radius_searched=total_radius,
            overhead_work=self.overhead,
            virtual_radius=self.active[0].radius,
            solver_thread=solver.source,
        )


def quadratic_decay_day(
    history: list[Point],
    inst: HiddenInstance,
    mode: str = "quadratic",
    trace: list | None = None,
) -> tuple[Point, DayLedger]:
    """Run one day of the rate-decay search.

    Threads open at every past solution, most recent first, with a single
    origin thread appended last.  Virtual time advances one tick per rank-1
    step; the rank-i thread steps at tick V whenever floor(V * rate(i))
    increments, at most once per tick (so a rank whose rate is 1 or more
    steps every tick), and rates attach to ranks, so a kill promotes every
    slower thread.  Ties at one tick resolve smallest rank first, and after
    a kill at rank i the promoted thread is skipped for that tick.  The day
    ends at the first completion of an alive thread.

    Only event ticks run the rank loop: ticks at which a thread completes,
    a kill check succeeds, or a dead entry's shadow radius reaches its needed
    steps.  The ticks between two events are advanced in closed form, with
    the same radii, overhead and shadow radii as stepping them one by one.
    Tick arithmetic is exact while ticks stay below 2**53.

    The subsuming identity and the shadow-completion implication are asserted
    on every event; a failure raises InvariantViolation.  The day runs over
    the distance table of the origin, the history and the solution, as
    ``run_quadratic_decay`` runs over the scenario's.
    """
    t = len(history) + 1
    solution = hidden_solution(inst)
    rows = distance_matrix([origin(inst.dim), *history, solution], inst.norm).tolist()
    rates, first = _rank_table(t, mode)
    return solution, _DecayDay(rows, t, rates, first, trace).run(inst.day)


def run_quadratic_decay(scenario, mode: str = "quadratic") -> CostLedger:
    """Fold the rate-decay day routine over a whole scenario.

    Takes no k parameter: the same run is measured against baselines for
    every k.  Rates and first-step ticks are computed once per run, and day
    t searches from days 1..t-1, the solutions it has found.
    """
    rows = scenario.distances.tolist()
    rates, first = _rank_table(scenario.T, mode)
    days = [_DecayDay(rows, t, rates, first, None).run(t) for t in range(1, scenario.T + 1)]
    return CostLedger(
        scenario=scenario.name,
        strategy=f"{mode}-decay",
        params={"mode": mode},
        days=days,
    )


def predict_yesterday(scenario) -> CostLedger:
    """Search each day from the previous day's solution (origin on day 1)."""
    D = scenario.distances
    days = []
    for t in range(1, scenario.T + 1):
        radius, _, _ = parallel_search([table_steps(D[t], t - 1)])
        days.append(
            DayLedger(
                day=t,
                radius_searched=radius,
                overhead_work=0,
                virtual_radius=radius,
                solver_thread=t - 1,
            )
        )
    return CostLedger(
        scenario=scenario.name,
        strategy="predict-yesterday",
        params={},
        days=days,
    )


def parallel_k(scenario, k: int) -> CostLedger:
    """Search each day in parallel from k fixed predictions: the k-medians
    centers learned offline from all of the scenario's solutions.  When
    subset ERM is over its cap and local search found the centers,
    ``params["centers_method"]`` says so.  The centers are not scenario
    points, so each day's step counts come from ``search_steps``, not from
    the scenario's distance table."""
    solutions = scenario.points[1:]
    C, method = learn_centers(solutions, k, scenario.norm)
    params = {"k": k}
    if method == "local-search":
        params["centers_method"] = method
    days = []
    for t, solution in enumerate(solutions, start=1):
        total, _, sweeps = parallel_search([search_steps(c, solution, scenario.norm) for c in C.centers])
        days.append(
            DayLedger(
                day=t,
                radius_searched=total,
                overhead_work=0,
                virtual_radius=sweeps,
                solver_thread=0,
            )
        )
    return CostLedger(
        scenario=scenario.name,
        strategy="parallel-k",
        params=params,
        days=days,
    )


def kserver_reduction(scenario, server_alg: str, k: int) -> CostLedger:
    """Search in parallel from k tracked server positions each day.

    After the day's solution is revealed, it is fed as a request to the
    chosen k-server algorithm (greedy nearest server, or the work-function
    algorithm), which moves exactly one server onto it.  If the work-function
    table outgrows its cap the run falls back to greedy for the remaining
    days, and ``params["wfa_fallback_day"]`` records the day it did.  Servers
    are scenario points, the origin or past solutions, kept as their indices
    in the scenario's distance table; the work function keeps its own points.

    Only the first min(k, T) servers are tracked, so a huge k costs what
    k = T costs.  Servers still at the origin tie with each other, and ties
    go to the lowest index in both the search and the move, so before day t
    only the first t - 1 servers can have moved.  Every server searches for
    the day's ``sweeps``, so the day's radius is ``k * sweeps``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if server_alg not in ("greedy", "wfa"):
        raise ValueError(f"unknown server algorithm {server_alg!r}")
    D = scenario.distances
    servers = [ORIGIN_DAY] * min(k, scenario.T)
    wfa_state = baselines.WorkFunctionState(k, scenario.dim, scenario.norm) if server_alg == "wfa" else None
    params = {"k": k, "server_alg": server_alg}
    days = []
    for t in range(1, scenario.T + 1):
        row = D[t]
        _, winner, sweeps = parallel_search([table_steps(row, s) for s in servers])
        idx = None
        if wfa_state is not None:
            try:
                idx, _ = baselines.wfa_step(wfa_state, scenario.points[t])
            except CapExceeded:
                wfa_state = None
                params["wfa_fallback_day"] = t
        if idx is None:
            idx = _nearest([row[s] for s in servers])
        days.append(
            DayLedger(
                day=t,
                radius_searched=k * sweeps,
                overhead_work=0,
                virtual_radius=sweeps,
                solver_thread=winner + 1,
            )
        )
        servers[idx] = t
    return CostLedger(
        scenario=scenario.name,
        strategy=f"kserver-{server_alg}",
        params=params,
        days=days,
    )


def _nearest(distances: list[float]) -> int:
    """The greedy move: the first server at the least distance."""
    return distances.index(min(distances))


# Strategy name -> fn(scenario, k) -> CostLedger.  The entries look up this
# module's functions when called, so a wrapper installed on one of them (as
# bench/tracing.py does) also sees the calls made through the registry.
STRATEGIES = {
    "predict-yesterday": lambda scenario, k: predict_yesterday(scenario),
    "quadratic-decay": lambda scenario, k: run_quadratic_decay(scenario, "quadratic"),
    "harmonic-decay": lambda scenario, k: run_quadratic_decay(scenario, "harmonic"),
    "kserver-greedy": lambda scenario, k: kserver_reduction(scenario, "greedy", k),
    "kserver-wfa": lambda scenario, k: kserver_reduction(scenario, "wfa", k),
    "parallel-k": lambda scenario, k: parallel_k(scenario, k),
}

# The strategies that take k; the others ignore it.
NEEDS_K = {"kserver-greedy", "kserver-wfa", "parallel-k"}
