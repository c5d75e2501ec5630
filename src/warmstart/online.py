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
from dataclasses import dataclass, field

from . import baselines
from .errors import CapExceeded, InvariantViolation
from .kmedians import learn_centers
from .ledger import CostLedger, DayLedger
from .metric import Point, distance, origin
from .oracle import HiddenInstance, SearchThread, run_parallel_k_detail

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


@dataclass
class ThreadEntry:
    """One search thread in the rate-decay scheduler.

    ``radius`` counts real steps taken while alive; ``shadow_radius`` keeps
    accruing after subsumption, at the (ultimate) subsumer's rate, so the
    subsuming identity stays checkable.  ``needed`` is the oracle-side step
    count, read by the invariant checks and to schedule events; the solution
    still comes only from the thread.  ``dependents`` lists the dead entries
    whose ultimate subsumer this entry is.
    """

    source_day: int
    source: Point
    thread: object
    radius: int = 0
    alive: bool = True
    subsumed_by: "ThreadEntry | None" = None
    shadow_radius: int = 0
    needed: int = 0
    dependents: list = field(default_factory=list)

    def ultimate_subsumer(self) -> "ThreadEntry":
        e = self
        while not e.alive:
            e = e.subsumed_by
        return e


def subsume_check(slow: ThreadEntry, fast: ThreadEntry, norm: str) -> bool:
    """True iff the fast thread's searched ball fully contains the slow one's."""
    return distance(slow.source, fast.source, norm) <= fast.radius - slow.radius


def _assert_subsuming_identity(dead: list[ThreadEntry], norm: str) -> None:
    for j in dead:
        i = j.ultimate_subsumer()
        if distance(i.source, j.source, norm) > i.radius - j.shadow_radius + _IDENTITY_TOL:
            raise InvariantViolation(
                f"subsuming identity violated: d(S_{i.source_day}, S_{j.source_day}) "
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
    """One day of the rate-decay search, from event tick to event tick.

    ``active`` holds the open alive entries, rank order; the sources not yet
    opened rank below all of them, in order.  A source is opened (entry,
    thread and needed steps) only when its rank can step, so a rank whose
    first step from tick 0 lies beyond the day costs nothing: every rank
    slower than it starts later still, and an unopened source has taken no
    step.
    """

    def __init__(self, history, inst, rates, first, trace):
        self.inst = inst
        self.norm = inst.norm
        self.rates = rates
        self.first = first
        self.trace = trace
        self.sources = list(zip(range(len(history), 0, -1), reversed(history)))
        self.sources.append((ORIGIN_DAY, origin(inst.dim)))
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
        for day, src in self.sources[self.opened : stop]:
            thread = SearchThread(self.inst, src)
            self.active.append(ThreadEntry(day, src, thread, needed=thread.needed))
        self.opened = stop

    def next_event(self, V: int) -> tuple[int, list[int]]:
        """The first tick after V at which a thread completes, a dead entry's
        shadow radius reaches its needed steps, or a kill check succeeds,
        with F(V) of every rank that can step before it.

        A rank that has not stepped yet and first steps at or after the
        current candidate cannot act before it, and neither can any slower
        rank.
        """
        active, rates, first = self.active, self.rates, self.first
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
            for k in range(i):
                if M <= 0:
                    break
                fast = active[k]
                lead = fast.radius - entry.radius
                d = distance(entry.source, fast.source, self.norm)
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
                entry.thread.advance(steps)
                entry.radius += steps
                self.overhead += steps * (2 * i - 1)  # rank walk, i - 1 failed checks
                for j in entry.dependents:
                    j.shadow_radius += steps

    def tick(self, V: int) -> ThreadEntry | None:
        """Run tick V one rank at a time; returns the completed entry, if any."""
        active, norm = self.active, self.norm
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
            done = entry.thread.step()
            entry.radius += 1
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
                if subsume_check(entry, faster, norm):
                    self.overhead += 1  # list surgery
                    entry.alive = False
                    entry.subsumed_by = faster
                    entry.shadow_radius = entry.radius
                    faster.dependents += entry.dependents + [entry]
                    entry.dependents = []
                    active.pop(i - 1)
                    self.dead.append(entry)
                    _assert_subsuming_identity(self.dead, norm)
                    if self.trace is not None:
                        self.trace.append(
                            ("kill", V, entry.source_day, faster.source_day)
                        )
                    break
            i += 1

    def run(self) -> tuple[Point, DayLedger]:
        V = 0
        solver = None
        while solver is None:
            E, base = self.next_event(V)
            self.advance(base, E - 1)
            V = E
            solver = self.tick(V)
        _assert_subsuming_identity(self.dead, self.norm)
        total_radius = sum(e.radius for e in self.active) + sum(e.radius for e in self.dead)
        day = DayLedger(
            day=self.inst.day,
            radius_searched=total_radius,
            overhead_work=self.overhead,
            virtual_radius=self.active[0].radius,
            solver_thread=solver.source_day,
        )
        if self.trace is not None:
            self.trace.append(("solve", V, solver.source_day))
        return solver.thread.result(), day


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
    on every event; a failure raises InvariantViolation.
    """
    rates, first = _rank_table(len(history) + 1, mode)
    return _DecayDay(history, inst, rates, first, trace).run()


def run_quadratic_decay(scenario, mode: str = "quadratic") -> CostLedger:
    """Fold the rate-decay day routine over a whole scenario.

    Takes no k parameter: the same run is measured against baselines for
    every k.  Rates and first-step ticks are computed once per run.
    """
    rates, first = _rank_table(len(scenario.days), mode)
    history: list[Point] = []
    days = []
    for inst in scenario.days:
        solution, day = _DecayDay(history, inst, rates, first, None).run()
        history.append(solution)
        days.append(day)
    return CostLedger(
        scenario=scenario.name,
        strategy=f"{mode}-decay",
        params={"mode": mode},
        days=days,
    )


def predict_yesterday(scenario) -> CostLedger:
    """Search each day from the previous day's solution (origin on day 1)."""
    prev = origin(scenario.dim)
    days = []
    prev_day = ORIGIN_DAY
    for inst in scenario.days:
        prev, radius, _, _ = run_parallel_k_detail(inst, [prev])
        days.append(
            DayLedger(
                day=inst.day,
                radius_searched=radius,
                overhead_work=0,
                virtual_radius=radius,
                solver_thread=prev_day,
            )
        )
        prev_day = inst.day
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
    ``params["centers_method"]`` says so."""
    C, method = learn_centers(scenario.points[1:], k, scenario.norm)
    params = {"k": k}
    if method == "local-search":
        params["centers_method"] = method
    days = []
    for inst in scenario.days:
        _, total, _, sweeps = run_parallel_k_detail(inst, list(C.centers))
        days.append(
            DayLedger(
                day=inst.day,
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
    days, and ``params["wfa_fallback_day"]`` records the day it did.

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
    norm = scenario.norm
    servers = [origin(scenario.dim)] * min(k, scenario.T)
    wfa_state = (
        baselines.WorkFunctionState(k, scenario.dim, norm)
        if server_alg == "wfa"
        else None
    )
    params = {"k": k, "server_alg": server_alg}
    days = []
    for inst in scenario.days:
        solution, _, winner, sweeps = run_parallel_k_detail(inst, servers)
        days.append(
            DayLedger(
                day=inst.day,
                radius_searched=k * sweeps,
                overhead_work=0,
                virtual_radius=sweeps,
                solver_thread=winner + 1,
            )
        )
        if wfa_state is not None:
            try:
                idx, _ = baselines.wfa_step(wfa_state, solution)
            except CapExceeded:
                wfa_state = None
                params["wfa_fallback_day"] = inst.day
                idx = _greedy_move(servers, solution, norm)
        else:
            idx = _greedy_move(servers, solution, norm)
        servers[idx] = solution
    return CostLedger(
        scenario=scenario.name,
        strategy=f"kserver-{server_alg}",
        params=params,
        days=days,
    )


def _greedy_move(servers: list[Point], request: Point, norm: str) -> int:
    best, best_d = 0, math.inf
    for j, s in enumerate(servers):
        d = distance(s, request, norm)
        if d < best_d:
            best, best_d = j, d
    return best


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
