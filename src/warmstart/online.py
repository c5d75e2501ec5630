"""Online search strategies over day sequences of hidden solutions.

Four families: predict-yesterday (single thread from the previous day's
solution), rate-decay search from all past solutions with subsumption
pruning (quadratic or harmonic rate schedules), a reduction that tracks
k server positions with equal-rate parallel search, and parallel search from
k fixed learned predictions.  ``STRATEGIES`` names them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvariantViolation
from .kmedians import learn_centers
from .ledger import CostLedger, DayLedger
from .metric import Point, distance, origin
from .oracle import (
    HiddenInstance,
    open_thread,
    required_steps,
    run_parallel_k_detail,
)

ORIGIN_DAY = 0

_IDENTITY_TOL = 1e-9


def rate(i: int, mode: str = "quadratic") -> float:
    """Stepping rate of the rank-i thread; rank 1 always runs at rate 1."""
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


@dataclass
class ThreadEntry:
    """One search thread in the rate-decay scheduler.

    ``radius`` counts real steps taken while alive; ``shadow_radius`` keeps
    accruing after subsumption, at the (ultimate) subsumer's rate, so the
    subsuming identity stays checkable.
    """

    source_day: int
    source: Point
    thread: object
    radius: int = 0
    alive: bool = True
    subsumed_by: "ThreadEntry | None" = None
    shadow_radius: int = 0

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


def quadratic_decay_day(
    history: list[Point],
    inst: HiddenInstance,
    mode: str = "quadratic",
    trace: list | None = None,
) -> tuple[Point, DayLedger]:
    """Run one day of the rate-decay search.

    Threads open at every past solution, most recent first, with a single
    origin thread appended last.  Virtual time advances one tick per rank-1
    step; the rank-i thread steps whenever floor(V * rate(i)) increments, and
    rates attach to ranks, so a kill promotes every slower thread.  Ties at
    one tick resolve smallest rank first.  The day ends at the first
    completion of an alive thread.

    The subsuming identity and the shadow-completion implication are asserted
    on every event; a failure raises InvariantViolation.
    """
    norm = inst.norm
    sources: list[tuple[int, Point]] = [
        (day, sol) for day, sol in zip(range(len(history), 0, -1), reversed(history))
    ]
    sources.append((ORIGIN_DAY, origin(inst.dim)))
    active = [
        ThreadEntry(day, src, open_thread(inst, src)) for day, src in sources
    ]
    needed = {id(e): required_steps(inst, e.source) for e in active}
    dead: list[ThreadEntry] = []
    overhead = 0
    V = 0
    solver: ThreadEntry | None = None
    while solver is None:
        V += 1
        i = 1
        while i <= len(active):
            r = rate(i, mode)
            if math.floor(V * r) <= math.floor((V - 1) * r):
                i += 1
                continue
            entry = active[i - 1]
            overhead += i  # rank walk down the active list
            done = entry.thread.step()
            entry.radius += 1
            for j in dead:
                if j.ultimate_subsumer() is entry:
                    j.shadow_radius += 1
                    if j.shadow_radius >= needed[id(j)]:
                        # A subsumed thread that would have completed implies
                        # its alive subsumer has completed.
                        if entry.radius < needed[id(entry)]:
                            raise InvariantViolation(
                                "subsumed thread virtually completed but its "
                                "subsumer has not"
                            )
            if done:
                solver = entry
                break
            for rank_j in range(1, i):
                overhead += 1  # one distance query
                faster = active[rank_j - 1]
                if subsume_check(entry, faster, norm):
                    overhead += 1  # list surgery
                    entry.alive = False
                    entry.subsumed_by = faster
                    entry.shadow_radius = entry.radius
                    active.pop(i - 1)
                    dead.append(entry)
                    _assert_subsuming_identity(dead, norm)
                    if trace is not None:
                        trace.append(
                            ("kill", V, entry.source_day, faster.source_day)
                        )
                    break
            i += 1
    _assert_subsuming_identity(dead, norm)
    total_radius = sum(e.radius for e in active) + sum(e.radius for e in dead)
    day = DayLedger(
        day=inst.day,
        radius_searched=total_radius,
        overhead_work=overhead,
        virtual_radius=active[0].radius,
        solver_thread=solver.source_day,
    )
    if trace is not None:
        trace.append(("solve", V, solver.source_day))
    return solver.thread.result(), day


def run_quadratic_decay(scenario, mode: str = "quadratic") -> CostLedger:
    """Fold the rate-decay day routine over a whole scenario.

    Takes no k parameter: the same run is measured against baselines for
    every k.
    """
    history: list[Point] = []
    days = []
    for inst in scenario.days:
        solution, day = quadratic_decay_day(history, inst, mode)
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
    if not scenario.days:
        raise ValueError("empty scenario")
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
    centers learned offline from all of the scenario's solutions."""
    C = learn_centers(scenario.solution_list(), k, scenario.norm)
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
        params={"k": k},
        days=days,
    )


def kserver_reduction(scenario, server_alg: str, k: int) -> CostLedger:
    """Search in parallel from k tracked server positions each day.

    After the day's solution is revealed, it is fed as a request to the
    chosen k-server algorithm (greedy nearest server, or the work-function
    algorithm), which moves exactly one server onto it.  If the work-function
    table outgrows its cap the run falls back to greedy for the remaining
    days, and ``params["wfa_fallback_day"]`` records the day it did.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if server_alg not in ("greedy", "wfa"):
        raise ValueError(f"unknown server algorithm {server_alg!r}")
    from . import baselines
    from .errors import CapExceeded

    norm = scenario.norm
    servers = [origin(scenario.dim) for _ in range(k)]
    wfa_state = (
        baselines.WorkFunctionState(k, scenario.dim, norm)
        if server_alg == "wfa"
        else None
    )
    params = {"k": k, "server_alg": server_alg}
    days = []
    for inst in scenario.days:
        solution, total, winner, sweeps = run_parallel_k_detail(inst, servers)
        days.append(
            DayLedger(
                day=inst.day,
                radius_searched=total,
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
