import decimal
import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from warmstart import kmedians, online, oracle
from warmstart.baselines import WorkFunctionState, wfa_step
from warmstart.errors import CapExceeded, InvariantViolation
from warmstart.ledger import CostLedger, DayLedger
from warmstart.metric import L2, NORMS, Point, distance, origin
from warmstart.online import (
    ORIGIN_DAY,
    ThreadEntry,
    kserver_reduction,
    parallel_k,
    predict_yesterday,
    quadratic_decay_day,
    rate,
    run_quadratic_decay,
    subsume_check,
)
from warmstart.oracle import HiddenInstance, hidden_solution, required_steps, run_parallel_k_detail
from warmstart.scenarios import (
    Scenario,
    default_corpus,
    gen_adversarial_switch,
    gen_drifting_trajectories,
    gen_static_clusters,
)


def _scenario(name, seed, dim, norm, sols):
    """The scenario whose day t has the solution Point ``sols[t - 1]`` and
    its features at the origin."""
    return Scenario(name, seed, dim, norm, np.zeros((len(sols), dim)), [s.coords for s in sols])


def _scen(solutions, norm=L2):
    return _scenario("inline", 0, 1, norm, [Point.of(s) for s in solutions])


def _instances(scen):
    """Each day of ``scen`` as the oracle's one-day instance."""
    days = zip(scen.features.tolist(), scen.points[1:])
    return [HiddenInstance(t, Point(f), x, scen.norm) for t, (f, x) in enumerate(days, start=1)]


def test_rate_values():
    assert rate(1) == 1.0
    assert rate(2) == pytest.approx(1.0 / (4 * math.log(2) ** 2))
    assert rate(3) == pytest.approx(1.0 / (9 * math.log(3) ** 2))
    assert rate(2, "harmonic") == pytest.approx(1.0 / (2 * math.log(2) ** 2))
    with pytest.raises(ValueError):
        rate(0)
    with pytest.raises(ValueError):
        rate(2, "linear")


def test_rate_series_stays_below_one():
    assert sum(rate(i) for i in range(2, 200000)) < 1.0


def test_math_log_is_correctly_rounded_at_every_rank_up_to_1000():
    # Rates divide by ln(i)^2, so an ln one ulp off could move a
    # floor(V * rate) across an integer and a ledger with it.  glibc 2.36's
    # log is first off at 9,170; a libm that is off below 1,000 fails here.
    with decimal.localcontext(prec=40):
        for i in range(2, 1001):
            assert math.log(i) == float(decimal.Decimal(i).ln()), i


def test_predict_yesterday_hand_example():
    lg = predict_yesterday(_scen([0.0, 3.0, 5.0]))
    assert [d.radius_searched for d in lg.days] == [1, 3, 2]
    assert lg.total_radius == 6
    assert [d.solver_thread for d in lg.days] == [ORIGIN_DAY, 1, 2]


def test_first_day_runs_single_origin_thread():
    inst = HiddenInstance(1, origin(1), Point.of(6.0), L2)
    sol, day = quadratic_decay_day([], inst)
    assert sol == Point.of(6.0)
    assert day.radius_searched == day.virtual_radius == 6
    assert day.overhead_work == 6  # one rank-1 visit per step
    assert day.solver_thread == ORIGIN_DAY


def test_kill_trace_hand_computed():
    # two identical past solutions at 2.0, today's at 50.0; the duplicate is
    # subsumed at the second tick and the promoted origin thread two ticks on
    inst = HiddenInstance(3, origin(1), Point.of(50.0), L2)
    trace = []
    sol, day = quadratic_decay_day([Point.of(2.0), Point.of(2.0)], inst, trace=trace)
    assert sol == Point.of(50.0)
    assert trace == [("kill", 2, 1, 2), ("kill", 4, 0, 2), ("solve", 48, 2)]
    assert day.virtual_radius == 48
    assert day.radius_searched == 50  # 48 + 1 + 1
    assert day.solver_thread == 2


def test_subsume_check_is_ball_containment():
    # Sources are indices into the table: the origin, then days 1 and 2 at
    # 0.0 and 3.0.
    rows = [[0.0, 0.0, 3.0], [0.0, 0.0, 3.0], [3.0, 3.0, 0.0]]
    a, b = ThreadEntry(1, 10), ThreadEntry(2, 10)
    a.radius, b.radius = 2, 6
    assert subsume_check(a, b, rows)  # d=3 <= 6-2
    b.radius = 4
    assert not subsume_check(a, b, rows)  # d=3 > 4-2


def test_a_decay_thread_steps_as_a_search_thread_but_has_no_result():
    # It names its source by index, so the day's solution is the caller's
    # to read; stepping is the SearchThread's own.
    entry = ThreadEntry(1, 2)
    assert isinstance(entry, oracle.SearchThread) and not hasattr(entry, "__dict__")
    assert not entry.step() and entry.step() and entry.completed
    with pytest.raises(TypeError):
        entry.result()


def test_virtual_radius_dominates_half_total():
    rng = random.Random(13)
    sols = [rng.uniform(-40, 40) for _ in range(25)]
    lg = run_quadratic_decay(_scen(sols))
    for d in lg.days:
        assert d.radius_searched <= 2 * d.virtual_radius
        assert d.overhead_work <= 8 * d.radius_searched


def test_harmonic_mode_also_completes():
    rng = random.Random(19)
    sols = [rng.uniform(-20, 20) for _ in range(15)]
    lg = run_quadratic_decay(_scen(sols), mode="harmonic")
    assert lg.strategy == "harmonic-decay"
    assert len(lg.days) == 15


def test_decay_run_is_deterministic():
    scen = gen_adversarial_switch(301, phases=4, T=20, dim=1)
    a = run_quadratic_decay(scen).to_json_text()
    b = run_quadratic_decay(scen).to_json_text()
    assert a == b


def test_kserver_k1_matches_predict_yesterday():
    scen = gen_drifting_trajectories(77, k=2, drift_per_day=1.0, noise=0.5, T=15, dim=2)
    for alg in ("greedy", "wfa"):
        red = kserver_reduction(scen, alg, 1)
        py = predict_yesterday(scen)
        assert [d.radius_searched for d in red.days] == [
            d.radius_searched for d in py.days
        ]
        assert red.total_radius == py.total_radius


def test_kserver_per_day_bound_greedy():
    scen = gen_drifting_trajectories(88, k=3, drift_per_day=1.0, noise=0.5, T=20, dim=2)
    for k in (1, 2, 3):
        lg = kserver_reduction(scen, "greedy", k)
        servers = [origin(scen.dim) for _ in range(k)]
        for sol, day in zip(scen.points[1:], lg.days):
            nearest = min(distance(s, sol, scen.norm) for s in servers)
            assert day.radius_searched <= k * max(1.0, nearest) + k
            # replay the greedy move
            best = min(range(k), key=lambda j: distance(servers[j], sol, scen.norm))
            servers[best] = sol


def test_invalid_strategy_arguments():
    scen = _scen([1.0])
    with pytest.raises(ValueError):
        kserver_reduction(scen, "greedy", 0)
    with pytest.raises(ValueError):
        kserver_reduction(scen, "lru", 2)
    with pytest.raises(ValueError):  # an empty scenario cannot be built, so no strategy meets one
        predict_yesterday(_scen([]))


def test_wfa_fallback_day_is_recorded():
    from warmstart.baselines import WFA_MAX_POINTS

    # 14 distinct solutions, one repeated: the work-function table holds
    # WFA_MAX_POINTS = 12 distinct requests, so the 13th sends it to greedy.
    sols = [1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    first_seen = {}
    for day, s in enumerate(sols, start=1):
        first_seen.setdefault(s, day)
    assert len(first_seen) == 14
    cap_day = sorted(first_seen.values())[WFA_MAX_POINTS]
    assert cap_day == 14
    lg = kserver_reduction(_scen(sols), "wfa", 2)
    assert lg.params == {"k": 2, "server_alg": "wfa", "wfa_fallback_day": cap_day}
    short = kserver_reduction(_scen(sols[:5]), "wfa", 2)
    assert short.params == {"k": 2, "server_alg": "wfa"}


def reference_kserver_reduction(scenario, server_alg, k):
    """Reference: the k-server reduction over a list of all k servers."""
    servers = [origin(scenario.dim) for _ in range(k)]
    wfa_state = WorkFunctionState(k, scenario.dim, scenario.norm) if server_alg == "wfa" else None
    params = {"k": k, "server_alg": server_alg}
    days = []
    for inst in _instances(scenario):
        solution, total, winner, sweeps = run_parallel_k_detail(inst, servers)
        days.append(DayLedger(inst.day, total, 0, sweeps, winner + 1))
        idx = None
        if wfa_state is not None:
            try:
                idx, _ = wfa_step(wfa_state, solution)
            except CapExceeded:
                wfa_state = None
                params["wfa_fallback_day"] = inst.day
        if idx is None:
            dists = [distance(s, solution, scenario.norm) for s in servers]
            idx = dists.index(min(dists))
        servers[idx] = solution
    return CostLedger(scenario.name, f"kserver-{server_alg}", params, days)


def test_kserver_reduction_matches_the_full_server_list():
    # Grid solutions that often sit on the origin or repeat, so servers tie;
    # k runs past T, where servers that never move are no longer tracked.
    rng = random.Random(311)
    for case in range(150):
        norm = NORMS[case % 3]
        dim = rng.randint(1, 3)
        T = rng.randint(1, 12)
        half = rng.choice((1, 2, 4))
        sols = [Point(tuple(float(rng.randint(-half, half)) for _ in range(dim))) for _ in range(T)]
        scen = _scenario("grid", case, dim, norm, sols)
        for alg, ks in (("greedy", range(1, T + 4)), ("wfa", range(1, 4))):
            for k in ks:
                got = kserver_reduction(scen, alg, k).to_json_text()
                assert got == reference_kserver_reduction(scen, alg, k).to_json_text(), (alg, k, sols)


@dataclass(eq=False)
class _RefEntry:
    """A thread of the reference: its source day and point, radius and
    subsumption state."""

    source_day: int
    source: Point
    radius: int = 0
    alive: bool = True
    subsumed_by: "_RefEntry | None" = None
    shadow_radius: int = 0

    def ultimate_subsumer(self):
        e = self
        while not e.alive:
            e = e.subsumed_by
        return e


def _ref_assert_subsuming_identity(dead, norm):
    for j in dead:
        i = j.ultimate_subsumer()
        if distance(i.source, j.source, norm) > i.radius - j.shadow_radius + 1e-9:
            raise InvariantViolation("subsuming identity violated")


def reference_quadratic_decay_day(history, inst, mode="quadratic", trace=None):
    """Reference: the decay day stepped one virtual tick at a time, every
    rank checked on every tick and every thread moved one unit step at a
    time, with sources as points and distances from ``distance``.  Rates are
    looked up per rank instead of recomputed per tick, and a thread is its
    radius: it completes when the radius reaches its needed steps."""
    rates = [rate(i, mode) for i in range(1, len(history) + 2)]
    norm = inst.norm
    sources = [(day, sol) for day, sol in zip(range(len(history), 0, -1), reversed(history))]
    sources.append((ORIGIN_DAY, origin(inst.dim)))
    active = [_RefEntry(day, src) for day, src in sources]
    needed = {id(e): required_steps(inst, e.source) for e in active}
    dead = []
    overhead = 0
    V = 0
    solver = None
    while solver is None:
        V += 1
        i = 1
        while i <= len(active):
            r = rates[i - 1]
            if math.floor(V * r) <= math.floor((V - 1) * r):
                i += 1
                continue
            entry = active[i - 1]
            overhead += i
            entry.radius += 1
            done = entry.radius >= needed[id(entry)]
            for j in dead:
                if j.ultimate_subsumer() is entry:
                    j.shadow_radius += 1
                    if j.shadow_radius >= needed[id(j)] and entry.radius < needed[id(entry)]:
                        raise InvariantViolation("subsumed thread virtually completed")
            if done:
                solver = entry
                break
            for rank_j in range(1, i):
                overhead += 1
                faster = active[rank_j - 1]
                if distance(entry.source, faster.source, norm) <= faster.radius - entry.radius:
                    overhead += 1
                    entry.alive = False
                    entry.subsumed_by = faster
                    entry.shadow_radius = entry.radius
                    active.pop(i - 1)
                    dead.append(entry)
                    _ref_assert_subsuming_identity(dead, norm)
                    if trace is not None:
                        trace.append(("kill", V, entry.source_day, faster.source_day))
                    break
            i += 1
    _ref_assert_subsuming_identity(dead, norm)
    total_radius = sum(e.radius for e in active) + sum(e.radius for e in dead)
    day = DayLedger(inst.day, total_radius, overhead, active[0].radius, solver.source_day)
    if trace is not None:
        trace.append(("solve", V, solver.source_day))
    return hidden_solution(inst), day


def _fuzz_solutions(rng, case):
    """One fuzzed day sequence: (kind, dim, norm, solutions)."""
    norm = NORMS[case % 3]
    dim = 1 + case // 3 % 3
    kind = ("grid", "uniform", "switch", "grid", "uniform")[case % 5]
    T = rng.randint(60, 80) if case % 200 == 3 else rng.randint(1, rng.choice((8, 8, 30)))

    def near(center, spread):
        return Point(tuple(c + rng.uniform(-spread, spread) for c in center))

    if kind == "grid":
        half = rng.choice((1, 2, 3))
        return kind, dim, norm, [
            Point(tuple(float(rng.randint(-half, half)) for _ in range(dim))) for _ in range(T)
        ]
    if kind == "uniform":
        return kind, dim, norm, [near((0.0,) * dim, rng.choice((2.0, 5.0, 12.0))) for _ in range(T)]
    # Clustered switches: a far jump costs the reference one tick per unit
    # of distance, so the longer the jumps, the fewer the days.
    jump = 10 ** rng.uniform(1, 4 if case % 4 == 0 else 2.5)
    T = min(T, 20 if jump < 100 else 6 if jump < 1000 else 3)
    centers = [tuple(jump * rng.randint(-1, 1) for _ in range(dim)) for _ in range(rng.randint(2, 4))]
    c = 0
    sols = []
    for _ in range(T):
        if rng.random() < 0.3:
            c = rng.randrange(len(centers))
        sols.append(near(centers[c], rng.choice((0.0, 1.0, 3.0))))
    return kind, dim, norm, sols


def test_decay_matches_the_tick_by_tick_reference(monkeypatch):
    # Every day's solution, DayLedger and kill/solve trace must equal the
    # reference's, through both the one-day call and the whole-scenario run,
    # and the kill-gap bisection must only ever see gaps that never decrease.
    searched = []
    first_kill = online._first_kill

    def checked_first_kill(slow_f, slow_r, fast_f, fast_r, lead, d, M):
        gaps = [
            lead + online._steps_by(online._tick_of(slow_f + m, slow_r), fast_r) - fast_f - m
            for m in range(1, M + 1)
        ]
        assert gaps == sorted(gaps), (slow_r, fast_r, gaps)
        searched.append(M)
        return first_kill(slow_f, slow_r, fast_f, fast_r, lead, d, M)

    monkeypatch.setattr(online, "_first_kill", checked_first_kill)
    rng = random.Random(2024)
    kills = ranks = 0
    for case in range(1000):
        kind, dim, norm, sols = _fuzz_solutions(rng, case)
        scen = _scenario(kind, case, dim, norm, sols)
        days = _instances(scen)
        for mode in ("quadratic", "harmonic"):
            history, ref_days = [], []
            for inst in days:
                want_trace, got_trace = [], []
                want = reference_quadratic_decay_day(history, inst, mode, want_trace)
                got = quadratic_decay_day(history, inst, mode, got_trace)
                assert got == want and got_trace == want_trace, (case, mode, inst.day)
                kills += len(want_trace) - 1
                history.append(want[0])
                ref_days.append(want[1])
            if case % 4 == 1:  # every kind, as kinds cycle every 5 cases
                assert run_quadratic_decay(scen, mode).days == ref_days, (case, mode)
        ranks = max(ranks, len(sols))
    assert kills > 3000 and ranks >= 60 and len(searched) > 10000, (kills, ranks, len(searched))


def test_step_tick_is_the_first_tick_reaching_the_count():
    # The c-th step falls on the first tick t with F(t) >= c.  With the
    # scheduler's own rates ceil(c / r) is that tick in all but about one
    # case in 16 million; quadratic rank 335's 15,627th step is one, and
    # rational rates hit the float boundary often.
    rng = random.Random(5)
    cases = [(15627, rate(335))]
    cases += [(rng.randint(1, 10**6), rate(i, mode)) for i in range(1, 80) for mode in ("quadratic", "harmonic")]
    cases += [(rng.randint(1, 10**4), rng.randint(1, 999) / rng.randint(1000, 10**5)) for _ in range(3000)]
    for c, r in cases:
        t = online._tick_of(c, r)
        assert online._steps_by(t, r) >= c > online._steps_by(t - 1, r), (c, r, t)
    assert online._tick_of(15627, rate(335)) != math.ceil(15627 / rate(335))
    assert online._tick_of(7, rate(2, "harmonic")) == 7
    # The scheduler stops scanning at the first unstarted rank that cannot
    # step yet, which needs first-step ticks that never fall with rank.
    for mode in ("quadratic", "harmonic"):
        rates, first = online._rank_table(3000, mode)
        assert first == sorted(first) and first[:2] == [1, 1 if mode == "harmonic" else 2]


def test_harmonic_rank_two_steps_every_tick():
    # 1 / (2 ln^2 2) > 1, and a thread steps at most once per tick, so
    # harmonic rank 2 keeps pace with rank 1: with no kill both radii equal
    # the day's ticks.  Quadratic rank 2 runs at about half speed.
    assert rate(2, "harmonic") > 1 > rate(2, "quadratic")
    inst = HiddenInstance(2, origin(1), Point.of(10.0), L2)
    trace = []
    _, day = quadratic_decay_day([Point.of(100.0)], inst, "harmonic", trace)
    assert trace == [("solve", 10, ORIGIN_DAY)]
    assert day.virtual_radius == 10 and day.radius_searched == 2 * 10
    _, day = quadratic_decay_day([Point.of(100.0)], inst, "quadratic")
    assert (day.virtual_radius, day.radius_searched) == (20, 20 + 10)


def test_parallel_k_records_a_local_search_fallback(monkeypatch):
    # C(6, 2) = 15 subsets: within a cap of 15 subset ERM runs and the
    # params are only k; under a cap of 14 the centers come from local search.
    scen = _scen([0.0, 1.0, 2.0, 40.0, 41.0, 43.0])
    monkeypatch.setattr(kmedians, "ENUMERATION_CAP", 15)
    assert parallel_k(scen, 2).params == {"k": 2}
    monkeypatch.setattr(kmedians, "ENUMERATION_CAP", 14)
    lg = parallel_k(scen, 2)
    assert lg.params == {"k": 2, "centers_method": "local-search"}
    centers = kmedians.learn_centers_local_search(scen.points[1:], 2, L2).centers
    assert lg.days == _oracle_parallel_k_days(scen, centers)


def _oracle_parallel_k_days(scen, centers):
    """Parallel-k's days as the oracle runs them: each day's instance built
    here and searched from ``centers`` by ``run_parallel_k_detail``."""
    days = []
    for inst in _instances(scen):
        _, total, _, sweeps = run_parallel_k_detail(inst, list(centers))
        days.append(DayLedger(inst.day, total, 0, sweeps, 0))
    return days


def test_parallel_k_params_stay_k_under_the_cap():
    # Every day's ledger is also the oracle's, over the default corpus and
    # generator scenarios in L1 and Linf.
    scens = [_scen([1.0, 5.0, 9.0, 2.0]), gen_adversarial_switch(7, phases=3, T=9, dim=2), *default_corpus()]
    for norm in ("L1", "Linf"):
        scens += [
            gen_drifting_trajectories(5, k=2, drift_per_day=0.5, noise=0.5, T=8, dim=2, norm=norm),
            gen_static_clusters(6, k=3, sep=100.0, spread=1.0, T=8, dim=2, norm=norm),
            gen_adversarial_switch(7, phases=4, T=8, dim=3, norm=norm),
        ]
    for k in (1, 2, 3):
        for scen in scens:
            lg = parallel_k(scen, k)
            assert lg.params == {"k": k}
            centers = kmedians.learn_centers_subset_erm(scen.points[1:], k, scen.norm).centers
            assert lg.days == _oracle_parallel_k_days(scen, centers), (scen.name, k)


class _RecordingRow(list):
    """Row ``t`` of a distance table that logs each entry read as
    ("read", t, s, whether the oracle read it)."""

    def __init__(self, values, t, log, in_oracle):
        super().__init__(values)
        self.t, self.log, self.in_oracle = t, log, in_oracle

    def __getitem__(self, s):
        self.log.append(("read", self.t, s, self.in_oracle[0]))
        return list.__getitem__(self, s)


class _RecordingTable:
    """A scenario's distance table whose rows, taken by index or all at once
    by ``tolist``, log their reads."""

    def __init__(self, D, log, in_oracle):
        self.rows = D.tolist()
        self.log, self.in_oracle = log, in_oracle

    def __getitem__(self, t):
        return _RecordingRow(self.rows[t], t, self.log, self.in_oracle)

    def tolist(self):
        return [self[t] for t in range(len(self.rows))]


def test_no_strategy_reads_a_day_before_its_search_completes(monkeypatch):
    # The information barrier: while day t is being searched, a strategy
    # reads row t of the table only through the oracle's step answer, for a
    # source it has already found, and reads nothing of the days after t.
    # Each day's search completes when the decay's day ends or the parallel
    # search that the other strategies run returns.
    log, in_oracle = [], [False]
    table_steps = online.table_steps

    def oracle_steps(row, s):
        in_oracle[0] = True
        try:
            return table_steps(row, s)
        finally:
            in_oracle[0] = False

    def completes(fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            log.append(("solved",))
            return result

        return wrapped

    monkeypatch.setattr(online, "table_steps", oracle_steps)
    monkeypatch.setattr(oracle, "table_steps", oracle_steps)
    monkeypatch.setattr(online._DecayDay, "run", completes(online._DecayDay.run))
    monkeypatch.setattr(online, "parallel_search", completes(online.parallel_search))
    runs = [
        lambda scen: run_quadratic_decay(scen, "quadratic"),
        lambda scen: run_quadratic_decay(scen, "harmonic"),
        predict_yesterday,
    ] + [lambda scen, k=k, alg=alg: kserver_reduction(scen, alg, k) for k in (1, 2, 3) for alg in ("greedy", "wfa")]
    scens = [
        gen_adversarial_switch(301, phases=4, T=20, dim=1),
        gen_drifting_trajectories(103, k=3, drift_per_day=0.5, noise=0.5, T=40, dim=2),
    ]
    oracle_reads = other_reads = 0
    for scen in scens:
        for run in runs:
            scen.__dict__.pop("distances", None)
            want = run(scen).to_json_text()
            del log[:]
            scen.distances = _RecordingTable(scen.distances, log, in_oracle)
            assert run(scen).to_json_text() == want
            solved = 0
            for event in log:
                if event == ("solved",):
                    solved += 1
                    continue
                _, i, j, by_oracle = event
                if by_oracle:
                    assert i == solved + 1 and j <= solved, (scen.name, event, solved)
                    oracle_reads += 1
                else:
                    assert max(i, j) <= solved, (scen.name, event, solved)
                    other_reads += 1
            assert solved == scen.T
    assert oracle_reads > 500 and other_reads > 500, (oracle_reads, other_reads)
