"""Output checks computed apart from the program.

Nothing here imports ``warmstart``: distances, search steps, greedy server
replays, chain lengths, trajectory costs and k-subset searches are this
module's own code, run on the scenario files as plain JSON.  No check
compares against a stored copy of an earlier output.

``check_simulate`` and ``check_learn`` return one ``Op`` per operation: the
job itself, then one per offline baseline the job requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

REL_TOL = 1e-9
SUBSET_CAP = 10**6  # the largest C(m, k) the independent k-subset search covers
TRAJ_CAP_T = 8  # brute-force trajectory cap the CLI documents for k >= 2

# The one fault kept in the workloads: the CLI's brute force applies its
# T <= 8 cap even at k=1, so opt_1_traj is null on every longer scenario.
KNOWN_FAULT = "opt_1_traj is null: the T<=8 brute-force cap is applied at k=1"


@dataclass
class Op:
    name: str
    error: str | None = None  # None: the operation passed every check
    unavailable: bool = False  # a documented cap, not a failure

    @property
    def known_fault(self) -> bool:
        return self.error == KNOWN_FAULT


def dist(a, b, norm: str) -> float:
    if norm == "L1":
        total = 0.0
        for x, y in zip(a, b):
            total += abs(x - y)
        return total
    if norm == "L2":
        total = 0.0
        for x, y in zip(a, b):
            total += (x - y) * (x - y)
        return math.sqrt(total)
    if norm == "Linf":
        return max(abs(x - y) for x, y in zip(a, b))
    raise ValueError(f"unknown norm {norm!r}")


def steps(a, b, norm: str) -> int:
    return max(1, math.ceil(dist(a, b, norm)))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def solutions(scen: dict) -> list[tuple]:
    return [tuple(d["solution"]) for d in scen["days"]]


def chain_length(sols, norm) -> float:
    prev, total = (0.0,) * len(sols[0]), 0.0
    for s in sols:
        total += dist(prev, s, norm)
        prev = s
    return total


def greedy_replay(sols, k: int, norm: str):
    """Nearest-server k-server run from the origin, searching each day in
    round-robin parallel from the servers.  Returns the per-day
    (radius, virtual_radius, solver) triples and the total server movement."""
    servers = [(0.0,) * len(sols[0])] * k
    days, movement = [], 0.0
    for s in sols:
        needed = [steps(p, s, norm) for p in servers]
        sweeps = min(needed)
        days.append((k * sweeps, sweeps, needed.index(sweeps) + 1))
        ds = [dist(p, s, norm) for p in servers]
        j = ds.index(min(ds))
        movement += ds[j]
        servers[j] = s
    return days, movement


def planted_cost(scen: dict, norm: str) -> float | None:
    planted = scen["meta"].get("planted")
    if planted is None:
        return None
    sols = {d["day"]: tuple(d["solution"]) for d in scen["days"]}
    preds = {int(t): tuple(p) for t, p in planted["predictions"].items()}
    assign = {int(t): i for t, i in planted["assignment"].items()}
    hit = sum(dist(preds[t], sols[t], norm) for t in sorted(assign))
    movement = 0.0
    for i in range(1, planted["k"] + 1):
        prev = (0.0,) * scen["dim"]
        for t in sorted(t for t in assign if assign[t] == i):
            movement += dist(prev, preds[t], norm)
            prev = preds[t]
    return hit + movement


def best_one_trajectory(sols, norm: str) -> float:
    """Cheapest single trajectory (hit + movement) with predictions drawn
    from the origin and the solutions, by dynamic programming over days."""
    cands = [(0.0,) * len(sols[0])]
    for s in sols:
        if s not in cands:
            cands.append(s)
    D = np.array([[dist(a, b, norm) for b in cands] for a in cands])
    H = np.array([[dist(c, s, norm) for s in sols] for c in cands])
    cost = D[0] + H[:, 0]
    for t in range(1, len(sols)):
        cost = (cost[:, None] + D).min(axis=0) + H[:, t]
    return float(cost.min())


def best_subset_cost(X, k: int, norm: str) -> float:
    """Least mean distance to the nearest of any k sample points."""
    D = np.array([[dist(a, b, norm) for b in X] for a in X])
    subsets = np.array(list(combinations(range(len(X)), k)))
    return float(D[subsets].min(axis=1).mean(axis=1).min())


def _ledger_errors(scen: dict, config: dict, ledger: dict) -> list[str]:
    norm, sols = scen["norm"], solutions(scen)
    origin = (0.0,) * scen["dim"]
    strategy = config["strategy"]
    k = config.get("k")
    days = ledger["days"]
    errors = []

    def expect(cond, msg):
        if not cond:
            errors.append(msg)

    expect(ledger["scenario"] == scen["name"], "scenario name")
    expect(ledger["strategy"] == strategy, f"strategy {ledger['strategy']!r}")
    expect([d["day"] for d in days] == [d["day"] for d in scen["days"]], "day numbers")
    if errors:
        return errors
    totals = ledger["totals"]
    radius = sum(d["radius_searched"] for d in days)
    overhead = sum(d["overhead_work"] for d in days)
    expect(totals["radius"] == radius, "totals.radius")
    expect(totals["overhead"] == overhead, "totals.overhead")
    expect(totals["wall_estimate"] == radius + overhead, "totals.wall_estimate")

    if strategy == "kserver-greedy":
        replay, _ = greedy_replay(sols, k, norm)
    for t, (d, s) in enumerate(zip(days, sols)):
        prev = sols[t - 1] if t else origin
        r, vr, solver = d["radius_searched"], d["virtual_radius"], d["solver_thread"]
        at = f"day {d['day']}"
        if strategy == "predict-yesterday":
            want = steps(prev, s, norm)
            expect(r == vr == want, f"{at}: radius {r} != steps from yesterday {want}")
            expect(solver == (scen["days"][t - 1]["day"] if t else 0), f"{at}: solver")
        elif strategy in ("quadratic-decay", "harmonic-decay"):
            expect(0 <= solver < d["day"], f"{at}: solver day {solver}")
            if 0 <= solver < d["day"]:
                src = sols[solver - 1] if solver else origin
                expect(
                    steps(src, s, norm) <= vr <= steps(prev, s, norm),
                    f"{at}: virtual radius {vr} outside [steps(solver), steps(yesterday)]",
                )
            expect(r >= vr, f"{at}: radius below virtual radius")
        elif strategy.startswith("kserver-"):
            expect(r == k * vr, f"{at}: radius {r} != k * virtual radius {vr}")
            expect(1 <= solver <= k, f"{at}: solver server {solver}")
            expect(vr <= steps(prev, s, norm), f"{at}: virtual radius above steps from yesterday")
            nearest = min(steps(p, s, norm) for p in [origin] + sols[:t])
            expect(vr >= nearest, f"{at}: virtual radius below any server position")
            if strategy == "kserver-greedy":
                expect((r, vr, solver) == replay[t], f"{at}: greedy replay gives {replay[t]}")
        elif strategy == "parallel-k":
            expect(
                r % k == 0 and any(k * steps(c, s, norm) == r for c in sols),
                f"{at}: radius {r} is not k * steps from a solution",
            )
            expect(vr == max(1, r // k), f"{at}: virtual radius")
        if strategy != "quadratic-decay" and strategy != "harmonic-decay":
            expect(d["overhead_work"] == 0, f"{at}: overhead")

    planted = planted_cost(scen, norm)
    got = ledger["baselines"].get("planted")
    if planted is None:
        expect(got is None, "planted baseline on a scenario without one")
    else:
        expect(got is not None and close(got, planted), f"planted {got} != {planted}")
    ratios = {
        name: radius / v for name, v in ledger["baselines"].items() if v is not None and v > 0
    }
    expect(ledger["ratios"] == ratios, "ratios are not total radius / baseline")
    return errors


def _baseline_ops(scen: dict, config: dict, ledger: dict) -> list[Op]:
    norm, sols = scen["norm"], solutions(scen)
    T = len(sols)
    base = ledger["baselines"]
    ops = []
    prev_server = prev_traj = None
    for k in config["baseline_ks"]:
        name = f"opt_kserver_k{k}"
        v = base.get(name)
        err = None
        if not isinstance(v, float):
            err = f"{name} missing"
        elif k == 1 and not close(v, chain_length(sols, norm)):
            err = f"{name} {v} != chain length {chain_length(sols, norm)}"
        elif v > greedy_replay(sols, k, norm)[1] * (1 + REL_TOL):
            err = f"{name} {v} above the greedy servers' movement"
        elif prev_server is not None and v > prev_server * (1 + REL_TOL):
            err = f"{name} {v} increases with k"
        ops.append(Op(name, err))
        server = v if err is None else None
        prev_server = server

        name = "opt_1_traj" if k == 1 else f"opt_{k}_traj_restricted"
        v = base.get(name, "missing")
        op = Op(name)
        if v is None:
            if T <= TRAJ_CAP_T:
                op.error = f"{name} is null at T={T}"
            elif k == 1:
                op.error = KNOWN_FAULT
            else:
                op.unavailable = True
        elif not isinstance(v, float):
            op.error = f"{name} missing"
        elif k == 1 and not close(v, best_one_trajectory(sols, norm)):
            op.error = f"{name} {v} != best single trajectory {best_one_trajectory(sols, norm)}"
        elif server is not None and v > server * (1 + REL_TOL):
            op.error = f"{name} {v} above the offline k-server optimum"
        elif prev_traj is not None and v > prev_traj * (1 + REL_TOL):
            op.error = f"{name} {v} increases with k"
        ops.append(op)
        prev_traj = v if isinstance(v, float) else None
    return ops


def simulate_op_names(config: dict) -> list[str]:
    names = ["job"]
    for k in config["baseline_ks"]:
        names += [f"opt_kserver_k{k}", "opt_1_traj" if k == 1 else f"opt_{k}_traj_restricted"]
    return names


def check_simulate(scen: dict, config: dict, ledger: dict) -> list[Op]:
    errors = _ledger_errors(scen, config, ledger)
    return [Op("job", "; ".join(errors) or None)] + _baseline_ops(scen, config, ledger)


def _tree_label(h: dict, x) -> int:
    f, t, leaves = h["feature_indices"], h["thresholds"], h["leaf_labels"]
    if not f:
        return leaves[0]
    if len(f) == 1:
        return leaves[0] if x[f[0]] <= t[0] else leaves[1]
    if x[f[0]] <= t[0]:
        return leaves[0] if x[f[1]] <= t[1] else leaves[1]
    return leaves[2] if x[f[2]] <= t[2] else leaves[3]


def check_learn(scen: dict, config: dict, out: dict) -> list[Op]:
    norm, k = scen["norm"], config["k"]
    T = len(scen["days"])
    m = int(T * config["train_frac"])
    train, test = scen["days"][:m], scen["days"][m:]
    errors = []

    def expect(cond, msg):
        if not cond:
            errors.append(msg)

    expect(out["train_days"] == m and out["holdout_days"] == T - m, "train split")
    centers = [tuple(c) for c in out["centers"]]
    expect(len(centers) == k, "center count")
    if config["learner"] == "centers":
        X = [tuple(d["solution"]) for d in train]
        expect(all(c in X for c in centers), "a center is not a training solution")

        def cost(days):
            return sum(min(dist(c, tuple(d["solution"]), norm) for c in centers) for d in days) / len(days)

        expect(close(out["train_cost"], cost(train)), "train_cost does not match its centers")
        expect(close(out["holdout_cost"], cost(test)), "holdout_cost does not match its centers")
        if math.comb(m, k) <= SUBSET_CAP:
            best = best_subset_cost(X, k, norm)
            expect(
                out["train_cost"] <= best * (1 + REL_TOL),
                f"train_cost {out['train_cost']} above the best k-subset {best}",
            )
    else:
        h = out["hypothesis"]
        phi = h["rotation"]
        depth_splits = {0: (0,), 1: (0, 1), 2: (0, 1, 3)}[config["depth"]]
        expect(len(h["feature_indices"]) in depth_splits, "tree deeper than asked")
        expect(set(phi) <= set(range(1, k + 1)) and len(phi) == k, "rotation")
        expect(all(1 <= lab <= k for lab in h["leaf_labels"]), "leaf labels")
        if not errors:

            def c_loss(days):
                total = 0.0
                for d in days:
                    c = centers[phi[_tree_label(h, d["features"]) - 1] - 1]
                    total += dist(tuple(d["solution"]), c, norm)
                return total / len(days)

            expect(close(out["train_c_loss"], c_loss(train)), "train_c_loss does not match")
            expect(close(out["holdout_c_loss"], c_loss(test)), "holdout_c_loss does not match")
    return [Op("job", "; ".join(errors) or None)]
