"""Command-line front end: simulate | learn | report | selftest.

Runs come from a declarative JSON config plus kebab-case flag overrides.
Exit codes: 0 success, 1 user error (bad config, bad paths), 2 internal
invariant violation.  All outputs are byte-identical across reruns of the
same config.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .baselines import brute_force_best_trajectories, offline_opt_kserver
from .errors import CapExceeded, InvariantViolation
from .kmedians import cost_of_centers, learn_centers
from .ledger import CostLedger
from .metric import NORMS, Point
from .online import NEEDS_K, STRATEGIES, predict_yesterday, run_quadratic_decay
from .oracle import hidden_solution, run_parallel_k
from .partition import (
    LabeledSample,
    c_loss,
    compose,
    enumerate_threshold_trees,
    two_step_learn,
)
from .scenarios import Scenario, generate, planted_baseline


class UserError(Exception):
    pass


def _load_config(args) -> dict:
    config: dict = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise UserError(f"config file not found: {path}")
        try:
            config = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise UserError(f"config file is not valid JSON: {e}") from e
        if not isinstance(config, dict):
            raise UserError("config file must hold a JSON object")
    for key in ("scenario", "strategy", "k", "seed", "out"):
        v = getattr(args, key, None)
        if v is not None:
            config[key] = v
    ks = config.get("baseline_ks", [1])
    if not (isinstance(ks, list) and all(_is_int(k) and k >= 1 for k in ks)):
        raise UserError(f"baseline_ks must be a list of integers >= 1, got {ks!r}")
    frac = config.get("train_frac", 0.5)
    if not (isinstance(frac, (int, float)) and not isinstance(frac, bool) and math.isfinite(frac)):
        raise UserError(f"train_frac must be a number, got {frac!r}")
    return config


def _load_scenario(config: dict) -> Scenario:
    scenario = _read_scenario(config)
    if scenario.norm not in NORMS:
        raise UserError(
            f"unknown norm {scenario.norm!r}; expected one of {', '.join(NORMS)}"
        )
    if not scenario.days:
        raise UserError("scenario has no days")
    if [inst.day for inst in scenario.days] != list(range(1, scenario.T + 1)):
        raise UserError(f"scenario days must be numbered 1..{scenario.T} in order")
    for inst in scenario.days:
        if inst.features.dim != scenario.dim or inst.dim != scenario.dim:
            raise UserError(
                f"day {inst.day} has a feature or solution whose length is not "
                f"the scenario dim {scenario.dim}"
            )
    return scenario


def _read_scenario(config: dict) -> Scenario:
    spec = config.get("scenario")
    if spec is None:
        raise UserError("no scenario given (use --scenario or the config file)")
    if isinstance(spec, str):
        path = Path(spec)
        if not path.exists():
            raise UserError(f"scenario file not found: {path}")
        try:
            return Scenario.from_json_text(path.read_text())
        except (json.JSONDecodeError, KeyError, ValueError) as e:
            raise UserError(f"bad scenario file {path}: {e}") from e
    if isinstance(spec, dict):
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise UserError("bad scenario spec: params must be an object")
        params = dict(params)
        if "seed" in config and "seed" not in params:
            params["seed"] = config["seed"]
        if "dim" in params and not (_is_int(params["dim"]) and params["dim"] >= 1):
            raise UserError("bad scenario spec: dim must be an integer >= 1")
        try:
            return generate(spec["generator"], **params)
        except (KeyError, TypeError, ValueError) as e:
            raise UserError(f"bad scenario spec: {e}") from e
    raise UserError("scenario must be a file path or a generator spec object")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_k(k, what: str) -> None:
    if not _is_int(k) or k < 1:
        raise UserError(f"{what} needs an integer k >= 1")


def _run_strategy(scenario: Scenario, config: dict) -> CostLedger:
    strategy = config.get("strategy")
    if strategy not in STRATEGIES:
        raise UserError(
            f"unknown strategy {strategy!r}; expected one of {', '.join(STRATEGIES)}"
        )
    k = config.get("k")
    if strategy in NEEDS_K:
        _check_k(k, f"strategy {strategy}")
    if strategy == "parallel-k" and k > scenario.T:
        raise UserError(f"parallel-k needs k <= T, got k={k} for T={scenario.T}")
    return STRATEGIES[strategy](scenario, k)


def _attach_baselines(ledger: CostLedger, scenario: Scenario, config: dict) -> None:
    sols = scenario.solution_list()
    ledger.attach_baseline("planted", planted_baseline(scenario))
    ks = config.get("baseline_ks", [1])
    for k in ks:
        try:
            cost, _ = brute_force_best_trajectories(sols, k, scenario.norm)
        except CapExceeded:
            cost = None
        name = "opt_1_traj" if k == 1 else f"opt_{k}_traj_restricted"
        ledger.attach_baseline(name, cost)
        ledger.attach_baseline(
            f"opt_kserver_k{k}", offline_opt_kserver(sols, k, scenario.norm)
        )


def _write(path_str: str | None, text: str) -> None:
    if path_str is None:
        sys.stdout.write(text)
    else:
        Path(path_str).write_text(text)


def cmd_simulate(args) -> int:
    config = _load_config(args)
    scenario = _load_scenario(config)
    ledger = _run_strategy(scenario, config)
    _attach_baselines(ledger, scenario, config)
    _write(config.get("out"), ledger.to_json_text())
    return 0


def cmd_learn(args) -> int:
    config = _load_config(args)
    scenario = _load_scenario(config)
    learner = config.get("learner", "centers")
    k = config.get("k")
    _check_k(k, "learn")
    frac = config.get("train_frac", 0.5)
    T = scenario.T
    m = int(T * frac)
    if not (1 <= m < T):
        raise UserError(f"train split of {m} days is invalid for T={T}")
    if k > m:
        raise UserError(f"learn needs k <= the {m} training days, got k={k}")
    depth = config.get("depth", 1)
    if learner == "partition" and not (_is_int(depth) and depth in (0, 1, 2)):
        raise UserError(f"partition learning needs depth 0, 1 or 2, got {depth!r}")
    train_days = scenario.days[:m]
    test_days = scenario.days[m:]
    out: dict = {
        "schema_version": 1,
        "scenario": scenario.name,
        "learner": learner,
        "k": k,
        "train_days": m,
        "holdout_days": T - m,
    }
    if learner == "centers":
        sols = [hidden_solution(i) for i in train_days]
        C = learn_centers(sols, k, scenario.norm)
        holdout = [hidden_solution(i) for i in test_days]
        out["centers"] = [list(c.coords) for c in C.centers]
        out["train_cost"] = cost_of_centers(C, sols, scenario.norm)
        out["holdout_cost"] = cost_of_centers(C, holdout, scenario.norm)
    elif learner == "partition":
        train = [LabeledSample(i.features, hidden_solution(i)) for i in train_days]
        test = [LabeledSample(i.features, hidden_solution(i)) for i in test_days]
        hyps = enumerate_threshold_trees([s.features for s in train], k, depth)
        h, phi, C_h = two_step_learn(hyps, train, k, scenario.norm)
        g = compose(h, phi)
        out["hypothesis"] = {
            "feature_indices": list(h.feature_indices),
            "thresholds": list(h.thresholds),
            "leaf_labels": list(h.leaf_labels),
            "rotation": list(phi),
        }
        out["centers"] = [list(c.coords) for c in C_h.centers]
        out["train_c_loss"] = c_loss(g, None, C_h, train, scenario.norm)
        out["holdout_c_loss"] = c_loss(g, None, C_h, test, scenario.norm)
    else:
        raise UserError(f"unknown learner {learner!r}; expected centers or partition")
    _write(config.get("out"), json.dumps(out, sort_keys=True, indent=1) + "\n")
    return 0


REPORT_COLUMNS = ("scenario", "strategy", "radius", "overhead", "wall_estimate")


def cmd_report(args) -> int:
    ledgers = []
    for p in args.ledgers:
        path = Path(p)
        if not path.exists():
            raise UserError(f"ledger file not found: {path}")
        try:
            ledgers.append(CostLedger.from_json_text(path.read_text()))
        except (json.JSONDecodeError, KeyError, ValueError) as e:
            raise UserError(f"bad ledger file {path}: {e}") from e
    baseline_names = sorted({name for lg in ledgers for name in lg.baselines})
    header = list(REPORT_COLUMNS)
    for name in baseline_names:
        header += [f"baseline:{name}", f"ratio:{name}"]
    rows = [",".join(header)]
    for lg in sorted(ledgers, key=lambda x: (x.scenario, x.strategy)):
        row = [
            lg.scenario,
            lg.strategy,
            str(lg.total_radius),
            str(lg.total_overhead),
            str(lg.wall_estimate),
        ]
        for name in baseline_names:
            v = lg.baselines.get(name)
            if v is None:
                row += ["NA", "NA"]
            else:
                row += [repr(v), repr(lg.total_radius / v) if v > 0 else "NA"]
        rows.append(",".join(row))
    _write(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_selftest(args) -> int:
    from .metric import L2, origin
    from .oracle import HiddenInstance

    checks = 0
    inst = HiddenInstance(1, Point.of(0.0), Point.of(7.0), L2)
    _, total = run_parallel_k(inst, [Point.of(0.0), Point.of(10.0)])
    assert total == 6, f"parallel-k sanity: expected 6, got {total}"
    checks += 1

    scen = Scenario(
        name="selftest",
        seed=0,
        dim=1,
        norm=L2,
        days=[
            HiddenInstance(1, origin(1), Point.of(0.0), L2),
            HiddenInstance(2, origin(1), Point.of(3.0), L2),
            HiddenInstance(3, origin(1), Point.of(5.0), L2),
        ],
        d_max=5.0,
    )
    lg = predict_yesterday(scen)
    assert lg.total_radius == 6, f"predict-yesterday sanity: got {lg.total_radius}"
    assert CostLedger.from_json_text(lg.to_json_text()).to_json_text() == lg.to_json_text()
    checks += 1

    lg2 = run_quadratic_decay(scen)
    for d in lg2.days:
        assert d.radius_searched <= 2 * d.virtual_radius
    checks += 1

    a = generate("drifting_trajectories", seed=7, k=2, drift_per_day=0.5, noise=0.5, T=10, dim=2)
    b = generate("drifting_trajectories", seed=7, k=2, drift_per_day=0.5, noise=0.5, T=10, dim=2)
    assert a.to_json_text() == b.to_json_text(), "scenario replay not byte-identical"
    checks += 1

    sys.stdout.write(f"selftest ok ({checks} checks)\n")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; remap to user error
        raise UserError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="warmstart", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--scenario", help="scenario JSON file")
        p.add_argument("--strategy", choices=list(STRATEGIES))
        p.add_argument("--k", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output path (default: stdout)")

    p_sim = sub.add_parser("simulate", help="run a strategy and write its cost ledger")
    add_run_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_learn = sub.add_parser("learn", help="fit a learner on a train split")
    add_run_flags(p_learn)
    p_learn.set_defaults(func=cmd_learn)

    p_rep = sub.add_parser("report", help="join ledgers into a CSV comparison table")
    p_rep.add_argument("ledgers", nargs="+", help="ledger JSON files")
    p_rep.add_argument("--out", help="output path (default: stdout)")
    p_rep.set_defaults(func=cmd_report)

    p_self = sub.add_parser("selftest", help="quick internal consistency checks")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UserError, CapExceeded) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except (InvariantViolation, AssertionError) as e:
        sys.stderr.write(f"internal invariant violation: {e}\n")
        return 2


def entry() -> None:
    raise SystemExit(main())
