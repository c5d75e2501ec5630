"""Command-line front end: simulate | learn | report | selftest.

Runs come from a declarative JSON config plus kebab-case flag overrides.
Every config key is checked by its one rule, with its default filled in,
before the scenario is read; only the rules that need the scenario's T
come after.  Exit codes: 0 success, 1 user error (bad config, bad paths),
2 internal invariant violation.  All outputs are byte-identical across
reruns of the same config.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .baselines import brute_force_best_trajectories, offline_opt_kserver
from .errors import CapExceeded, InvariantViolation
from .kmedians import MEDIAN_MAX_ITER, cost_of_centers, learn_centers
from .ledger import CostLedger, dumps_strict
from .metric import L2, Point, distance_matrix, search_steps
from .online import NEEDS_K, STRATEGIES, predict_yesterday, run_quadratic_decay
from .oracle import parallel_search
from .partition import (
    LabeledSample,
    ThresholdClass,
    c_loss,
    compose,
    two_step_learn,
)
from .scenarios import Scenario, _is_int, generate, planted_baseline


class UserError(Exception):
    pass


def _read(path: str, what: str, parse):
    """``parse`` of the text of the ``what`` file at ``path``.  A path that
    cannot be read, or text that ``parse`` rejects, is a user error."""
    try:
        return parse(Path(path).read_text())
    except OSError as e:
        raise UserError(f"cannot read {what} file {path}: {e.strerror}") from e
    except (KeyError, TypeError, ValueError) as e:
        raise UserError(f"bad {what} file {path}: {e}") from e


def _load_config(args) -> dict:
    """The run config of ``simulate`` or ``learn``: the defaults, the config
    file's keys over them and the flags over those.  Each key has its one
    rule here, checked whichever command runs and before the scenario is
    read; only the rules that need the scenario's T stay with the commands.
    ``strategy``, ``k`` and ``out`` given as null count as absent."""
    config: dict = {"baseline_ks": [1], "learner": "centers", "depth": 1, "train_frac": 0.5}
    if args.config is not None:
        loaded = _read(args.config, "config", json.loads)
        if not isinstance(loaded, dict):
            raise UserError("config file must hold a JSON object")
        config.update(loaded)
    for key in ("scenario", "strategy", "k", "seed", "out"):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    strategy, k, out = config.get("strategy"), config.get("k"), config.get("out")
    if strategy is not None or args.command == "simulate":
        if not (isinstance(strategy, str) and strategy in STRATEGIES):
            raise UserError(f"unknown strategy {strategy!r}; expected one of {', '.join(STRATEGIES)}")
    if k is not None or args.command == "learn" or strategy in NEEDS_K:
        if not (_is_int(k) and k >= 1):
            raise UserError(f"{args.command} needs an integer k >= 1, got {k!r}")
    ks = config["baseline_ks"]
    if not (isinstance(ks, list) and all(_is_int(n) and n >= 1 for n in ks)):
        raise UserError(f"baseline_ks must be a list of integers >= 1, got {ks!r}")
    if config["learner"] not in ("centers", "partition"):
        raise UserError(f"unknown learner {config['learner']!r}; expected centers or partition")
    if not (_is_int(config["depth"]) and config["depth"] in (0, 1, 2)):
        raise UserError(f"depth must be 0, 1 or 2, got {config['depth']!r}")
    if not (isinstance(config["train_frac"], float) and 0 < config["train_frac"] < 1):
        raise UserError(f"train_frac must be a number in (0, 1), got {config['train_frac']!r}")
    if "seed" in config and not (_is_int(config["seed"]) and 0 <= config["seed"] < 2**128):
        raise UserError(f"seed must be an integer in [0, 2**128), got {config['seed']!r}")
    if out is not None:
        if not (isinstance(out, str) and Path(out).parent.is_dir() and not Path(out).is_dir()):
            raise UserError(f"out must be a file path in an existing directory, got {out!r}")
    return config


def _load_scenario(config: dict, search: bool = False) -> Scenario:
    scenario = _read_scenario(config)
    bound = _check_magnitudes(scenario, search)
    # A k-server day charges k * sweeps however large k is: k threads, where the bound counts T + 1.
    k_max = (scenario.T + 1) * (sys.float_info.max / bound)
    if search and config["strategy"].startswith("kserver-") and config["k"] > k_max:
        raise UserError("k is too large for this scenario: k threads a day could overflow a cost or ratio")
    return scenario


def _check_magnitudes(scenario: Scenario, search: bool) -> float:
    """Reject a scenario whose sums or ratios could overflow (exit 1), or,
    when the run searches (``search``), one whose unit-step counts the
    search could not keep exact; return the bound below.

    Between two of origin and solutions a distance is 0 or in [d_min,
    d_max].  One to a planted prediction p is at most |p| + |x| (|.| the
    distance to the origin), so at most d_max + 2r with r the largest |p|;
    and a positive planted baseline is at least r, the moves of p's
    trajectory from the origin, or else a sum of solution norms, at least
    d_min.  The largest sum is a decay ledger's total radius: T days of at
    most T + 1 threads, each at most the largest distance in steps, since
    rank 1 steps every tick.  An L1 distance to a coordinate-wise median is
    at most dim times the largest distance, a ratio divides by a baseline
    of at least the least positive distance, and a feature threshold adds
    two features of size at most f_max.  So (T+1)^3 * dim * max(d_max + 2r,
    f_max, 1) / min(d_min, r or 1, 1), when finite, bounds every float a run
    forms, with room.

    A search takes a distance's worth of unit steps, and the decay
    scheduler's tick arithmetic needs step counts that a float holds
    exactly, so a run that searches also needs every distance between two
    of origin and solutions below 2**53.  ``learn`` takes no search steps
    and skips this rule.
    """
    D = scenario.distances
    d_max = float(D.max())
    planted = scenario.planted
    with np.errstate(over="ignore"):
        r = float(distance_matrix(planted.predictions, scenario.norm, scenario.coords[:1]).max()) if planted else 0.0
    d_min = min(float(D.min(where=D > 0, initial=1.0)), r or 1.0)
    f_max = float(np.abs(scenario.features).max())
    bound = (scenario.T + 1) ** 3 * scenario.dim * max(d_max + 2 * r, f_max, 1.0) / d_min
    if not math.isfinite(bound):
        raise UserError(
            "scenario magnitudes are out of range: (T+1)^3 * dim * max(d_max + 2r, "
            "f_max, 1) / min(d_min, r or 1, 1) overflows, so a cost or ratio could"
        )
    if search and d_max >= 2.0**53:
        raise UserError(
            f"scenario distances reach {d_max:.6g}, at or beyond 2**53 unit "
            "search steps, where step counts are no longer exact"
        )
    return bound


def _read_scenario(config: dict) -> Scenario:
    spec = config.get("scenario")
    if spec is None:
        raise UserError("no scenario given (use --scenario or the config file)")
    if isinstance(spec, str):
        return _read(spec, "scenario", Scenario.from_json_text)
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


def _attach_baselines(ledger: CostLedger, scenario: Scenario, config: dict) -> None:
    ledger.attach_baseline("planted", planted_baseline(scenario))
    ks = config["baseline_ks"]
    server_costs = offline_opt_kserver(scenario.distances, ks)
    for k, server_cost in zip(ks, server_costs):
        try:
            cost = brute_force_best_trajectories(scenario.distances, k)
        except CapExceeded:
            cost = None
        name = "opt_1_traj" if k == 1 else f"opt_{k}_traj_restricted"
        ledger.attach_baseline(name, cost)
        ledger.attach_baseline(f"opt_kserver_k{k}", server_cost)


def _write(path: str | None, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, or to standard output if it is None.
    Text UTF-8 cannot encode (a lone surrogate) is a user error either way.
    Standard output gets the UTF-8 bytes through its binary buffer, whatever
    its own encoding; a text stream without one (``io.StringIO``) gets
    ``text``."""
    try:
        data = text.encode()
    except UnicodeEncodeError as e:
        raise UserError(f"cannot write {path or 'standard output'}: {e}") from e
    if path is None:
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            sys.stdout.write(text)
        else:
            sys.stdout.flush()
            buffer.write(data)
        return
    try:
        Path(path).write_bytes(data)
    except OSError as e:
        raise UserError(f"cannot write {path}: {e.strerror}") from e
    except ValueError as e:  # a NUL byte in the path
        raise UserError(f"cannot write {path}: {e}") from e


def cmd_simulate(args) -> int:
    config = _load_config(args)
    scenario = _load_scenario(config, search=True)
    strategy, k = config["strategy"], config.get("k")
    if strategy == "parallel-k" and k > scenario.T:
        raise UserError(f"parallel-k needs k <= T, got k={k} for T={scenario.T}")
    ledger = STRATEGIES[strategy](scenario, k)
    _attach_baselines(ledger, scenario, config)
    _write(config.get("out"), ledger.to_json_text())
    return 0


def cmd_learn(args) -> int:
    config = _load_config(args)
    scenario = _load_scenario(config)
    learner, k, T = config["learner"], config["k"], scenario.T
    m = int(T * config["train_frac"])
    if not (1 <= m < T):
        raise UserError(f"train split of {m} days is invalid for T={T}")
    if k > m:
        raise UserError(f"learn needs k <= the {m} training days, got k={k}")
    sols = scenario.points[1:]
    out: dict = {
        "schema_version": 1,
        "scenario": scenario.name,
        "learner": learner,
        "k": k,
        "train_days": m,
        "holdout_days": T - m,
    }
    if learner == "centers":
        C, out["centers_method"] = learn_centers(sols[:m], k, scenario.norm)
        out["centers"] = [list(c.coords) for c in C.centers]
        out["train_cost"] = cost_of_centers(C, sols[:m], scenario.norm)
        out["holdout_cost"] = cost_of_centers(C, sols[m:], scenario.norm)
    else:
        samples = [LabeledSample(Point(f), x) for f, x in zip(scenario.features.tolist(), sols)]
        train, test = samples[:m], samples[m:]
        hyps = ThresholdClass([s.features for s in train], k, config["depth"])
        h, phi, C_h, out["centers_method"], capped = two_step_learn(hyps, train, k, scenario.norm)
        if capped:
            out["median_capped"] = {"max_iter": MEDIAN_MAX_ITER, "parts": list(capped)}
        g = compose(h, phi)
        out["hypothesis"] = {
            "feature_indices": list(h.feature_indices),
            "thresholds": list(h.thresholds),
            "leaf_labels": list(h.leaf_labels),
            "rotation": list(phi),
        }
        out["centers"] = [list(c.coords) for c in C_h.centers]
        out["train_c_loss"] = c_loss(g, C_h, train, scenario.norm)
        out["holdout_c_loss"] = c_loss(g, C_h, test, scenario.norm)
    _write(config.get("out"), dumps_strict(out))
    return 0


REPORT_COLUMNS = ("scenario", "strategy", "radius", "overhead", "wall_estimate")


def _csv_line(fields: list[str]) -> str:
    """The fields joined by commas; one that holds a comma, a quote or a line
    break is quoted, with its quotes doubled."""
    quoted = ('"' + f.replace('"', '""') + '"' if any(c in f for c in ',"\n\r') else f for f in fields)
    return ",".join(quoted)


def cmd_report(args) -> int:
    ledgers = [_read(p, "ledger", CostLedger.from_json_text) for p in args.ledgers]
    baseline_names = sorted({name for lg in ledgers for name in lg.baselines})
    header = list(REPORT_COLUMNS)
    for name in baseline_names:
        header += [f"baseline:{name}", f"ratio:{name}"]
    rows = [_csv_line(header)]
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
        rows.append(_csv_line(row))
    _write(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_selftest(args) -> int:
    checks = 0
    total, _, _ = parallel_search([search_steps(p, Point.of(7.0), L2) for p in (Point.of(0.0), Point.of(10.0))])
    assert total == 6, f"parallel-k sanity: expected 6, got {total}"
    checks += 1

    scen = Scenario("selftest", 0, 1, L2, [[0.0]] * 3, [[0.0], [3.0], [5.0]])
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: ``parse_args`` keeps no state in it, so every
    ``main`` call reuses it instead of building its own."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (UserError, CapExceeded) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except (InvariantViolation, AssertionError) as e:
        sys.stderr.write(f"internal invariant violation: {e}\n")
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
