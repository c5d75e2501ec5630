import argparse
import json

import pytest

from warmstart.cli import build_parser, main
from warmstart.ledger import CostLedger
from warmstart.online import NEEDS_K, STRATEGIES
from warmstart.scenarios import gen_drifting_trajectories, gen_static_clusters


@pytest.fixture
def scen_file(tmp_path):
    scen = gen_drifting_trajectories(55, k=2, drift_per_day=0.5, noise=0.5, T=8, dim=2)
    p = tmp_path / "scen.json"
    p.write_text(scen.to_json_text())
    return p


def test_simulate_writes_valid_ledger(scen_file, tmp_path):
    out = tmp_path / "ledger.json"
    rc = main(
        ["simulate", "--scenario", str(scen_file), "--strategy", "quadratic-decay", "--out", str(out)]
    )
    assert rc == 0
    lg = CostLedger.from_json_text(out.read_text())
    assert lg.strategy == "quadratic-decay"
    assert len(lg.days) == 8
    assert "planted" in lg.baselines
    assert "opt_1_traj" in lg.baselines


def test_simulate_byte_identical_across_runs(scen_file, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main(
            ["simulate", "--scenario", str(scen_file), "--strategy", "predict-yesterday", "--out", str(out)]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_config_file_with_flag_override(scen_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": str(scen_file),
                "strategy": "kserver-greedy",
                "k": 2,
                "baseline_ks": [1, 2],
            }
        )
    )
    out = tmp_path / "ledger.json"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    lg = CostLedger.from_json_text(out.read_text())
    assert lg.params["k"] == 2
    assert "opt_kserver_k2" in lg.baselines


def test_baseline_cap_marks_unavailable(tmp_path):
    scen = gen_drifting_trajectories(56, k=1, drift_per_day=0.5, noise=0.5, T=12, dim=1)
    p = tmp_path / "scen.json"
    p.write_text(scen.to_json_text())
    out = tmp_path / "ledger.json"
    rc = main(["simulate", "--scenario", str(p), "--strategy", "predict-yesterday", "--out", str(out)])
    assert rc == 0
    lg = CostLedger.from_json_text(out.read_text())
    # T=12 exceeds the brute-force trajectory cap, so the baseline is marked
    assert lg.baselines["opt_1_traj"] is None
    assert "opt_1_traj" not in lg.ratios


def test_user_errors_exit_one(tmp_path, capsys):
    assert main(["simulate", "--scenario", "/nope.json", "--strategy", "predict-yesterday"]) == 1
    assert main(["simulate"]) == 1  # no scenario
    assert main(["frobnicate"]) == 1  # unknown subcommand (argparse remapped)
    scen = gen_drifting_trajectories(57, k=1, drift_per_day=0.5, noise=0.5, T=4, dim=1)
    p = tmp_path / "scen.json"
    p.write_text(scen.to_json_text())
    assert main(["simulate", "--scenario", str(p), "--strategy", "kserver-greedy"]) == 1  # missing k
    capsys.readouterr()


GENERATED = {
    "generator": "drifting_trajectories",
    "params": {"k": 1, "drift_per_day": 0.5, "noise": 0.5, "T": 12, "dim": 1, "seed": 5},
}


@pytest.mark.parametrize(
    "command, config, patch",
    [
        ("simulate", {"strategy": "predict-yesterday"}, (["norm"], "L3")),
        ("simulate", {"strategy": "parallel-k", "k": 25}, None),
        ("simulate", {"strategy": "kserver-greedy", "k": True}, None),
        ("learn", {"learner": "centers", "k": True}, None),
        ("learn", {"learner": "centers", "k": 3}, None),
        ("learn", {"learner": "partition", "k": 2, "depth": 3}, None),
        ("simulate", {"strategy": "kserver-wfa", "k": 4}, None),
        ("learn", {"learner": "partition", "k": 5, "scenario": GENERATED}, None),
        ("simulate", ["predict-yesterday"], None),
        ("simulate", {"strategy": "predict-yesterday"}, (["days"], [])),
        ("simulate", {"strategy": "predict-yesterday"}, (["days", 1, "day"], 1)),
        ("learn", {"learner": "partition", "k": 1}, (["days", 0, "features"], [0.0, 0.0])),
        ("simulate", {"strategy": "predict-yesterday"}, (["days", 2, "solution"], [1.0, 2.0])),
        ("simulate", {"strategy": "predict-yesterday", "baseline_ks": [0]}, None),
        ("simulate", {"strategy": "predict-yesterday", "baseline_ks": "x"}, None),
        ("learn", {"learner": "centers", "k": 1, "train_frac": "x"}, None),
        (
            "simulate",
            {"strategy": "predict-yesterday", "scenario": dict(GENERATED, params=dict(GENERATED["params"], dim=0))},
            None,
        ),
        ("simulate", {"strategy": "predict-yesterday", "scenario": dict(GENERATED, params="x")}, None),
    ],
    ids=[
        "unknown-norm",
        "parallel-k-above-T",
        "bool-k",
        "learn-bool-k",
        "learn-k-above-train",
        "depth-3",
        "wfa-k-above-cap",
        "partition-k-above-cap",
        "config-not-object",
        "no-days",
        "duplicate-day",
        "feature-length",
        "solution-length",
        "baseline-ks-zero",
        "baseline-ks-string",
        "train-frac-string",
        "generator-dim-0",
        "generator-params-not-object",
    ],
)
def test_bad_input_exits_one_with_one_line(tmp_path, capsys, command, config, patch):
    scen = json.loads(
        gen_drifting_trajectories(61, k=1, drift_per_day=0.5, noise=0.5, T=4, dim=1).to_json_text()
    )
    if patch is not None:  # (key path into the scenario JSON, new value)
        path, value = patch
        target = scen
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(scen))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": str(p), **config} if isinstance(config, dict) else config))
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_learn_centers_and_partition(tmp_path):
    scen = gen_static_clusters(58, k=2, sep=100.0, spread=1.0, T=12, dim=2)
    p = tmp_path / "scen.json"
    p.write_text(scen.to_json_text())
    for learner in ("centers", "partition"):
        cfg = tmp_path / f"{learner}.cfg"
        cfg.write_text(json.dumps({"scenario": str(p), "learner": learner, "k": 2}))
        out = tmp_path / f"{learner}.json"
        assert main(["learn", "--config", str(cfg), "--out", str(out)]) == 0
        art = json.loads(out.read_text())
        assert art["k"] == 2
    centers = json.loads((tmp_path / "centers.json").read_text())
    assert centers["holdout_cost"] <= 2.0  # clusters have spread 1
    part = json.loads((tmp_path / "partition.json").read_text())
    assert part["holdout_c_loss"] <= 2.0


def test_learn_determinism(tmp_path):
    scen = gen_static_clusters(59, k=2, sep=50.0, spread=1.0, T=10, dim=2)
    p = tmp_path / "scen.json"
    p.write_text(scen.to_json_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": str(p), "learner": "centers", "k": 2}))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["learn", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_report_joins_ledgers_with_na_cells(scen_file, tmp_path):
    paths = []
    for strat in ("predict-yesterday", "quadratic-decay"):
        out = tmp_path / f"{strat}.json"
        assert main(["simulate", "--scenario", str(scen_file), "--strategy", strat, "--out", str(out)]) == 0
        paths.append(str(out))
    report = tmp_path / "report.csv"
    assert main(["report", *paths, "--out", str(report)]) == 0
    lines = report.read_text().strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[:5] == ["scenario", "strategy", "radius", "overhead", "wall_estimate"]
    # T=8 is within the trajectory cap here, so no NA for opt_1_traj;
    # but rerun on a long scenario to get NA cells
    long_scen = gen_drifting_trajectories(60, k=1, drift_per_day=0.5, noise=0.5, T=12, dim=1)
    lp = tmp_path / "long.json"
    lp.write_text(long_scen.to_json_text())
    lout = tmp_path / "long_ledger.json"
    assert main(["simulate", "--scenario", str(lp), "--strategy", "predict-yesterday", "--out", str(lout)]) == 0
    report2 = tmp_path / "report2.csv"
    assert main(["report", str(lout), "--out", str(report2)]) == 0
    assert "NA" in report2.read_text()


def test_report_ratios_recomputable(scen_file, tmp_path):
    out = tmp_path / "ledger.json"
    assert main(["simulate", "--scenario", str(scen_file), "--strategy", "predict-yesterday", "--out", str(out)]) == 0
    report = tmp_path / "report.csv"
    assert main(["report", str(out), "--out", str(report)]) == 0
    lines = report.read_text().strip().split("\n")
    header, row = lines[0].split(","), lines[1].split(",")
    rec = dict(zip(header, row))
    lg = CostLedger.from_json_text(out.read_text())
    for name, value in lg.baselines.items():
        if value is not None and value > 0:
            assert float(rec[f"ratio:{name}"]) == lg.total_radius / value


def test_selftest_exits_zero(capsys):
    assert main(["selftest"]) == 0
    assert "selftest ok" in capsys.readouterr().out


def test_parallel_k_strategy(scen_file, tmp_path):
    out = tmp_path / "ledger.json"
    rc = main(["simulate", "--scenario", str(scen_file), "--strategy", "parallel-k", "--k", "2", "--out", str(out)])
    assert rc == 0
    lg = CostLedger.from_json_text(out.read_text())
    assert lg.strategy == "parallel-k"
    assert lg.params == {"k": 2}


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_every_registered_strategy_runs(scen_file, tmp_path, strategy):
    out = tmp_path / "ledger.json"
    argv = ["simulate", "--scenario", str(scen_file), "--strategy", strategy, "--out", str(out)]
    if strategy in NEEDS_K:
        argv += ["--k", "2"]
    assert main(argv) == 0
    assert CostLedger.from_json_text(out.read_text()).strategy == strategy


def test_strategy_choices_are_the_registry():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name in ("simulate", "learn"):
        flag = next(a for a in commands.choices[name]._actions if "--strategy" in a.option_strings)
        assert list(flag.choices) == list(STRATEGIES)
