import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmstart import cli, kmedians, metric
from warmstart.cli import build_parser, main
from warmstart.ledger import CostLedger
from warmstart.metric import search_steps
from warmstart.online import NEEDS_K, STRATEGIES
from warmstart.scenarios import Scenario, gen_adversarial_switch, gen_drifting_trajectories, gen_static_clusters, generate

GOLDEN = Path(__file__).parent / "golden"


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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": str(p), "strategy": "predict-yesterday", "baseline_ks": [1, 2]}))
    out = tmp_path / "ledger.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lg = CostLedger.from_json_text(out.read_text())
    # T=12 exceeds the brute-force trajectory cap for k >= 2, so that
    # baseline is marked; k = 1 has no cap
    assert lg.baselines["opt_2_traj_restricted"] is None
    assert "opt_2_traj_restricted" not in lg.ratios
    assert isinstance(lg.baselines["opt_1_traj"], float)
    assert "opt_1_traj" in lg.ratios


def test_user_errors_exit_one(tmp_path, capsys):
    assert main(["simulate", "--scenario", "/nope.json", "--strategy", "predict-yesterday"]) == 1
    assert main(["simulate"]) == 1  # no scenario
    assert main(["frobnicate"]) == 1  # unknown subcommand (argparse remapped)
    scen = gen_drifting_trajectories(57, k=1, drift_per_day=0.5, noise=0.5, T=4, dim=1)
    p = tmp_path / "scen.json"
    p.write_text(scen.to_json_text())
    assert main(["simulate", "--scenario", str(p), "--strategy", "kserver-greedy"]) == 1  # missing k
    capsys.readouterr()


def test_consecutive_calls_share_no_parse_state(scen_file, tmp_path, capsys):
    argv = ["simulate", "--scenario", str(scen_file), "--strategy", "kserver-greedy"]
    assert main(argv + ["--k", "2", "--out", str(tmp_path / "a.json")]) == 0
    capsys.readouterr()
    assert main(argv) == 1  # the first call's --k 2 is not carried over
    assert "needs an integer k >= 1" in capsys.readouterr().err


GENERATED = {
    "generator": "drifting_trajectories",
    "params": {"k": 1, "drift_per_day": 0.5, "noise": 0.5, "T": 12, "dim": 1, "seed": 5},
}


# A planted trajectory for days 1..5, one day more than the scenario below.
PLANTED_5_DAYS = {
    "k": 1,
    "assignment": {str(t): 1 for t in range(1, 6)},
    "predictions": {str(t): [0.0] for t in range(1, 6)},
}

def _days(solutions, features=None):
    features = features or [0.0] * len(solutions)
    return [
        {"day": t, "features": [f], "solution": [x]}
        for t, (f, x) in enumerate(zip(features, solutions), start=1)
    ]


# Three days whose distances from each other overflow to inf.
OVERFLOWING_DAYS = _days([1e308, -1e308, 1e308])
# Distances of 1.6e308 are finite, but their sums overflow: a ledger's total
# radius (an int too large for a float ratio) and a learner's holdout cost.
SUMS_OVERFLOW_DAYS = _days([8e307, -8e307, 8e307])
# Distances of 1e-320 make a ratio of a few steps to them overflow.
TINY_DAYS = _days([1e-320, 2e-320, 1e-320])
# Midpoints of features near 1e308 overflow to an inf threshold.
HUGE_FEATURE_DAYS = _days([0.0, 5.0, 0.0, 5.0], [1e308, 1.5e308, 1.2e308, 1.7e308])
# Planted predictions 2e308 apart make the planted baseline inf.
PLANTED_FAR_APART = {
    "k": 1,
    "assignment": {"1": 1, "2": 1},
    "predictions": {"1": [1e308], "2": [-1e308]},
}
# Planted predictions 1e-320 from solutions at the origin make the planted
# baseline so small that the ratio to it overflows.
PLANTED_TINY = {
    "k": 1,
    "assignment": {"1": 1, "2": 1},
    "predictions": {"1": [1e-320], "2": [1e-320]},
}
PLANTED_NO_DAYS = {"k": 0, "assignment": {}, "predictions": {}}

# (command, config, patch) runs that must exit 1 with a one-line message.
BAD_INPUTS = [
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
    ("learn", {"learner": "centers", "k": 1, "train_frac": 1e308}, None),
    ("learn", {"learner": "centers", "k": 1, "train_frac": -1e308}, None),
    (
        "simulate",
        {"strategy": "predict-yesterday", "scenario": dict(GENERATED, params=dict(GENERATED["params"], dim=0))},
        None,
    ),
    ("simulate", {"strategy": "predict-yesterday", "scenario": dict(GENERATED, params="x")}, None),
    (
        "simulate",
        {"strategy": "predict-yesterday", "scenario": dict(GENERATED, params=dict(GENERATED["params"], noise=1e308))},
        None,
    ),
    (
        "simulate",
        {"strategy": "predict-yesterday", "scenario": dict(GENERATED, params=dict(GENERATED["params"], seed=None))},
        None,
    ),
    (
        "simulate",
        {
            "strategy": "predict-yesterday",
            "scenario": {
                "generator": "static_clusters",
                "params": {"k": 0, "sep": 10.0, "spread": 1.0, "T": 3, "dim": 1, "seed": 1},
            },
        },
        None,
    ),
    (
        "simulate",
        {"strategy": "predict-yesterday", "scenario": dict(GENERATED, params=dict(GENERATED["params"], k=0))},
        None,
    ),
    (
        "simulate",
        {
            "strategy": "predict-yesterday",
            "scenario": {"generator": "planted_lower_bound", "params": {"k": 0, "sep": 10.0, "T": 3, "dim": 1, "seed": 1}},
        },
        None,
    ),
    (
        "simulate",
        {
            "strategy": "predict-yesterday",
            "scenario": {"generator": "adversarial_switch", "params": {"phases": 2, "T": 4, "dim": 1, "jitter": -1.0, "seed": 1}},
        },
        None,
    ),
    (
        "simulate",
        {"strategy": "predict-yesterday"},
        [(["norm"], "L1"), (["meta"], {}), (["days"], OVERFLOWING_DAYS)],
    ),
    ("simulate", {"strategy": ["predict-yesterday"]}, None),
    ("simulate", {"strategy": "predict-yesterday"}, (["meta"], 5)),
    ("simulate", {"strategy": "predict-yesterday"}, (["meta", "planted"], PLANTED_5_DAYS)),
    ("simulate", {"strategy": "predict-yesterday"}, (["meta", "planted", "predictions", "1"], [0.0, 0.0])),
    ("simulate", {"strategy": "predict-yesterday"}, [(["norm"], "L1"), (["meta"], {}), (["days"], SUMS_OVERFLOW_DAYS)]),
    (
        "learn",
        {"learner": "centers", "k": 1},
        [(["norm"], "L1"), (["meta"], {}), (["days"], _days([8e307, -8e307, 8e307] * 2))],
    ),
    (
        "simulate",
        {"strategy": "predict-yesterday"},
        [(["norm"], "L1"), (["days"], _days([1.0, 2.0])), (["meta", "planted"], PLANTED_FAR_APART)],
    ),
    ("simulate", {"strategy": "predict-yesterday"}, [(["norm"], "L1"), (["meta"], {}), (["days"], TINY_DAYS)]),
    (
        "simulate",
        {"strategy": "predict-yesterday"},
        [(["norm"], "L1"), (["days"], _days([0.0, 0.0])), (["meta", "planted"], PLANTED_TINY)],
    ),
    (
        "learn",
        {"learner": "partition", "k": 2, "depth": 1, "train_frac": 0.75},
        [(["norm"], "L1"), (["meta"], {}), (["days"], HUGE_FEATURE_DAYS)],
    ),
    (
        "learn",
        {"learner": "partition", "k": 1, "depth": 0},
        [(["norm"], "Linf"), (["meta"], {}), (["days"], _days([1.7e308, 1.6e308, 1.7e308, 1.75e308]))],
    ),
    ("simulate", {"strategy": "predict-yesterday"}, (["days", 0, "features"], 5)),
    ("learn", {"learner": "centers", "k": 1}, (["days", 1, "solution"], [None, 1])),
    ("simulate", {"strategy": "predict-yesterday"}, (["days"], 5)),
    ("simulate", {"strategy": "predict-yesterday"}, (["days", 0, "day"], 1.0)),
    ("simulate", {"strategy": "predict-yesterday"}, (["days", 0, "day"], True)),
    ("simulate", {"strategy": "predict-yesterday"}, (["name"], 5)),
    ("learn", {"learner": "centers", "k": 1}, (["name"], None)),
    ("simulate", {"strategy": "predict-yesterday"}, (["dim"], 1.0)),
    ("learn", {"learner": "centers", "k": 1}, (["dim"], True)),
    ("simulate", {"strategy": "predict-yesterday"}, (["meta", "planted"], PLANTED_NO_DAYS)),
    ("simulate", {"strategy": "predict-yesterday"}, (["meta", "planted", "k"], 1.5)),
    ("simulate", {"strategy": "predict-yesterday", "seed": "x"}, None),
    ("simulate", {"strategy": "predict-yesterday", "seed": True}, None),
    ("simulate", {"strategy": "predict-yesterday", "seed": -1}, None),
    ("learn", {"learner": "centers", "k": 1, "seed": 2**128}, None),
    ("simulate", {"strategy": "predict-yesterday", "seed": 1.0}, None),
    ("simulate", {"strategy": "kserver-greedy", "k": 10**400}, None),
    ("simulate", {"strategy": "predict-yesterday"}, (["days", 1, "solution"], ["1.5"])),
    ("simulate", {"strategy": "predict-yesterday"}, (["days", 1, "features"], "12")),
    ("learn", {"learner": "centers", "k": 1}, (["days", 1, "solution"], [True])),
    ("simulate", {"strategy": "predict-yesterday"}, (["days", 1, "solution"], {"0": 1})),
    ("simulate", {"strategy": "predict-yesterday"}, (["meta", "planted", "assignment", "1"], True)),
    ("simulate", {"strategy": "predict-yesterday"}, (["meta", "planted", "predictions", "1"], "1")),
    ("simulate", {"strategy": "predict-yesterday"}, (["days", 1, "solution"], [10**400])),
    ("learn", {"learner": "partition", "k": 1}, (["days", 1, "features"], [-(10**400)])),
    ("simulate", {"strategy": "predict-yesterday"}, (["meta", "planted", "predictions", "1"], [10**400])),
    (
        "simulate",
        {"strategy": "predict-yesterday"},
        [(["meta", "planted", "assignment", "0_1"], 1), (["meta", "planted", "predictions", "0_1"], [500.0])],
    ),
    (
        "simulate",
        {"strategy": "predict-yesterday"},
        [(["meta", "planted", "predictions", "0"], [500.0]), (["meta", "planted", "predictions", "99"], [500.0])],
    ),
    *[
        (
            "simulate",
            {"strategy": "predict-yesterday", "scenario": {"generator": generator, "params": dict(params, **{name: True})}},
            None,
        )
        for generator, params, name in [
            ("static_clusters", {"k": 2, "sep": 10.0, "spread": 1.0, "T": 3, "dim": 1, "seed": 1}, "T"),
            ("drifting_trajectories", GENERATED["params"], "k"),
            ("adversarial_switch", {"phases": 2, "T": 3, "dim": 1, "seed": 1}, "phases"),
            ("adversarial_switch", {"phases": 2, "T": 3, "dim": 1, "seed": 1}, "jitter"),
            ("planted_lower_bound", {"k": 2, "sep": 10.0, "T": 3, "dim": 1, "seed": 1}, "seed"),
        ]
    ],
]
BAD_INPUT_IDS = [
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
    "train-frac-huge",
    "train-frac-huge-negative",
    "generator-dim-0",
    "generator-params-not-object",
    "generator-draws-overflow",
    "generator-seed-null",
    "generator-k-0",
    "drifting-k-0",
    "planted-lb-k-0",
    "switch-jitter-negative",
    "distances-overflow",
    "strategy-not-string",
    "meta-not-object",
    "planted-beyond-T",
    "planted-dim",
    "sums-overflow",
    "holdout-cost-overflows",
    "planted-far-apart",
    "ratio-overflows",
    "planted-ratio-overflows",
    "feature-midpoint-overflows",
    "linf-midrange-overflows",
    "features-not-a-list",
    "null-coordinate",
    "days-not-a-list",
    "float-day-number",
    "bool-day-number",
    "name-not-a-string",
    "learn-name-null",
    "dim-float",
    "dim-bool",
    "planted-no-days",
    "planted-float-k",
    "seed-string",
    "seed-bool",
    "seed-negative",
    "seed-2-to-the-128",
    "seed-float",
    "kserver-k-overflows",
    "string-coordinate",
    "features-a-string",
    "bool-coordinate",
    "object-for-a-vector",
    "planted-bool-assignment",
    "planted-string-prediction",
    "huge-int-solution",
    "huge-int-feature",
    "planted-huge-int-prediction",
    "planted-day-key-not-canonical",
    "planted-prediction-outside-the-assignment",
    "generator-bool-T",
    "generator-bool-k",
    "generator-bool-phases",
    "generator-bool-jitter",
    "generator-bool-seed",
]


def _patched_scenario(patch) -> str:
    """A valid 4-day scenario's JSON text with ``patch`` applied: a (key path
    into the scenario JSON, new value) pair, a list of them, or None."""
    scen = json.loads(
        gen_drifting_trajectories(61, k=1, drift_per_day=0.5, noise=0.5, T=4, dim=1).to_json_text()
    )
    if isinstance(patch, tuple):
        patch = [patch]
    for path, value in patch or []:
        target = scen
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return json.dumps(scen)


@pytest.mark.parametrize("command, config, patch", BAD_INPUTS, ids=BAD_INPUT_IDS)
def test_bad_input_exits_one_with_one_line(tmp_path, capsys, command, config, patch):
    p = tmp_path / "scen.json"
    p.write_text(_patched_scenario(patch))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": str(p), **config} if isinstance(config, dict) else config))
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "jump, jitter, dim",
    [(1e3, 1e308, 1), (-1e308, 1e308, 1), (1.7e308, 1e308, 2)],
    ids=["jitter-overflows", "inf-minus-inf", "center-plus-offset-overflows"],
)
def test_a_generator_spec_that_overflows_exits_one_without_a_warning(tmp_path, capsys, jump, jitter, dim):
    # Draws that overflow to inf or nan are rejected by Scenario; a numpy
    # warning of them would be a second line on standard error.
    params = {"seed": 1, "phases": 2, "T": 4, "dim": dim, "jump": jump, "jitter": jitter}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"generator": "adversarial_switch", "params": params}, "strategy": "predict-yesterday"}))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad scenario spec: ") and err.count("\n") == 1


# The scenario-side cases of BAD_INPUTS that Scenario's structure rules or
# scenarios.generate do not reject with a ValueError: a JSON value of the
# wrong type, which parsing meets first (TypeError), and the magnitude rule
# of a run, which the CLI applies to a well-formed scenario.
WRONG_TYPE = {
    "features-not-a-list",
    "null-coordinate",
    "days-not-a-list",
    "string-coordinate",
    "features-a-string",
    "bool-coordinate",
    "object-for-a-vector",
    "generator-seed-null",
    "generator-bool-T",
    "generator-bool-k",
    "generator-bool-phases",
    "generator-bool-jitter",
    "generator-bool-seed",
}
MAGNITUDES = {
    "distances-overflow",
    "sums-overflow",
    "holdout-cost-overflows",
    "planted-far-apart",
    "ratio-overflows",
    "planted-ratio-overflows",
    "feature-midpoint-overflows",
    "linf-midrange-overflows",
}


@pytest.mark.parametrize(
    "command, patch, case",
    [(command, patch, case) for (command, _, patch), case in zip(BAD_INPUTS, BAD_INPUT_IDS) if patch],
    ids=[case for (_, _, patch), case in zip(BAD_INPUTS, BAD_INPUT_IDS) if patch],
)
def test_scenario_rejects_what_the_cli_rejects(command, patch, case):
    # The CLI reads a scenario file through Scenario.from_json_text and adds
    # only the magnitude rule, so the library rejects the rest itself.
    text = _patched_scenario(patch)
    if case in MAGNITUDES:
        scenario = Scenario.from_json_text(text)
        with pytest.raises(cli.UserError):
            cli._check_magnitudes(scenario, search=command == "simulate")
    else:
        with pytest.raises(TypeError if case in WRONG_TYPE else ValueError):
            Scenario.from_json_text(text)


# The generator-spec cases of BAD_INPUTS that the CLI leaves to
# scenarios.generate (it checks a spec's params object and its dim itself).
GENERATE_REJECTS = [
    case
    for case in BAD_INPUT_IDS
    if case.startswith("generator-") and case not in ("generator-dim-0", "generator-params-not-object")
] + ["drifting-k-0", "planted-lb-k-0", "switch-jitter-negative"]


@pytest.mark.parametrize("case", GENERATE_REJECTS)
def test_generate_rejects_what_the_cli_rejects(case):
    spec = BAD_INPUTS[BAD_INPUT_IDS.index(case)][1]["scenario"]
    with pytest.raises(TypeError if case in WRONG_TYPE else ValueError):
        generate(spec["generator"], **spec["params"])


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "{dir}"],
        ["learn", "--scenario", "{dir}", "--k", "1"],
        ["report", "{dir}"],
        ["simulate", "--scenario", "{scen}", "--strategy", "predict-yesterday", "--out", "{dir}/missing/out.json"],
        ["simulate", "--scenario", "{scen}", "--strategy", "predict-yesterday", "--out", "{dir}"],
        ["learn", "--scenario", "{scen}", "--k", "1", "--out", "{dir}"],
        ["report", "{ledger}", "--out", "{dir}/missing/report.csv"],
    ],
    ids=[
        "config-directory",
        "scenario-directory",
        "ledger-directory",
        "out-in-missing-directory",
        "out-directory",
        "learn-out-directory",
        "report-out-in-missing-directory",
    ],
)
def test_unreadable_or_unwritable_path_exits_one(scen_file, tmp_path, capsys, argv):
    ledger = tmp_path / "ledger.json"
    assert main(["simulate", "--scenario", str(scen_file), "--strategy", "predict-yesterday", "--out", str(ledger)]) == 0
    capsys.readouterr()
    paths = {"dir": tmp_path, "scen": scen_file, "ledger": ledger}
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "out",
    [5, [], True, "{dir}/missing/out.json", "{dir}/nul\0.json"],
    ids=["int", "list", "bool", "missing-directory", "nul-byte"],
)
def test_a_bad_config_out_exits_one(scen_file, tmp_path, capsys, out):
    # Only the config names the output: a --out flag would override it.
    cfg = tmp_path / "cfg.json"
    out = out.format(dir=tmp_path) if isinstance(out, str) else out
    cfg.write_text(json.dumps({"scenario": str(scen_file), "strategy": "predict-yesterday", "out": out}))
    assert main(["simulate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_an_unwritable_out_exits_one_before_the_strategy_runs(scen_file, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setitem(STRATEGIES, "predict-yesterday", lambda scenario, k: calls.append(scenario.name))
    argv = ["simulate", "--scenario", str(scen_file), "--strategy", "predict-yesterday", "--out"]
    assert main(argv + [str(tmp_path / "missing" / "out.json")]) == 1
    assert main(argv + [str(tmp_path)]) == 1
    assert calls == []
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, config, names",
    [
        ("simulate", {"strategy": "frobnicate"}, "strategy"),
        ("simulate", {"strategy": "kserver-greedy", "k": 0}, "k >= 1"),
        ("learn", {}, "k >= 1"),
        ("learn", {"k": 1, "learner": "frobnicate"}, "learner"),
        ("learn", {"k": 1, "learner": "partition", "depth": 3}, "depth"),
        ("learn", {"k": 1, "train_frac": 1e308}, "train_frac"),
        ("simulate", {"strategy": "predict-yesterday", "out": 5}, "out"),
        ("simulate", {"strategy": "predict-yesterday", "seed": "x"}, "seed"),
    ],
    ids=["strategy", "k", "learn-no-k", "learner", "depth", "train_frac", "out", "seed"],
)
def test_a_malformed_config_key_is_reported_before_the_scenario_is_read(tmp_path, capsys, command, config, names):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": str(tmp_path / "absent.json"), **config}))
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err and "absent.json" not in err


def test_the_console_script_exits_with_the_code_of_main(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": GENERATED, "strategy": "predict-yesterday", "out": 5}))
    for argv, code in ((["selftest"], 0), (["simulate", "--config", str(cfg)], 1)):
        monkeypatch.setattr("sys.argv", ["warmstart", *argv])
        with pytest.raises(SystemExit) as exit_info:
            cli.entry()
        assert exit_info.value.code == code
    capsys.readouterr()


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
    # T=8 is within the trajectory cap here, so no NA cells; rerun on a
    # long scenario, where the k = 2 trajectory baseline is over its cap
    long_scen = gen_drifting_trajectories(60, k=1, drift_per_day=0.5, noise=0.5, T=12, dim=1)
    lp = tmp_path / "long.json"
    lp.write_text(long_scen.to_json_text())
    lcfg = tmp_path / "long_cfg.json"
    lcfg.write_text(json.dumps({"scenario": str(lp), "strategy": "predict-yesterday", "baseline_ks": [1, 2]}))
    lout = tmp_path / "long_ledger.json"
    assert main(["simulate", "--config", str(lcfg), "--out", str(lout)]) == 0
    report2 = tmp_path / "report2.csv"
    assert main(["report", str(lout), "--out", str(report2)]) == 0
    header, row = (line.split(",") for line in report2.read_text().strip().split("\n"))
    cells = dict(zip(header, row))
    assert cells["baseline:opt_2_traj_restricted"] == cells["ratio:opt_2_traj_restricted"] == "NA"
    assert float(cells["baseline:opt_1_traj"]) > 0
    assert "NA" not in (cells["ratio:opt_1_traj"], cells["baseline:opt_kserver_k2"])


def test_report_quotes_a_field_that_holds_a_separator(scen_file, tmp_path):
    # A scenario or baseline name may hold a comma, a quote, \n or \r; the
    # report quotes such a field, so csv.reader reads the names back whole.
    out = tmp_path / "ledger.json"
    assert main(["simulate", "--scenario", str(scen_file), "--strategy", "predict-yesterday", "--out", str(out)]) == 0
    ledger = json.loads(out.read_text())
    name = 'a,b "c"\nd\re'
    ledger["scenario"] = name
    ledger["baselines"][name] = 2.0
    out.write_text(json.dumps(ledger))
    report = tmp_path / "report.csv"
    assert main(["report", str(out), "--out", str(report)]) == 0
    header, row = csv.reader(io.StringIO(report.read_bytes().decode()))
    assert len(header) == len(row) == 5 + 2 * len(ledger["baselines"])
    cells = dict(zip(header, row))
    assert cells["scenario"] == name and cells[f"baseline:{name}"] == "2.0"


def test_report_of_a_name_utf8_cannot_encode_exits_one(scen_file, tmp_path):
    # A lone surrogate is valid JSON but not UTF-8.  The report exits 1 with
    # one line whether it goes to a file or to standard output; a fresh
    # interpreter gives it a real standard output, which pytest's capture
    # does not.
    out = tmp_path / "ledger.json"
    assert main(["simulate", "--scenario", str(scen_file), "--strategy", "predict-yesterday", "--out", str(out)]) == 0
    ledger = json.loads(out.read_text())
    ledger["scenario"] = "\ud800"
    out.write_text(json.dumps(ledger))
    src = str(Path(__file__).resolve().parent.parent / "src")
    for extra in ([], ["--out", str(tmp_path / "report.csv")]):
        proc = subprocess.run(
            [sys.executable, "-c", "from warmstart.cli import entry; entry()", "report", str(out), *extra],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
        assert proc.stderr.startswith("error: cannot write ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "report.csv").exists()


def test_simulate_builds_one_distance_table(tmp_path, monkeypatch):
    # The magnitude rule and every offline baseline read the scenario's one
    # table over the origin and the solutions.  The scenario (T = 6, nothing
    # planted) is written before the count starts: writing reads the table.
    scen = gen_adversarial_switch(9, phases=3, T=6, dim=2)
    assert scen.planted is None
    p = tmp_path / "scen.json"
    p.write_text(scen.to_json_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": str(p), "strategy": "predict-yesterday", "baseline_ks": [1, 2, 3]}))
    built = []
    table = metric.distance_matrix

    def counted(*args, **kwargs):
        built.append(len(args[0]))
        return table(*args, **kwargs)

    for module in [m for n, m in sys.modules.items() if n == "warmstart" or n.startswith("warmstart.")]:
        for attr, value in list(vars(module).items()):
            if value is table:
                monkeypatch.setattr(module, attr, counted)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "ledger.json")]) == 0
    assert built == [7]


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


def test_the_cli_module_runs_as_a_script():
    # python -m warmstart.cli once exited 0 having done nothing.
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "warmstart.cli", "selftest"],
        capture_output=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"selftest ok (4 checks)\n", b"")


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


def test_huge_baseline_k_is_as_cheap_as_k_equal_t(tmp_path):
    scen = gen_drifting_trajectories(62, k=1, drift_per_day=0.5, noise=0.5, T=3, dim=1)
    p = tmp_path / "scen.json"
    p.write_text(scen.to_json_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"scenario": str(p), "strategy": "predict-yesterday", "baseline_ks": [10**9, 3]})
    )
    out = tmp_path / "ledger.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    baselines = CostLedger.from_json_text(out.read_text()).baselines
    assert repr(baselines[f"opt_kserver_k{10**9}"]) == repr(baselines["opt_kserver_k3"])
    assert baselines[f"opt_{10**9}_traj_restricted"] is None



def _tie_margin_baselines(tmp_path, ks):
    """Run predict-yesterday on 9 L2 requests at coordinates near 1e7, where
    a min-cost flow with a -M serving reward lost its shortest-path tree at
    the fourth server (tests/test_baselines.py), and return the baselines."""
    e = 10**7
    sols = [
        [-2 * e, 2 * e, -2 * e], [2 * e, 0, e], [-e, -e, 0], [e, -e, e], [-2 * e, -2 * e, 2 * e],
        [-e, -2 * e, 0], [-e, 0, -e], [-2 * e, -2 * e, -2 * e], [2 * e, -e, -e],
    ]
    scen = json.loads(
        gen_drifting_trajectories(64, k=1, drift_per_day=0.5, noise=0.5, T=9, dim=3).to_json_text()
    )
    for day, sol in zip(scen["days"], sols):
        day["solution"] = [float(x) for x in sol]
    scen["meta"] = {}
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(scen))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": str(p), "strategy": "predict-yesterday", "baseline_ks": ks}))
    out = tmp_path / "ledger.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return CostLedger.from_json_text(out.read_text()).baselines


def test_tie_margin_input_exits_zero_with_three_baseline_servers(tmp_path):
    baselines = _tie_margin_baselines(tmp_path, [1, 2, 3])
    costs = [baselines[f"opt_kserver_k{k}"] for k in (1, 2, 3)]
    assert costs == sorted(costs, reverse=True) and costs[2] > 0
    assert baselines["opt_1_traj"] <= costs[0]


def test_tie_margin_input_exits_zero_with_four_baseline_servers(tmp_path):
    # The least four-server schedule sum, as configuration_kserver_opt in
    # tests/test_baselines.py computes it.
    baselines = _tie_margin_baselines(tmp_path, [4])
    assert repr(baselines["opt_kserver_k4"]) == "191005039.55039376"


def test_huge_k_for_the_kserver_strategies(scen_file, tmp_path, capsys):
    out = tmp_path / "ledger.json"
    args = ["simulate", "--scenario", str(scen_file), "--k", str(10**9), "--out", str(out)]
    assert main(args + ["--strategy", "kserver-greedy"]) == 0
    days = CostLedger.from_json_text(out.read_text()).days
    assert [d.radius_searched for d in days] == [10**9 * d.virtual_radius for d in days]
    capsys.readouterr()
    assert main(args + ["--strategy", "kserver-wfa"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("learner", ["centers", "partition"])
def test_learn_records_the_centers_method(tmp_path, monkeypatch, learner):
    # 6 training days and k = 2 give C(6, 2) = 15 subsets: a cap of 15 still
    # enumerates them, a cap of 14 sends learn_centers to local search.  On
    # this scenario the two learners list the same centers in different orders.
    scen = gen_static_clusters(65, k=2, sep=100.0, spread=1.0, T=12, dim=2)
    p = tmp_path / "scen.json"
    p.write_text(scen.to_json_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": str(p), "learner": learner, "k": 2}))
    out = tmp_path / "art.json"
    train = scen.points[1:7]
    for cap, method, learn in (
        (15, "subset-erm", kmedians.learn_centers_subset_erm),
        (14, "local-search", kmedians.learn_centers_local_search),
    ):
        monkeypatch.setattr(kmedians, "ENUMERATION_CAP", cap)
        assert main(["learn", "--config", str(cfg), "--out", str(out)]) == 0
        art = json.loads(out.read_text())
        assert art["centers_method"] == method
        if learner == "centers":
            assert art["centers"] == [list(c.coords) for c in learn(train, 2, scen.norm)]


_ABSENT = object()
_JSON_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10),
    st.floats(allow_nan=True),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
)
_ANY_VALUE = st.one_of(st.just(_ABSENT), _JSON_VALUE)
_KEEP = object()
# A day's coordinate vector: huge magnitudes beside ordinary ones, in the
# scenario's dim 2 or not, or any other JSON value in its place.
_HUGE = st.sampled_from([1e17, -1e17, 1e20, -1e20, 1e300])
_VECTOR = st.one_of(
    st.lists(st.one_of(_HUGE, st.floats(-5.0, 5.0)), min_size=2, max_size=2),
    st.lists(st.one_of(_HUGE, _JSON_VALUE), max_size=3),
    _ANY_VALUE,
)
_PER_DAY = (st.just([_KEEP] * 5), st.lists(st.one_of(st.just(_KEEP), _VECTOR), min_size=5, max_size=5))
# Each input field: (valid values, mutated values).  An example mutates a
# few fields of a valid tiny config and scenario.
_FIELDS = {
    "strategy": (st.sampled_from(list(STRATEGIES)), _ANY_VALUE),
    "k": (st.one_of(st.integers(1, 4), st.just(10**9)), st.one_of(st.integers(-2, 9), _ANY_VALUE)),
    "baseline_ks": (
        st.lists(st.sampled_from([1, 2, 3, 6, 10**9]), max_size=3),
        st.one_of(st.lists(st.one_of(st.integers(-1, 12), _JSON_VALUE), min_size=1, max_size=3), _ANY_VALUE),
    ),
    "learner": (st.sampled_from(["centers", "partition"]), _ANY_VALUE),
    "depth": (st.integers(0, 2), st.one_of(st.integers(-1, 4), _ANY_VALUE)),
    "train_frac": (
        st.sampled_from([0.4, 0.6, 0.8]),
        st.one_of(st.floats(-1.0, 2.0), st.sampled_from([1e308, -1e308]), _ANY_VALUE),
    ),
    "norm": (st.sampled_from(["L1", "L2", "Linf"]), st.one_of(st.sampled_from(["L3", "l2", ""]), _ANY_VALUE)),
    "keep": (st.just([True] * 5), st.lists(st.booleans(), min_size=5, max_size=5)),
    "day_numbers": (
        st.just([1, 2, 3, 4, 5]),
        st.lists(st.one_of(st.integers(-1, 6), _JSON_VALUE), min_size=5, max_size=5),
    ),
    "name": (st.just(_KEEP), _ANY_VALUE),
    "dim": (st.just(_KEEP), st.one_of(st.sampled_from([2.0, True, 0, 1, 3]), _ANY_VALUE)),
    # PLANTED_5_DAYS is in dimension 1, not the scenario's 2
    "planted": (st.just(_KEEP), st.one_of(st.sampled_from([PLANTED_NO_DAYS, PLANTED_5_DAYS]), _ANY_VALUE)),
    "features": _PER_DAY,
    "solution": _PER_DAY,
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["simulate", "learn"]),
    mutated=st.sets(st.sampled_from(sorted(_FIELDS)), max_size=2),
    data=st.data(),
)
def test_mutated_inputs_exit_zero_or_one(command, mutated, data):
    v = {name: data.draw(pair[name in mutated], label=name) for name, pair in _FIELDS.items()}
    scen = json.loads(
        gen_drifting_trajectories(63, k=2, drift_per_day=0.5, noise=0.5, T=5, dim=2).to_json_text()
    )
    if v["norm"] is _ABSENT:
        del scen["norm"]
    else:
        scen["norm"] = v["norm"]
    for target, key in ((scen, "name"), (scen, "dim"), (scen["meta"], "planted")):
        if v[key] is _ABSENT:
            del target[key]
        elif v[key] is not _KEEP:
            target[key] = v[key]
    for day, number in zip(scen["days"], v["day_numbers"]):
        day["day"] = number
    for field in ("features", "solution"):
        for day, value in zip(scen["days"], v[field]):
            if value is _ABSENT:
                del day[field]
            elif value is not _KEEP:
                day[field] = value
    scen["days"] = [day for day, kept in zip(scen["days"], v["keep"]) if kept]
    config = {
        key: v[key]
        for key in ("strategy", "k", "baseline_ks", "learner", "depth", "train_frac")
        if v[key] is not _ABSENT
    }
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "scen.json"
        p.write_text(json.dumps(scen))
        cfg = Path(d) / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(p), **config}))
        out = Path(d) / "out.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([command, "--config", str(cfg), "--out", str(out)])
            # every ledger that simulate writes is one that report reads
            report_rc = main(["report", str(out)]) if command == "simulate" and rc == 0 else 0
    assert rc in (0, 1)
    if rc == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert report_rc == 0, err.getvalue()


@pytest.mark.parametrize("strategy", ["quadratic-decay", "harmonic-decay"])
def test_decay_over_a_billion_unit_jump_finishes(strategy, tmp_path):
    # Three phases 1e9 apart: a tick-by-tick scheduler would run about 1e9
    # ticks per switch; the event-driven one jumps between events.
    scen = gen_adversarial_switch(11, phases=3, T=6, dim=2, jump=1e9)
    scen_file = tmp_path / "scen.json"
    scen_file.write_text(scen.to_json_text())
    out = tmp_path / "ledger.json"
    start = time.perf_counter()
    rc = main(["simulate", "--scenario", str(scen_file), "--strategy", strategy, "--out", str(out)])
    assert rc == 0 and time.perf_counter() - start < 2.0
    days = CostLedger.from_json_text(out.read_text()).days
    sols = scen.points
    needed = search_steps(sols[0], sols[1], scen.norm)
    assert needed >= 10**9
    assert days[0].radius_searched == days[0].overhead_work == needed
    for t, day in enumerate(days, start=1):
        solver = search_steps(sols[day.solver_thread], sols[t], scen.norm)
        yesterday = search_steps(sols[t - 1], sols[t], scen.norm)
        assert solver <= day.virtual_radius <= yesterday <= day.radius_searched


@pytest.mark.parametrize("strategy", ["quadratic-decay", "harmonic-decay"])
def test_decay_beyond_2_53_unit_steps_exits_one(strategy, tmp_path, capsys):
    # Step counts from 2**53 up are not exact floats, and the decay
    # scheduler's tick arithmetic hung on them; the load rule rejects them.
    scen = json.loads(
        gen_drifting_trajectories(66, k=1, drift_per_day=0.5, noise=0.5, T=6, dim=1).to_json_text()
    )
    scen["norm"], scen["meta"] = "L1", {}
    scen["days"] = _days([1e20, -1e20, 1e20, 0.0, 1e20, -1e20])
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(scen))
    capsys.readouterr()
    start = time.perf_counter()
    rc = main(["simulate", "--scenario", str(p), "--strategy", strategy, "--out", str(tmp_path / "out.json")])
    assert rc == 1 and time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2**53" in err and err.count("\n") == 1


# Each learn artifact's sha256.  The L2 partition artifacts k2-d0, k2-d1
# and k3-d1 carried ``median_capped`` until the L2 median took Newton steps;
# now none does, and their centers and losses are those of the converged
# medians.
LEARN_LOCK_SHA256 = {
    "L1/centers-k2": "d35944245031a257af6e7dc1ac36dd651e771c810c64ed3c7308432a5e6e9789",
    "L1/centers-k3": "be5ff0bdd1bcaf259551b467387495b2819b16744f8ba7c2df929e92111cc1a2",
    "L1/partition-k2-d0": "b717c931574185251abf97e6a262f19d53f603ca2e3d273bcdba9c2c2c42ae3a",
    "L1/partition-k2-d1": "dbcb7f3ae4164500c27aa81f3007649e705f2580afa5f2c3d4d88d3d33dd7b9a",
    "L1/partition-k3-d1": "b5e89e4531a01314ed49ee6e81670e6dc01ded3d327d1a23dc668c638352f39a",
    "L1/partition-k3-d2": "1b7b2b02a159a13402462cb2ebb73d19905bacacc10d183aaba5e1a39fa2cd46",
    "L2/centers-k2": "c1d4392b1413466be829594a0fddbd1270a9529b8e59f57226346c18f79c5852",
    "L2/centers-k3": "eefd7f9d6e17378297e1269f43eced0b011a65b116e2f5ec053d7079e384ff53",
    "L2/partition-k2-d0": "9f3fb5f8b605ac8c0eb76472f60ef0cc22d43bb9343157731f23be1cb7cbf5db",
    "L2/partition-k2-d1": "4a1b30c5a60c6d8ff2b85f732245a35c9c0b2542309c7b975c1114a3288b7db0",
    "L2/partition-k3-d1": "7e30061dfd5e572c1d4daf5e2fc38c2e7cfe36128203d30e14f5d60c7e886939",
    "L2/partition-k3-d2": "45d00c92bd67642f6848cb668f485a1444dd7e6555882fe3e45622ddf9f57dac",
    "Linf/centers-k2": "35bc7b2a7811ad539da5091a7205a1dc19fd0df2e4a8e51142dd5f6ad119ef1e",
    "Linf/centers-k3": "6a55bfe8c8ca31578dc43ac169dcc05539e22c65d7acf391cdaaebe3efbf7570",
    "Linf/partition-k2-d0": "94819423d7afb7978fc604900901d450ae92a8fdbbfd48b9016bc73746ab4afe",
    "Linf/partition-k2-d1": "87761829f4327f2459cd4aeeaac22eef54bf8e0cfc3b404d80a48354257c2de9",
    "Linf/partition-k3-d1": "f30f53532e63f8bb7b8d9f15dd15b7d8e7031a2f9e88eeeca5c7aef5cc5edccb",
    "Linf/partition-k3-d2": "c4a6cbdd8e921042d9a208095a205dfe09efc7fa5bb514f988fa9654e4351ade",
}
LEARN_LOCK_JOBS = {
    "centers-k2": {"learner": "centers", "k": 2},
    "centers-k3": {"learner": "centers", "k": 3},
    "partition-k2-d0": {"learner": "partition", "k": 2, "depth": 0},
    "partition-k2-d1": {"learner": "partition", "k": 2, "depth": 1},
    "partition-k3-d1": {"learner": "partition", "k": 3, "depth": 1},
    "partition-k3-d2": {"learner": "partition", "k": 3, "depth": 2},
}


LEARN_LOCK_SCENARIOS = {
    "L1": lambda: gen_drifting_trajectories(71, k=2, drift_per_day=0.5, noise=0.5, T=12, dim=2, norm="L1"),
    "L2": lambda: gen_static_clusters(3, k=3, sep=20.0, spread=1.0, T=12, dim=2, norm="L2"),
    "Linf": lambda: gen_adversarial_switch(72, phases=3, T=12, dim=1, norm="Linf"),
}


def _learn_lock_artifacts(tmp_path, norms):
    """Each learn artifact of LEARN_LOCK_JOBS on the scenarios of ``norms``,
    as bytes, by "norm/job" name."""
    arts = {}
    for norm in norms:
        p = tmp_path / f"{norm}.json"
        p.write_text(LEARN_LOCK_SCENARIOS[norm]().to_json_text())
        for name, config in LEARN_LOCK_JOBS.items():
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"scenario": str(p), **config}))
            out = tmp_path / "art.json"
            assert main(["learn", "--config", str(cfg), "--out", str(out)]) == 0
            arts[f"{norm}/{name}"] = out.read_bytes()
    return arts


def test_learn_artifacts_are_byte_locked(tmp_path):
    arts = _learn_lock_artifacts(tmp_path, LEARN_LOCK_SCENARIOS)
    assert {name: hashlib.sha256(art).hexdigest() for name, art in arts.items()} == LEARN_LOCK_SHA256
    assert [name for name, art in arts.items() if b"median_capped" in art] == []


def test_a_capped_l2_median_reaches_the_artifact(tmp_path, monkeypatch):
    # k3-d2 splits the L2 scenario into parts whose medians one step settles.
    monkeypatch.setattr(kmedians, "MEDIAN_MAX_ITER", 1)
    monkeypatch.setattr(cli, "MEDIAN_MAX_ITER", 1)
    arts = _learn_lock_artifacts(tmp_path, ["L2"])
    capped = {name: json.loads(art)["median_capped"] for name, art in arts.items() if b"median_capped" in art}
    assert set(capped) == {"L2/partition-k2-d0", "L2/partition-k2-d1", "L2/partition-k3-d1"}
    assert all(entry["max_iter"] == 1 and entry["parts"] for entry in capped.values())


def test_depth_two_partition_learning_on_a_forty_day_scenario(tmp_path):
    # 20 training days give 768,286 threshold trees.  Built as a list and
    # labelled tree by tree they took about 12 s and 290 MiB on a 2-core
    # x86-64 machine; scored from split masks in blocks, well under a
    # second.  The pick is the one the tree list gave: a depth-1 split.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": str(GOLDEN / "drifting_k2_s102.json"), "learner": "partition", "k": 2, "depth": 2}))
    out = tmp_path / "art.json"
    start = time.perf_counter()
    assert main(["learn", "--config", str(cfg), "--out", str(out)]) == 0
    assert time.perf_counter() - start < 4.0
    art = json.loads(out.read_text())
    assert art["hypothesis"] == {
        "feature_indices": [0],
        "leaf_labels": [1, 2],
        "rotation": [1, 2],
        "thresholds": [8.086756384359276],
    }
    assert art["centers"] == [[0.03903915924050525, 2.564671974513185], [16.148322273401256, 8.139657278231391]]


def test_a_non_finite_output_exits_two(tmp_path, monkeypatch, capsys):
    # The magnitude rule keeps outputs finite; should a value slip through,
    # the strict dump fails loudly instead of writing invalid JSON.
    scen = gen_static_clusters(58, k=2, sep=100.0, spread=1.0, T=12, dim=2)
    p = tmp_path / "scen.json"
    p.write_text(scen.to_json_text())
    monkeypatch.setattr(cli, "cost_of_centers", lambda C, X, norm: math.inf)
    out = tmp_path / "art.json"
    assert main(["learn", "--scenario", str(p), "--k", "2", "--out", str(out)]) == 2
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit", ["infinite-baseline", "radius-beyond-floats", "ratio-overflows", "negative-baseline"]
)
def test_report_rejects_a_ledger_it_cannot_ratio(scen_file, tmp_path, capsys, edit):
    out = tmp_path / "ledger.json"
    assert main(["simulate", "--scenario", str(scen_file), "--strategy", "predict-yesterday", "--out", str(out)]) == 0
    ledger = json.loads(out.read_text())
    if edit == "infinite-baseline":
        ledger["baselines"]["planted"] = math.inf
    elif edit == "ratio-overflows":  # the radius over 1e-320 is beyond floats
        ledger["baselines"]["planted"] = 1e-320
    elif edit == "negative-baseline":
        ledger["baselines"]["planted"] = -1.0
    else:  # an int radius that a float ratio cannot convert
        ledger["days"][0]["radius_searched"] += 10**400
        ledger["totals"]["radius"] += 10**400
        ledger["totals"]["wall_estimate"] += 10**400
    out.write_text(json.dumps(ledger))
    capsys.readouterr()
    assert main(["report", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad ledger file") and err.count("\n") == 1


@pytest.mark.parametrize(
    "path, value",
    [
        (["days"], 5),
        (["days", 0, "radius_searched"], "3"),
        (["baselines"], 5),
        (["totals"], 5),
        (["baselines"], {"x": "a"}),
        (["scenario"], 5),
    ],
    ids=["days", "radius-string", "baselines", "totals", "baseline-string", "scenario"],
)
def test_report_rejects_a_ledger_of_the_wrong_types(scen_file, tmp_path, capsys, path, value):
    out = tmp_path / "ledger.json"
    assert main(["simulate", "--scenario", str(scen_file), "--strategy", "predict-yesterday", "--out", str(out)]) == 0
    ledger = json.loads(out.read_text())
    target = ledger
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    out.write_text(json.dumps(ledger))
    capsys.readouterr()
    assert main(["report", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad ledger file") and err.count("\n") == 1


# The planted scenario of the golden ledgers and artifacts: T = 8, so every
# k-trajectory baseline up to k = 3 is a number.
GOLDEN_SPEC = {
    "generator": "drifting_trajectories",
    "params": {"seed": 55, "k": 2, "drift_per_day": 0.5, "noise": 0.5, "T": 8, "dim": 2},
}
GOLDEN_RUNS = [("simulate", f"ledger_{s}.json", {"strategy": s, "k": 2, "baseline_ks": [1, 2, 3]}) for s in STRATEGIES]
GOLDEN_RUNS += [("learn", f"learn_{lr}.json", {"learner": lr, "k": 2}) for lr in ("centers", "partition")]


@pytest.mark.parametrize("command, golden, config", GOLDEN_RUNS, ids=[g for _, g, _ in GOLDEN_RUNS])
def test_outputs_match_the_golden_files(tmp_path, command, golden, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": GOLDEN_SPEC, **config}))
    out = tmp_path / "out.json"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # Each hash seed runs one simulate and one learn of the same config in a
    # fresh interpreter.
    cfg = tmp_path / "cfg.json"
    config = {"strategy": "kserver-wfa", "k": 2, "baseline_ks": [1, 2], "learner": "partition"}
    cfg.write_text(json.dumps({"scenario": GOLDEN_SPEC, **config}))
    code = (
        f"import sys; from warmstart.cli import main; d = sys.argv[1]; "
        f"assert main(['simulate', '--config', {str(cfg)!r}, '--out', d + '/ledger.json']) == 0; "
        f"assert main(['learn', '--config', {str(cfg)!r}, '--out', d + '/art.json']) == 0"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for seed in ("0", "1", "98765"):
        run_dir = tmp_path / f"hash{seed}"
        run_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", code, str(run_dir)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(((run_dir / "ledger.json").read_bytes(), (run_dir / "art.json").read_bytes()))
    assert len(outputs) == 1


_plain_sum = sum


def compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 adds floats: with Neumaier's compensation, so
    ``compensated_sum([0.1] * 10)`` is 1.0 where 3.11's ``sum`` gives
    0.9999999999999999.  Sums without a float are left to ``sum``."""
    items = list(iterable)
    if not any(type(x) is float for x in [start, *items]):
        return _plain_sum(items, start)
    total = compensation = 0.0
    for x in map(float, [start, *items]):
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation


def test_outputs_do_not_depend_on_how_sum_adds_floats(tmp_path, monkeypatch):
    # Every simulate strategy and both learners, run once with 3.11's sum and
    # once with 3.12's compensated float sum in its place, write the same
    # bytes.  No float goes through sum today (float sums are left-to-right
    # loops or cumsums); this keeps the outputs from depending on the next
    # one's Python version.
    import builtins

    assert compensated_sum([0.1] * 10) == 1.0 != sum([0.1] * 10)
    assert compensated_sum([1, 2], 3) == 6 and compensated_sum([], 0.5) == 0.5
    runs = [("simulate", {"strategy": s, "k": 2, "baseline_ks": [1, 2, 3]}) for s in STRATEGIES]
    runs += [("learn", {"learner": lr, "k": 2}) for lr in ("centers", "partition")]

    def outputs():
        got = []
        for i, (command, config) in enumerate(runs):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps({"scenario": GOLDEN_SPEC, **config}))
            out = tmp_path / f"out{i}.json"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            got.append(out.read_bytes())
        return got

    plain = outputs()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert outputs() == plain


@pytest.mark.parametrize("where", ["meta", "solution"])
def test_a_scenario_file_with_nan_or_infinity_exits_one(scen_file, tmp_path, capsys, where):
    # NaN and Infinity are not JSON: json.dumps writes them, json.loads reads
    # them, and the scenario reader refuses them.
    scen = json.loads(scen_file.read_text())
    if where == "meta":
        scen["meta"]["params"]["noise"] = math.inf
    else:
        scen["days"][2]["solution"][1] = math.nan
    scen_file.write_text(json.dumps(scen))
    out = tmp_path / "ledger.json"
    assert main(["simulate", "--scenario", str(scen_file), "--strategy", "predict-yesterday", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad scenario file") and err.count("\n") == 1, err
    assert ("Infinity" if where == "meta" else "NaN") in err
    assert not out.exists()


def test_report_to_an_ascii_standard_output_writes_utf8(scen_file, tmp_path):
    # Standard output gets UTF-8 bytes whatever its encoding; a fresh
    # interpreter gives it a real standard output, which pytest's capture
    # does not.
    out = tmp_path / "ledger.json"
    assert main(["simulate", "--scenario", str(scen_file), "--strategy", "predict-yesterday", "--out", str(out)]) == 0
    ledger = json.loads(out.read_text())
    ledger["scenario"] = "café"
    out.write_text(json.dumps(ledger))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "from warmstart.cli import entry; entry()", "report", str(out)],
        capture_output=True, env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "ascii"},
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert main(["report", str(out), "--out", str(tmp_path / "report.csv")]) == 0
    assert proc.stdout == (tmp_path / "report.csv").read_bytes()
    assert proc.stdout.split(b"\n")[1].startswith("café,".encode())
