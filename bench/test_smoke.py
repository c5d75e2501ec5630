"""Smoke test of the benchmark: every workload at a tiny size passes every
check, and a wrong ledger value fails one.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py
"""

import json

import pytest

import checks
import run
import workloads


def _setup(workload, directory):
    scens, jobs = workloads.build(workload, seed=3, tiny=True)
    runs = workloads.write(directory, scens, jobs)
    scen_texts = [p.read_text() for p in sorted((directory / "scenarios").iterdir())]
    return runs, scen_texts


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_every_check(workload, tmp_path):
    runs, scen_texts = _setup(workload, tmp_path)
    rounds = [run.run_round(runs) for _ in range(2)]
    attempted, failed, _, unexpected = run.tally(runs, scen_texts, rounds)
    assert unexpected == []
    ops = sum(len(checks.simulate_op_names(j.config)) if j.command == "simulate" else 1 for j, *_ in runs)
    assert attempted == 2 * ops
    assert all(r.wall > 0 for r in rounds)


def test_traced_round_counts_layers_and_restores_the_program(tmp_path):
    from warmstart import metric, online, oracle

    originals = (metric.distance, online.distance, oracle.SearchThread.step)
    runs, _ = _setup("far-jump", tmp_path)
    tracer = run.Tracer()
    tracer.install()
    try:
        layers = run.run_round(runs, tracer).layers
    finally:
        tracer.uninstall()
    assert (metric.distance, online.distance, oracle.SearchThread.step) == originals
    assert layers["metric.distance_calls"] > 0 and layers["oracle.thread_steps"] > 0
    assert layers["online.decay_s"] > 0
    assert {s[3] for s in tracer.spans} == {job.name for job, *_ in runs}


def test_wrong_ledger_value_fails_a_check(tmp_path):
    runs, scen_texts = _setup("far-jump", tmp_path)
    r = run.run_round(runs)
    i = next(i for i, (job, *_) in enumerate(runs) if job.name.endswith("kserver-greedy-k3"))
    job, _, cfg, _ = runs[i]
    scen, config = json.loads(scen_texts[job.scenario]), json.loads(cfg.read_text())
    ledger = json.loads(r.outputs[i])
    assert all(op.error is None for op in checks.check_simulate(scen, config, ledger))

    ledger["days"][1]["solver_thread"] = ledger["days"][1]["solver_thread"] % 3 + 1
    assert checks.check_simulate(scen, config, ledger)[0].error

    ledger = json.loads(r.outputs[i])
    ledger["baselines"]["opt_kserver_k1"] *= 1.001
    errors = {op.name: op.error for op in checks.check_simulate(scen, config, ledger)}
    assert errors["opt_kserver_k1"] and "chain length" in errors["opt_kserver_k1"]
