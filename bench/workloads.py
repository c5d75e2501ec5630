"""The benchmark's workloads: which scenarios each one generates and which
`warmstart simulate` / `warmstart learn` jobs it runs on them.

A workload is built from its seed alone.  ``build`` generates the scenarios
with the package's own generators and returns them with a job list; ``write``
turns that into the scenario and config files the jobs read.  Both are part
of the timed set-up, since a user pays them before any CLI run.

Sizes are chosen so that one round of a workload (its whole job list) takes
a few seconds on a 2-core machine and holds more than 100 jobs, so that more
than ten job times lie beyond the 90th percentile.  Every
``kserver-wfa`` job runs on a scenario with at most 12 distinct solutions,
so the work-function table never hits its cap and silently turns greedy;
every ``parallel-k`` job has k <= T; depth-2 partition learning only sees
training sets of 3 or 4 points.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("corpus", "horizon", "far-jump", "learn")

NORMS = ("L1", "L2", "Linf")
ALL_BASELINE_KS = [1, 2, 3]


@dataclass(frozen=True)
class Job:
    """One CLI run: ``command`` is ``simulate`` or ``learn``; ``config`` holds
    every config key except the scenario and output paths."""

    name: str
    command: str
    scenario: int  # index into the workload's scenario list
    config: dict


def _seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def _simulate_jobs(scen_index, strategies, baseline_ks):
    jobs = []
    for strategy, k in strategies:
        config = {"strategy": strategy, "baseline_ks": baseline_ks}
        name = strategy if k is None else f"{strategy}-k{k}"
        if k is not None:
            config["k"] = k
        jobs.append(Job(f"s{scen_index:02d}-{name}", "simulate", scen_index, config))
    return jobs


def _ks(strategy):
    return [(strategy, k) for k in (1, 2, 3)]


DECAY_AND_YESTERDAY = [
    ("predict-yesterday", None),
    ("quadratic-decay", None),
    ("harmonic-decay", None),
]
NO_WFA = DECAY_AND_YESTERDAY + _ks("kserver-greedy") + _ks("parallel-k")
EVERY_STRATEGY = NO_WFA + _ks("kserver-wfa")


def _corpus(ws, seeds, tiny):
    # The default corpus is fixed (it ignores the seed).  Its 20- to 40-day
    # scenarios have more than 12 distinct solutions, so kserver-wfa would
    # fall back to greedy on them; WFA runs only on the 8-day variants.
    base = ws.default_corpus()
    if tiny:
        base = [s for s in base if s.T <= 10]
    scens, jobs = [], []
    for sc in base:
        jobs += _simulate_jobs(len(scens), NO_WFA, ALL_BASELINE_KS)
        scens.append(sc)
    gens = [
        lambda s, norm: ws.gen_drifting_trajectories(
            s, k=2, drift_per_day=0.5, noise=0.5, T=8, dim=2, norm=norm
        ),
        lambda s, norm: ws.gen_static_clusters(
            s, k=3, sep=100.0, spread=1.0, T=8, dim=2, norm=norm
        ),
        lambda s, norm: ws.gen_adversarial_switch(s, phases=4, T=8, dim=1, norm=norm),
    ]
    for norm in ("L1", "Linf"):
        for gen in gens[:1] if tiny else gens:
            jobs += _simulate_jobs(len(scens), EVERY_STRATEGY, ALL_BASELINE_KS)
            scens.append(gen(next(seeds), norm))
    return scens, jobs


def _horizon(ws, seeds, tiny):
    # A fine geometric ladder of horizons (x1.1 per step) rather than a few
    # far-apart sizes: job times then form a continuous spread, so the median
    # and the 90th percentile do not sit in a gap between two sizes.
    ladder = [round(10 * 1.1**i) for i in range(30)]
    if tiny:
        ladder = ladder[:2]
    strategies = DECAY_AND_YESTERDAY + [("kserver-greedy", 3)]
    scens, jobs = [], []
    for T in ladder:
        jobs += _simulate_jobs(len(scens), strategies, ALL_BASELINE_KS)
        scens.append(
            ws.gen_drifting_trajectories(
                next(seeds), k=3, drift_per_day=0.5, noise=0.5, T=T, dim=2
            )
        )
    return scens, jobs


def _far_jump(ws, seeds, tiny):
    # Every scenario has T=6 (three phases), so the offline baselines and
    # the learners inside parallel-k stay tiny and all of them are exact.
    rungs = [(1e2, dim, norm) for dim in (1, 2, 3) for norm in NORMS]
    rungs += [(1e3, dim, norm) for dim in (1, 2, 3) for norm in NORMS]
    rungs += [(1e4, dim, norm) for dim, norm in ((1, "L1"), (2, "L2"), (3, "Linf"))]
    rungs += [(1e5, 2, "L2")]
    if tiny:
        rungs = [(1e2, 1, "L1"), (1e3, 2, "Linf")]
    scens, jobs = [], []
    for jump, dim, norm in rungs:
        jobs += _simulate_jobs(len(scens), NO_WFA, ALL_BASELINE_KS)
        scens.append(
            ws.gen_adversarial_switch(
                next(seeds), phases=3, T=6, dim=dim, jump=jump, norm=norm
            )
        )
    return scens, jobs


def _learn_jobs(scen_index, learners):
    jobs = []
    for learner, k, depth, frac in learners:
        config = {"learner": learner, "k": k, "train_frac": frac}
        name = f"{learner}-k{k}"
        if learner == "partition":
            config["depth"] = depth
            name += f"-d{depth}"
        jobs.append(Job(f"s{scen_index:02d}-{name}", "learn", scen_index, config))
    return jobs


def _learn(ws, seeds, tiny):
    shallow = [("centers", k, None, 0.5) for k in (2, 3)]
    shallow += [("partition", k, d, 0.5) for d in (0, 1) for k in (2, 3)]
    # Corpus-style generators in turn, on a ladder of training-set sizes
    # m = T/2 from 5 to 21, so job times spread without gaps.
    corpus_style = [
        lambda s, T, norm: ws.gen_drifting_trajectories(
            s, k=2, drift_per_day=0.5, noise=0.5, T=T, dim=2, norm=norm
        ),
        lambda s, T, norm: ws.gen_static_clusters(
            s, k=3, sep=100.0, spread=1.0, T=T, dim=2, norm=norm
        ),
        lambda s, T, norm: ws.gen_drifting_trajectories(
            s, k=3, drift_per_day=0.5, noise=0.5, T=T, dim=2, norm=norm
        ),
        lambda s, T, norm: ws.gen_adversarial_switch(s, phases=4, T=T, dim=1, norm=norm),
    ]
    plan = [
        (corpus_style[i % 4], 2 * m, NORMS[i % 3]) for i, m in enumerate(range(5, 22))
    ]
    if tiny:
        plan = plan[:1]
    scens, jobs = [], []
    for gen, T, norm in plan:
        jobs += _learn_jobs(len(scens), shallow)
        scens.append(gen(next(seeds), T, norm))
    # Depth 2 only on training sets of 3 (k=3) or 4 (k=2) points.
    small = [
        (lambda s: ws.gen_static_clusters(s, k=3, sep=100.0, spread=1.0, T=6, dim=2, norm="Linf"), 3),
        (lambda s: ws.gen_drifting_trajectories(s, k=2, drift_per_day=0.5, noise=0.5, T=8, dim=2, norm="L2"), 2),
    ]
    for gen, k in small:
        jobs += _learn_jobs(len(scens), [("partition", k, 2, 0.5)])
        scens.append(gen(next(seeds)))
    if not tiny:
        # C(190, 3) exceeds the subset-ERM cap, so this job takes the
        # local-search path.
        jobs += _learn_jobs(len(scens), [("centers", 3, None, 0.95)])
        scens.append(
            ws.gen_static_clusters(next(seeds), k=3, sep=100.0, spread=1.0, T=200, dim=2, norm="L1")
        )
    return scens, jobs


_BUILDERS = {"corpus": _corpus, "horizon": _horizon, "far-jump": _far_jump, "learn": _learn}


def build(workload: str, seed: int, tiny: bool = False):
    """Generate the workload's scenarios and job list from ``seed``.

    Imports ``warmstart.scenarios`` here, so the import is part of the
    set-up that calls it.  ``tiny`` keeps a few small scenarios of each
    workload, for the smoke test.
    """
    from warmstart import scenarios as ws

    return _BUILDERS[workload](ws, _seeds(workload, seed), tiny)


def write(directory: Path, scens, jobs) -> list[tuple[Job, list[str], Path, Path]]:
    """Write scenario and config files; return (job, argv, config, output)."""
    for sub in ("scenarios", "configs", "out"):
        (directory / sub).mkdir(parents=True, exist_ok=True)
    scen_paths = []
    for i, sc in enumerate(scens):
        path = directory / "scenarios" / f"{i:02d}.json"
        path.write_text(sc.to_json_text())
        scen_paths.append(path)
    runs = []
    for job in jobs:
        cfg_path = directory / "configs" / f"{job.name}.json"
        out_path = directory / "out" / f"{job.name}.json"
        config = dict(job.config, scenario=str(scen_paths[job.scenario]), out=str(out_path))
        cfg_path.write_text(json.dumps(config, sort_keys=True) + "\n")
        runs.append((job, [job.command, "--config", str(cfg_path)], cfg_path, out_path))
    return runs
