"""Per-layer spans and counts for `warmstart`, recorded from outside it.

``Tracer.install`` replaces every binding of the traced functions, in every
loaded ``warmstart`` module (``from .metric import distance`` makes a second
binding in the importing module), with a wrapper; ``uninstall`` puts the
originals back.  Spans are kept in memory.  A span's self time is its
duration minus the durations of the spans directly inside it, so the
per-layer times of one round add up to the traced part of its wall time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# span name -> the functions it covers, as (module, attribute or Class.attribute)
SPANS = {
    "cli.self": [("cli", "main")],
    "scenarios.generate": [
        ("scenarios", name)
        for name in (
            "default_corpus",
            "gen_static_clusters",
            "gen_drifting_trajectories",
            "gen_planted_lower_bound",
            "gen_adversarial_switch",
            "Scenario.to_json_text",
        )
    ],
    "scenarios.load": [("scenarios", "Scenario.from_json_text")],
    "metric.pairwise_max": [("metric", "pairwise_max_distance")],
    "oracle.parallel_k": [("oracle", "run_parallel_k"), ("oracle", "run_parallel_k_detail")],
    "online.decay": [("online", "run_quadratic_decay")],
    "online.predict_yesterday": [("online", "predict_yesterday")],
    "online.kserver": [("online", "kserver_reduction")],
    "baselines.wfa": [("baselines", "wfa_step")],
    "baselines.flow": [("baselines", "offline_opt_kserver")],
    "baselines.traj": [("baselines", "brute_force_best_trajectories")],
    "kmedians.erm": [("kmedians", "learn_centers_subset_erm")],
    "kmedians.local_search": [("kmedians", "learn_centers_local_search")],
    "partition.enumerate": [("partition", "enumerate_threshold_trees")],
    "partition.rc_erm": [("partition", "rc_erm")],
    "trajectories.cost": [("trajectories", "trajectory_cost")],
    "ledger.dump": [("ledger", "CostLedger.to_json_text")],
}

# count name -> the function whose calls it counts
CALL_COUNTS = {
    "metric.distance_calls": ("metric", "distance"),
    "oracle.thread_steps": ("oracle", "SearchThread.step"),
    "online.rate_calls": ("online", "rate"),
    "online.subsume_checks": ("online", "subsume_check"),
    "baselines.wfa_steps": ("baselines", "wfa_step"),
    "kmedians.cost_of_centers_calls": ("kmedians", "cost_of_centers"),
    "partition.c_loss_calls": ("partition", "c_loss"),
}

# count name -> (function, what to add per call from its result)
RESULT_COUNTS = {
    "online.kills": (("online", "subsume_check"), lambda contained: int(bool(contained))),
    "partition.hypotheses": (("partition", "enumerate_threshold_trees"), len),
    "ledger.bytes": (("ledger", "CostLedger.to_json_text"), len),
}

# count name -> function whose CapExceeded raises it counts
CAP_COUNTS = {
    "baselines.wfa_fallbacks": ("baselines", "wfa_step"),
    "baselines.unavailable": ("baselines", "brute_force_best_trajectories"),
}

COUNT_NAMES = list(CALL_COUNTS) + list(RESULT_COUNTS) + list(CAP_COUNTS)
TIME_NAMES = [f"{span}_s" for span in SPANS]


class Tracer:
    def __init__(self):
        self.job = None  # identifier shared by the spans of one job
        self.spans: list[tuple] = []  # (id, parent id, name, job, start, end)
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [id, name, start, child time]
        self._next_id = 0
        self._restore: list[tuple] = []
        self._t0 = time.perf_counter()

    def take(self) -> dict:
        """Per-layer self times and counts since the last call, by metric name."""
        out = {name: self.self_time[name[: -len("_s")]] for name in TIME_NAMES}
        out.update({name: self.counts[name] for name in COUNT_NAMES})
        self.self_time.clear()
        self.counts.clear()
        return out

    def _enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.self_time[name] += duration - child
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, name, self.job, start - self._t0, end - self._t0))

    def _wrapper(self, fn, target):
        from warmstart.errors import CapExceeded

        span = next((s for s, ts in SPANS.items() if target in ts), None)
        calls = [c for c, t in CALL_COUNTS.items() if t == target]
        results = [(c, f) for c, (t, f) in RESULT_COUNTS.items() if t == target]
        caps = [c for c, t in CAP_COUNTS.items() if t == target]
        counts = self.counts

        if span is None and not results:

            def counted(*args, **kwargs):
                for c in calls:
                    counts[c] += 1
                return fn(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            for c in calls:
                counts[c] += 1
            if span:
                self._enter(span)
            try:
                result = fn(*args, **kwargs)
            except CapExceeded:
                for c in caps:
                    counts[c] += 1
                raise
            finally:
                if span:
                    self._exit()
            for c, f in results:
                counts[c] += f(result)
            return result

        return traced

    def install(self) -> None:
        import warmstart.cli  # noqa: F401  loads every module of the package

        modules = [m for n, m in sys.modules.items() if n == "warmstart" or n.startswith("warmstart.")]
        targets = {t for ts in SPANS.values() for t in ts}
        targets |= set(CALL_COUNTS.values()) | set(CAP_COUNTS.values())
        targets |= {t for t, _ in RESULT_COUNTS.values()}
        for target in sorted(targets):
            module = sys.modules[f"warmstart.{target[0]}"]
            if "." in target[1]:
                cls_name, attr = target[1].split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(self._wrapper(raw.__func__, target)))
                else:
                    setattr(cls, attr, self._wrapper(raw, target))
                self._restore.append((cls, attr, raw))
                continue
            fn = getattr(module, target[1])
            wrapper = self._wrapper(fn, target)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapper)
                        self._restore.append((m, name, fn))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()
