"""Deterministic scenario generators and the scenario file format.

All randomness flows through one Philox4x64-10 counter-based stream keyed
on the scenario seed, so regenerating with the same parameters is
byte-identical and portable.  The stream is the package's own (``_Philox``)
and draws the same numbers as numpy's Philox bit generator, without loading
``numpy.random``.  Serialized scenarios are versioned JSON with sorted keys
and full-precision floats.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator

import numpy as np

from .ledger import _reject_constant
from .metric import L2, NORMS, Point, distance_matrix
from .trajectories import TrajectorySet, trajectory_cost

SCHEMA_VERSION = 1


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_numbers(vectors: list, what: str) -> None:
    """Raise ``TypeError`` unless each of ``vectors`` (parsed JSON) is an
    array of numbers: ``int`` or ``float``, not ``bool``, a string, null or
    an object.  ``float`` alone would take a string, ``numpy`` a bool, and
    ``tuple`` an object's keys or a string's characters."""
    lists = set(map(type, vectors)) <= {list}
    if not (lists and set(map(type, itertools.chain.from_iterable(vectors))) <= {int, float}):
        raise TypeError(f"{what} must be an array of numbers")


def _coordinate_array(vectors: list, dim: int, what: str) -> np.ndarray:
    """The (T, dim) float array of the days' coordinate ``vectors`` (parsed
    JSON), checked: ``TypeError`` unless each is an array of numbers,
    ``ValueError`` unless each has ``dim`` of them, all in the float range."""
    _check_numbers(vectors, f"each day's {what}")
    for t, v in enumerate(vectors, start=1):
        if len(v) != dim:
            raise ValueError(f"day {t} is not in dimension {dim}: its {what} has {len(v)} coordinates")
    try:
        return np.array(vectors, dtype=float)
    except OverflowError as e:  # an int beyond the float range
        raise ValueError(f"a day's {what} is out of the float range: {e}") from None


def _check_numbering(days: list) -> None:
    if not set(map(type, days)) <= {int} or days != list(range(1, len(days) + 1)):
        raise ValueError(f"scenario days must be numbered 1..{len(days)} in order")


class Scenario:
    """Days 1..T in one dimension and one norm, each with a hidden solution,
    held as arrays: ``features`` (T, dim), and ``coords`` (T + 1, dim), the
    origin and then the solutions of days 1..T, over which ``distances`` is
    the table.  ``points`` and ``solutions()`` (Points of ``coords``) are
    built on first use.

    Construction from the ``features`` and ``solutions`` arrays raises
    ``ValueError`` unless the name is a string, ``dim`` an integer >= 1, the
    norm in ``NORMS``, both arrays (T, dim) with T >= 1 and finite, ``meta``
    a dict, and ``meta["planted"]``, if any, a trajectory set with an
    integer k over days 1..t (1 <= t <= T) in dimension ``dim``, parsed into
    ``planted``.  ``from_json_text`` builds a scenario from a file's text.
    """

    def __init__(self, name: str, seed: int, dim: int, norm: str, features, solutions, meta=None):
        if not isinstance(name, str):
            raise ValueError("scenario name must be a string")
        if not (_is_int(dim) and dim >= 1):
            raise ValueError(f"scenario dim must be an integer >= 1, got {dim!r}")
        if norm not in NORMS:
            raise ValueError(f"unknown norm {norm!r}; expected one of {', '.join(NORMS)}")
        features, solutions = np.asarray(features, dtype=float), np.asarray(solutions, dtype=float)
        if not len(features):
            raise ValueError("scenario has no days")
        if features.shape != (len(features), dim) or solutions.shape != features.shape:
            raise ValueError(f"the features and solutions must both be (T, {dim}) arrays")
        if not (np.isfinite(features).all() and np.isfinite(solutions).all()):
            raise ValueError("a day has a non-finite coordinate")  # a literal such as 1e400 parses as inf
        if meta is None:
            meta = {}
        if not isinstance(meta, dict):
            raise ValueError("scenario meta must be an object")
        self.name, self.seed, self.dim, self.norm = name, seed, dim, norm
        self.features = features
        self.coords = np.concatenate([np.zeros((1, dim)), solutions])
        self.meta = meta
        self.planted: TrajectorySet | None = None
        if "planted" in meta:
            try:
                planted = traj_from_jsonable(meta["planted"])
            except (AttributeError, KeyError, TypeError, ValueError) as e:
                raise ValueError(f"bad planted trajectory in scenario meta: {e!r}") from e
            dims = {p.dim for p in planted.predictions.values()}
            if not _is_int(planted.k) or not 1 <= planted.T <= self.T or dims != {dim}:
                raise ValueError(
                    f"the planted trajectory must have an integer k and cover days 1..t, "
                    f"t in 1..{self.T}, in dimension {dim}"
                )
            self.planted = planted

    @property
    def T(self) -> int:
        return len(self.features)

    def solutions(self) -> dict[int, Point]:
        return dict(enumerate(self.points[1:], start=1))

    @functools.cached_property
    def points(self) -> list[Point]:
        """The origin, then the solutions of days 1..T: index t is day t."""
        return [Point(x) for x in self.coords.tolist()]

    @functools.cached_property
    def distances(self) -> np.ndarray:
        """The distance table over ``points``; an entry may overflow to inf."""
        with np.errstate(over="ignore"):
            return distance_matrix(self.coords, self.norm)

    @property
    def d_max(self) -> float:
        """The largest distance between two solutions (0.0 for T = 1)."""
        return float(self.distances[1:, 1:].max())

    def to_json_text(self) -> str:
        d = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "seed": self.seed,
            "dim": self.dim,
            "norm": self.norm,
            "d_max": self.d_max,
            "days": [
                {"day": t, "features": f, "solution": x}
                for t, (f, x) in enumerate(zip(self.features.tolist(), self.coords[1:].tolist()), start=1)
            ],
            "meta": self.meta,
        }
        try:
            return json.dumps(d, sort_keys=True, indent=1, allow_nan=False) + "\n"
        except ValueError as e:  # NaN and the infinities are not JSON
            what = "meta holds one" if np.isfinite(self.d_max) else f"d_max is {self.d_max!r}"
            raise ValueError(f"scenario {self.name!r} has a non-finite number: {what}") from e

    @staticmethod
    def from_json_text(text: str) -> "Scenario":
        """The scenario of a file's text.  The same rules as construction
        hold, the days must be numbered 1..T, and every feature and solution
        must be a JSON array of ``dim`` numbers (``TypeError`` if not
        numbers) that are finite as floats."""
        d = json.loads(text, parse_constant=_reject_constant)
        if d["schema_version"] != SCHEMA_VERSION:
            raise ValueError(f"unsupported scenario schema {d['schema_version']}")
        entries, dim = d["days"], d["dim"]
        _check_numbering([e["day"] for e in entries])
        features = _coordinate_array([e["features"] for e in entries], dim, "features")
        solutions = _coordinate_array([e["solution"] for e in entries], dim, "solution")
        return Scenario(d["name"], d["seed"], dim, d["norm"], features, solutions, d["meta"])


def traj_to_jsonable(traj: TrajectorySet) -> dict:
    return {
        "k": traj.k,
        "assignment": {str(t): i for t, i in traj.assignment.items()},
        "predictions": {
            str(t): list(p.coords) for t, p in traj.predictions.items()
        },
    }


def traj_from_jsonable(d: dict) -> TrajectorySet:
    """The trajectory set of its JSON form; each prediction must be an array
    of numbers and each assignment an integer (``TypeError`` if not), and
    each day key the day as ``str`` writes it (``ValueError`` if not: ``int``
    would also read ``"01"``, ``" 1"``, ``"+1"`` and ``"0_1"`` as day 1)."""
    _check_numbers(list(d["predictions"].values()), "each planted prediction")
    if not set(map(type, d["assignment"].values())) <= {int}:
        raise TypeError("planted assignments must be integers")
    return TrajectorySet(
        k=d["k"],
        assignment={_day(t): i for t, i in d["assignment"].items()},
        predictions={_day(t): Point(c) for t, c in d["predictions"].items()},
    )


def _day(key: str) -> int:
    t = int(key)
    if key != str(t):
        raise ValueError(f"planted day key {key!r} is not written as {str(t)!r}")
    return t


_MASK64 = (1 << 64) - 1
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


class _Philox:
    """A Philox4x64-10 stream whose ``uniform`` and ``integers`` return, bit
    for bit, what ``numpy.random.Generator(numpy.random.Philox(key=key))``
    returns for the same calls in the same order.

    The 256-bit counter starts at 0 and is incremented before each block of
    four 64-bit words, which are handed out in order.  A double is
    ``(word >> 11) * 2**-53``.  ``integers`` takes 32-bit halves of a word,
    low half first, and keeps the high half for its next draw; ``uniform``
    always takes a whole new word.
    """

    def __init__(self, key: int):
        key = operator.index(key)
        if not 0 <= key < 1 << 128:
            raise ValueError("key must be positive and less than 2**128.")
        self._key = (key & _MASK64, key >> 64)
        self._counter = 0
        self._words: list[int] = []  # the rest of the current block, last word first
        self._high_half: int | None = None

    def _next64(self) -> int:
        if not self._words:
            self._counter = (self._counter + 1) & ((1 << 256) - 1)
            c = self._counter
            c0, c1, c2, c3 = c & _MASK64, (c >> 64) & _MASK64, (c >> 128) & _MASK64, c >> 192
            k0, k1 = self._key
            for _ in range(10):
                p0, p1 = _PHILOX_M0 * c0, _PHILOX_M1 * c2
                c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
                k0, k1 = (k0 + _PHILOX_W0) & _MASK64, (k1 + _PHILOX_W1) & _MASK64
            self._words = [c3, c2, c1, c0]
        return self._words.pop()

    def _next32(self) -> int:
        if self._high_half is not None:
            half, self._high_half = self._high_half, None
            return half
        word = self._next64()
        self._high_half = word >> 32
        return word & 0xFFFFFFFF

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        """``size`` draws of ``low + (high - low) * u`` with u in [0, 1).  A
        non-finite span gives non-finite draws, which ``Scenario`` rejects."""
        span = high - low
        return np.array([low + span * ((self._next64() >> 11) * 2.0**-53) for _ in range(size)])

    def integers(self, high: int) -> int:
        """A draw from 0..high-1, for 1 <= high <= 2**63, by Lemire's
        multiply-and-reject: 32-bit draws while high <= 2**32, 64-bit ones
        above."""
        high = operator.index(high)
        if high < 1:
            raise ValueError("high <= 0")
        if high == 1:
            return 0
        bits, draw = (32, self._next32) if high <= 1 << 32 else (64, self._next64)
        threshold = (1 << bits) % high
        m = draw() * high
        while m & ((1 << bits) - 1) < threshold:
            m = draw() * high
        return m >> bits


def _uniform_point(rng, center: np.ndarray, radius: float) -> np.ndarray:
    """A point whose offset from ``center`` has norm at most ``radius`` in
    L1, L2, and Linf alike (per-coordinate range radius/dim)."""
    dim = len(center)
    if radius <= 0:
        return center.copy()
    return center + rng.uniform(-radius / dim, radius / dim, dim)


def gen_static_clusters(
    seed: int, k: int, sep: float, spread: float, T: int, dim: int, norm: str = L2
) -> Scenario:
    """k cluster centers at mutual distance >= sep; each day draws a cluster
    uniformly and a solution within ``spread`` of its center.  Features track
    the solution closely, so threshold partitions can succeed."""
    if k < 1:
        raise ValueError("need k >= 1")
    if sep <= 0 or spread < 0:
        raise ValueError("need sep > 0 and spread >= 0")
    rng = _Philox(seed)
    centers = np.zeros((k, dim))
    for j in range(k):
        centers[j, 0] = (j + 1) * sep
    labels, features, solutions = [], [], []
    for _ in range(T):
        lab = int(rng.integers(k))
        labels.append(lab + 1)
        sol = _uniform_point(rng, centers[lab], spread)
        features.append(_uniform_point(rng, sol, 0.01 * max(spread, 1.0)))
        solutions.append(sol)
    meta = {
        "generator": "static_clusters",
        "params": {"k": k, "sep": sep, "spread": spread, "T": T, "dim": dim},
        "centers": [list(map(float, c)) for c in centers],
        "labels": labels,
    }
    return Scenario(f"static_clusters_k{k}_s{seed}", seed, dim, norm, features, solutions, meta)


def gen_drifting_trajectories(
    seed: int,
    k: int,
    drift_per_day: float,
    noise: float,
    T: int,
    dim: int,
    norm: str = L2,
) -> Scenario:
    """k latent trajectories, each moving at most ``drift_per_day`` per day;
    days emit from the trajectories round-robin, with solutions within
    ``noise`` of the emitting trajectory's position.  The latent trajectory
    set is planted in the metadata; its cost (``planted_baseline``) is the
    scenario baseline."""
    if k < 1:
        raise ValueError("need k >= 1")
    if drift_per_day < 0 or noise < 0:
        raise ValueError("need nonnegative drift and noise")
    rng = _Philox(seed)
    pos = np.zeros((k, dim))
    for j in range(k):
        pos[j] = rng.uniform(0.0, 10.0, dim)
        pos[j, 0] += 15.0 * j
    assignment: dict[int, int] = {}
    predictions: dict[int, Point] = {}
    features, solutions = [], []
    for t in range(1, T + 1):
        for j in range(k):
            pos[j] = _uniform_point(rng, pos[j], drift_per_day)
        i = ((t - 1) % k) + 1
        predictions[t] = Point(pos[i - 1])
        sol = _uniform_point(rng, pos[i - 1], noise)
        features.append(_uniform_point(rng, sol, 0.01))
        solutions.append(sol)
        assignment[t] = i
    planted = TrajectorySet(k=k, assignment=assignment, predictions=predictions)
    meta = {
        "generator": "drifting_trajectories",
        "params": {
            "k": k,
            "drift_per_day": drift_per_day,
            "noise": noise,
            "T": T,
            "dim": dim,
        },
        "planted": traj_to_jsonable(planted),
    }
    return Scenario(f"drifting_k{k}_s{seed}", seed, dim, norm, features, solutions, meta)


def gen_planted_lower_bound(
    seed: int, k: int, sep: float, T: int, dim: int, norm: str = L2
) -> Scenario:
    """k far-apart planted solutions; each day picks one uniformly.  Features
    are constant (uninformative), exhibiting the parallel-search lower bound."""
    if k < 1:
        raise ValueError("need k >= 1")
    if sep <= 1:
        raise ValueError("need sep >> 1")
    rng = _Philox(seed)
    planted = np.zeros((k, dim))
    for j in range(k):
        planted[j, 0] = (j + 1) * sep
    draws = [int(rng.integers(k)) for _ in range(T)]
    meta = {
        "generator": "planted_lower_bound",
        "params": {"k": k, "sep": sep, "T": T, "dim": dim},
        "planted_points": [list(map(float, p)) for p in planted],
        "choices": [c + 1 for c in draws],
    }
    features = np.zeros((len(draws), dim))
    return Scenario(f"planted_lb_k{k}_s{seed}", seed, dim, norm, features, planted[draws], meta)


def gen_adversarial_switch(
    seed: int,
    phases: int,
    T: int,
    dim: int,
    jump: float = 1000.0,
    jitter: float = 1.0,
    norm: str = L2,
) -> Scenario:
    """Solutions dwell near one region per phase, then jump far to the next.

    By the time of each switch, the previous same-region solution sits deep
    in a recency-ordered thread list, stressing rank promotion."""
    if phases < 1 or T < phases:
        raise ValueError("need 1 <= phases <= T")
    if jitter < 0:
        raise ValueError("need jitter >= 0")
    rng = _Philox(seed)
    features, solutions = [], []
    for t in range(1, T + 1):
        p = min(phases - 1, (t - 1) * phases // T)
        center = np.zeros(dim)
        center[0] = (p + 1) * jump
        sol = _uniform_point(rng, center, jitter)
        features.append(_uniform_point(rng, sol, 0.01))
        solutions.append(sol)
    meta = {
        "generator": "adversarial_switch",
        "params": {
            "phases": phases,
            "T": T,
            "dim": dim,
            "jump": jump,
            "jitter": jitter,
        },
    }
    return Scenario(f"switch_p{phases}_s{seed}", seed, dim, norm, features, solutions, meta)


GENERATORS = {
    "static_clusters": gen_static_clusters,
    "drifting_trajectories": gen_drifting_trajectories,
    "planted_lower_bound": gen_planted_lower_bound,
    "adversarial_switch": gen_adversarial_switch,
}


def generate(generator: str, **params) -> Scenario:
    """The named generator's scenario.  A draw that overflows is inf or nan,
    which ``Scenario`` rejects, and numpy warns of none of them."""
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        return GENERATORS[generator](**params)


def default_corpus() -> list[Scenario]:
    """The scenario corpus the online strategies are verified against."""
    return [
        gen_drifting_trajectories(101, k=1, drift_per_day=0.5, noise=0.5, T=40, dim=2),
        gen_drifting_trajectories(102, k=2, drift_per_day=0.5, noise=0.5, T=40, dim=2),
        gen_drifting_trajectories(103, k=3, drift_per_day=0.5, noise=0.5, T=40, dim=2),
        gen_static_clusters(201, k=3, sep=100.0, spread=1.0, T=30, dim=2),
        gen_adversarial_switch(301, phases=4, T=20, dim=1),
        gen_drifting_trajectories(401, k=1, drift_per_day=0.0, noise=0.0, T=10, dim=2),
    ]


def planted_baseline(scenario: Scenario) -> float | None:
    """The planted trajectory cost, for scenarios that carry one."""
    if scenario.planted is None:
        return None
    _, _, total = trajectory_cost(scenario.planted, scenario.solutions(), scenario.norm)
    return total
