"""Cost accounting: per-day ledgers, run totals, baselines, and ratios.

Ledgers serialize to a versioned, sorted-key JSON text with full-precision
decimal floats, so identical runs produce byte-identical files and files
round-trip exactly.  The writer emits that fixed layout itself, the same
bytes as ``dumps_strict`` of the ledger's fields, without ``json``'s
pure-Python indenting encoder.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii

from .errors import InvariantViolation

SCHEMA_VERSION = 1


def dumps_strict(obj) -> str:
    """Sorted-key JSON text, one space per indent level, with a final
    newline.  NaN and infinities are not JSON, and the load-time magnitude
    rule keeps every output finite, so one here raises
    ``InvariantViolation``."""
    try:
        return json.dumps(obj, sort_keys=True, indent=1, allow_nan=False) + "\n"
    except ValueError as e:
        raise InvariantViolation(f"non-finite value in output: {e}") from e


# The JSON type of each top-level ledger field that ``from_dict`` reads.
_FIELD_TYPES = {
    "scenario": str,
    "strategy": str,
    "params": dict,
    "days": list,
    "totals": dict,
    "baselines": dict,
    "ratios": dict,
}


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def _value(v, pad: str) -> str:
    """``dumps_strict`` text of ``v`` as it stands in a line that starts
    with ``pad``: a scalar directly, anything else through ``dumps_strict``
    and re-indented, which raises on a non-finite float."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float) and math.isfinite(v):
        return float.__repr__(v)
    return dumps_strict(v)[:-1].replace("\n", "\n" + pad)


def _object(d: dict[str, object], pad: str) -> str:
    """``dumps_strict`` text of ``d``, a dict with string keys, whose first
    line starts with ``pad``: sorted keys, one ``_value`` each."""
    if not d:
        return "{}"
    inner = pad + " "
    items = [f"{inner}{encode_basestring_ascii(k)}: {_value(d[k], inner)}" for k in sorted(d)]
    return "{\n" + ",\n".join(items) + "\n" + pad + "}"


# One ``days`` row: the five fields of a DayLedger in sorted key order.
_DAY_ROW = (
    '  {\n   "day": %d,\n   "overhead_work": %d,\n   "radius_searched": %d,'
    '\n   "solver_thread": %d,\n   "virtual_radius": %d\n  }'
)


@dataclass
class DayLedger:
    """Accounting for one simulated day.

    ``solver_thread`` is the source day of the completing thread (0 for the
    origin thread; for the k-server reduction it is the 1-based index of the
    completing server).
    """

    day: int
    radius_searched: int
    overhead_work: int
    virtual_radius: int
    solver_thread: int

    def __post_init__(self):
        if not (
            type(self.day) is type(self.radius_searched) is type(self.overhead_work)
            is type(self.virtual_radius) is type(self.solver_thread) is int
        ):
            raise ValueError("day ledger fields must be integers")
        if not (self.radius_searched >= self.virtual_radius >= 1):
            raise ValueError("need radius_searched >= virtual_radius >= 1")
        if self.overhead_work < 0:
            raise ValueError("negative overhead")


@dataclass
class CostLedger:
    """Full accounting for one strategy run over one scenario."""

    scenario: str
    strategy: str
    params: dict
    days: list[DayLedger]
    baselines: dict[str, float | None] = field(default_factory=dict)
    ratios: dict[str, float] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def total_radius(self) -> int:
        return sum(d.radius_searched for d in self.days)

    @property
    def total_overhead(self) -> int:
        return sum(d.overhead_work for d in self.days)

    @property
    def wall_estimate(self) -> int:
        return self.total_radius + self.total_overhead

    def attach_baseline(self, name: str, value: float | None) -> None:
        """Record a baseline cost; None marks it unavailable (cap exceeded)."""
        self.baselines[name] = value
        if value is not None and value > 0:
            self.ratios[name] = self.total_radius / value

    def to_json_text(self) -> str:
        """``dumps_strict`` of the ledger's fields and totals, emitted in
        its fixed layout; ``InvariantViolation`` on a non-finite float."""
        days = ",\n".join(
            _DAY_ROW % (d.day, d.overhead_work, d.radius_searched, d.solver_thread, d.virtual_radius)
            for d in self.days
        )
        radius, overhead = self.total_radius, self.total_overhead
        totals = {"overhead": overhead, "radius": radius, "wall_estimate": radius + overhead}
        return (
            '{\n "baselines": ' + _object(self.baselines, " ")
            + ',\n "days": ' + (f"[\n{days}\n ]" if self.days else "[]")
            + ',\n "params": ' + _object(self.params, " ")
            + ',\n "ratios": ' + _object(self.ratios, " ")
            + ',\n "scenario": ' + _value(self.scenario, " ")
            + ',\n "schema_version": ' + _value(self.schema_version, " ")
            + ',\n "strategy": ' + _value(self.strategy, " ")
            + ',\n "totals": ' + _object(totals, " ")
            + "\n}\n"
        )

    @staticmethod
    def from_dict(d: dict) -> "CostLedger":
        """The ledger a JSON object holds; ``ValueError`` if a field is
        missing (``KeyError``), of the wrong type, or inconsistent, or if a
        baseline is negative or so small that the ratio to it overflows."""
        if not isinstance(d, dict):
            raise ValueError("a ledger must be a JSON object")
        if d["schema_version"] != SCHEMA_VERSION:
            raise ValueError(f"unsupported ledger schema {d['schema_version']}")
        for key, kind in _FIELD_TYPES.items():
            if not isinstance(d[key], kind):
                raise ValueError(f"ledger {key} must be a JSON {kind.__name__}")
        day_fields = [f.name for f in fields(DayLedger)]
        for e in d["days"]:
            if not (isinstance(e, dict) and all(type(e[f]) is int for f in day_fields)):
                raise ValueError(f"ledger days need integer fields {', '.join(day_fields)}")
        for name, v in d["baselines"].items():
            if not (v is None or type(v) in (int, float)):
                raise ValueError(f"baseline {name} must be a number or null")
        ledger = CostLedger(
            scenario=d["scenario"],
            strategy=d["strategy"],
            params=d["params"],
            days=[DayLedger(**{f: e[f] for f in day_fields}) for e in d["days"]],
            baselines=dict(d["baselines"]),
            ratios=dict(d["ratios"]),
        )
        totals = d["totals"]
        if (
            totals["radius"] != ledger.total_radius
            or totals["overhead"] != ledger.total_overhead
            or totals["wall_estimate"] != ledger.wall_estimate
        ):
            raise ValueError("ledger totals do not match per-day entries")
        if not ledger.wall_estimate <= sys.float_info.max:
            raise ValueError("ledger totals are beyond the float range")
        for name, v in ledger.baselines.items():
            if v is not None and v < 0:
                raise ValueError(f"baseline {name} is negative")
            if v and not math.isfinite(ledger.total_radius / v):
                raise ValueError(f"the ratio to baseline {name} overflows")
        return ledger

    @staticmethod
    def from_json_text(text: str) -> "CostLedger":
        return CostLedger.from_dict(json.loads(text, parse_constant=_reject_constant))
