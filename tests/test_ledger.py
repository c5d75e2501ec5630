import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmstart.errors import InvariantViolation
from warmstart.ledger import CostLedger, DayLedger, dumps_strict


def to_dict(lg: CostLedger) -> dict:
    """The ledger as the JSON object its text holds: ``dumps_strict`` of
    this is the byte reference for ``CostLedger.to_json_text``."""
    return {
        "schema_version": lg.schema_version,
        "scenario": lg.scenario,
        "strategy": lg.strategy,
        "params": lg.params,
        "days": [
            {
                "day": d.day,
                "radius_searched": d.radius_searched,
                "overhead_work": d.overhead_work,
                "virtual_radius": d.virtual_radius,
                "solver_thread": d.solver_thread,
            }
            for d in lg.days
        ],
        "totals": {
            "radius": lg.total_radius,
            "overhead": lg.total_overhead,
            "wall_estimate": lg.wall_estimate,
        },
        "baselines": lg.baselines,
        "ratios": lg.ratios,
    }


def _ledger():
    return CostLedger(
        scenario="s",
        strategy="predict-yesterday",
        params={},
        days=[
            DayLedger(day=1, radius_searched=5, overhead_work=2, virtual_radius=3, solver_thread=0),
            DayLedger(day=2, radius_searched=4, overhead_work=0, virtual_radius=4, solver_thread=1),
        ],
    )


def test_totals():
    lg = _ledger()
    assert lg.total_radius == 9
    assert lg.total_overhead == 2
    assert lg.wall_estimate == 11


def test_day_ledger_validation():
    with pytest.raises(ValueError):
        DayLedger(day=1, radius_searched=2, overhead_work=0, virtual_radius=3, solver_thread=0)
    with pytest.raises(ValueError):
        DayLedger(day=1, radius_searched=1, overhead_work=0, virtual_radius=0, solver_thread=0)
    with pytest.raises(ValueError):
        DayLedger(day=1, radius_searched=1, overhead_work=-1, virtual_radius=1, solver_thread=0)


def test_json_round_trip_is_exact():
    lg = _ledger()
    lg.attach_baseline("planted", 4.5)
    lg.attach_baseline("opt_1_traj", None)
    text = lg.to_json_text()
    back = CostLedger.from_json_text(text)
    assert back == lg
    assert back.to_json_text() == text


def test_ratio_recomputable_from_stored_fields():
    lg = _ledger()
    lg.attach_baseline("planted", 4.5)
    d = json.loads(lg.to_json_text())
    assert d["ratios"]["planted"] == d["totals"]["radius"] / d["baselines"]["planted"]
    assert "opt_1_traj" not in d["ratios"] or d["baselines"]["opt_1_traj"] is not None


def test_unavailable_baseline_has_no_ratio():
    lg = _ledger()
    lg.attach_baseline("opt_1_traj", None)
    assert lg.baselines["opt_1_traj"] is None
    assert "opt_1_traj" not in lg.ratios


def test_tampered_totals_rejected():
    d = json.loads(_ledger().to_json_text())
    d["totals"]["radius"] += 1
    with pytest.raises(ValueError):
        CostLedger.from_dict(d)


def test_unknown_schema_rejected():
    d = json.loads(_ledger().to_json_text())
    d["schema_version"] = 99
    with pytest.raises(ValueError):
        CostLedger.from_dict(d)


@pytest.mark.parametrize("field", ["day", "radius_searched", "overhead_work", "virtual_radius", "solver_thread"])
@pytest.mark.parametrize("bad", [1.0, True, "1", None])
def test_day_ledger_fields_must_be_ints(field, bad):
    # The writer formats each day field with %d, which is exact only for an int.
    values = dict(day=1, radius_searched=1, overhead_work=1, virtual_radius=1, solver_thread=1)
    with pytest.raises(ValueError, match="must be integers"):
        DayLedger(**{**values, field: bad})


# Names: escapes, control characters, non-ASCII and a lone surrogate.
_NAMES = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['a"b\\c', "tab\tnew\nline", "\x00\x1f\x7f", "café", "日本", "\U0001f600", "\ud800", ""]),
)
_HUGE = st.integers(-(10**400), 10**400)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _HUGE, st.floats(allow_nan=False, allow_infinity=False), _NAMES)
# Nested values only come from a loaded ledger's params.
_NESTED = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_NAMES, inner, max_size=3), max_leaves=8)
_NUMBERS = st.one_of(st.integers(0, 10**6), _HUGE, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _days(draw):
    days = []
    for t in range(1, draw(st.integers(0, 4)) + 1):
        virtual = draw(st.one_of(st.integers(1, 50), st.integers(1, 10**400)))
        days.append(
            DayLedger(
                day=t,
                radius_searched=virtual + draw(st.integers(0, 10**400)),
                overhead_work=draw(st.one_of(st.integers(0, 9), st.integers(0, 10**400))),
                virtual_radius=virtual,
                solver_thread=draw(st.integers(0, 10**400)),
            )
        )
    return days


_LEDGERS = st.builds(
    CostLedger,
    scenario=_NAMES,
    strategy=_NAMES,
    params=st.dictionaries(_NAMES, _NESTED, max_size=4),
    days=_days(),
    baselines=st.dictionaries(_NAMES, st.one_of(st.none(), _NUMBERS), max_size=4),
    ratios=st.dictionaries(_NAMES, _NUMBERS, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(lg=_LEDGERS)
def test_writer_matches_the_strict_dump(lg):
    assert lg.to_json_text() == dumps_strict(to_dict(lg))


@settings(max_examples=100, deadline=None)
@given(lg=_LEDGERS, where=st.sampled_from(["baselines", "ratios"]), name=_NAMES,
       bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_writer_rejects_a_non_finite_number_as_the_strict_dump_does(lg, where, name, bad):
    getattr(lg, where)[name] = bad
    with pytest.raises(InvariantViolation) as reference:
        dumps_strict(to_dict(lg))
    with pytest.raises(InvariantViolation) as written:
        lg.to_json_text()
    assert str(written.value) == str(reference.value)


def test_writer_matches_the_strict_dump_on_a_loaded_ledger_with_nested_params():
    d = json.loads(_ledger().to_json_text())
    d["params"] = {"nested": {"b": [1, 2.5, None, {"x": "\u00e9"}], "a": []}, "flat": True, "z": {}}
    d["baselines"] = {"int": 3, "none": None}
    lg = CostLedger.from_dict(d)
    assert lg.to_json_text() == dumps_strict(to_dict(lg)) == dumps_strict(d)
