"""Scenario JSON serialization and result-file export.

The scenario file format is a versioned JSON document with sections
``horizon``, ``wholesale``, ``regulation_signal``, ``network``,
``aggregators``, ``offers``, and a free-text ``assumptions`` block.  Each
section is read and written by walking the fields of its dataclass in
:mod:`dsomarket.model`, checking every value against the field's type hint.
Unknown fields are rejected.  Missing mileage prices default to the
corresponding capacity price divided by 20, missing mileage ratios to 1.0,
and missing bus loads to zero; every applied default is reported.  Fields
with a dataclass default (``step_hours``, ``v_substation``) may be omitted
silently.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, fields
from functools import cache, partial
from typing import Any, get_args, get_type_hints

from .model import (
    FLEETS,
    Branch,
    Bus,
    Horizon,
    OfferPrices,
    RegulationSignal,
    Scenario,
    ScenarioValidationError,
    WholesalePrices,
    validate_scenario,
)

SCHEMA_VERSION = 1
MILEAGE_FRACTION = 1.0 / 20.0   # mileage price = capacity price / 20


class ParseError(ValueError):
    """The file is not well-formed JSON; carries line/column."""

    def __init__(self, message: str, lineno: int | None = None,
                 colno: int | None = None):
        self.lineno = lineno
        self.colno = colno
        if lineno is not None:
            message = f"{message} (line {lineno}, column {colno})"
        super().__init__(message)


class SchemaError(ValueError):
    """The JSON is well-formed but does not match the scenario schema."""


ValidationError = ScenarioValidationError

# JSON keys that differ from the dataclass field names.
_KEYS = {(Branch, "from_bus"): "from", (Branch, "to_bus"): "to"}

# Scenario field -> document key of the sections after ``horizon``.
_SECTIONS = (("wholesale", "wholesale"), ("regulation", "regulation_signal"),
             ("network", "network"))

_DOC_REQUIRED = frozenset({"version", "horizon", "aggregators", "offers",
                           *(key for _, key in _SECTIONS)})


def _mileage(cap: str):
    return (f"{cap} / 20",
            lambda got, T: tuple(c * MILEAGE_FRACTION for c in got[cap]))


def _constant(note: str, value: float):
    return note, lambda got, T: (value,) * T


# Fields that may be omitted with a reported default:
# (class, field) -> (note, default from the fields parsed before it and T).
_REPORTED = {
    (WholesalePrices, "mil_up"): _mileage("cap_up"),
    (WholesalePrices, "mil_dn"): _mileage("cap_dn"),
    (OfferPrices, "mil_up"): _mileage("cap_up"),
    (OfferPrices, "mil_dn"): _mileage("cap_dn"),
    (RegulationSignal, "s_up"): _constant("1.0", 1.0),
    (RegulationSignal, "s_dn"): _constant("1.0", 1.0),
    (Bus, "p_load"): _constant("zero", 0.0),
    (Bus, "q_load"): _constant("zero", 0.0),
}


def _require_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object")
    return obj


def _check_keys(d: dict, where: str, required: set[str],
                optional: set[str] = frozenset()) -> None:
    keys = set(d)
    unknown = keys - required - optional
    if unknown:
        raise SchemaError(f"{where} has unknown fields: {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise SchemaError(f"{where} is missing fields: {sorted(missing)}")


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_integer(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# Field checkers: (value, where, applied, T) -> parsed value.

def _number(x: Any, where: str, *_) -> float:
    if not _is_number(x):
        raise SchemaError(f"{where} must be a number")
    return float(x)


def _integer(x: Any, where: str, *_) -> int:
    if not _is_integer(x):
        raise SchemaError(f"{where} must be an integer")
    return x


def _string(x: Any, where: str, *_) -> str:
    if not isinstance(x, str):
        raise SchemaError(f"{where} must be a string")
    return x


_PLAIN_NUMBERS = frozenset((int, float))


def _numbers(xs: Any, where: str, *_) -> tuple[float, ...]:
    # a JSON series holds plain ints and floats: one type check each
    if isinstance(xs, list) and _PLAIN_NUMBERS.issuperset(map(type, xs)):
        return tuple(map(float, xs))
    if not isinstance(xs, list) or not all(_is_number(x) for x in xs):
        raise SchemaError(f"{where} must be a list of numbers")
    return tuple(float(x) for x in xs)


def _integers(xs: Any, where: str, *_) -> tuple[int, ...]:
    if not isinstance(xs, list) or not all(_is_integer(x) for x in xs):
        raise SchemaError(f"{where} must be a list of integers")
    return tuple(xs)


def _objects(cls: type, xs: Any, where: str, applied: list[str],
             T: int) -> tuple:
    if not isinstance(xs, list):
        raise SchemaError(f"{where} must be a list")
    return tuple(_parse(cls, x, f"{where}[{i}]", applied, T)
                 for i, x in enumerate(xs))


def _dump_objects(xs: tuple) -> list[dict]:
    return [_dump(x) for x in xs]


_hints = cache(get_type_hints)
_SCALARS = {float: _number, int: _integer, str: _string}
_SERIES = {float: _numbers, int: _integers}


@cache
def _plan(cls: type) -> tuple[tuple, frozenset, frozenset]:
    """Per-field (name, JSON key, checker, dumper) of a dataclass, with its
    required and optional JSON keys.  A dumper of None copies the value."""
    hints = _hints(cls)
    entries, required, optional = [], set(), set()
    for f in fields(cls):
        hint = hints[f.name]
        if hint in _SCALARS:
            check, dump = _SCALARS[hint], None
        elif get_args(hint)[0] in _SERIES:          # tuple[float|int, ...]
            check, dump = _SERIES[get_args(hint)[0]], list
        else:                                       # tuple[<dataclass>, ...]
            check, dump = partial(_objects, get_args(hint)[0]), _dump_objects
        key = _KEYS.get((cls, f.name), f.name)
        entries.append((f.name, key, check, dump))
        if f.default is MISSING and (cls, f.name) not in _REPORTED:
            required.add(key)
        else:
            optional.add(key)
    return tuple(entries), frozenset(required), frozenset(optional)


def _parse(cls: type, value: Any, where: str, applied: list[str], T: int):
    """Build ``cls`` from a JSON object; defaults are noted in ``applied``.

    ``T`` is the horizon length, the length of every defaulted series.
    """
    entries, required, optional = _plan(cls)
    _check_keys(_require_mapping(value, where), where, required, optional)
    got = {}
    for name, key, check, _ in entries:
        if key in value:
            got[name] = check(value[key], f"{where}.{key}", applied, T)
        elif (cls, name) in _REPORTED:
            note, default = _REPORTED[cls, name]
            got[name] = default(got, T)
            applied.append(f"{where}.{key} defaulted to {note}")
    return cls(**got)


def _dump(obj: Any) -> dict:
    out = {}
    for name, key, _, dump in _plan(type(obj))[0]:
        value = getattr(obj, name)
        out[key] = value if dump is None else dump(value)
    return out


def scenario_from_dict(doc: dict) -> tuple[Scenario, tuple[str, ...]]:
    """Build a Scenario from a parsed document; returns applied defaults."""
    applied: list[str] = []
    _check_keys(_require_mapping(doc, "document"), "document", _DOC_REQUIRED,
                {"assumptions"})
    # a boolean is not a version number, though True == 1
    if isinstance(doc["version"], bool) or doc["version"] != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema version {doc['version']!r}, "
            f"expected {SCHEMA_VERSION}")

    horizon = _parse(Horizon, doc["horizon"], "horizon", applied, 0)
    T = len(horizon)
    hints = _hints(Scenario)
    parts = {name: _parse(hints[name], doc[key], key, applied, T)
             for name, key in _SECTIONS}

    fleets = {name: [] for name in FLEETS.values()}
    if not isinstance(doc["aggregators"], list):
        raise SchemaError("aggregators must be a list")
    for i, agg in enumerate(doc["aggregators"]):
        where = f"aggregators[{i}]"
        agg = _require_mapping(agg, where)
        kind = _string(agg["type"], f"{where}.type") if "type" in agg else None
        if kind not in FLEETS:
            raise SchemaError(f"{where}.type must be one of "
                              "drag/esag/evcs/ddgag")
        fleet = FLEETS[kind]
        config = {k: v for k, v in agg.items() if k != "type"}
        fleets[fleet].append(
            _parse(get_args(hints[fleet])[0], config, where, applied, T))

    offers = {name: _parse(OfferPrices, o, f"offers[{name}]", applied, T)
              for name, o in _require_mapping(doc["offers"], "offers").items()}

    notes = doc.get("assumptions", [])
    if not (isinstance(notes, list)
            and all(isinstance(n, str) for n in notes)):
        raise SchemaError("assumptions must be a list of strings")

    scenario = Scenario(horizon=horizon, **parts,
                        **{k: tuple(v) for k, v in fleets.items()},
                        offers=offers)
    return scenario, tuple(applied)


def scenario_to_dict(s: Scenario, assumptions: tuple[str, ...] = ()) -> dict:
    doc = {"version": SCHEMA_VERSION, "horizon": _dump(s.horizon)}
    for name, key in _SECTIONS:
        doc[key] = _dump(getattr(s, name))
    doc["aggregators"] = [{"type": kind, **_dump(cfg)}
                          for kind, cfg in s.aggregators()]
    doc["offers"] = {name: _dump(o) for name, o in sorted(s.offers.items())}
    if assumptions:
        doc["assumptions"] = list(assumptions)
    return doc


def load_scenario(path: str) -> Scenario:
    """Load, default-fill, and validate a scenario file."""
    scenario, _ = load_scenario_with_assumptions(path)
    return scenario


def load_scenario_with_assumptions(path: str) -> tuple[Scenario, tuple[str, ...]]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    scenario, applied = scenario_from_dict(doc)
    report = validate_scenario(scenario)
    if not report.ok:
        raise ValidationError(report)
    file_assumptions = tuple(doc.get("assumptions", ()))
    return scenario, file_assumptions + applied


def save_scenario(s: Scenario, path: str,
                  assumptions: tuple[str, ...] = ()) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(scenario_to_dict(s, assumptions), fh, indent=2)
        fh.write("\n")


def scenario_hash(s: Scenario) -> str:
    """Stable content hash of a scenario (independent of assumptions)."""
    import hashlib    # here, so that loading a scenario does not import it
    canonical = json.dumps(scenario_to_dict(s), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class ResultBundle:
    """Everything produced by one solve, ready for export."""

    scenario: Scenario
    schedule: object                 # formulation.Schedule
    revenue: object                  # analysis.RevenueReport
    stats: dict
    input_hash: str


def fmt(x: float) -> str:
    """A number as every result CSV prints it: 10 significant digits."""
    return f"{float(x):.10g}"


def export_results(bundle: ResultBundle, out_dir: str) -> list[str]:
    """Write schedule.csv, network.csv, revenue.csv, and solve.json.

    Output is deterministic: '.' decimals, '\\n' newlines, stable ordering.
    """
    os.makedirs(out_dir, exist_ok=True)
    s = bundle.scenario
    sched = bundle.schedule
    written = []

    path = os.path.join(out_dir, "schedule.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("t,entity,energy_MW,cap_up_MW,cap_dn_MW,charge_MWh,mode\n")
        for t in sched.steps:
            fh.write(f"{t},substation,{fmt(sched.p_sub[t])},"
                     f"{fmt(sched.r_sub_up[t])},{fmt(sched.r_sub_dn[t])},,\n")
        for kind, cfg in s.aggregators():
            name = cfg.name
            for t in sched.steps:
                charge = mode = ""
                if name in sched.esag_charge:
                    charge = fmt(sched.esag_charge[name][t])
                    mode = str(sched.esag_mode[name][t])
                elif name in sched.evcs_enabled:
                    mode = str(sched.evcs_enabled[name])
                fh.write(f"{t},{name},{fmt(sched.energy[name][t])},"
                         f"{fmt(sched.cap_up[name][t])},"
                         f"{fmt(sched.cap_dn[name][t])},{charge},{mode}\n")
    written.append(path)

    path = os.path.join(out_dir, "network.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("t,element,id,pl_MW,ql_MVAr,v_pu\n")
        for br in s.network.branches:
            for t in sched.steps:
                fh.write(f"{t},branch,{br.id},{fmt(sched.flows_p[br.id][t])},"
                         f"{fmt(sched.flows_q[br.id][t])},\n")
        for bus in s.network.buses:
            for t in sched.steps:
                fh.write(f"{t},bus,{bus.id},,,"
                         f"{fmt(sched.voltage[bus.id][t])}\n")
    written.append(path)

    path = os.path.join(out_dir, "revenue.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("entity,energy_$,capacity_$,mileage_$,total_$\n")
        for row in bundle.revenue.rows():
            fh.write(f"{row}\n")
    written.append(path)

    path = os.path.join(out_dir, "solve.json")
    with open(path, "w", newline="\n") as fh:
        json.dump({"input_hash": bundle.input_hash, **bundle.stats},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)
    return written
