"""Domain types for the DSO coordination model.

A :class:`Scenario` bundles the horizon, wholesale prices, the regulation
signal, the radial distribution network, and the four aggregator fleets
(demand response, energy storage, EV charging, dispatchable generation)
together with each aggregator's offer prices.  Everything is an immutable
dataclass so scenarios can be shared freely across concurrent solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache
from typing import Iterator, get_args, get_origin, get_type_hints

Series = tuple[float, ...]

KIND_DRAG = "drag"
KIND_ESAG = "esag"
KIND_EVCS = "evcs"
KIND_DDGAG = "ddgag"

# Aggregator kind (its ``type`` in a scenario file) -> the Scenario field
# holding that fleet, in the order ``Scenario.aggregators`` yields them.
FLEETS = {KIND_DRAG: "drags", KIND_ESAG: "esags", KIND_EVCS: "evcss",
          KIND_DDGAG: "ddgags"}

# Units of the number fields.  The per-unit view divides POWER fields by
# s_base and multiplies PRICE fields by it.
POWER = "power"         # MW, MVAr or MWh
PRICE = "price"         # $/MW or $/MWh

# Largest |r / s_base| or |x / s_base| a branch may carry into the voltage
# rows.  HiGHS mis-solves matrix values near 1e12 (model status Unknown) and
# refuses to load larger ones; 1e7 still solves.
MAX_PER_UNIT_IMPEDANCE = 1e9

# Series check kinds -> rules (test every entry must pass, code, message),
# tried in order after the length check; the first rule failed is reported.
_FINITE = (math.isfinite, "PRICE_NOT_FINITE", "contains non-finite values")
_SERIES_CHECKS = {
    "price": (_FINITE,),
    "nonneg": (_FINITE, (lambda x: x >= 0, "PRICE_NEGATIVE",
                         "contains negative values")),
    "share": ((lambda x: 0.0 <= x <= 1.0, "SIGNAL_OUT_OF_RANGE",
               "must lie in [0, 1]"),),
    "ratio": ((math.isfinite, "VALUE_NOT_FINITE", "contains non-finite values"),
              (lambda x: x >= 0, "SIGNAL_OUT_OF_RANGE", "must be >= 0")),
}


def _number(unit: str | None = None, check: str | None = None):
    """A number field declaring its unit (POWER, PRICE or none) and, for a
    series, its check kind (a key of ``_SERIES_CHECKS``)."""
    return field(metadata={"unit": unit, "check": check})


class ZeroBase(ValueError):
    """Per-unit conversion requested with a zero power base."""


class InconsistentTopology(ValueError):
    """A branch's endpoints do not describe a usable network edge."""


@dataclass(frozen=True)
class Horizon:
    """Ordered, contiguous hour indices covering the scheduling horizon."""

    steps: tuple[int, ...]
    step_hours: float = 1.0

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class WholesalePrices:
    """Wholesale energy, regulation capacity, and mileage prices per hour."""

    energy: Series = _number(PRICE, "price")
    cap_up: Series = _number(PRICE, "nonneg")
    cap_dn: Series = _number(PRICE, "nonneg")
    mil_up: Series = _number(PRICE, "nonneg")
    mil_dn: Series = _number(PRICE, "nonneg")


@dataclass(frozen=True)
class RegulationSignal:
    """Performance scores (mu, p.u.) and mileage ratios (s) per hour."""

    mu_up: Series = _number(check="share")
    mu_dn: Series = _number(check="share")
    s_up: Series = _number(check="ratio")
    s_dn: Series = _number(check="ratio")


@dataclass(frozen=True)
class OfferPrices:
    """One aggregator's per-hour offer prices to the DSO."""

    energy: Series = _number(PRICE, "price")
    cap_up: Series = _number(PRICE, "nonneg")
    cap_dn: Series = _number(PRICE, "nonneg")
    mil_up: Series = _number(PRICE, "nonneg")
    mil_dn: Series = _number(PRICE, "nonneg")


@dataclass(frozen=True)
class DemandBlock:
    """One step of a demand response aggregator's stepwise bid."""

    p_max: float = _number(POWER)
    prices: Series = _number(PRICE, "price")


@dataclass(frozen=True)
class DragConfig:
    """Demand response aggregator: stepwise demand bid plus regulation caps."""

    name: str
    node: int
    blocks: tuple[DemandBlock, ...]
    cap_up_max: Series = _number(POWER, "nonneg")
    cap_dn_max: Series = _number(POWER, "nonneg")
    tan_phi: float


@dataclass(frozen=True)
class EsagConfig:
    """Energy storage aggregator."""

    name: str
    node: int
    eta_ch: float
    eta_di: float
    e_min: float = _number(POWER)
    e_max: float = _number(POWER)
    e_init: float = _number(POWER)
    dr_max: float = _number(POWER)      # discharging rate
    cr_max: float = _number(POWER)      # charging rate


@dataclass(frozen=True)
class EvcsConfig:
    """EV charging station aggregator (unidirectional charging)."""

    name: str
    node: int
    availability: tuple[int, ...]   # hour indices with EVs present
    er_max: float = _number(POWER)      # charging rate
    err_max: float = _number(POWER)     # regulation capacity cap
    cl_max: float = _number(POWER)      # maximum charge level
    e_init: float = _number(POWER)      # initial charge level
    gamma_ch: float


@dataclass(frozen=True)
class DdgagConfig:
    """Dispatchable distributed generation aggregator."""

    name: str
    node: int
    p_min: float = _number(POWER)
    p_max: float = _number(POWER)
    ru: float = _number(POWER)          # ramp-up / capacity-up cap
    rd: float = _number(POWER)          # ramp-down / capacity-down cap
    tan_phi: float


@dataclass(frozen=True)
class Bus:
    id: int
    p_load: Series = _number(POWER, "price")
    q_load: Series = _number(POWER, "price")


@dataclass(frozen=True)
class Branch:
    id: int
    from_bus: int           # upstream endpoint (closer to the substation)
    to_bus: int             # downstream endpoint
    r: float                # p.u.
    x: float                # p.u.
    pl_max: float = _number(POWER)
    ql_max: float = _number(POWER)


@dataclass(frozen=True)
class Network:
    """Radial distribution network with one substation bus.

    Branch orientation gives the incidence convention: a branch contributes
    +1 at its from-bus and -1 at its to-bus, and a positive flow moves power
    from the from-bus toward the to-bus.
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    substation_bus: int
    v_min: float
    v_max: float
    s_base: float           # MVA
    v_substation: float = 1.0

    def bus_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses)

    def incidence(self, branch: Branch, bus_id: int) -> int:
        if branch.from_bus == branch.to_bus:
            raise InconsistentTopology(
                f"branch {branch.id} connects bus {branch.from_bus} to itself")
        if bus_id == branch.from_bus:
            return 1
        if bus_id == branch.to_bus:
            return -1
        return 0

    def is_connected(self) -> bool:
        ids = set(self.bus_ids())
        if not ids:
            return False
        adjacency: dict[int, list[int]] = {n: [] for n in ids}
        for br in self.branches:
            if br.from_bus in ids and br.to_bus in ids:
                adjacency[br.from_bus].append(br.to_bus)
                adjacency[br.to_bus].append(br.from_bus)
        seen = {next(iter(ids))}
        stack = list(seen)
        while stack:
            for neighbor in adjacency[stack.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return seen == ids


@dataclass(frozen=True)
class Scenario:
    """Immutable input bundle for one coordination problem."""

    horizon: Horizon
    wholesale: WholesalePrices
    regulation: RegulationSignal
    network: Network
    drags: tuple[DragConfig, ...]
    esags: tuple[EsagConfig, ...]
    evcss: tuple[EvcsConfig, ...]
    ddgags: tuple[DdgagConfig, ...]
    offers: dict[str, OfferPrices] = field(default_factory=dict)

    def aggregators(self) -> Iterator[tuple[str, object]]:
        for kind, fleet in FLEETS.items():
            for cfg in getattr(self, fleet):
                yield kind, cfg

    def aggregator_names(self) -> tuple[str, ...]:
        return tuple(cfg.name for _, cfg in self.aggregators())

    def find_aggregator(self, name: str) -> tuple[str, object]:
        for kind, cfg in self.aggregators():
            if cfg.name == name:
                return kind, cfg
        raise KeyError(name)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


class ScenarioValidationError(ValueError):
    """Raised by consumers that require a valid scenario."""

    def __init__(self, report: ValidationReport):
        self.report = report
        lines = "; ".join(f"{v.code}: {v.message}" for v in report.violations)
        super().__init__(f"invalid scenario: {lines}")


@cache
def _plan(cls: type) -> tuple[tuple, tuple]:
    """Per-unit entries (name, unit, series, container) and series checks
    (name, rules) of a dataclass, from its field metadata and type hints.
    A field holding dataclasses with scaled fields (one, or a tuple or dict
    of them: container None, tuple or dict) is walked, not scaled."""
    hints = get_type_hints(cls)
    scaled, checked = [], []
    for f in fields(cls):
        hint = hints[f.name]
        unit, check = f.metadata.get("unit"), f.metadata.get("check")
        if check:
            checked.append((f.name, _SERIES_CHECKS[check]))
        inner = next((a for a in get_args(hint) if is_dataclass(a)), hint)
        if unit:
            scaled.append((f.name, unit, hint is not float, None))
        elif is_dataclass(inner) and _plan(inner)[0]:
            scaled.append((f.name, None, False, get_origin(hint)))
    return tuple(scaled), tuple(checked)


def validate_scenario(s: Scenario) -> ValidationReport:
    """Check every structural invariant of the scenario.

    Violations are returned as data; nothing raises.  An empty report means
    the scenario is ready for compilation.
    """
    out: list[Violation] = []

    def bad(code: str, message: str) -> None:
        out.append(Violation(code, message))

    steps = s.horizon.steps
    T = len(steps)
    if T == 0:
        bad("HORIZON_EMPTY", "horizon has no steps")
    elif list(steps) != list(range(steps[0], steps[0] + T)):
        bad("HORIZON_NOT_CONTIGUOUS",
            "horizon steps must be contiguous and strictly increasing")
    if s.horizon.step_hours <= 0:
        bad("STEP_HOURS_NOT_POSITIVE",
            f"step_hours must be > 0, got {s.horizon.step_hours}")

    def check_series(label: str, obj: object) -> None:
        for name, rules in _plan(type(obj))[1]:
            xs = getattr(obj, name)
            if len(xs) != T:
                bad("SERIES_LENGTH_MISMATCH",
                    f"{label}.{name} has {len(xs)} entries, horizon has {T}")
                continue
            for test, code, text in rules:
                if not all(map(test, xs)):
                    bad(code, f"{label}.{name} {text}")
                    break

    check_series("wholesale", s.wholesale)
    check_series("regulation", s.regulation)

    net = s.network
    bus_ids = net.bus_ids()
    if len(set(bus_ids)) != len(bus_ids):
        bad("DUPLICATE_BUS", "bus ids are not unique")
    branch_ids = [br.id for br in net.branches]
    if len(set(branch_ids)) != len(branch_ids):
        bad("DUPLICATE_BRANCH", "branch ids are not unique")
    if net.substation_bus not in bus_ids:
        bad("NO_SUBSTATION",
            f"substation bus {net.substation_bus} is not a bus")
    for bus in net.buses:
        check_series(f"bus[{bus.id}]", bus)
    for br in net.branches:
        if br.from_bus == br.to_bus:
            bad("BRANCH_SELF_LOOP", f"branch {br.id} is a self-loop")
        for end in (br.from_bus, br.to_bus):
            if end not in bus_ids:
                bad("UNKNOWN_BUS", f"branch {br.id} references bus {end}")
        if br.pl_max < 0 or br.ql_max < 0:
            bad("FLOW_LIMIT_NEGATIVE", f"branch {br.id} has a negative limit")
    if len(net.branches) != len(net.buses) - 1:
        bad("NETWORK_NOT_RADIAL",
            f"{len(net.branches)} branches for {len(net.buses)} buses; "
            "a radial network needs |branches| = |buses| - 1")
    elif not net.is_connected():
        bad("NETWORK_DISCONNECTED", "network is not connected")
    if not (net.v_min <= net.v_max):
        bad("VOLTAGE_BOUNDS_INVERTED",
            f"v_min={net.v_min} exceeds v_max={net.v_max}")
    if net.s_base <= 0:
        bad("BASE_NOT_POSITIVE", f"s_base must be > 0, got {net.s_base}")
    elif math.isfinite(net.s_base):
        # the voltage rows carry r / s_base and x / s_base, which a tiny
        # base overflows or makes too large for HiGHS; non-finite r, x or
        # s_base are reported below
        for br in net.branches:
            per_unit = [abs(v / net.s_base) for v in (br.r, br.x)
                        if math.isfinite(v)]
            values = f"(r={br.r}, x={br.x}, s_base={net.s_base})"
            if not all(map(math.isfinite, per_unit)):
                bad("BRANCH_PER_UNIT_NOT_FINITE",
                    f"branch {br.id} r / s_base or x / s_base is not "
                    f"finite {values}")
            elif max(per_unit, default=0.0) > MAX_PER_UNIT_IMPEDANCE:
                bad("BRANCH_PER_UNIT_TOO_LARGE",
                    f"branch {br.id} |r / s_base| or |x / s_base| exceeds "
                    f"{MAX_PER_UNIT_IMPEDANCE:g} {values}")

    names = list(s.aggregator_names())
    if len(set(names)) != len(names):
        bad("DUPLICATE_AGGREGATOR", "aggregator names are not unique")
    for kind, cfg in s.aggregators():
        if cfg.node not in bus_ids:
            bad("UNKNOWN_BUS",
                f"{kind} {cfg.name} placed on unknown bus {cfg.node}")
        if cfg.name not in s.offers:
            bad("OFFER_MISSING", f"no offer prices for {cfg.name}")
        else:
            check_series(f"offers[{cfg.name}]", s.offers[cfg.name])
    known = set(names)
    for name in s.offers:
        if name not in known:
            bad("OFFER_UNKNOWN_AGGREGATOR",
                f"offer prices for unknown aggregator {name}")

    for cfg in s.drags:
        if not cfg.blocks:
            bad("DRAG_NO_BLOCKS", f"{cfg.name} has no demand blocks")
        for a, block in enumerate(cfg.blocks):
            if block.p_max < 0:
                bad("DRAG_BLOCK_PMAX_NEGATIVE",
                    f"{cfg.name} block {a} has p_max {block.p_max}")
            check_series(f"{cfg.name}.blocks[{a}]", block)
        for t_idx in range(T):
            prices = [b.prices[t_idx] for b in cfg.blocks
                      if len(b.prices) == T]
            if any(prices[i] < prices[i + 1] for i in range(len(prices) - 1)):
                bad("DRAG_BLOCK_PRICES_NOT_MONOTONE",
                    f"{cfg.name} block prices increase at hour index {t_idx}")
                break
        check_series(cfg.name, cfg)

    for cfg in s.esags:
        if not (0.0 < cfg.eta_ch <= 1.0) or not (0.0 < cfg.eta_di <= 1.0):
            bad("ESAG_EFFICIENCY_OUT_OF_RANGE",
                f"{cfg.name} efficiencies must lie in (0, 1]")
        if cfg.e_min > cfg.e_max:
            bad("ESAG_ENERGY_BOUNDS_INVERTED",
                f"{cfg.name} has e_min {cfg.e_min} > e_max {cfg.e_max}")
        elif not (cfg.e_min <= cfg.e_init <= cfg.e_max):
            bad("ESAG_INIT_OUT_OF_RANGE",
                f"{cfg.name} initial charge {cfg.e_init} outside "
                f"[{cfg.e_min}, {cfg.e_max}]")
        if cfg.dr_max <= 0 or cfg.cr_max <= 0:
            bad("ESAG_RATE_NOT_POSITIVE",
                f"{cfg.name} charge/discharge rates must be > 0")

    for cfg in s.evcss:
        avail = cfg.availability
        if not avail:
            bad("EVCS_AVAILABILITY_EMPTY", f"{cfg.name} is never available")
        else:
            if any(t not in steps for t in avail):
                bad("EVCS_AVAILABILITY_OUTSIDE_HORIZON",
                    f"{cfg.name} availability references unknown hours")
            if list(avail) != list(range(avail[0], avail[0] + len(avail))):
                bad("EVCS_AVAILABILITY_NOT_CONTIGUOUS",
                    f"{cfg.name} availability window must be contiguous")
        if not (0.0 <= cfg.e_init <= cfg.cl_max):
            bad("EVCS_INIT_OUT_OF_RANGE",
                f"{cfg.name} initial charge {cfg.e_init} outside "
                f"[0, {cfg.cl_max}]")
        if cfg.er_max < 0 or cfg.err_max < 0:
            bad("EVCS_RATE_NEGATIVE", f"{cfg.name} rates must be >= 0")
        if not (0.0 < cfg.gamma_ch <= 1.0):
            bad("EVCS_EFFICIENCY_OUT_OF_RANGE",
                f"{cfg.name} gamma_ch must lie in (0, 1]")

    for cfg in s.ddgags:
        if not (0.0 <= cfg.p_min <= cfg.p_max):
            bad("DDGAG_POWER_BOUNDS_INVALID",
                f"{cfg.name} needs 0 <= p_min <= p_max")
        if cfg.ru < 0 or cfg.rd < 0:
            bad("DDGAG_RAMP_NEGATIVE", f"{cfg.name} ramp rates must be >= 0")

    scalars = [("horizon", s.horizon), ("network", net)]
    scalars += [(f"branch[{br.id}]", br) for br in net.branches]
    scalars += [(f"{cfg.name}.blocks[{a}]", block) for cfg in s.drags
                for a, block in enumerate(cfg.blocks)]
    scalars += [(cfg.name, cfg) for _, cfg in s.aggregators()]
    for label, obj in scalars:
        for f in fields(obj):
            x = getattr(obj, f.name)
            if isinstance(x, float) and not math.isfinite(x):
                bad("VALUE_NOT_FINITE", f"{label}.{f.name} is {x}")

    return ValidationReport(tuple(out))


def _rescale(obj, factors: dict[str, float]):
    """``obj`` with each field of a unit multiplied by that unit's factor,
    through the nested dataclasses, tuples and dicts its plan walks."""
    changes = {}
    for name, unit, series, container in _plan(type(obj))[0]:
        x = getattr(obj, name)
        if unit:
            k = factors[unit]
            changes[name] = tuple(v * k for v in x) if series else x * k
        elif container is tuple:
            changes[name] = tuple(_rescale(v, factors) for v in x)
        elif container is dict:
            changes[name] = {k: _rescale(v, factors) for k, v in x.items()}
        else:
            changes[name] = _rescale(x, factors)
    return replace(obj, **changes)


def per_unit_view(s: Scenario) -> Scenario:
    """Rescale all power/energy quantities by the network base.

    POWER fields are divided by ``s_base`` while PRICE fields are
    multiplied by it, so the compiled objective in dollars is unchanged.
    The returned scenario carries ``s_base = 1``, which makes the
    transformation idempotent.
    """
    base = s.network.s_base
    if base == 0:
        raise ZeroBase("cannot normalize with s_base == 0")
    if base == 1.0:
        return s
    out = _rescale(s, {POWER: 1.0 / base, PRICE: base})
    return replace(out, network=replace(out.network, s_base=1.0))
