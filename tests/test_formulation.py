"""Problem compilation: registry layout, bounds, objective, rows, decode."""

import pickle
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ladder_rung, make_scenario, rows_by_name
from oracles import (
    expected_row_count,
    make_problem,
    owner_columns,
    package_columns,
    reference_build,
    reference_registry,
)
from dsomarket import model, scenario_io
from dsomarket.formulation import (
    EQ,
    GE,
    LE,
    Constraints,
    DimensionMismatch,
    NonOptimalStatus,
    RowNames,
    VariableRegistry,
    add_network_constraints,
    build,
    build_registry,
    decode,
    price_objective,
    settlement_prices,
)
from dsomarket.model import (
    Branch,
    Bus,
    DdgagConfig,
    DemandBlock,
    DragConfig,
    EsagConfig,
    EvcsConfig,
    Horizon,
    InconsistentTopology,
    OfferPrices,
    RegulationSignal,
    ScenarioValidationError,
    WholesalePrices,
    validate_scenario,
)


def test_registry_is_bijective_and_ordered():
    reg = VariableRegistry()
    a = reg.add("P", 1)
    b = reg.add("P", 2)
    assert (a, b) == (0, 1)
    # a single column is filed under its whole key
    assert reg.hourly([("P", 2)]).tolist() == [1]
    assert reg.hourly([("P", 1)]).tolist() == [0]
    with pytest.raises(KeyError):
        reg.hourly([("Q", 1)])
    assert len(reg) == 2
    with pytest.raises(ValueError):
        reg.add("P", 1)


def test_registry_declares_bounds_with_each_column():
    reg = VariableRegistry()
    reg.add("free", 1)
    reg.add("box", 1, lower=0.5, upper=2.0)
    reg.add("bit", 1, binary=True)
    lower, upper, integral = reg.bounds()
    assert lower.tolist() == [-np.inf, 0.5, 0.0]
    assert upper.tolist() == [np.inf, 2.0, 1.0]
    assert integral.tolist() == [False, False, True]
    # the bound arrays are views of the registry: it cannot grow under them
    with pytest.raises(BufferError):
        reg.add("late", 1)
    assert len(reg) == 3
    with pytest.raises(KeyError):
        reg.hourly([("late", 1)])


def test_registry_sums_columns_per_owner():
    # the owner is a key's last part; sums run in column order from 0.0
    reg = VariableRegistry()
    for key in (("a", 1, "x"), ("b", 1), ("a", 2, "x"), ("c", 1)):
        reg.add(*key)
    table = np.array([[1.0, -0.0, 2.0, -0.0], [0.0, 3.0, 4.0, 5.0]])
    sums = reg.sum_by_owner(table)
    assert list(sums) == ["x", 1]
    assert sums["x"] == [3.0, 4.0]
    assert sums[1] == [0.0, 8.0]
    assert str(sums[1][0]) == "0.0"


def test_registry_declares_blocks_hour_by_hour():
    reg = VariableRegistry()
    reg.add("first")
    block = reg.declare((4, 5), [([("a",), ("b", 7)], ("x",))],
                        lower=[0.0, -1.0], upper=[[1.0, 2.0], [1.0, 3.0]],
                        binary=[True, False])
    assert block.tolist() == [[[1, 2], [3, 4]]]
    # each family's columns hour by hour, under its key without the hour:
    # ("a", 4, "x"), ("b", 7, 4, "x"), ("a", 5, "x"), ("b", 7, 5, "x"),
    # all owned by "x"
    assert reg.hourly([("b", 7, "x"), ("a", "x")]).tolist() == [2, 4, 1, 3]
    assert reg.sum_by_owner(np.arange(5.0)[None]) == {"first": [0.0],
                                                      "x": [10.0]}
    assert reg.hourly([]).tolist() == []
    lower, upper, integral = reg.bounds()
    assert lower.tolist() == [-np.inf, 0.0, -1.0, 0.0, -1.0]
    assert upper.tolist() == [np.inf, 1.0, 2.0, 1.0, 3.0]
    assert integral.tolist() == [False, True, False, True, False]
    del lower, upper, integral
    # a key declared before, or twice in one block, is refused whole
    for heads, owner in (([("c",), ("a",)], ("x",)), ([("c",), ("c",)], ())):
        with pytest.raises(ValueError, match="duplicate"):
            reg.declare((5,), [(heads, owner)])
        assert len(reg) == 5
        with pytest.raises(KeyError):
            reg.hourly([("c",) + owner])
    # blocks of unequal widths are refused, and no blocks declare nothing
    with pytest.raises(ValueError, match="heads"):
        reg.declare((5,), [([("c",)], ("y",)), ([("d",), ("e",)], ("z",))])
    assert reg.declare((5,), []).shape == (0, 1, 0) and len(reg) == 5


def test_registry_declares_one_block_per_owner():
    # owner by owner, each hour by hour: the columns of declaring each
    # owner's block in turn, owned by the owner's name or, with no owner,
    # by the hour
    reg = VariableRegistry()
    block = reg.declare((1, 2), [([("P",), ("r",)], ("x",)),
                                 ([("P",), ("r",)], ("y",))],
                        lower=[[[0.0, 1.0]], [[2.0, 3.0]]])
    assert block.tolist() == [[[0, 1], [2, 3]], [[4, 5], [6, 7]]]
    assert reg.hourly([("r", "y"), ("P", "x")]).tolist() == [5, 7, 0, 2]
    assert reg.bounds()[0].tolist() == [0.0, 1.0] * 2 + [2.0, 3.0] * 2
    flows = reg.declare((1, 2), [([("Pl", 3)], ()), ([("Pl", 4)], ())])
    assert flows.tolist() == [[[8], [9]], [[10], [11]]]
    assert reg.hourly([("Pl", 4)]).tolist() == [10, 11]
    assert reg.sum_by_owner(np.arange(12.0)[None]) == {
        "x": [6.0], "y": [22.0], 1: [18.0], 2: [20.0]}


def test_registry_deterministic_across_builds(bundled):
    r1 = build_registry(bundled)
    r2 = build_registry(bundled)
    ref, first = reference_registry(bundled), bundled.horizon.steps[0]
    assert len(r1) == len(r2)
    assert package_columns(r1, ref, first) == package_columns(r2, ref, first)


@pytest.mark.parametrize("case", ["bundled", "rung 2", "rung 4"])
def test_registry_matches_reference_column_for_column(bundled, case):
    s = bundled if case == "bundled" else ladder_rung(
        int(case.removeprefix("rung ")))
    reg, ref = build_registry(s), reference_registry(s)
    assert len(reg) == len(ref)
    for a, b in zip(reg.bounds(), ref.bounds()):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    # key (*head, t, *owner) is hourly([head + owner])[t - first hour]
    assert package_columns(reg, ref, s.horizon.steps[0]) == \
        list(range(len(ref)))
    # per-owner sums, bit for bit, owners in first-seen order; the last
    # hour's DSO columns hold -0.0 only, which Python's sum makes 0.0
    groups, last = owner_columns(ref), s.horizon.steps[-1]
    rng = np.random.default_rng(7)
    mask = rng.random((3, len(ref))) < 0.5
    mask[:, groups[last]] = True
    # quarters sum exactly in any order, so Python's sum is the oracle
    exact = np.where(mask, -0.0, rng.integers(-40, 40, mask.shape) / 4.0)
    rows = exact.tolist()
    _assert_sums(reg.sum_by_owner(exact), {
        owner: [sum(row[j] for j in cols) for row in rows]
        for owner, cols in groups.items()})
    # numpy's add.reduceat rounds other than Python's sum: one reduceat
    # over the owners' columns, each owner's in column order
    table = np.where(mask, -0.0, rng.normal(size=mask.shape))
    order = [j for cols in groups.values() for j in cols]
    starts = np.cumsum([0] + [len(cols) for cols in groups.values()][:-1])
    sums = np.add.reduceat(table[:, order], starts, axis=1) + 0.0
    _assert_sums(reg.sum_by_owner(table), dict(zip(groups, sums.T.tolist())))


def _assert_sums(sums, expected):
    hexed = {owner: [x.hex() for x in row] for owner, row in sums.items()}
    assert list(hexed) == list(expected)
    assert hexed == {owner: [x.hex() for x in row]
                     for owner, row in expected.items()}


def test_build_rejects_invalid_scenario():
    s = make_scenario()
    s = replace(s, offers={})
    with pytest.raises(ScenarioValidationError):
        build(s)


def test_loaded_scenario_is_validated_once(tmp_path, monkeypatch):
    path = str(tmp_path / "rung.json")
    scenario_io.save_scenario(ladder_rung(4), path)
    checked = []
    check = model._check_scenario
    monkeypatch.setattr(model, "_check_scenario",
                        lambda s: checked.append(s) or check(s))
    s = scenario_io.load_scenario(path)
    build(s)
    build(s)
    assert checked == [s]
    # a replace copy is a new instance: it is checked, and build refuses
    # it when it breaks a rule
    broken = replace(s, offers={})
    with pytest.raises(ScenarioValidationError, match="OFFER_MISSING"):
        build(broken)
    assert len(checked) == 2 and checked[1] is broken


def test_registry_calls_per_fleet_not_per_entity(monkeypatch):
    calls = []
    declare = VariableRegistry.declare
    monkeypatch.setattr(VariableRegistry, "declare", lambda self, *args,
                        **kwargs: calls.append(1) or declare(self, *args,
                                                             **kwargs))
    fleets = []
    for k in (2, 16):
        s = ladder_rung(k)
        assert len(s.esags) == len(s.ddgags) == k
        calls.clear()
        build_registry(s)
        # two calls per EVCS (its block of hours and b_ev); one for the
        # substation, and one for each fleet: the DRAGs (all of them have
        # as many demand blocks), ESAGs, DDGAGs, branches and buses
        fleets.append(len(calls) - 2 * len(s.evcss))
    assert fleets == [6, 6]


def test_row_count_matches_closed_form(bundled, bundled_problem):
    assert len(bundled_problem.row_names) == expected_row_count(bundled)


@pytest.mark.parametrize("kinds", [
    ("ddgag",), ("esag",), ("evcs",), ("drag",),
    ("drag", "esag", "evcs", "ddgag"),
])
def test_row_count_closed_form_per_kind(kinds):
    s = make_scenario(T=3, kinds=kinds)
    assert len(build(s).row_names) == expected_row_count(s)


@pytest.mark.parametrize("case", ["bundled", "rung 2", "rung 4"])
def test_row_names_are_formatted_on_first_read(bundled, case, monkeypatch):
    s = bundled if case == "bundled" else ladder_rung(
        int(case.removeprefix("rung ")))
    problem, expected = build(s), reference_build(s).row_names
    names = problem.row_names

    def formatted(self):
        raise AssertionError("a row name was formatted")

    with monkeypatch.context() as patch:
        patch.setattr(RowNames, "_formatted", formatted)
        assert len(names) == len(expected) == expected_row_count(s)
        problem.row_bounds()        # HiGHS loads and start checks
        unread = pickle.dumps(names)
    assert names == expected and expected == names
    assert list(names) == list(expected) and names[-1] == expected[-1]
    assert names != expected[:-1] and names != list(expected)
    # the pickle carries the recipe, not the names
    assert pickle.dumps(names) == unread
    assert pickle.loads(unread) == expected
    # B&B nodes and sweep cases share the names
    assert replace(problem, lower=problem.lower.copy()).row_names is names


def test_single_generator_single_hour_rows():
    # one hour, one dispatchable generator: its two headroom rows plus the
    # network and substation aggregation rows, nothing else
    s = make_scenario(T=1, kinds=("ddgag",))
    names = sorted(build(s).row_names)
    assert names == sorted([
        "ddgag_up_headroom[1,ddgag-x]", "ddgag_dn_headroom[1,ddgag-x]",
        "p_balance[1,1]", "q_balance[1,1]",
        "p_balance[1,2]", "q_balance[1,2]",
        "voltage_drop[1,1]", "voltage_anchor[1]",
        "agg_up[1]", "agg_dn[1]",
    ])


def test_bundled_binary_structure(bundled, bundled_problem):
    reg = reference_registry(bundled)
    b_es = [k for k in reg.keys() if k[0] == "b_es"]
    b_ev = [k for k in reg.keys() if k[0] == "b_ev"]
    assert len(b_es) == 24
    assert len(b_ev) == 1
    assert int(bundled_problem.integrality.sum()) == 25
    for key in b_es + b_ev:
        j = reg[key]
        assert bundled_problem.integrality[j]
        assert bundled_problem.lower[j] == 0.0
        assert bundled_problem.upper[j] == 1.0


def test_evcs_columns_pinned_outside_window(bundled, bundled_problem):
    reg = reference_registry(bundled)
    window = set(bundled.evcss[0].availability)
    name = bundled.evcss[0].name
    for t in bundled.horizon.steps:
        for fam in ("P", "r_up", "r_dn"):
            j = reg[(fam, t, name)]
            if t in window:
                assert bundled_problem.upper[j] > 0.0
            else:
                assert bundled_problem.lower[j] == 0.0
                assert bundled_problem.upper[j] == 0.0


@pytest.mark.parametrize("kinds", [
    None, ("ddgag",), ("esag",), ("evcs",), ("drag",),
    ("drag", "esag", "evcs", "ddgag"),
])
def test_objective_sums_settlement_prices(bundled, kinds):
    # None is the bundled case
    s = bundled if kinds is None else make_scenario(T=3, kinds=kinds)
    reg = build_registry(s)
    energy, capacity, mileage = prices = settlement_prices(s, reg)
    objective, table = price_objective(s, reg)
    assert (energy + capacity + mileage).tobytes() == objective.tobytes()
    assert prices.tobytes() == table.tobytes()
    # energy columns carry no regulation price and regulation columns
    # no energy price
    assert not np.any(energy * capacity) and not np.any(energy * mileage)


def test_objective_coefficients_spot_checks(bundled, bundled_problem):
    c = bundled_problem.objective
    reg = reference_registry(bundled)
    w = bundled.wholesale
    sig = bundled.regulation
    # wholesale energy sales enter negatively (income for the minimization)
    assert c[reg[("P_sub", 1)]] == pytest.approx(-w.energy[0])
    assert c[reg[("r_sub_up", 1)]] == pytest.approx(
        -(w.cap_up[0] + sig.s_up[0] * sig.mu_up[0] * w.mil_up[0]))
    # generation-side energy payments enter positively
    o = bundled.offers["ddgag-1"]
    assert c[reg[("P", 1, "ddgag-1")]] == pytest.approx(o.energy[0])
    # load-side energy collections enter negatively
    oe = bundled.offers["evcs-1"]
    assert c[reg[("P", 16, "evcs-1")]] == pytest.approx(-oe.energy[15])
    ob = bundled.drags[0].blocks[0]
    assert c[reg[("P_block", 0, 1, "drag-1")]] == pytest.approx(-ob.prices[0])
    # capacity + expected mileage payment on every regulation award
    oc = bundled.offers["esag-1"]
    assert c[reg[("r_up", 1, "esag-1")]] == pytest.approx(
        oc.cap_up[0] + sig.s_up[0] * sig.mu_up[0] * oc.mil_up[0])


def test_storage_state_row_links_hours(bundled, bundled_problem):
    rows = rows_by_name(bundled_problem)
    reg = reference_registry(bundled)
    _, _, sense, rhs = rows["esag_state[1,esag-1]"]
    assert sense == EQ
    assert rhs == pytest.approx(bundled.esags[0].e_init)
    cols, _, _, rhs = rows["esag_state[2,esag-1]"]
    assert rhs == 0.0
    assert reg[("E", 1, "esag-1")] in cols


def test_voltage_drop_row_uses_network_base(bundled, bundled_problem):
    cols, coefs, _, _ = rows_by_name(bundled_problem)["voltage_drop[1,1]"]
    br = bundled.network.branches[0]
    coef = dict(zip(cols, coefs))
    reg = reference_registry(bundled)
    assert coef[reg[("Pl", br.id, 1)]] == pytest.approx(
        br.r / bundled.network.s_base)


def test_balance_rows_list_branches_in_order(bundled, bundled_problem):
    # reference: scan every branch for every bus, as the incidence defines
    net = bundled.network
    reg = reference_registry(bundled)
    rows = rows_by_name(bundled_problem)
    for t in bundled.horizon.steps:
        for bus in net.buses:
            for kind, flow in (("p", "Pl"), ("q", "Ql")):
                cols, coefs, _, _ = rows[f"{kind}_balance[{t},{bus.id}]"]
                flows = {reg[(flow, br.id, t)]: br for br in net.branches}
                terms = [(flows[j].id, c) for j, c in zip(cols, coefs)
                         if j in flows]
                assert terms == [(br.id, float(net.incidence(br, bus.id)))
                                 for br in net.branches
                                 if net.incidence(br, bus.id)]


def test_network_rows_reject_self_loop(bundled):
    net = bundled.network
    loop = replace(net.branches[0], to_bus=net.branches[0].from_bus)
    s = replace(bundled, network=replace(
        net, branches=(loop,) + net.branches[1:]))
    with pytest.raises(InconsistentTopology):
        add_network_constraints(s, build_registry(bundled), Constraints())


def test_aggregation_rows_cross_map_sides(bundled, bundled_problem):
    # load-side capacity-down backs the substation's capacity-up offer
    cols, coefs, _, _ = rows_by_name(bundled_problem)["agg_up[1]"]
    reg = reference_registry(bundled)
    coef = dict(zip(cols, coefs))
    assert coef[reg[("r_sub_up", 1)]] == 1.0
    assert coef[reg[("r_up", 1, "esag-1")]] == -1.0
    assert coef[reg[("r_up", 1, "ddgag-1")]] == -1.0
    assert coef[reg[("r_dn", 1, "drag-1")]] == -1.0
    assert coef[reg[("r_dn", 1, "evcs-1")]] == -1.0
    assert reg[("r_up", 1, "drag-1")] not in coef


def _one_row(coefs, sense, rhs):
    n = len(coefs)
    return make_problem(c=[0.0] * n, A=[coefs], senses=[sense], b=[rhs],
                        lower=[-np.inf] * n, upper=[np.inf] * n,
                        integrality=[False] * n)


def test_row_residual_per_sense():
    le, ge, eq = (_one_row([1.0], sense, 2.0) for sense in (LE, GE, EQ))
    x = np.array([3.0])
    assert le.row_residuals(x)[0] == pytest.approx(1.0)
    assert ge.row_residuals(x)[0] == 0.0
    assert eq.row_residuals(x)[0] == pytest.approx(1.0)
    x = np.array([1.0])
    assert le.row_residuals(x)[0] == 0.0
    assert ge.row_residuals(x)[0] == pytest.approx(1.0)


def test_max_residual_covers_bounds():
    s = make_scenario(T=1)
    problem = build(s)
    x = np.zeros(problem.num_cols)
    # voltage anchor forces V(substation) = 1, so a zero vector violates it
    assert problem.max_residual(x) >= 1.0
    names = [name for name, r in zip(problem.row_names,
                                     problem.row_residuals(x)) if r > 1e-9]
    assert "voltage_anchor[1]" in names
    x = np.full(problem.num_cols, 1e6)
    assert problem.max_residual(x) > 1e5   # upper bounds violated


def test_decode_zero_vector_gives_zero_schedule(bundled, bundled_problem):
    x = np.zeros(bundled_problem.num_cols)
    sched = decode(bundled, bundled_problem, x)
    assert sched.objective == 0.0
    assert all(v == 0.0 for v in sched.p_sub.values())
    assert all(v == 0.0 for per in sched.energy.values()
               for v in per.values())
    assert sched.evcs_enabled["evcs-1"] == 0


def test_decode_rejects_wrong_length(bundled, bundled_problem):
    with pytest.raises(DimensionMismatch):
        decode(bundled, bundled_problem, np.zeros(3))


def test_decode_rejects_non_optimal(bundled, bundled_problem):
    x = np.zeros(bundled_problem.num_cols)
    with pytest.raises(NonOptimalStatus):
        decode(bundled, bundled_problem, x, status="Infeasible")


def test_decode_sums_demand_blocks():
    s = make_scenario(T=1, kinds=("drag",))
    cfg = s.drags[0]
    blocks = (replace(cfg.blocks[0], p_max=2.0),
              replace(cfg.blocks[0], p_max=3.0))
    s = replace(s, drags=(replace(cfg, blocks=blocks),))
    problem = build(s)
    x = np.zeros(problem.num_cols)
    reg = reference_registry(s)
    x[reg[("P_block", 0, 1, cfg.name)]] = 2.0
    x[reg[("P_block", 1, 1, cfg.name)]] = 1.5
    sched = decode(s, problem, x)
    assert sched.energy[cfg.name][1] == pytest.approx(3.5)


def test_relaxation_arrays_reproduce_rows(bundled_problem):
    A_ub, b_ub, A_eq, b_eq = bundled_problem.relaxation_arrays
    n_eq = int(np.sum(bundled_problem.sense == EQ))
    assert A_eq.shape == (n_eq, bundled_problem.num_cols)
    assert A_ub.shape[0] + n_eq == len(bundled_problem.row_names)
    # a satisfied point has no positive residual in the stacked system
    x = np.zeros(bundled_problem.num_cols)
    lhs = A_ub @ x
    manual = bundled_problem.row_residuals(x)[bundled_problem.sense != EQ]
    assert max(np.maximum(lhs - b_ub, 0.0)) == pytest.approx(max(manual))


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.sampled_from([LE, GE, EQ]))
def test_residual_is_nonnegative_and_tight(coefs, sense):
    x = np.array([0.7, -1.3])
    r = _one_row(coefs, sense, 1.0).row_residuals(x)[0]
    assert r >= 0.0
    lhs = coefs[0] * x[0] + coefs[1] * x[1]
    satisfied = {LE: lhs <= 1.0, GE: lhs >= 1.0, EQ: lhs == 1.0}[sense]
    assert (r == 0.0) == satisfied or abs(lhs - 1.0) < 1e-12


# --- agreement with the one-row-at-a-time reference build -----------------

def _assert_same_build(s):
    """Every compiled array equals the reference build's, byte for byte
    (dtype, shape and bits: explicit zeros and -0.0 included)."""
    new, ref = build(s), reference_build(s)
    for name in ("A.indptr", "A.indices", "A.data", "sense", "rhs", "lower",
                 "upper", "integrality", "objective"):
        a, b = map(attrgetter(name), (new, ref))
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert new.row_names == ref.row_names
    assert package_columns(new.registry, ref.registry, s.horizon.steps[0]) \
        == list(range(len(ref.registry)))


def _fleet(T=4, start=5, copies=(2, 2, 2, 2), blocks=(1, 3), windows=None,
           nodes=None, n_bus=4, mu=(0.0, 0.5, 1.0, 0.25), tan_phi=0.0):
    """A valid radial scenario with several aggregators of each kind.

    ``copies`` counts DRAGs, ESAGs, EVCSs and DDGAGs; DRAG d has
    ``blocks[d % len(blocks)]`` blocks, EVCS k is available over
    ``windows[k]`` (first hour index, hours), and aggregator i sits on bus
    ``nodes[i % len(nodes)]`` (bus 1 is the substation).  Hours start at
    ``start``; a zero ``mu`` makes some coefficients -0.0.
    """
    s = make_scenario(T=T, kinds=())
    steps = tuple(range(start, start + T))
    series = lambda base, i=0: tuple(base + 0.5 * ((i + h) % 3)
                                     for h in range(T))
    buses = tuple(Bus(b, series(0.1 * b), series(0.05 * b))
                  for b in range(1, n_bus + 1))
    branches = tuple(Branch(b, b, b + 1, r=0.01 * b, x=0.02, pl_max=30.0,
                            ql_max=15.0 + b) for b in range(1, n_bus))
    nodes = nodes or tuple(range(1, n_bus + 1))
    windows = windows or [(k % T, T - k % T) for k in range(copies[2])]
    drags, esags, evcss, ddgags, offers = [], [], [], [], {}
    place = iter(range(sum(copies)))

    def node():
        return nodes[next(place) % len(nodes)]

    for d in range(copies[0]):
        nb = blocks[d % len(blocks)]
        drags.append(DragConfig(
            f"drag-{d}", node(),
            tuple(DemandBlock(1.0 + a, series(30.0 - 5 * a, d))
                  for a in range(nb)),
            series(1.0, d), series(0.5, d), tan_phi=tan_phi + 0.1 * d))
    for e in range(copies[1]):
        esags.append(EsagConfig(
            f"esag-{e}", node(), eta_ch=0.9 - 0.05 * e, eta_di=0.95, e_min=1.0,
            e_max=8.0 + e, e_init=2.0 + e, dr_max=2.0 + e, cr_max=1.5))
    for k, (first, hours) in enumerate(windows):
        evcss.append(EvcsConfig(
            f"evcs-{k}", node(), steps[first:first + hours], er_max=3.0 + k,
            err_max=0.5, cl_max=4.0, e_init=1.0 + k % 2, gamma_ch=0.9))
    for g in range(copies[3]):
        ddgags.append(DdgagConfig(
            f"ddgag-{g}", node(), p_min=0.1 * g, p_max=2.0 + g, ru=0.5,
            rd=0.25 * g, tan_phi=tan_phi))
    for i, cfg in enumerate(drags + esags + evcss + ddgags):
        offers[cfg.name] = OfferPrices(
            series(20.0, i), series(4.0, i), series(3.0, i),
            series(0.2, i), series(0.1, i))
    mu = tuple(mu[h % len(mu)] for h in range(T))
    return replace(
        s, horizon=Horizon(steps=steps),
        wholesale=WholesalePrices(*(series(v) for v in (40.0, 5, 4, 1, 0.5))),
        regulation=RegulationSignal(mu, mu[::-1], series(1.0), series(0.5)),
        network=replace(s.network, buses=buses, branches=branches,
                        v_substation=1.02),
        drags=tuple(drags), esags=tuple(esags), evcss=tuple(evcss),
        ddgags=tuple(ddgags), offers=offers)


def test_build_matches_reference_on_bundled_case(bundled):
    _assert_same_build(bundled)


@pytest.mark.parametrize("kinds", [
    (), ("ddgag",), ("esag",), ("evcs",), ("drag",),
    ("drag", "esag", "evcs", "ddgag"),
])
def test_build_matches_reference_per_kind(kinds):
    _assert_same_build(make_scenario(T=3, kinds=kinds))


def test_build_matches_reference_on_fleet():
    # three copies of each kind, DRAGs with 1-3 blocks, EVCS windows of
    # different starts and lengths, two aggregators on every bus, some on
    # the substation bus (1)
    s = _fleet(T=5, copies=(3, 3, 3, 3), blocks=(1, 3, 2),
               windows=[(0, 5), (2, 2), (4, 1)], nodes=(2, 2, 1, 3))
    assert not validate_scenario(s).violations
    assert {cfg.node for _, cfg in s.aggregators()} == {1, 2, 3}
    _assert_same_build(s)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(T=st.integers(1, 4), start=st.integers(0, 3),
       copies=st.tuples(*[st.integers(0, 3)] * 4),
       blocks=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       n_bus=st.integers(1, 4), data=st.data())
def test_build_matches_reference_on_fleets(T, start, copies, blocks, n_bus,
                                           data):
    windows = [data.draw(st.integers(0, T - 1).flatmap(
        lambda first: st.tuples(st.just(first), st.integers(1, T - first))))
        for _ in range(copies[2])]
    nodes = data.draw(st.lists(st.integers(1, n_bus), min_size=1,
                               max_size=4))
    mu = data.draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=1,
                            max_size=3))
    s = _fleet(T, start, copies, blocks, windows, nodes, n_bus, mu,
               tan_phi=data.draw(st.sampled_from([0.0, 0.33])))
    assert not validate_scenario(s).violations
    _assert_same_build(s)
