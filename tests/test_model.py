"""Domain model: validation codes, network topology helpers, per-unit view."""

import math
from dataclasses import fields, is_dataclass, replace
from functools import cache
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scenario
from dsomarket.casestudy import bundled_case_study
from dsomarket.model import (
    Branch,
    Bus,
    DdgagConfig,
    DemandBlock,
    EsagConfig,
    EvcsConfig,
    Horizon,
    InconsistentTopology,
    Network,
    Series,
    ZeroBase,
    per_unit_view,
    validate_scenario,
)
from oracles import reference_per_unit_view, reference_validate


def test_bundled_scenario_is_valid(bundled):
    assert validate_scenario(bundled).ok


def test_micro_scenario_is_valid():
    assert validate_scenario(make_scenario()).ok


def test_empty_horizon_rejected():
    s = replace(make_scenario(), horizon=Horizon(steps=()))
    codes = validate_scenario(s).codes()
    assert "HORIZON_EMPTY" in codes


def test_non_contiguous_horizon_rejected():
    s = replace(make_scenario(T=3), horizon=Horizon(steps=(1, 2, 4)))
    assert "HORIZON_NOT_CONTIGUOUS" in validate_scenario(s).codes()


def test_series_length_mismatch_reported():
    s = make_scenario(T=2)
    bad = replace(s.wholesale, energy=(30.0,))
    s = replace(s, wholesale=bad)
    assert "SERIES_LENGTH_MISMATCH" in validate_scenario(s).codes()


def test_negative_capacity_price_rejected():
    s = make_scenario(T=1)
    bad = replace(s.wholesale, cap_up=(-1.0,))
    assert "PRICE_NEGATIVE" in validate_scenario(
        replace(s, wholesale=bad)).codes()


def test_signal_out_of_range_rejected():
    s = make_scenario(T=1)
    bad = replace(s.regulation, mu_up=(1.5,))
    assert "SIGNAL_OUT_OF_RANGE" in validate_scenario(
        replace(s, regulation=bad)).codes()


def test_extra_branch_breaks_radiality():
    s = make_scenario(kinds=("ddgag", "esag"))
    net = s.network
    extra = Branch(99, 1, 3, r=0.01, x=0.01, pl_max=5.0, ql_max=5.0)
    s = replace(s, network=replace(net, branches=net.branches + (extra,)))
    assert "NETWORK_NOT_RADIAL" in validate_scenario(s).codes()


def test_disconnected_network_reported():
    # right branch count for radiality, but one bus is unreachable
    s = make_scenario(kinds=("ddgag", "esag"))
    net = s.network
    dup = Branch(99, 1, 2, r=0.01, x=0.01, pl_max=5.0, ql_max=5.0)
    s = replace(s, network=replace(net, branches=(net.branches[0], dup)))
    assert "NETWORK_DISCONNECTED" in validate_scenario(s).codes()


def test_unknown_bus_in_branch_reported():
    s = make_scenario()
    net = s.network
    bad = Branch(1, 1, 7, r=0.01, x=0.01, pl_max=5.0, ql_max=5.0)
    s = replace(s, network=replace(net, branches=(bad,)))
    assert "UNKNOWN_BUS" in validate_scenario(s).codes()


def test_esag_initial_charge_out_of_range():
    s = make_scenario(kinds=("esag",))
    cfg = replace(s.esags[0], e_init=9.0)   # e_max is 5.0
    s = replace(s, esags=(cfg,))
    assert "ESAG_INIT_OUT_OF_RANGE" in validate_scenario(s).codes()


def test_evcs_window_must_be_contiguous():
    s = make_scenario(T=4, kinds=("evcs",))
    cfg = replace(s.evcss[0], availability=(1, 3))
    s = replace(s, evcss=(cfg,))
    assert "EVCS_AVAILABILITY_NOT_CONTIGUOUS" in validate_scenario(s).codes()


def test_duplicate_aggregator_names_rejected():
    s = make_scenario(kinds=("ddgag",))
    twin = replace(s.ddgags[0])     # same name, same node
    s = replace(s, ddgags=s.ddgags + (twin,))
    assert "DUPLICATE_AGGREGATOR" in validate_scenario(s).codes()


def test_missing_offer_reported():
    s = make_scenario()
    s = replace(s, offers={})
    assert "OFFER_MISSING" in validate_scenario(s).codes()


def test_offer_for_unknown_aggregator_reported():
    s = make_scenario()
    s = replace(s, offers={**s.offers, "ghost": s.offers["ddgag-x"]})
    assert validate_scenario(s).codes() == ("OFFER_UNKNOWN_AGGREGATOR",)


def test_drag_block_prices_must_be_non_increasing():
    s = make_scenario(T=1, kinds=("drag",))
    cfg = s.drags[0]
    blocks = (DemandBlock(2.0, (10.0,)), DemandBlock(2.0, (12.0,)))
    s = replace(s, drags=(replace(cfg, blocks=blocks),))
    assert "DRAG_BLOCK_PRICES_NOT_MONOTONE" in validate_scenario(s).codes()


def test_incidence_signs():
    br = Branch(1, 2, 3, r=0.0, x=0.0, pl_max=1.0, ql_max=1.0)
    net = Network(buses=(Bus(2, (), ()), Bus(3, (), ())), branches=(br,),
                  substation_bus=2, v_min=0.9, v_max=1.1, s_base=1.0)
    assert net.incidence(br, 2) == 1
    assert net.incidence(br, 3) == -1
    assert net.incidence(br, 4) == 0


def test_incidence_rejects_self_loop():
    br = Branch(1, 2, 2, r=0.0, x=0.0, pl_max=1.0, ql_max=1.0)
    net = Network(buses=(Bus(2, (), ()),), branches=(br,),
                  substation_bus=2, v_min=0.9, v_max=1.1, s_base=1.0)
    with pytest.raises(InconsistentTopology):
        net.incidence(br, 2)


def test_per_unit_view_scales_quantities_and_prices(bundled):
    pu = per_unit_view(bundled)
    base = bundled.network.s_base
    assert pu.network.s_base == 1.0
    assert pu.esags[0].e_max == pytest.approx(bundled.esags[0].e_max / base)
    assert pu.offers["ddgag-1"].energy[0] == pytest.approx(
        bundled.offers["ddgag-1"].energy[0] * base)
    assert pu.network.branches[0].pl_max == pytest.approx(20.0 / base)
    assert validate_scenario(pu).ok


def test_per_unit_view_is_idempotent(bundled):
    pu = per_unit_view(bundled)
    assert per_unit_view(pu) is pu


def test_per_unit_view_zero_base_raises():
    s = make_scenario()
    s = replace(s, network=replace(s.network, s_base=0.0))
    with pytest.raises(ZeroBase):
        per_unit_view(s)


@given(base=st.floats(0.5, 100))
def test_per_unit_round_trip_preserves_offer_value(base):
    # price * quantity products are base-invariant
    s = make_scenario(s_base=base)
    pu = per_unit_view(s)
    name = s.ddgags[0].name
    natural = s.offers[name].energy[0] * s.ddgags[0].p_max
    scaled = pu.offers[name].energy[0] * pu.ddgags[0].p_max
    assert scaled == pytest.approx(natural, rel=1e-12)


# The oracle corpus: validation must report the same violations (code,
# message and order) as the hand-written reference on every scenario below.
ALL_KINDS = ("drag", "esag", "evcs", "ddgag")
BASES = {
    "bundled": bundled_case_study(),
    "all kinds, s_base 7": make_scenario(T=3, kinds=ALL_KINDS, s_base=7.0),
    "one kind": make_scenario(),
}
# 1 is the upper end of a share's range
VALUES = (-1, 0, 1, 1.5, math.nan, math.inf, -math.inf, -0.0, 1e9)


def _number_paths(obj, path=()):
    """(path, is_series) of every float field and every series of a
    scenario, through its nested dataclasses, tuples and dicts."""
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        hint, x = hints[f.name], getattr(obj, f.name)
        if hint is float or hint == Series:
            yield path + (f.name,), hint == Series
        elif isinstance(x, dict):
            for key, v in x.items():
                yield from _number_paths(v, path + (f.name, key))
        elif isinstance(x, tuple):
            for i, v in enumerate(x):
                if is_dataclass(v):
                    yield from _number_paths(v, path + (f.name, i))
        elif is_dataclass(x):
            yield from _number_paths(x, path + (f.name,))


def _get(obj, path):
    for key in path:
        obj = obj[key] if isinstance(obj, (dict, tuple)) else getattr(obj, key)
    return obj


def _set(obj, path, value):
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(obj, dict):
        return {**obj, key: _set(obj[key], rest, value)}
    if isinstance(obj, tuple):
        return obj[:key] + (_set(obj[key], rest, value),) + obj[key + 1:]
    return replace(obj, **{key: _set(getattr(obj, key), rest, value)})


def _mutations(s):
    """(path, value) of every number and every series entry set to each of
    VALUES, and of every series shortened by one."""
    for path, series in _number_paths(s):
        if series:
            xs = _get(s, path)
            yield path, xs[:-1]
            for i in range(len(xs)):
                for v in VALUES:
                    yield path, xs[:i] + (v,) + xs[i + 1:]
        else:
            for v in VALUES:
                yield path, v


@cache
def _base_mutations(base):
    return tuple(_mutations(BASES[base]))


def _assert_same_violations(s):
    assert validate_scenario(s).violations == reference_validate(s).violations


@pytest.mark.parametrize("base", BASES)
def test_validation_matches_reference_on_single_mutations(base):
    s = BASES[base]
    for path, value in _base_mutations(base):
        _assert_same_violations(_set(s, path, value))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(base=st.sampled_from(sorted(BASES)), data=st.data())
def test_validation_matches_reference_on_combined_mutations(base, data):
    s = BASES[base]
    picks = data.draw(st.lists(st.sampled_from(_base_mutations(base)),
                               min_size=1, max_size=3))
    for path, value in picks:
        s = _set(s, path, value)
    _assert_same_violations(s)


def _int_valued_scenario():
    """A scenario built in Python with int quantities and prices."""
    s = make_scenario(T=2, kinds=ALL_KINDS, s_base=3.0)
    ints = (5, 7)
    s = replace(
        s,
        wholesale=replace(s.wholesale, energy=ints, cap_up=ints),
        network=replace(s.network, buses=tuple(
            Bus(b.id, ints, (0, 1)) for b in s.network.buses),
            branches=tuple(replace(br, pl_max=20, ql_max=20)
                           for br in s.network.branches)),
        drags=(replace(s.drags[0], blocks=(DemandBlock(4, ints),),
                       cap_up_max=(1, 2)),),
        esags=(EsagConfig("esag-x", 3, 1.0, 1.0, 1, 5, 3, 2, 2),),
        evcss=(EvcsConfig("evcs-x", 4, (1, 2), 3, 1, 3, 1, 1.0),),
        ddgags=(DdgagConfig("ddgag-x", 5, 0, 1, 1, 1, 0.33),),
        offers={**s.offers, "drag-x": replace(s.offers["drag-x"],
                                              energy=ints)})
    assert validate_scenario(s).ok
    return s


@pytest.mark.parametrize("scenario", [*BASES.values(), _int_valued_scenario()],
                         ids=[*BASES, "int-valued"])
def test_per_unit_view_matches_reference(scenario):
    pu = per_unit_view(scenario)
    ref = reference_per_unit_view(scenario)
    assert pu == ref
    assert repr(pu) == repr(ref)
    assert validate_scenario(pu).violations == reference_validate(
        ref).violations
