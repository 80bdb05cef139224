"""Domain model: validation codes, network topology helpers, per-unit view."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_scenario
from dsomarket.model import (
    Branch,
    Bus,
    DemandBlock,
    Horizon,
    InconsistentTopology,
    Network,
    ZeroBase,
    per_unit_view,
    validate_scenario,
)


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


@given(power=st.floats(0.1, 10), price=st.floats(0.1, 10))
def test_demand_block_scaling_composes(power, price):
    block = DemandBlock(p_max=3.0, prices=(7.0, 5.0))
    scaled = block.scaled(power, price)
    assert scaled.p_max == pytest.approx(3.0 * power)
    assert scaled.prices[1] == pytest.approx(5.0 * price)
    # scaling by the inverse restores the block
    back = scaled.scaled(1.0 / power, 1.0 / price)
    assert back.p_max == pytest.approx(block.p_max)
    assert back.prices[0] == pytest.approx(block.prices[0])


@given(base=st.floats(0.5, 100))
def test_per_unit_round_trip_preserves_offer_value(base):
    # price * quantity products are base-invariant
    s = make_scenario(s_base=base)
    pu = per_unit_view(s)
    name = s.ddgags[0].name
    natural = s.offers[name].energy[0] * s.ddgags[0].p_max
    scaled = pu.offers[name].energy[0] * pu.ddgags[0].p_max
    assert scaled == pytest.approx(natural, rel=1e-12)
