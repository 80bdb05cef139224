"""Built-in 5-bus, 24-hour case study.

The hourly table carries, per hour: wholesale energy/capacity prices, then
energy/capacity offer prices for the storage, dispatchable generation,
EV charging, and demand response aggregators, then the regulation
performance scores (up, down).

Inputs the price table does not determine are filled with documented
assumptions (see ``ASSUMPTIONS``): a single 10 MW
demand block priced at the demand response energy offer, tan(phi) = 0.33
for the demand response and generation aggregators, uniform branch
impedances r = x = 0.01 p.u., 20 MW/MVAr branch limits, voltage limits
[0.95, 1.05] p.u., zero inelastic loads, a 10 MVA base, the substation on
bus 1, and the aggregators on buses 2-5 along a single feeder.
"""

from __future__ import annotations

from .model import (
    Branch,
    Bus,
    DdgagConfig,
    DemandBlock,
    DragConfig,
    EsagConfig,
    EvcsConfig,
    Horizon,
    Network,
    OfferPrices,
    RegulationSignal,
    Scenario,
    WholesalePrices,
)
from .scenario_io import MILEAGE_FRACTION

# t: (wholesale E, wholesale C, esag E, esag C, ddgag E, ddgag C,
#     evcs E, evcs C, drag E, drag C, mu_up, mu_dn)
HOURLY_TABLE: tuple[tuple[float, ...], ...] = (
    (24.3, 14.7, 25, 23, 28, 27, 29, 30.5, 29, 30, 0.45, 0.42),
    (23.7, 17.3, 25, 23, 28, 27, 29, 30.5, 29, 30, 0.45, 0.42),
    (23.0, 16.6, 25, 23, 28, 27, 29, 30.5, 29, 30, 0.45, 0.42),
    (23.0, 16.6, 25, 23, 28, 27, 29, 30.5, 29, 30, 0.45, 0.42),
    (23.7, 17.3, 25, 23, 28, 27, 29, 30.5, 29, 30, 0.45, 0.42),
    (25.9, 22.7, 28, 25, 29, 28, 29.5, 31, 30, 31, 0.48, 0.48),
    (29.4, 30.4, 28, 25, 29, 28, 29.5, 31, 30, 31, 0.48, 0.48),
    (30.7, 33.6, 28, 25, 29, 28, 29.5, 31, 30, 31, 0.48, 0.48),
    (30.1, 33.6, 28, 25, 29, 28, 29.5, 31, 30, 31, 0.48, 0.48),
    (29.1, 31.4, 28, 25, 29, 28, 29.5, 31, 30, 31, 0.48, 0.48),
    (28.8, 30.4, 28, 25, 29, 28, 29.5, 31, 30, 31, 0.48, 0.48),
    (28.2, 24.3, 28, 25, 29, 28, 29.5, 31, 30, 31, 0.48, 0.48),
    (27.5, 24.3, 27, 24, 28.5, 27.5, 29, 30.5, 29, 30, 0.5, 0.51),
    (27.2, 24.3, 27, 24, 28.5, 27.5, 29, 30.5, 29, 30, 0.5, 0.51),
    (27.2, 24.3, 27, 24, 28.5, 27.5, 29, 30.5, 29, 30, 0.5, 0.51),
    (27.5, 24.3, 27, 24, 28.5, 27.5, 29, 30.5, 29, 30, 0.5, 0.51),
    (28.2, 28.2, 30, 27, 29, 28, 29.5, 31, 30, 31, 0.5, 0.51),
    (30.4, 28.8, 30, 27, 29, 28, 29.5, 31, 30, 31, 0.5, 0.51),
    (32.0, 33.6, 30, 27, 29, 28, 29.5, 31, 30, 31, 0.5, 0.51),
    (32.0, 33.6, 30, 27, 29, 28, 29.5, 31, 30, 31, 0.5, 0.5),
    (31.0, 32.0, 30, 27, 29, 28, 29.5, 31, 30, 31, 0.5, 0.5),
    (29.4, 32.0, 28, 25, 29, 28, 29.5, 31, 30, 31, 0.5, 0.5),
    (27.5, 25.6, 28, 25, 28, 27, 29, 30.5, 29, 30, 0.42, 0.45),
    (25.3, 22.4, 28, 25, 28, 27, 29, 30.5, 29, 30, 0.42, 0.45),
)

ASSUMPTIONS: tuple[str, ...] = (
    "single 10 MW demand block priced at the DRAG energy offer",
    "tan_phi = 0.33 for the demand response and generation aggregators",
    "branch impedances r = x = 0.01 p.u. on every branch",
    "branch limits 20 MW / 20 MVAr",
    "voltage limits [0.95, 1.05] p.u., substation fixed at 1.0 p.u.",
    "zero inelastic loads at every bus",
    "s_base = 10 MVA",
    "substation on bus 1; DRAG, ESAG, EVCS, DDGAG on buses 2-5 of one feeder",
    "EVCS maximum charge level 10 MWh",
    "mileage prices = capacity prices / 20",
    "mileage ratios s_up = s_dn = 1.0",
)


def _column(idx: int) -> tuple[float, ...]:
    return tuple(float(row[idx]) for row in HOURLY_TABLE)


def _offer(energy_idx: int, cap_idx: int) -> OfferPrices:
    cap = _column(cap_idx)
    mil = tuple(c * MILEAGE_FRACTION for c in cap)
    return OfferPrices(energy=_column(energy_idx), cap_up=cap, cap_dn=cap,
                       mil_up=mil, mil_dn=mil)


def bundled_case_study() -> Scenario:
    """The default 24-hour, 5-bus scenario with one aggregator of each type."""
    T = len(HOURLY_TABLE)
    steps = tuple(range(1, T + 1))
    zeros = (0.0,) * T

    wholesale_cap = _column(1)
    wholesale = WholesalePrices(
        energy=_column(0),
        cap_up=wholesale_cap,
        cap_dn=wholesale_cap,
        mil_up=tuple(c * MILEAGE_FRACTION for c in wholesale_cap),
        mil_dn=tuple(c * MILEAGE_FRACTION for c in wholesale_cap),
    )
    regulation = RegulationSignal(
        mu_up=_column(10),
        mu_dn=_column(11),
        s_up=(1.0,) * T,
        s_dn=(1.0,) * T,
    )
    network = Network(
        buses=tuple(Bus(n, zeros, zeros) for n in range(1, 6)),
        branches=tuple(
            Branch(j, j, j + 1, r=0.01, x=0.01, pl_max=20.0, ql_max=20.0)
            for j in range(1, 5)),
        substation_bus=1,
        v_min=0.95,
        v_max=1.05,
        s_base=10.0,
        v_substation=1.0,
    )
    drag = DragConfig(
        name="drag-1", node=2,
        blocks=(DemandBlock(p_max=10.0, prices=_column(8)),),
        cap_up_max=(1.0,) * T,
        cap_dn_max=(1.0,) * T,
        tan_phi=0.33,
    )
    esag = EsagConfig(
        name="esag-1", node=3,
        eta_ch=1.0, eta_di=1.0,
        e_min=2.0, e_max=10.0, e_init=8.0,
        dr_max=5.0, cr_max=5.0,
    )
    evcs = EvcsConfig(
        name="evcs-1", node=4,
        availability=tuple(range(16, 25)),
        er_max=5.0, err_max=0.5,
        cl_max=10.0, e_init=2.0, gamma_ch=1.0,
    )
    ddgag = DdgagConfig(
        name="ddgag-1", node=5,
        p_min=0.0, p_max=5.0, ru=1.0, rd=1.0,
        tan_phi=0.33,
    )
    offers = {
        "drag-1": _offer(8, 9),
        "esag-1": _offer(2, 3),
        "evcs-1": _offer(6, 7),
        "ddgag-1": _offer(4, 5),
    }
    return Scenario(
        horizon=Horizon(steps=steps, step_hours=1.0),
        wholesale=wholesale,
        regulation=regulation,
        network=network,
        drags=(drag,),
        esags=(esag,),
        evcss=(evcs,),
        ddgags=(ddgag,),
        offers=offers,
    )
