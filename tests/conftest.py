"""Shared fixtures: the bundled case study (built and solved once per
session) and a small-scenario factory for targeted tests."""

from __future__ import annotations

import importlib.util
import os
import tempfile
from pathlib import Path

import pytest

from dsomarket.analysis import scale_energy_offers, settle
from dsomarket.casestudy import bundled_case_study
from dsomarket.formulation import build, decode
from dsomarket.model import (
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
from dsomarket.mps import write_mps
from dsomarket.scenario_io import scenario_from_dict, scenario_to_dict
from dsomarket.solver import solve_milp


@pytest.fixture(scope="session")
def bundled():
    return bundled_case_study()


@pytest.fixture(scope="session")
def bundled_problem(bundled):
    return build(bundled)


@pytest.fixture(scope="session")
def bundled_solution(bundled_problem):
    return solve_milp(bundled_problem)


@pytest.fixture(scope="session")
def bundled_schedule(bundled, bundled_problem, bundled_solution):
    return decode(bundled, bundled_problem, bundled_solution.values,
                  bundled_solution.status)


def rows_by_name(problem):
    """Every constraint row of a problem as name -> (cols, coefs, sense,
    rhs), with the row's entries in column order."""
    A = problem.A
    return {name: (A.indices[A.indptr[i]:A.indptr[i + 1]].tolist(),
                   A.data[A.indptr[i]:A.indptr[i + 1]].tolist(),
                   str(problem.sense[i]), float(problem.rhs[i]))
            for i, name in enumerate(problem.row_names)}


def ladder_rung(k: int, seed: int = 0) -> Scenario:
    """Rung ``k`` of the benchmark's scenario ladder (``bench/ladder.py``)
    for ladder seed ``seed``."""
    spec = importlib.util.spec_from_file_location(
        "ladder", Path(__file__).parents[1] / "bench" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    doc = ladder.ladder_doc(scenario_to_dict(bundled_case_study()), k, seed)
    return scenario_from_dict(doc)[0]


def mps_text(problem, name: str = "DSOMILP") -> str:
    """The text ``write_mps`` writes for ``problem``, read back byte for
    byte."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.mps")
        write_mps(problem, path, name)
        with open(path, "rb") as fh:
            return fh.read().decode()


def first_energy_rise(cases, target, relative_gap):
    """First consecutive pair of sweep cases whose offer-weighted energy
    of the target rises.

    E_i = energy revenue / multiplier is the target's energy weighted by
    its base offers.  Only the objective depends on the multiplier m, so
    for optima x_1, x_2 at m_1 < m_2 the two optimality inequalities sum
    to (m_2 - m_1)(E_2 - E_1) <= eps_1 + eps_2, where eps_i is the
    branch-and-bound pruning bound relative_gap * max(1, |objective_i|).
    Returns (prev, case, E_prev, E, allowance) or None.
    """
    for prev, case in zip(cases, cases[1:]):
        e_prev = prev.revenue.entities[target].energy / prev.multiplier
        e = case.revenue.entities[target].energy / case.multiplier
        eps = relative_gap * (max(1.0, abs(prev.objective))
                              + max(1.0, abs(case.objective)))
        allowance = eps / (case.multiplier - prev.multiplier)
        if e > e_prev + allowance:
            return prev, case, e_prev, e, allowance
    return None


def make_scenario(T=2, kinds=("ddgag",), *, wholesale_energy=30.0,
                  cap_price=5.0, offer_energy=20.0, offer_cap=4.0,
                  extra_load_bus=False, p_load=0.0, s_base=1.0,
                  pl_max=20.0):
    """Small radial scenario: substation plus one bus per aggregator kind
    (in the given order), optionally one more bus carrying a fixed load."""
    steps = tuple(range(1, T + 1))
    const = lambda v: (float(v),) * T
    zeros = const(0.0)

    n_extra = len(kinds) + (1 if extra_load_bus else 0)
    buses = [Bus(1, zeros, zeros)]
    branches = []
    for i in range(n_extra):
        bid = i + 2
        load = const(p_load) if (extra_load_bus and i == n_extra - 1) else zeros
        buses.append(Bus(bid, load, zeros))
        branches.append(Branch(i + 1, bid - 1, bid, r=0.01, x=0.01,
                               pl_max=pl_max, ql_max=pl_max))

    offer = OfferPrices(energy=const(offer_energy), cap_up=const(offer_cap),
                        cap_dn=const(offer_cap), mil_up=const(offer_cap / 20),
                        mil_dn=const(offer_cap / 20))
    drags, esags, evcss, ddgags, offers = [], [], [], [], {}
    for i, kind in enumerate(kinds):
        node = i + 2
        name = f"{kind}-x"
        if kind == "drag":
            drags.append(DragConfig(
                name=name, node=node,
                blocks=(DemandBlock(p_max=4.0, prices=const(offer_energy)),),
                cap_up_max=const(1.0), cap_dn_max=const(1.0), tan_phi=0.33))
        elif kind == "esag":
            esags.append(EsagConfig(
                name=name, node=node, eta_ch=1.0, eta_di=1.0,
                e_min=1.0, e_max=5.0, e_init=3.0, dr_max=2.0, cr_max=2.0))
        elif kind == "evcs":
            evcss.append(EvcsConfig(
                name=name, node=node, availability=steps[-min(T, 2):],
                er_max=3.0, err_max=0.5, cl_max=3.0, e_init=1.0,
                gamma_ch=1.0))
        elif kind == "ddgag":
            ddgags.append(DdgagConfig(
                name=name, node=node, p_min=0.0, p_max=1.0, ru=0.5, rd=0.5,
                tan_phi=0.33))
        else:
            raise ValueError(kind)
        offers[name] = offer

    return Scenario(
        horizon=Horizon(steps=steps),
        wholesale=WholesalePrices(
            energy=const(wholesale_energy), cap_up=const(cap_price),
            cap_dn=const(cap_price), mil_up=const(cap_price / 20),
            mil_dn=const(cap_price / 20)),
        regulation=RegulationSignal(mu_up=const(0.5), mu_dn=const(0.5),
                                    s_up=const(1.0), s_dn=const(1.0)),
        network=Network(buses=tuple(buses), branches=tuple(branches),
                        substation_bus=1, v_min=0.9, v_max=1.1,
                        s_base=s_base),
        drags=tuple(drags), esags=tuple(esags), evcss=tuple(evcss),
        ddgags=tuple(ddgags), offers=offers)


DELETE = object()


def edit(doc, path, value):
    """Set the value at a key path of a scenario document in place, or
    remove it when ``value`` is ``DELETE``."""
    *head, last = path
    for key in head:
        doc = doc[key]
    if value is DELETE:
        del doc[last]
    else:
        doc[last] = value


def reported_solution(scenario, target, case, candidates):
    """The solution among ``candidates`` that a sweep case reports: the
    one whose settlement at the case's prices is the case's revenue and
    whose cost there is its objective; None if there is none."""
    scaled = scale_energy_offers(scenario, target, case.multiplier)
    problem = build(scaled)
    for x in candidates:
        cost = float(problem.objective @ x)
        if (abs(cost - case.objective) <= 1e-9 * max(1.0, abs(cost))
                and settle(scaled, problem.registry, problem.prices, x)
                == case.revenue):
            return x
    return None
