"""Compile a Scenario into a sparse mixed-integer linear program.

Variable registry (each column declared once, with its bounds and
integrality), the settlement price table whose sum is the objective, and
all constraint families for the DSO coordination problem: demand response
blocks, storage charge dynamics with mode binaries, EV charging windows
with an enable binary, dispatchable generation limits, linearized radial
power flow, and the substation-level aggregation identities.  The compiled
:class:`MilpProblem` holds the constraints as one sparse matrix ``A`` (CSR,
rows in build order) with a ``sense``, ``rhs`` and name per row; the LP
relaxation, the residual checks and the MPS export all read that matrix.
Also decodes raw solver vectors back into a :class:`Schedule`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .model import (
    KIND_DRAG,
    KIND_ESAG,
    KIND_EVCS,
    Scenario,
    ScenarioValidationError,
    validate_scenario,
)
from .scenario_io import scenario_hash

LE, GE, EQ = "<=", ">=", "=="

VarKey = tuple


class DimensionMismatch(ValueError):
    """Raw solution length does not match the problem's column count."""


class NonOptimalStatus(RuntimeError):
    """Decoding was attempted on a non-optimal solver result."""


class VariableRegistry:
    """Bijective map from (family, *subscripts) keys to column indices,
    with each column's bounds and integrality.

    A key's last part names the column's owner: an aggregator's name, or
    the hour of a DSO (substation or network) column.
    """

    def __init__(self) -> None:
        self._index: dict[VarKey, int] = {}
        self._keys: list[VarKey] = []
        # packed, so that the problem's bound arrays can be views of them
        self._lower = array("d")
        self._upper = array("d")
        self._binary = array("b")

    def add(self, *key, lower: float = -np.inf, upper: float = np.inf,
            binary: bool = False) -> int:
        """Declare the next column; a binary one is integral on [0, 1]."""
        if key in self._index:
            raise ValueError(f"duplicate variable {key}")
        if binary:
            lower, upper = 0.0, 1.0
        self._lower.append(lower)
        self._upper.append(upper)
        self._binary.append(binary)
        idx = len(self._keys)
        self._index[key] = idx
        self._keys.append(key)
        return idx

    def __getitem__(self, key: VarKey) -> int:
        return self._index[key]

    def columns(self, keys) -> list[int]:
        """Column index of each key."""
        return list(map(self._index.__getitem__, keys))

    def __contains__(self, key: VarKey) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._keys)

    def keys(self) -> tuple[VarKey, ...]:
        return tuple(self._keys)

    def key_of(self, idx: int) -> VarKey:
        return self._keys[idx]

    def bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-column lower and upper bounds and the integrality mask, as
        views of the registry's storage: no column can be declared while
        they are alive."""
        return (np.frombuffer(self._lower), np.frombuffer(self._upper),
                np.frombuffer(self._binary, dtype=bool))

    @cached_property
    def _owner_groups(self) -> tuple[list, np.ndarray, np.ndarray]:
        # owners in first-seen order, the column indices grouped by owner,
        # and where each group starts
        groups: dict[object, list[int]] = {}
        for j, key in enumerate(self._keys):
            groups.setdefault(key[-1], []).append(j)
        sizes = [len(cols) for cols in groups.values()]
        return (list(groups), np.concatenate(list(groups.values())),
                np.cumsum([0] + sizes[:-1]))

    def sum_by_owner(self, table: np.ndarray) -> dict[object, list[float]]:
        """Sum a (k, n) table's columns per owner, each owner's columns in
        column order and from 0.0, as Python's ``sum`` does (so an all-zero
        sum is 0.0, not -0.0).  The grouping is made at the first call, so
        call it only when every column is declared."""
        owners, order, starts = self._owner_groups
        sums = np.add.reduceat(table[:, order], starts, axis=1) + 0.0
        return dict(zip(owners, sums.T.tolist()))


class Constraints:
    """Constraint rows in build order, collected as COO entries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.row: list[int] = []
        self.col: list[int] = []
        self.coef: list[float] = []

    def add(self, name: str, cols, coefs, sense: str, rhs: float) -> None:
        """Append the row ``coefs @ x[cols]  (sense)  rhs``."""
        self.row.extend([len(self.names)] * len(cols))
        self.col.extend(cols)
        self.coef.extend(coefs)
        self.names.append(name)
        self.senses.append(sense)
        self.rhs.append(rhs)


@dataclass(frozen=True)
class MilpProblem:
    """Sparse constraint system with objective, bounds, and integrality:
    row i reads ``A[i] @ x  (sense[i])  rhs[i]``."""

    objective: np.ndarray
    A: sparse.csr_matrix
    sense: np.ndarray                # LE, GE or EQ per row
    rhs: np.ndarray
    row_names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray          # bool per column
    registry: VariableRegistry

    @property
    def num_cols(self) -> int:
        return len(self.objective)

    @cached_property
    def relaxation_arrays(self):
        """(A_ub, b_ub, A_eq, b_eq) as CSR matrices for the LP relaxation,
        with each >= row negated into a <= row; an empty block is None."""
        sign = np.where(self.sense == GE, -1.0, 1.0)
        eq = self.sense == EQ

        def block(mask):
            if not mask.any():
                return None
            rows = self.A[mask]
            rows.data *= np.repeat(sign[mask], np.diff(rows.indptr))
            return rows

        return (block(~eq), (sign * self.rhs)[~eq], block(eq), self.rhs[eq])

    def row_residuals(self, x: np.ndarray) -> np.ndarray:
        """Violation of each row by x (zero where it holds), aligned with
        ``row_names``."""
        if len(x) != self.num_cols:
            raise DimensionMismatch(
                f"solution has {len(x)} entries, problem has {self.num_cols}")
        excess = self.A @ x - self.rhs
        excess = np.where(self.sense == GE, -excess, excess)
        return np.where(self.sense == EQ, np.abs(excess),
                        np.maximum(excess, 0.0))

    def max_residual(self, x: np.ndarray) -> float:
        """Largest constraint violation of x over every row and bound."""
        excess = (self.row_residuals(x), self.lower - x, x - self.upper)
        return max(float(np.max(e, initial=0.0)) for e in excess)


@dataclass(frozen=True)
class Schedule:
    """Decoded per-hour awards and network state for one solved scenario."""

    steps: tuple[int, ...]
    p_sub: dict[int, float]
    q_sub: dict[int, float]
    r_sub_up: dict[int, float]
    r_sub_dn: dict[int, float]
    energy: dict[str, dict[int, float]]       # per aggregator, per hour (MW)
    cap_up: dict[str, dict[int, float]]
    cap_dn: dict[str, dict[int, float]]
    esag_charge: dict[str, dict[int, float]]  # MWh
    esag_mode: dict[str, dict[int, int]]      # 1 = discharging
    evcs_enabled: dict[str, int]
    flows_p: dict[int, dict[int, float]]      # branch id -> hour -> MW
    flows_q: dict[int, dict[int, float]]
    voltage: dict[int, dict[int, float]]      # bus id -> hour -> p.u.
    objective: float
    scenario_hash: str
    values: np.ndarray = field(repr=False)
    registry: VariableRegistry = field(repr=False)


def build_registry(s: Scenario) -> VariableRegistry:
    """Declare every decision column, with its bounds and integrality, in
    deterministic order."""
    reg = VariableRegistry()
    steps = s.horizon.steps
    total_pl = sum(br.pl_max for br in s.network.branches)
    total_ql = sum(br.ql_max for br in s.network.branches)
    for t in steps:
        reg.add("P_sub", t, lower=-total_pl, upper=total_pl)
        reg.add("Q_sub", t, lower=-total_ql, upper=total_ql)
        reg.add("r_sub_up", t, lower=0.0)
        reg.add("r_sub_dn", t, lower=0.0)
    for cfg in s.drags:
        k = cfg.name
        for ti, t in enumerate(steps):
            for a, block in enumerate(cfg.blocks):
                reg.add("P_block", a, t, k, lower=0.0, upper=block.p_max)
            reg.add("r_up", t, k, lower=0.0, upper=cfg.cap_up_max[ti])
            reg.add("r_dn", t, k, lower=0.0, upper=cfg.cap_dn_max[ti])
    for cfg in s.esags:
        k = cfg.name
        both = cfg.dr_max + cfg.cr_max
        for t in steps:
            reg.add("P", t, k)                      # net injection, free
            reg.add("E", t, k, lower=cfg.e_min, upper=cfg.e_max)
            reg.add("P_di", t, k, lower=0.0, upper=cfg.dr_max)
            reg.add("P_ch", t, k, lower=0.0, upper=cfg.cr_max)
            reg.add("r_up", t, k, lower=0.0, upper=both)
            reg.add("r_dn", t, k, lower=0.0, upper=both)
            reg.add("r_up_di", t, k, lower=0.0, upper=cfg.dr_max)
            reg.add("r_dn_di", t, k, lower=0.0, upper=cfg.dr_max)
            reg.add("r_up_ch", t, k, lower=0.0, upper=cfg.cr_max)
            reg.add("r_dn_ch", t, k, lower=0.0, upper=cfg.cr_max)
            reg.add("b_es", t, k, binary=True)
    for cfg in s.evcss:
        k = cfg.name
        avail = set(cfg.availability)
        for t in steps:
            # no EVs present: every column for this hour pinned to zero
            on = t in avail
            reg.add("P", t, k, lower=0.0, upper=cfg.er_max if on else 0.0)
            reg.add("r_up", t, k, lower=0.0, upper=cfg.err_max if on else 0.0)
            reg.add("r_dn", t, k, lower=0.0, upper=cfg.err_max if on else 0.0)
        reg.add("b_ev", k, binary=True)
    for cfg in s.ddgags:
        for t in steps:
            reg.add("P", t, cfg.name, lower=cfg.p_min, upper=cfg.p_max)
            reg.add("r_up", t, cfg.name, lower=0.0, upper=cfg.ru)
            reg.add("r_dn", t, cfg.name, lower=0.0, upper=cfg.rd)
    for br in s.network.branches:
        for t in steps:
            reg.add("Pl", br.id, t, lower=-br.pl_max, upper=br.pl_max)
            reg.add("Ql", br.id, t, lower=-br.ql_max, upper=br.ql_max)
    for bus in s.network.buses:
        for t in steps:
            reg.add("V", bus.id, t, lower=s.network.v_min,
                    upper=s.network.v_max)
    return reg


def settlement_prices(s: Scenario, reg: VariableRegistry) -> np.ndarray:
    """Energy, capacity and mileage price of every column, as the rows of
    a (3, n) table, signed as in the objective: payments to aggregators
    enter positively, wholesale income and collections from loads
    negatively.  The DSO settles every aggregator at its own offer prices,
    so the objective is the sum of the three rows, and an entity's
    payments are its columns' prices times their values.
    """
    energy, capacity, mileage = prices = np.zeros((3, len(reg)))
    w, sig = s.wholesale, s.regulation
    dt = s.horizon.step_hours
    aggregators = [(kind, cfg, s.offers[cfg.name])
                   for kind, cfg in s.aggregators()]
    for ti, t in enumerate(s.horizon.steps):
        # deployed share of the hour's up and down awards
        share_up = sig.s_up[ti] * sig.mu_up[ti]
        share_dn = sig.s_dn[ti] * sig.mu_dn[ti]
        # the DSO sells energy and regulation to the wholesale market
        energy[reg[("P_sub", t)]] = -w.energy[ti] * dt
        up, dn = reg[("r_sub_up", t)], reg[("r_sub_dn", t)]
        capacity[up] = -w.cap_up[ti]
        capacity[dn] = -w.cap_dn[ti]
        mileage[up] = -(share_up * w.mil_up[ti])
        mileage[dn] = -(share_dn * w.mil_dn[ti])
        # ... and buys them from the aggregators at their offer prices
        for kind, cfg, o in aggregators:
            k = cfg.name
            if kind == KIND_DRAG:
                for a, block in enumerate(cfg.blocks):
                    energy[reg[("P_block", a, t, k)]] = -block.prices[ti] * dt
            elif kind == KIND_EVCS:
                energy[reg[("P", t, k)]] = -o.energy[ti] * dt
            else:
                energy[reg[("P", t, k)]] = o.energy[ti] * dt
            up, dn = reg[("r_up", t, k)], reg[("r_dn", t, k)]
            capacity[up] = o.cap_up[ti]
            capacity[dn] = o.cap_dn[ti]
            mileage[up] = share_up * o.mil_up[ti]
            mileage[dn] = share_dn * o.mil_dn[ti]
    return prices


def build_objective(s: Scenario, reg: VariableRegistry) -> np.ndarray:
    """Minimization objective: the settlement prices of each column."""
    energy, capacity, mileage = settlement_prices(s, reg)
    return energy + capacity + mileage


def add_drag_constraints(s: Scenario, reg: VariableRegistry,
                         rows: Constraints) -> None:
    for cfg in s.drags:
        blocks = range(len(cfg.blocks))
        total = sum(b.p_max for b in cfg.blocks)
        for t in s.horizon.steps:
            block_cols = tuple(reg[("P_block", a, t, cfg.name)] for a in blocks)
            rows.add(
                f"drag_dn_headroom[{t},{cfg.name}]",
                block_cols + (reg[("r_dn", t, cfg.name)],),
                (1.0,) * len(block_cols) + (-1.0,), GE, 0.0)
            rows.add(
                f"drag_up_headroom[{t},{cfg.name}]",
                block_cols + (reg[("r_up", t, cfg.name)],),
                (1.0,) * len(block_cols) + (1.0,), LE, total)


def add_esag_constraints(s: Scenario, reg: VariableRegistry,
                         rows: Constraints) -> None:
    sig = s.regulation
    dt = s.horizon.step_hours
    steps = s.horizon.steps
    for cfg in s.esags:
        k = cfg.name
        for ti, t in enumerate(steps):
            mu_up, mu_dn = sig.mu_up[ti], sig.mu_dn[ti]
            # charge state: P*dt = E_{t-1} - E_t + dt*(r_up*mu/eta_di - r_dn*mu*eta_ch)
            cols = [reg[("P", t, k)], reg[("E", t, k)],
                    reg[("r_up", t, k)], reg[("r_dn", t, k)]]
            coefs = [dt, 1.0,
                     -dt * mu_up / cfg.eta_di, dt * mu_dn * cfg.eta_ch]
            if ti == 0:
                rhs = cfg.e_init
            else:
                cols.append(reg[("E", steps[ti - 1], k)])
                coefs.append(-1.0)
                rhs = 0.0
            rows.add(f"esag_state[{t},{k}]", cols, coefs, EQ, rhs)
            # injection split: P = P_di/eta_di - P_ch*eta_ch
            rows.add(
                f"esag_split[{t},{k}]",
                (reg[("P", t, k)], reg[("P_di", t, k)], reg[("P_ch", t, k)]),
                (1.0, -1.0 / cfg.eta_di, cfg.eta_ch), EQ, 0.0)
            # capacity compositions
            rows.add(
                f"esag_cap_up[{t},{k}]",
                (reg[("r_up", t, k)], reg[("r_up_di", t, k)],
                 reg[("r_dn_ch", t, k)]),
                (1.0, -1.0, -1.0), EQ, 0.0)
            rows.add(
                f"esag_cap_dn[{t},{k}]",
                (reg[("r_dn", t, k)], reg[("r_dn_di", t, k)],
                 reg[("r_up_ch", t, k)]),
                (1.0, -1.0, -1.0), EQ, 0.0)
            # mode gating: discharge-side offers need b = 1,
            # charge-side offers need b = 0
            b = reg[("b_es", t, k)]
            for fam in ("P_di", "r_up_di", "r_dn_di"):
                rows.add(
                    f"esag_gate_di[{fam},{t},{k}]",
                    (reg[(fam, t, k)], b), (1.0, -cfg.dr_max), LE, 0.0)
            for fam in ("P_ch", "r_up_ch", "r_dn_ch"):
                rows.add(
                    f"esag_gate_ch[{fam},{t},{k}]",
                    (reg[(fam, t, k)], b), (1.0, cfg.cr_max), LE, cfg.cr_max)
            # merged gate/headroom rows: implied whenever b is 0 or 1, but
            # they stop a fractional mode bit from claiming capacity on both
            # sides at once, which keeps the relaxation tight enough to
            # solve in seconds instead of hours
            rows.add(
                f"esag_gate_di_merged[{t},{k}]",
                (reg[("P_di", t, k)], reg[("r_up_di", t, k)], b),
                (1.0, 1.0, -cfg.dr_max), LE, 0.0)
            rows.add(
                f"esag_gate_ch_merged[{t},{k}]",
                (reg[("P_ch", t, k)], reg[("r_up_ch", t, k)], b),
                (1.0, 1.0, cfg.cr_max), LE, cfg.cr_max)
            # headroom couplings around the scheduled (dis)charge rate
            rows.add(
                f"esag_di_floor[{t},{k}]",
                (reg[("P_di", t, k)], reg[("r_dn_di", t, k)]),
                (1.0, -1.0), GE, 0.0)
            rows.add(
                f"esag_di_ceiling[{t},{k}]",
                (reg[("P_di", t, k)], reg[("r_up_di", t, k)]),
                (1.0, 1.0), LE, cfg.dr_max)
            rows.add(
                f"esag_ch_floor[{t},{k}]",
                (reg[("P_ch", t, k)], reg[("r_dn_ch", t, k)]),
                (1.0, -1.0), GE, 0.0)
            rows.add(
                f"esag_ch_ceiling[{t},{k}]",
                (reg[("P_ch", t, k)], reg[("r_up_ch", t, k)]),
                (1.0, 1.0), LE, cfg.cr_max)


def add_evcs_constraints(s: Scenario, reg: VariableRegistry,
                         rows: Constraints) -> None:
    sig = s.regulation
    dt = s.horizon.step_hours
    step_index = {t: i for i, t in enumerate(s.horizon.steps)}
    for cfg in s.evcss:
        k = cfg.name
        b = reg[("b_ev", k)]
        for t in cfg.availability:
            rows.add(f"evcs_gate_p[{t},{k}]",
                     (reg[("P", t, k)], b),
                     (1.0, -cfg.er_max), LE, 0.0)
            rows.add(f"evcs_gate_up[{t},{k}]",
                     (reg[("r_up", t, k)], b),
                     (1.0, -cfg.err_max), LE, 0.0)
            rows.add(f"evcs_gate_dn[{t},{k}]",
                     (reg[("r_dn", t, k)], b),
                     (1.0, -cfg.err_max), LE, 0.0)
            rows.add(f"evcs_up_headroom[{t},{k}]",
                     (reg[("P", t, k)], reg[("r_up", t, k)]),
                     (1.0, 1.0), LE, cfg.er_max)
            rows.add(f"evcs_dn_headroom[{t},{k}]",
                     (reg[("P", t, k)], reg[("r_dn", t, k)]),
                     (1.0, -1.0), GE, 0.0)
        # terminal charge window, gated by the enable binary:
        # 0.9*cl_max*b <= e_init*b + gamma*dt*sum(P + r_up*mu - r_dn*mu) <= cl_max*b
        cols: list[int] = [b]
        charge: list[float] = []
        for t in cfg.availability:
            ti = step_index[t]
            for fam, sign in (("P", 1.0), ("r_up", sig.mu_up[ti]),
                              ("r_dn", -sig.mu_dn[ti])):
                cols.append(reg[(fam, t, k)])
                charge.append(cfg.gamma_ch * dt * sign)
        rows.add(f"evcs_charge_floor[{k}]", cols,
                 [cfg.e_init - 0.9 * cfg.cl_max] + charge, GE, 0.0)
        rows.add(f"evcs_charge_ceiling[{k}]", cols,
                 [cfg.e_init - cfg.cl_max] + charge, LE, 0.0)


def add_ddgag_constraints(s: Scenario, reg: VariableRegistry,
                          rows: Constraints) -> None:
    for cfg in s.ddgags:
        for t in s.horizon.steps:
            rows.add(
                f"ddgag_up_headroom[{t},{cfg.name}]",
                (reg[("P", t, cfg.name)], reg[("r_up", t, cfg.name)]),
                (1.0, 1.0), LE, cfg.p_max)
            rows.add(
                f"ddgag_dn_headroom[{t},{cfg.name}]",
                (reg[("P", t, cfg.name)], reg[("r_dn", t, cfg.name)]),
                (1.0, -1.0), GE, cfg.p_min)


def add_network_constraints(s: Scenario, reg: VariableRegistry,
                            rows: Constraints) -> None:
    net = s.network
    steps = s.horizon.steps
    by_node: dict[int, list] = {n: [] for n in net.bus_ids()}
    for kind, cfg in s.aggregators():
        by_node[cfg.node].append((kind, cfg))
    # each bus's (branch, incidence) pairs, in branch order
    incident: dict[int, list] = {n: [] for n in net.bus_ids()}
    for br in net.branches:
        for bus_id in (br.from_bus, br.to_bus):
            a_jn = net.incidence(br, bus_id)
            if bus_id in incident:
                incident[bus_id].append((br, float(a_jn)))

    for ti, t in enumerate(steps):
        for bus in net.buses:
            # active balance: consumption +, generation -, plus substation
            # injection and net branch outflow, all summing to zero
            # column -> coefficient; no column enters a balance twice
            p: dict[int, float] = {}
            q: dict[int, float] = {}
            for kind, cfg in by_node[bus.id]:
                if kind == KIND_DRAG:
                    for a in range(len(cfg.blocks)):
                        j = reg[("P_block", a, t, cfg.name)]
                        p[j] = 1.0
                        q[j] = cfg.tan_phi
                elif kind == KIND_EVCS:
                    p[reg[("P", t, cfg.name)]] = 1.0
                elif kind == KIND_ESAG:
                    p[reg[("P", t, cfg.name)]] = -1.0
                else:
                    j = reg[("P", t, cfg.name)]
                    p[j] = -1.0
                    q[j] = -cfg.tan_phi
            if bus.id == net.substation_bus:
                p[reg[("P_sub", t)]] = 1.0
                q[reg[("Q_sub", t)]] = 1.0
            for br, a_jn in incident[bus.id]:
                p[reg[("Pl", br.id, t)]] = a_jn
                q[reg[("Ql", br.id, t)]] = a_jn
            rows.add(f"p_balance[{t},{bus.id}]", p.keys(), p.values(), EQ,
                     -bus.p_load[ti])
            rows.add(f"q_balance[{t},{bus.id}]", q.keys(), q.values(), EQ,
                     -bus.q_load[ti])
        # voltage drop along each branch; branch impedances are p.u., so
        # MW/MVAr flows are converted through the network base
        for br in net.branches:
            rows.add(
                f"voltage_drop[{t},{br.id}]",
                (reg[("V", br.to_bus, t)], reg[("V", br.from_bus, t)],
                 reg[("Pl", br.id, t)], reg[("Ql", br.id, t)]),
                (1.0, -1.0, br.r / net.s_base, br.x / net.s_base), EQ, 0.0)
        rows.add(
            f"voltage_anchor[{t}]",
            (reg[("V", net.substation_bus, t)],), (1.0,), EQ,
            net.v_substation)


def add_aggregation_constraints(s: Scenario, reg: VariableRegistry,
                                rows: Constraints) -> None:
    """Substation offers: generation-side up plus load-side down (and the
    symmetric cross-mapping for the down product)."""
    gen_names = [c.name for c in s.esags] + [c.name for c in s.ddgags]
    load_names = [c.name for c in s.drags] + [c.name for c in s.evcss]
    coefs = [1.0] + [-1.0] * (len(gen_names) + len(load_names))
    for t in s.horizon.steps:
        up_cols = ([reg[("r_sub_up", t)]]
                   + [reg[("r_up", t, name)] for name in gen_names]
                   + [reg[("r_dn", t, name)] for name in load_names])
        dn_cols = ([reg[("r_sub_dn", t)]]
                   + [reg[("r_dn", t, name)] for name in gen_names]
                   + [reg[("r_up", t, name)] for name in load_names])
        rows.add(f"agg_up[{t}]", up_cols, coefs, EQ, 0.0)
        rows.add(f"agg_dn[{t}]", dn_cols, coefs, EQ, 0.0)


def expected_row_count(s: Scenario) -> int:
    """Closed-form constraint count for a valid scenario."""
    T = len(s.horizon)
    n_avail = sum(len(cfg.availability) for cfg in s.evcss)
    return (T * (2 * len(s.drags) + 16 * len(s.esags) + 2 * len(s.ddgags)
                 + 2 * len(s.network.buses) + len(s.network.branches) + 1 + 2)
            + 5 * n_avail + 2 * len(s.evcss))


def build(s: Scenario) -> MilpProblem:
    """Compile the full problem.  Deterministic: identical scenarios give
    identical matrices."""
    report = validate_scenario(s)
    if not report.ok:
        raise ScenarioValidationError(report)
    reg = build_registry(s)
    lower, upper, integral = reg.bounds()
    rows = Constraints()
    for add_family in (add_drag_constraints, add_esag_constraints,
                       add_evcs_constraints, add_ddgag_constraints,
                       add_network_constraints, add_aggregation_constraints):
        add_family(s, reg, rows)
    return MilpProblem(
        objective=build_objective(s, reg),
        A=sparse.csr_matrix((rows.coef, (rows.row, rows.col)),
                            shape=(len(rows.names), len(reg))),
        sense=np.array(rows.senses),
        rhs=np.array(rows.rhs, dtype=float),
        row_names=tuple(rows.names),
        lower=lower,
        upper=upper,
        integrality=integral,
        registry=reg,
    )


def decode(s: Scenario, problem: MilpProblem, values: np.ndarray,
           status: str = "Optimal") -> Schedule:
    """Map a raw solution vector back onto scenario entities."""
    if status != "Optimal":
        raise NonOptimalStatus(f"cannot decode a solution with status {status}")
    values = np.asarray(values, dtype=float)
    if len(values) != problem.num_cols:
        raise DimensionMismatch(
            f"solution has {len(values)} entries, "
            f"problem has {problem.num_cols} columns")
    reg = problem.registry
    steps = s.horizon.steps

    def series(keys) -> list[float]:
        return values[reg.columns(keys)].tolist()

    def hourly(keys) -> dict[int, float]:
        return dict(zip(steps, series(keys)))

    energy: dict[str, dict[int, float]] = {}
    cap_up: dict[str, dict[int, float]] = {}
    cap_dn: dict[str, dict[int, float]] = {}
    esag_charge: dict[str, dict[int, float]] = {}
    esag_mode: dict[str, dict[int, int]] = {}
    evcs_enabled: dict[str, int] = {}
    for kind, cfg in s.aggregators():
        name = cfg.name
        if kind == KIND_DRAG:
            blocks = [series(("P_block", a, t, name) for t in steps)
                      for a in range(len(cfg.blocks))]
            energy[name] = {t: sum(b[ti] for b in blocks)
                            for ti, t in enumerate(steps)}
        else:
            energy[name] = hourly(("P", t, name) for t in steps)
        cap_up[name] = hourly(("r_up", t, name) for t in steps)
        cap_dn[name] = hourly(("r_dn", t, name) for t in steps)
        if kind == KIND_ESAG:
            esag_charge[name] = hourly(("E", t, name) for t in steps)
            modes = series(("b_es", t, name) for t in steps)
            esag_mode[name] = {t: int(round(v)) for t, v in zip(steps, modes)}
        elif kind == KIND_EVCS:
            evcs_enabled[name] = int(round(float(values[reg[("b_ev", name)]])))

    return Schedule(
        steps=steps,
        p_sub=hourly(("P_sub", t) for t in steps),
        q_sub=hourly(("Q_sub", t) for t in steps),
        r_sub_up=hourly(("r_sub_up", t) for t in steps),
        r_sub_dn=hourly(("r_sub_dn", t) for t in steps),
        energy=energy,
        cap_up=cap_up,
        cap_dn=cap_dn,
        esag_charge=esag_charge,
        esag_mode=esag_mode,
        evcs_enabled=evcs_enabled,
        flows_p={br.id: hourly(("Pl", br.id, t) for t in steps)
                 for br in s.network.branches},
        flows_q={br.id: hourly(("Ql", br.id, t) for t in steps)
                 for br in s.network.branches},
        voltage={bus.id: hourly(("V", bus.id, t) for t in steps)
                 for bus in s.network.buses},
        objective=float(problem.objective @ values),
        scenario_hash=scenario_hash(s),
        values=values,
        registry=reg,
    )
