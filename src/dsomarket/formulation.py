"""Compile a Scenario into a sparse mixed-integer linear program.

Variable registry (each column declared once, with its bounds,
integrality and owner), the settlement price table whose sum is the
objective, and all constraint families for the DSO coordination problem:
demand response blocks, storage charge dynamics with mode binaries, EV
charging windows with an enable binary, dispatchable generation limits,
linearized radial power flow, and the substation-level aggregation
identities.  The build does its work per fleet, not per entity or row.
A scenario that :func:`~dsomarket.model.validate_scenario` has checked
(as loading a file does) is not checked again.  Each entity's columns are
one (hours x families) block, and a fleet's blocks are declared in one
registry call; the registry's one column map is each family's columns by
hour (:meth:`VariableRegistry.hourly`), and it keeps no key per column.
Each constraint family emits one kind of row for every entity and hour at
once as (row, column, coefficient) arrays, and names its rows by a recipe
that is formatted only when a name is first read (:class:`RowNames`); the
price table is filled by fancy indexing over the same column arrays.  The
compiled :class:`MilpProblem` holds the constraints as one sparse matrix
``A`` (:class:`~dsomarket.csr.Csr`: numpy CSR arrays, rows in build
order) with a ``sense``, ``rhs`` and name per row.  That is the one row
layout: HiGHS, the residual checks and the MPS export all read the rows
in build order, so row i is ``row_names[i]`` everywhere.
:meth:`MilpProblem.row_bounds` is the one place that turns a sense into
row bounds.  ``relaxation_arrays`` is the benchmark's view of the rows
(<= and negated >= rows, then == rows), and the only code that builds
scipy's sparse matrices.  Also decodes raw solver vectors back into a
:class:`Schedule`.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby, product, starmap
from math import prod

import numpy as np

from .csr import Csr
from .model import (
    KIND_DDGAG,
    KIND_DRAG,
    KIND_ESAG,
    KIND_EVCS,
    Scenario,
    ScenarioValidationError,
    ValidationReport,
    Violation,
    validate_scenario,
)
from .scenario_io import scenario_hash

LE, GE, EQ = "<=", ">=", "=="

VarKey = tuple

# a storage's columns per hour, and the heads of its 16 rows per hour
ESAG_COLUMNS = ("P", "E", "P_di", "P_ch", "r_up", "r_dn", "r_up_di",
                "r_dn_di", "r_up_ch", "r_dn_ch", "b_es")
ESAG_ROWS = ("state[", "split[", "cap_up[", "cap_dn[",
             *(f"gate_{side}[{fam}_{side}," for side in ("di", "ch")
               for fam in ("P", "r_up", "r_dn")),
             "gate_di_merged[", "gate_ch_merged[", "di_floor[", "di_ceiling[",
             "ch_floor[", "ch_ceiling[")


class DimensionMismatch(ValueError):
    """Raw solution length does not match the problem's column count."""


class NonOptimalStatus(RuntimeError):
    """Decoding was attempted on a non-optimal solver result."""


class VariableRegistry:
    """The problem's columns, with each column's bounds, integrality and
    owner: an aggregator's name, or the hour of a DSO (substation or
    network) column.

    The one column map is each family's columns by hour, filed under the
    family's key ``head + owner`` (:meth:`hourly`).  Owners are numbered in
    first-seen order, and each column keeps its owner's number.
    """

    def __init__(self) -> None:
        self._series: dict[VarKey, np.ndarray] = {}
        self._owners: dict[object, int] = {}
        # packed, so that the problem's bound arrays can be views of them
        self._lower = array("d")
        self._upper = array("d")
        self._binary = array("b")
        self._owner_of = array("q")

    def declare(self, steps, blocks, lower=-np.inf, upper=np.inf,
                binary=False) -> np.ndarray:
        """Declare, for each ``(heads, owner)`` of ``blocks`` in turn (one
        per entity of a fleet), the column ``head + (t,) + owner`` of every
        hour t and every head, hour by hour.  Every block has as many
        heads.  The bounds and the integrality mask (give an integral
        column the bounds 0 and 1) broadcast to (blocks, hours, heads);
        returns the columns' indices in that shape.  A block's columns are
        owned by its owner's last part or, if its owner is empty (a DSO
        block), each by its hour."""
        families = [head + owner for heads, owner in blocks for head in heads]
        widths = {len(heads) for heads, _ in blocks}
        shape = (len(blocks), len(steps), max(widths, default=0))
        if len(widths) > 1:
            raise ValueError(f"blocks of {sorted(widths)} heads")
        if len(set(steps)) < shape[1] or len(set(families)) < len(families):
            raise ValueError(f"duplicate hours or families in {families}")
        if not families:
            return np.empty(shape, dtype=np.intp)
        if not self._series.keys().isdisjoint(families):
            raise ValueError(f"duplicate variable among {families}")
        bounds = np.empty((3,) + shape)
        bounds[0], bounds[1], bounds[2] = lower, upper, binary
        start = len(self)
        # the bounds first: they cannot grow while views of them are alive
        self._lower.frombytes(bounds[0].tobytes())
        self._upper.frombytes(bounds[1].tobytes())
        self._binary.frombytes(bounds[2].astype(bool).tobytes())
        # an owner is numbered when its first column is declared
        number, hours, owner_of = self._owners.setdefault, None, []
        for _, owner in blocks:
            if owner:
                owner_of.append([number(owner[-1], len(self._owners))]
                                * shape[1])
            else:
                hours = hours or [number(t, len(self._owners)) for t in steps]
                owner_of.append(hours)
        self._owner_of.frombytes(np.repeat(np.array(
            owner_of, dtype=np.int64), shape[2]).tobytes())
        block = np.arange(start, len(self)).reshape(shape)
        self._series.update(zip(families, block.transpose(0, 2, 1).reshape(
            -1, shape[1])))
        return block

    def add(self, *key, lower: float = -np.inf, upper: float = np.inf,
            binary: bool = False) -> int:
        """Declare the next column, with no hour, filed under the whole key
        and owned by its last part; a binary one is integral on [0, 1]."""
        if binary:
            lower, upper = 0.0, 1.0
        return int(self.declare((None,), [([key[:-1]], key[-1:])], lower,
                                upper, binary)[0, 0, 0])

    def hourly(self, keys) -> np.ndarray:
        """Columns of the families ``keys`` (keys less the hour), by hour."""
        return np.array([self._series[key] for key in keys],
                        dtype=np.intp).ravel()

    def __len__(self) -> int:
        return len(self._lower)

    def bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-column lower and upper bounds and the integrality mask, as
        views of the registry's storage: no column can be declared while
        they are alive."""
        return (np.frombuffer(self._lower), np.frombuffer(self._upper),
                np.frombuffer(self._binary, dtype=bool))

    @cached_property
    def _owner_groups(self) -> tuple[list, np.ndarray, np.ndarray]:
        # owners in first-seen order, the column indices grouped by owner
        # (each group in column order), and where each group starts
        owner = np.frombuffer(self._owner_of, dtype=np.int64)
        sizes = np.bincount(owner, minlength=len(self._owners))
        return (list(self._owners), np.argsort(owner, kind="stable"),
                np.cumsum(sizes) - sizes)

    def sum_by_owner(self, table: np.ndarray) -> dict[object, list[float]]:
        """Sum a (k, n) table's columns per owner, owners in first-seen
        order: one ``np.add.reduceat`` over each owner's columns in column
        order, plus 0.0 (so an all-zero sum is 0.0, not -0.0).  numpy
        rounds the sums in its own order, not term by term as Python's
        ``sum``.  The grouping is made at the first call, so call it only
        when every column is declared."""
        owners, order, starts = self._owner_groups
        sums = np.add.reduceat(table[:, order], starts, axis=1) + 0.0
        return dict(zip(owners, sums.T.tolist()))


class RowNames(Sequence):
    """Row names, formatted all at once the first time one is read, and
    kept.  Each segment ``(template, *axes)`` names one row per combination
    of its axes' values, the last axis fastest, as ``template.format(
    *values)``; ``count`` rows in all, so ``len`` formats nothing.  Plain
    data, so it pickles (without the names).  Equal to a tuple, or another
    RowNames, of the same names."""

    def __init__(self, segments: tuple, count: int) -> None:
        self._segments, self._count = segments, count
        self._names: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        return self._formatted()[i]

    def __iter__(self):
        return iter(self._formatted())

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, RowNames)):
            return self._formatted() == tuple(other)
        return NotImplemented

    def __reduce__(self):
        return RowNames, (self._segments, self._count)

    def _formatted(self) -> tuple[str, ...]:
        if self._names is None:
            self._names = tuple(chain.from_iterable(
                starmap(template.format, product(*axes))
                for template, *axes in self._segments))
        return self._names


class Constraints:
    """Constraint rows in build order.  A family names its rows with
    :meth:`reserve`, then sets one kind of row for every entity and hour at
    once with :meth:`add`; the entries are kept as COO arrays."""

    def __init__(self) -> None:
        self._names: list[tuple] = []        # RowNames segments
        self.count = 0
        self._sides: list[tuple] = []        # (rows, sense, rhs)
        self._entries: list[tuple] = []      # (rows, cols, coefs)

    def reserve(self, segments: list[tuple], group: int = 1) -> np.ndarray:
        """Append the rows that ``segments`` name (as in :class:`RowNames`);
        returns each ``group``'s first row."""
        first = self.count
        self._names += segments
        self.count += sum(prod(map(len, axes)) for _, *axes in segments)
        return np.arange(first, self.count, group)

    def row_names(self) -> RowNames:
        return RowNames(tuple(self._names), self.count)

    def add(self, at, sense: str, rhs, *terms) -> None:
        """Rows ``at`` read ``sum(coefs * x[cols] over terms)  (sense)
        rhs``, with ``rhs`` one number or one per row."""
        self._sides.append((at, sense, rhs))
        self.put(at, *terms)

    def put(self, at, *terms) -> None:
        """Enter each (cols, coefs) term into rows ``at``; rows, columns
        and coefficients broadcast together."""
        self._entries += (np.broadcast_arrays(at, cols, coefs)
                          for cols, coefs in terms)

    def assemble(self, num_cols: int):
        """(A, sense, rhs): the rows as a CSR matrix, each row's entries in
        column order, and each row's sense and right-hand side.  Two
        entries at one position raise ValueError."""
        m = self.count
        sense, rhs = np.empty(m, dtype="<U2"), np.empty(m)
        for at, s, b in self._sides:
            sense[at], rhs[at] = s, b
        row, col, coef = (np.concatenate([e[k].ravel() for e in self._entries])
                          for k in range(3))
        return Csr.from_entries(row, col, coef, (m, num_cols)), sense, rhs


@dataclass(frozen=True)
class MilpProblem:
    """Sparse constraint system with objective, bounds, and integrality:
    row i reads ``A[i] @ x  (sense[i])  rhs[i]``."""

    objective: np.ndarray
    A: Csr
    sense: np.ndarray                # LE, GE or EQ per row
    rhs: np.ndarray
    row_names: Sequence[str]         # a RowNames from build
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray          # bool per column
    registry: VariableRegistry
    # the settlement_prices table the objective sums, if from a scenario
    prices: np.ndarray | None = None

    @property
    def num_cols(self) -> int:
        return len(self.objective)

    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's ``(lower, upper)`` for ``lower <= A @ x <= upper``, in
        build order: -inf below a <= row, +inf above a >= row and ``rhs`` on
        both sides of an == row.

        ValueError unless ``A`` is m x ``num_cols``, ``sense``, ``rhs`` and
        ``row_names`` are m long, ``A`` and ``rhs`` are finite and every
        sense is known (:meth:`check_senses`): HiGHS reads its buffers by
        these counts."""
        m = len(self.rhs)
        if (self.A.shape != (m, self.num_cols) or self.rhs.shape != (m,)
                or self.sense.shape != (m,) or len(self.row_names) != m):
            raise ValueError(
                f"A has shape {self.A.shape}, rhs {self.rhs.shape}, sense "
                f"{self.sense.shape} and row_names {len(self.row_names)}; "
                f"expected ({m}, {self.num_cols}) and {m} rows")
        self.check_senses()
        if not np.isfinite(self.rhs).all() or not np.isfinite(
                self.A.data).all():
            raise ValueError("A and rhs must not contain inf or nan")
        return (np.where(self.sense == LE, -np.inf, self.rhs),
                np.where(self.sense == GE, np.inf, self.rhs))

    def check_senses(self) -> None:
        """ValueError naming the first row whose sense is not LE, GE or
        EQ."""
        known = (self.sense == LE) | (self.sense == GE) | (self.sense == EQ)
        if not known.all():
            i = int(np.argmin(known))
            raise ValueError(
                f"row {i} ({self.row_names[i]}) has sense "
                f"{str(self.sense[i])!r}; expected {LE!r}, {GE!r} or {EQ!r}")

    @cached_property
    def relaxation_arrays(self):
        """The rows as ``(A_ub, b_ub, A_eq, b_eq)`` for ``A_ub @ x <= b_ub``
        and ``A_eq @ x == b_eq``: the <= rows and the negated >= rows, then
        the == rows, each block in build order, as scipy CSR matrices (None
        for a block with no rows); ValueError as for :meth:`row_bounds`.
        The package does not read it; it is the benchmark's view of the
        rows, and the package's only import of scipy's sparse module."""
        from scipy import sparse

        lower, upper = self.row_bounds()
        ge, eq = self.sense == GE, self.sense == EQ
        b = np.where(ge, -lower, upper)
        A = sparse.csr_matrix((self.A.data, self.A.indices, self.A.indptr),
                              shape=self.A.shape)

        def block(keep):
            # boolean row indexing copies the rows, so the sign flip leaves
            # A alone
            if not keep.any():
                return None
            rows = A[keep]
            np.negative(rows.data, out=rows.data,
                        where=np.repeat(ge[keep], np.diff(rows.indptr)))
            return rows

        return block(~eq), b[~eq], block(eq), b[eq]

    def row_residuals(self, x: np.ndarray) -> np.ndarray:
        """Violation of each row by x (zero where it holds), aligned with
        ``row_names``: ``max(lower - A @ x, A @ x - upper, 0)`` over the
        :meth:`row_bounds`, which raise ValueError for malformed rows."""
        if len(x) != self.num_cols:
            raise DimensionMismatch(
                f"solution has {len(x)} entries, problem has {self.num_cols}")
        lower, upper = self.row_bounds()
        Ax = self.A @ x
        return np.maximum(np.maximum(lower - Ax, Ax - upper), 0.0)

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
    prices: np.ndarray = field(repr=False)    # the problem's price table
    scenario: Scenario = field(repr=False)    # the one decoded from


def build_registry(s: Scenario) -> VariableRegistry:
    """Declare every decision column, with its bounds and integrality, in
    deterministic order: one block of hours x families per entity, and one
    registry call per fleet (per run of DRAGs with as many demand blocks;
    an EVCS's columns are two calls, as its enable bit has no hour)."""
    reg = VariableRegistry()
    steps = s.horizon.steps
    total_pl = sum(br.pl_max for br in s.network.branches)
    total_ql = sum(br.ql_max for br in s.network.branches)
    reg.declare(steps, [([("P_sub",), ("Q_sub",), ("r_sub_up",),
                          ("r_sub_dn",)], ())],
                lower=[-total_pl, -total_ql, 0.0, 0.0],
                upper=[total_pl, total_ql, np.inf, np.inf])
    # one block per run of DRAGs with as many demand blocks
    for width, run in groupby(s.drags, key=lambda cfg: len(cfg.blocks)):
        run = list(run)
        heads = [("P_block", a) for a in range(width)] + [("r_up",), ("r_dn",)]
        reg.declare(steps, [(heads, (cfg.name,)) for cfg in run], lower=0.0,
                    upper=[[[b.p_max for b in cfg.blocks] + [up, dn]
                            for up, dn in zip(cfg.cap_up_max, cfg.cap_dn_max)]
                           for cfg in run])

    def esag_upper(cfg) -> list:
        dr, cr = cfg.dr_max, cfg.cr_max
        return [[np.inf, cfg.e_max, dr, cr, dr + cr, dr + cr, dr, dr, cr, cr,
                 1.0]]

    # P, the net injection, is free; b_es is the mode bit
    reg.declare(steps, [([(fam,) for fam in ESAG_COLUMNS], (cfg.name,))
                        for cfg in s.esags],
                lower=[[[-np.inf, cfg.e_min] + [0.0] * 9] for cfg in s.esags],
                upper=[esag_upper(cfg) for cfg in s.esags],
                binary=[False] * 10 + [True])
    for cfg in s.evcss:
        # no EVs present: every column for this hour pinned to zero
        avail = set(cfg.availability)
        on = [cfg.er_max, cfg.err_max, cfg.err_max]
        reg.declare(steps, [([("P",), ("r_up",), ("r_dn",)], (cfg.name,))],
                    lower=0.0,
                    upper=[on if t in avail else [0.0] * 3 for t in steps])
        reg.add("b_ev", cfg.name, binary=True)
    reg.declare(steps, [([("P",), ("r_up",), ("r_dn",)], (cfg.name,))
                        for cfg in s.ddgags],
                lower=[[[cfg.p_min, 0.0, 0.0]] for cfg in s.ddgags],
                upper=[[[cfg.p_max, cfg.ru, cfg.rd]] for cfg in s.ddgags])
    branches = s.network.branches
    reg.declare(steps, [([("Pl", br.id), ("Ql", br.id)], ())
                        for br in branches],
                lower=[[[-br.pl_max, -br.ql_max]] for br in branches],
                upper=[[[br.pl_max, br.ql_max]] for br in branches])
    reg.declare(steps, [([("V", bus.id)], ()) for bus in s.network.buses],
                lower=s.network.v_min, upper=s.network.v_max)
    return reg


def _stack(items, name: str) -> np.ndarray:
    # the hourly series ``name`` of every item, one after another
    return np.ravel([getattr(item, name) for item in items])


def _each(items, name: str, hours: int = 1) -> np.ndarray:
    # the number ``name`` of every item, repeated for each hour
    return np.repeat([getattr(item, name) for item in items], hours)


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
    # deployed share of each hour's up and down awards
    share_up = np.multiply(sig.s_up, sig.mu_up)
    share_dn = np.multiply(sig.s_dn, sig.mu_dn)
    # the DSO sells energy and regulation to the wholesale market ...
    energy[reg.hourly([("P_sub",)])] = -np.array(w.energy) * dt
    up, dn = reg.hourly([("r_sub_up",)]), reg.hourly([("r_sub_dn",)])
    capacity[up] = np.negative(w.cap_up)
    capacity[dn] = np.negative(w.cap_dn)
    mileage[up] = -(share_up * w.mil_up)
    mileage[dn] = -(share_dn * w.mil_dn)
    # ... and buys them from the aggregators at their offer prices
    names = [cfg.name for _, cfg in s.aggregators()]
    price_energy(s, reg, energy, names, 1.0)
    offers = [s.offers[name] for name in names]
    up = reg.hourly(("r_up", name) for name in names)
    dn = reg.hourly(("r_dn", name) for name in names)
    capacity[up] = _stack(offers, "cap_up")
    capacity[dn] = _stack(offers, "cap_dn")
    mileage[up] = np.tile(share_up, len(names)) * _stack(offers, "mil_up")
    mileage[dn] = np.tile(share_dn, len(names)) * _stack(offers, "mil_dn")
    return prices


def price_energy(s: Scenario, reg: VariableRegistry, energy: np.ndarray,
                 names, multiplier: float) -> None:
    """Write the energy prices of the aggregators ``names`` into the
    energy row of a price table, each offer price p scaled to p *
    multiplier: ``(p * multiplier) * step_hours`` is paid for ESAG and
    DDGAG injections and collected for EV charging and for each DRAG
    block, at that block's own bid.  These are the roundings, in the
    same order, of scaling the offers (``analysis.scale_energy_offers``)
    and pricing them with multiplier 1.0 (``p * 1.0 == p``), so both
    give the same prices bit for bit."""
    names = set(names)
    drags = [cfg for cfg in s.drags if cfg.name in names]
    evcss = [cfg for cfg in s.evcss if cfg.name in names]
    gens = [cfg for cfg in s.esags + s.ddgags if cfg.name in names]
    dt = s.horizon.step_hours
    for sign, keys, series in (
            (-1.0, [("P_block", a, cfg.name) for cfg in drags
                    for a in range(len(cfg.blocks))],
             [b.prices for cfg in drags for b in cfg.blocks]),
            (-1.0, [("P", cfg.name) for cfg in evcss],
             [s.offers[cfg.name].energy for cfg in evcss]),
            (1.0, [("P", cfg.name) for cfg in gens],
             [s.offers[cfg.name].energy for cfg in gens])):
        scaled = np.multiply(np.ravel(series), multiplier)
        scaled *= sign * dt     # exact: a negation does not round
        energy[reg.hourly(keys)] = scaled


def price_objective(s: Scenario,
                    reg: VariableRegistry) -> tuple[np.ndarray, np.ndarray]:
    """The minimization objective and the :func:`settlement_prices` table
    it sums."""
    energy, capacity, mileage = prices = settlement_prices(s, reg)
    return energy + capacity + mileage, prices


def add_drag_constraints(s: Scenario, reg: VariableRegistry,
                         rows: Constraints) -> None:
    drags, steps = s.drags, s.horizon.steps
    T = len(steps)
    at = rows.reserve([("drag_{2}_headroom[{1},{0}]",
                        tuple(cfg.name for cfg in drags), steps,
                        ("dn", "up"))], 2)
    total = np.repeat([sum(b.p_max for b in cfg.blocks) for cfg in drags], T)
    r_up, r_dn = (reg.hourly((fam, cfg.name) for cfg in drags)
                  for fam in ("r_up", "r_dn"))
    rows.add(at, GE, 0.0, (r_dn, -1.0))
    rows.add(at + 1, LE, total, (r_up, 1.0))
    # each block enters both rows of its DRAG's hour with coefficient 1
    owner = np.repeat(np.arange(len(drags)), [len(c.blocks) for c in drags])
    blocks = reg.hourly(("P_block", a, cfg.name)
                        for cfg in drags for a in range(len(cfg.blocks)))
    block_rows = at.reshape(-1, T)[owner].ravel()
    rows.put(block_rows, (blocks, 1.0))
    rows.put(block_rows + 1, (blocks, 1.0))


def add_esag_constraints(s: Scenario, reg: VariableRegistry,
                         rows: Constraints) -> None:
    esags, steps = s.esags, s.horizon.steps
    T = len(steps)
    dt = s.horizon.step_hours
    at = rows.reserve([("esag_{2}{1},{0}]", tuple(cfg.name for cfg in esags),
                        steps, ESAG_ROWS)], len(ESAG_ROWS))
    P, E, P_di, P_ch, r_up, r_dn, r_up_di, r_dn_di, r_up_ch, r_dn_ch, b = (
        reg.hourly((fam, cfg.name) for cfg in esags) for fam in ESAG_COLUMNS)
    eta_di, eta_ch, dr, cr = (_each(esags, name, T) for name in
                              ("eta_di", "eta_ch", "dr_max", "cr_max"))
    mu_up = np.tile(s.regulation.mu_up, len(esags))
    mu_dn = np.tile(s.regulation.mu_dn, len(esags))
    # charge state: P*dt = E_{t-1} - E_t + dt*(r_up*mu/eta_di - r_dn*mu*eta_ch),
    # with E_{t-1} the initial charge in the first hour
    first = np.tile(np.arange(T) == 0, len(esags))
    rows.add(at, EQ, np.where(first, _each(esags, "e_init", T), 0.0),
             (P, dt), (E, 1.0), (r_up, -dt * mu_up / eta_di),
             (r_dn, dt * mu_dn * eta_ch))
    rows.put(at[~first], (np.roll(E, 1)[~first], -1.0))
    # injection split: P = P_di/eta_di - P_ch*eta_ch
    rows.add(at + 1, EQ, 0.0, (P, 1.0), (P_di, -1.0 / eta_di), (P_ch, eta_ch))
    # capacity compositions
    rows.add(at + 2, EQ, 0.0, (r_up, 1.0), (r_up_di, -1.0), (r_dn_ch, -1.0))
    rows.add(at + 3, EQ, 0.0, (r_dn, 1.0), (r_dn_di, -1.0), (r_up_ch, -1.0))
    # mode gating: discharge-side offers need b = 1,
    # charge-side offers need b = 0
    for j, cols in enumerate((P_di, r_up_di, r_dn_di)):
        rows.add(at + 4 + j, LE, 0.0, (cols, 1.0), (b, -dr))
    for j, cols in enumerate((P_ch, r_up_ch, r_dn_ch)):
        rows.add(at + 7 + j, LE, cr, (cols, 1.0), (b, cr))
    # merged gate/headroom rows: implied whenever b is 0 or 1, but they
    # stop a fractional mode bit from claiming capacity on both sides at
    # once, which keeps the relaxation tight enough to solve in seconds
    # instead of hours
    rows.add(at + 10, LE, 0.0, (P_di, 1.0), (r_up_di, 1.0), (b, -dr))
    rows.add(at + 11, LE, cr, (P_ch, 1.0), (r_up_ch, 1.0), (b, cr))
    # headroom couplings around the scheduled (dis)charge rate
    rows.add(at + 12, GE, 0.0, (P_di, 1.0), (r_dn_di, -1.0))
    rows.add(at + 13, LE, dr, (P_di, 1.0), (r_up_di, 1.0))
    rows.add(at + 14, GE, 0.0, (P_ch, 1.0), (r_dn_ch, -1.0))
    rows.add(at + 15, LE, cr, (P_ch, 1.0), (r_up_ch, 1.0))


def add_evcs_constraints(s: Scenario, reg: VariableRegistry,
                         rows: Constraints) -> None:
    evcss, steps = s.evcss, s.horizon.steps
    dt = s.horizon.step_hours
    heads = ("gate_p", "gate_up", "gate_dn", "up_headroom", "dn_headroom")
    row = rows.reserve([
        segment for cfg in evcss for segment in
        (("evcs_{2}[{1},{0}]", (cfg.name,), cfg.availability, heads),
         ("evcs_charge_{1}[{0}]", (cfg.name,), ("floor", "ceiling")))])
    # each station's rows: five per hour of its window, then two for its
    # terminal charge
    window = [len(cfg.availability) for cfg in evcss]
    stations = np.arange(len(evcss))
    owner = np.repeat(stations, window)
    at = row[5 * np.arange(len(owner)) + 2 * owner]
    floor = row[5 * np.cumsum(window, dtype=np.intp) + 2 * stations]
    step_index = {t: i for i, t in enumerate(steps)}
    hour = np.array([step_index[t] for cfg in evcss for t in cfg.availability],
                    dtype=np.intp)
    pick = owner * len(steps) + hour
    P, r_up, r_dn = (reg.hourly((fam, cfg.name) for cfg in evcss)[pick]
                     for fam in ("P", "r_up", "r_dn"))
    b_ev = reg.hourly(("b_ev", cfg.name) for cfg in evcss)
    b = b_ev[owner]
    er, err = (_each(evcss, name)[owner] for name in ("er_max", "err_max"))
    rows.add(at, LE, 0.0, (P, 1.0), (b, -er))
    rows.add(at + 1, LE, 0.0, (r_up, 1.0), (b, -err))
    rows.add(at + 2, LE, 0.0, (r_dn, 1.0), (b, -err))
    rows.add(at + 3, LE, er, (P, 1.0), (r_up, 1.0))
    rows.add(at + 4, GE, 0.0, (P, 1.0), (r_dn, -1.0))
    # terminal charge window, gated by the enable binary:
    # 0.9*cl_max*b <= e_init*b + gamma*dt*sum(P + r_up*mu - r_dn*mu) <= cl_max*b
    e_init, cl_max = (_each(evcss, name) for name in ("e_init", "cl_max"))
    rows.add(floor, GE, 0.0, (b_ev, e_init - 0.9 * cl_max))
    rows.add(floor + 1, LE, 0.0, (b_ev, e_init - cl_max))
    gamma = np.array([cfg.gamma_ch * dt for cfg in evcss])[owner]
    charge = ((P, gamma), (r_up, gamma * np.take(s.regulation.mu_up, hour)),
              (r_dn, gamma * -np.take(s.regulation.mu_dn, hour)))
    rows.put(floor[owner], *charge)
    rows.put(floor[owner] + 1, *charge)


def add_ddgag_constraints(s: Scenario, reg: VariableRegistry,
                          rows: Constraints) -> None:
    ddgags, steps = s.ddgags, s.horizon.steps
    T = len(steps)
    at = rows.reserve([("ddgag_{2}_headroom[{1},{0}]",
                        tuple(cfg.name for cfg in ddgags), steps,
                        ("up", "dn"))], 2)
    P, r_up, r_dn = (reg.hourly((fam, cfg.name) for cfg in ddgags)
                     for fam in ("P", "r_up", "r_dn"))
    rows.add(at, LE, _each(ddgags, "p_max", T), (P, 1.0), (r_up, 1.0))
    rows.add(at + 1, GE, _each(ddgags, "p_min", T), (P, 1.0), (r_dn, -1.0))


def add_network_constraints(s: Scenario, reg: VariableRegistry,
                            rows: Constraints) -> None:
    net = s.network
    steps = s.horizon.steps
    # each hour's rows: a p and a q balance per bus, a voltage drop per
    # branch, then the voltage anchor
    balance = {bus.id: 2 * i for i, bus in enumerate(net.buses)}
    drop = 2 * len(net.buses)
    per_hour = drop + len(net.branches) + 1
    bus_ids, branch_ids = net.bus_ids(), tuple(br.id for br in net.branches)
    hours = rows.reserve([
        segment for t in steps for segment in
        (("{2}_balance[{0},{1}]", (t,), bus_ids, ("p", "q")),
         ("voltage_drop[{0},{1}]", (t,), branch_ids),
         ("voltage_anchor[{0}]", (t,)))], per_hour)
    # one hour's entries as (row within the hour, family, coefficient)
    terms: list[tuple[int, VarKey, float]] = []
    for kind, cfg in s.aggregators():
        # active balance: consumption +, generation -, plus substation
        # injection and net branch outflow, all summing to zero; DRAGs and
        # DDGAGs also draw or inject reactive power at tan(phi)
        p = balance[cfg.node]
        sign = 1.0 if kind in (KIND_DRAG, KIND_EVCS) else -1.0
        for key in ([("P_block", a, cfg.name) for a in range(len(cfg.blocks))]
                    if kind == KIND_DRAG else [("P", cfg.name)]):
            terms.append((p, key, sign))
            if kind in (KIND_DRAG, KIND_DDGAG):
                terms.append((p + 1, key, sign * cfg.tan_phi))
    sub = balance[net.substation_bus]
    terms += [(sub, ("P_sub",), 1.0), (sub + 1, ("Q_sub",), 1.0)]
    for i, br in enumerate(net.branches):
        for bus_id in (br.from_bus, br.to_bus):
            a_jn = float(net.incidence(br, bus_id))
            terms += [(balance[bus_id], ("Pl", br.id), a_jn),
                      (balance[bus_id] + 1, ("Ql", br.id), a_jn)]
        # voltage drop along the branch; branch impedances are p.u., so
        # MW/MVAr flows are converted through the network base
        terms += [(drop + i, ("V", br.to_bus), 1.0),
                  (drop + i, ("V", br.from_bus), -1.0),
                  (drop + i, ("Pl", br.id), br.r / net.s_base),
                  (drop + i, ("Ql", br.id), br.x / net.s_base)]
    terms.append((per_hour - 1, ("V", net.substation_bus), 1.0))
    slot, keys, coefs = zip(*terms)
    rows.put(np.add.outer(slot, hours),
             (reg.hourly(keys).reshape(len(keys), -1),
              np.array(coefs)[:, None]))
    rhs = np.zeros((len(steps), per_hour))
    rhs[:, :drop:2] = -np.array([bus.p_load for bus in net.buses]).T
    rhs[:, 1:drop:2] = -np.array([bus.q_load for bus in net.buses]).T
    rhs[:, -1] = net.v_substation
    rows.add(hours[:, None] + np.arange(per_hour), EQ, rhs)


def add_aggregation_constraints(s: Scenario, reg: VariableRegistry,
                                rows: Constraints) -> None:
    """Substation offers: generation-side up plus load-side down (and the
    symmetric cross-mapping for the down product)."""
    steps = s.horizon.steps
    gen = [c.name for c in s.esags] + [c.name for c in s.ddgags]
    load = [c.name for c in s.drags] + [c.name for c in s.evcss]
    at = rows.reserve([("agg_{1}[{0}]", steps, ("up", "dn"))], 2)
    for j, (sub, gen_fam, load_fam) in enumerate(
            (("r_sub_up", "r_up", "r_dn"), ("r_sub_dn", "r_dn", "r_up"))):
        offers = reg.hourly([(gen_fam, name) for name in gen]
                            + [(load_fam, name) for name in load])
        rows.add(at + j, EQ, 0.0, (reg.hourly([(sub,)]), 1.0),
                 (offers.reshape(-1, len(steps)), -1.0))


def build(s: Scenario) -> MilpProblem:
    """Compile the full problem.  Deterministic: identical scenarios give
    identical matrices.  ScenarioValidationError for a scenario that
    :func:`validate_scenario` rejects (a scenario it has checked before is
    not checked again) or whose priced objective is not finite
    (``PRICE_OVERFLOW``, which validation does not check)."""
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
    A, sense, rhs = rows.assemble(len(reg))
    # a valid offer p can still overflow once priced, as p * step_hours
    with np.errstate(over="ignore", invalid="ignore"):
        objective, prices = price_objective(s, reg)
    if not np.isfinite(objective).all():
        raise ScenarioValidationError(ValidationReport(
            (_price_overflow(s, reg, objective),)))
    return MilpProblem(
        objective=objective, A=A, sense=sense, rhs=rhs,
        row_names=rows.row_names(), lower=lower, upper=upper,
        integrality=integral, registry=reg, prices=prices)


def _price_overflow(s: Scenario, reg: VariableRegistry,
                    objective: np.ndarray) -> Violation:
    # name the first aggregator, in the order the columns are owned, with a
    # column whose price is not finite, or else the first such DSO hour
    counts = reg.sum_by_owner(np.invert(np.isfinite(objective))[None] * 1.0)
    owners = [owner for owner, (n,) in counts.items() if n]
    names = [owner for owner in owners if owner in s.offers]
    where = (f"the offers of {names[0]}" if names
             else f"the wholesale prices of hour {owners[0]}")
    return Violation(
        "PRICE_OVERFLOW",
        f"{where} are not finite once priced into the objective "
        f"(step_hours {s.horizon.step_hours})")


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

    def series(*key) -> list[float]:
        return values[reg.hourly([key])].tolist()

    def hourly(*key) -> dict[int, float]:
        return dict(zip(steps, series(*key)))

    energy: dict[str, dict[int, float]] = {}
    cap_up: dict[str, dict[int, float]] = {}
    cap_dn: dict[str, dict[int, float]] = {}
    esag_charge: dict[str, dict[int, float]] = {}
    esag_mode: dict[str, dict[int, int]] = {}
    evcs_enabled: dict[str, int] = {}
    for kind, cfg in s.aggregators():
        name = cfg.name
        if kind == KIND_DRAG:
            blocks = [series("P_block", a, name)
                      for a in range(len(cfg.blocks))]
            energy[name] = dict(zip(steps, map(sum, zip(*blocks))))
        else:
            energy[name] = hourly("P", name)
        cap_up[name] = hourly("r_up", name)
        cap_dn[name] = hourly("r_dn", name)
        if kind == KIND_ESAG:
            esag_charge[name] = hourly("E", name)
            esag_mode[name] = {t: int(round(v))
                               for t, v in zip(steps, series("b_es", name))}
        elif kind == KIND_EVCS:
            evcs_enabled[name] = int(round(series("b_ev", name)[0]))

    return Schedule(
        steps=steps,
        p_sub=hourly("P_sub"),
        q_sub=hourly("Q_sub"),
        r_sub_up=hourly("r_sub_up"),
        r_sub_dn=hourly("r_sub_dn"),
        energy=energy,
        cap_up=cap_up,
        cap_dn=cap_dn,
        esag_charge=esag_charge,
        esag_mode=esag_mode,
        evcs_enabled=evcs_enabled,
        flows_p={br.id: hourly("Pl", br.id) for br in s.network.branches},
        flows_q={br.id: hourly("Ql", br.id) for br in s.network.branches},
        voltage={bus.id: hourly("V", bus.id) for bus in s.network.buses},
        objective=float(problem.objective @ values),
        scenario_hash=scenario_hash(s),
        values=values,
        registry=reg,
        prices=problem.prices,
        scenario=s,
    )
