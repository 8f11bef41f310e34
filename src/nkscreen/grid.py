"""DC power network model: case loading, PTDF matrices, dispatch LPs.

Buses are 0-indexed.  A line l = (f, t) with susceptance s carries the flow
s * (theta_f - theta_t); positive flow runs from f to t.  All limits and
injections are in MW; PTDF rows are dimensionless, so the susceptance unit
cancels as long as it is consistent across lines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lp import LpProblem, LpStatus, OptimalBases, SimplexEngine


class IslandingError(ValueError):
    """Raised when an operation requires a connected surviving network."""


@dataclass
class Network:
    name: str
    n: int                    # number of buses
    lines: np.ndarray         # (m, 2) int endpoints
    susceptance: np.ndarray   # (m,) > 0
    f_lower: np.ndarray       # (m,) < 0
    f_upper: np.ndarray       # (m,) > 0
    pmin: np.ndarray          # (n,) per-bus dispatch lower bound (0 where no generator)
    pmax: np.ndarray          # (n,) per-bus dispatch upper bound (0 where no generator)
    cost: np.ndarray          # (n,) per-bus marginal cost (0 where no generator)
    demand: np.ndarray        # (n,) nominal demand
    slack: int
    meta: dict = field(default_factory=dict)

    @property
    def m(self):
        return len(self.lines)

    @property
    def gen_buses(self):
        return np.nonzero(self.pmax > 0)[0]

    def validate(self):
        if self.n < 2:
            raise ValueError("network needs at least two buses")
        if self.lines.shape != (self.m, 2):
            raise ValueError("lines must be (m, 2)")
        if np.any(self.lines < 0) or np.any(self.lines >= self.n):
            raise ValueError("line endpoint out of range")
        if np.any(self.lines[:, 0] == self.lines[:, 1]):
            raise ValueError("self-loop line")
        if np.any(self.susceptance <= 0):
            raise ValueError("susceptances must be positive")
        if np.any(self.f_lower >= 0) or np.any(self.f_upper <= 0):
            raise ValueError("line limits must satisfy f_lower < 0 < f_upper")
        if np.any(self.pmin > self.pmax):
            raise ValueError("pmin > pmax")
        if not (0 <= self.slack < self.n):
            raise ValueError("slack bus out of range")
        for arr in (self.susceptance, self.f_lower, self.f_upper, self.pmin,
                    self.pmax, self.cost, self.demand):
            if not np.all(np.isfinite(arr)):
                raise ValueError("network data must be finite")
        if is_islanding(self, ()):
            raise ValueError("network graph is not connected")
        return self


def load_network(source) -> Network:
    """Load a case from a JSON file path, file object, or parsed dict; a
    line or generator without a required key is a ValueError naming both."""
    if isinstance(source, dict):
        raw = source
    elif hasattr(source, "read"):
        raw = json.load(source)
    else:
        with open(source) as fh:
            raw = json.load(fh)
    try:
        buses = raw["buses"]
        lines = raw["lines"]
        gens = raw["generators"]
        slack = int(raw["slack_bus"])
    except KeyError as e:
        raise ValueError(f"case file missing required key: {e}") from None
    for what, items, keys in (
            ("line", lines, ("from", "to", "susceptance", "limit_mw")),
            ("generator", gens, ("bus", "pmax_mw", "cost_per_mw"))):
        for i, item in enumerate(items):
            missing = [k for k in keys if k not in item]
            if missing:
                raise ValueError(f"{what} {i} is missing required key(s) "
                                 f"{', '.join(missing)}")
    n = len(buses)
    demand = np.zeros(n)
    for i, bus in enumerate(buses):
        if int(bus.get("id", i)) != i:
            raise ValueError("bus ids must be 0..n-1 in order")
        demand[i] = float(bus.get("demand_mw", 0.0))
    line_arr = np.array([[int(l["from"]), int(l["to"])] for l in lines])
    susc = np.array([float(l["susceptance"]) for l in lines])
    f_up = np.array([float(l["limit_mw"]) for l in lines])
    f_lo = np.array([float(l.get("limit_lower_mw", -u)) for l, u in zip(lines, f_up)])
    pmin = np.zeros(n)
    pmax = np.zeros(n)
    cost = np.zeros(n)
    seen = set()
    for g in gens:
        bus = int(g["bus"])
        if bus in seen:
            raise ValueError(f"duplicate generator at bus {bus}")
        seen.add(bus)
        pmin[bus] = float(g.get("pmin_mw", 0.0))
        pmax[bus] = float(g["pmax_mw"])
        cost[bus] = float(g["cost_per_mw"])
    net = Network(
        name=str(raw.get("name", "case")),
        n=n,
        lines=line_arr,
        susceptance=susc,
        f_lower=f_lo,
        f_upper=f_up,
        pmin=pmin,
        pmax=pmax,
        cost=cost,
        demand=demand,
        slack=slack,
        meta=dict(raw.get("meta", {})),
    )
    return net.validate()


def incidence_matrix(net: Network, line_idx=None) -> np.ndarray:
    """Bus-by-line incidence C: C[f,l] = +1, C[t,l] = -1 for line l = (f,t).

    ``line_idx`` may carry leading batch axes, e.g. (B, nl) for B line
    subsets; C then has shape (B, n, nl).
    """
    if line_idx is None:
        line_idx = np.arange(net.m)
    line_idx = np.asarray(line_idx, dtype=np.intp)
    C = np.zeros(line_idx.shape[:-1] + (net.n, line_idx.shape[-1]))
    *batch, col = np.indices(line_idx.shape, sparse=True)
    C[(*batch, net.lines[line_idx, 0], col)] = 1.0
    C[(*batch, net.lines[line_idx, 1], col)] = -1.0
    return C


def _surviving(net: Network, outages):
    """(B, m) mask of the lines each outage set leaves, for one set of line
    indices (B = 1) or a (B, k) array of sets; and whether one set was given."""
    sets = np.asarray(outages, dtype=np.intp)
    alive = np.ones((1 if sets.ndim < 2 else len(sets), net.m), dtype=bool)
    alive[np.arange(len(alive))[:, None], np.atleast_2d(sets)] = False
    return alive, sets.ndim < 2


def _islanding(net: Network, alive) -> np.ndarray:
    """Per row of the surviving-line mask, True if the bus graph is split.

    Label propagation over the line list: every bus starts labelled with
    its own index, each surviving line lowers both endpoint labels to the
    smaller of the two, and pointer jumping (label <- label[label]) shortens
    the chains.  A label is always a bus of the same component and never
    above its own bus, so at the fixed point every bus carries the lowest
    bus of its component, and the graph is connected iff all labels are 0.
    """
    B, n = len(alive), net.n
    f, t = net.lines[:, 0], net.lines[:, 1]
    base = np.arange(B)[:, None] * n
    at_f, at_t = (base + f).ravel(), (base + t).ravel()
    label = np.tile(np.arange(n), (B, 1))
    while True:
        low = np.where(alive, np.minimum(label[:, f], label[:, t]), n).ravel()
        new = label.copy()
        np.minimum.at(new.ravel(), at_f, low)
        np.minimum.at(new.ravel(), at_t, low)
        new = np.take_along_axis(new, new, axis=1)
        if np.array_equal(new, label):
            return np.any(label != 0, axis=1)
        label = new


def is_islanding(net: Network, outages):
    """True if removing the given line indices disconnects the bus graph.

    ``outages`` is one set of line indices, or a (B, k) array of B sets
    checked in one pass (then a (B,) boolean array is returned).
    """
    alive, single = _surviving(net, outages)
    split = _islanding(net, alive)
    return bool(split[0]) if single else split


def ptdf(net: Network, outages=()) -> tuple[np.ndarray, np.ndarray]:
    """PTDF of the surviving network, for one outage set or a stack of them.

    For one set of line indices, returns (surviving_line_indices, H) where
    H[i] maps bus injections to the flow on line surviving_line_indices[i].
    H annihilates constants (H @ 1 = 0), so only the balanced component of
    an injection matters.  For a (B, k) array of B sets, each removing the
    same number of lines, returns the stacks (B, nl) and (B, nl, n), from
    stacked solves and products.  A single set is computed as a stack of
    one, so both go through the same arithmetic; each slice of a stack has
    the bytes the set gets alone.  Raises IslandingError if a surviving
    graph is disconnected.
    """
    alive, single = _surviving(net, outages)
    split = _islanding(net, alive)
    if split.any():
        out = np.nonzero(~alive[np.argmax(split)])[0].tolist()
        raise IslandingError(f"outage set {out} islands the network")
    nl = alive.sum(axis=1)
    if np.any(nl != nl[0]):
        raise ValueError("a stack of outage sets must remove equally many lines")
    B = len(alive)
    keep = np.nonzero(alive)[1].reshape(B, nl[0])
    C = incidence_matrix(net, keep)
    Bd = net.susceptance[keep]
    Ct = C.transpose(0, 2, 1)
    L = (C * Bd[:, None, :]) @ Ct
    n = net.n
    idx = np.arange(n) != net.slack
    L_red = L[:, idx][:, :, idx]
    # solve for sensitivities of angles at non-slack buses
    rhs = np.zeros((B, n, n))
    eye = np.broadcast_to(np.eye(n)[idx], (B, n - 1, n))
    rhs[:, idx, :] = np.linalg.solve(L_red, eye)
    # rhs is the zero-embedded generalized inverse of L
    H = (Bd[:, :, None] * Ct) @ rhs
    # project onto balanced injections so H @ 1 = 0 exactly (pseudo-inverse PTDF)
    H -= np.mean(H, axis=2, keepdims=True)
    return (keep[0], H[0]) if single else (keep, H)


@dataclass
class DcopfResult:
    """A DC-OPF answer; ``flows`` are computed on first read, as
    ``H @ (p - d)`` from the injection stored at the solve."""

    status: LpStatus
    p: np.ndarray | None = None
    cost: float | None = None
    injection: np.ndarray | None = field(default=None, repr=False)
    H: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __bool__(self):
        return self.status is LpStatus.OPTIMAL

    @cached_property
    def flows(self):
        return None if self.injection is None else self.H @ self.injection


class DispatchLp:
    """The dispatch LP every formulation shares: min cost @ p.

    Columns are the bus dispatch p, pmin <= p <= pmax (p fixed to 0 at
    buses without generators), then ``n_aux`` costless auxiliary columns in
    [0, inf).  Rows are one ranged row per line, f_lower <= H (p - d) <=
    f_upper (width f_upper - f_lower), then the caller's ``rows`` over
    [p, aux] with right-hand side ``rhs0`` at d = 0 and widths ``ranges``
    (+inf by default: one-sided), then the power balance 1 @ p = sum(d).
    Every row but the balance constrains p - d, so only the right-hand side
    depends on the demand: b0 + A[:, :n] @ d, and ``d.sum()`` for the
    balance.  The datasets' dispatches were computed with that sum; the
    product of d with the balance row rounds differently and moves the
    last bits of 1,796 of 5,957 warm ``case39`` dispatches.  A demand with
    a NaN or infinite entry has a sum that is not finite, and ``rhs``
    raises ValueError for it.
    """

    def __init__(self, net: Network, rows=None, rhs0=(), ranges=None,
                 n_aux=0):
        self.net = net
        keep, self.H = ptdf(net)
        assert len(keep) == net.m
        n, m = net.n, net.m
        rows = np.zeros((0, n + n_aux)) if rows is None else rows
        self.A = np.zeros((m + len(rows) + 1, n + n_aux))
        self.A[:m, :n] = self.H
        self.A[m:-1] = rows
        self.A[-1, :n] = 1.0
        self.b0 = np.concatenate([net.f_upper, rhs0, [0.0]])
        if ranges is None:
            ranges = np.full(len(rows), np.inf)
        self.ranges = np.concatenate([net.f_upper - net.f_lower, ranges, [np.inf]])
        self.rel = ["<="] * (len(self.A) - 1) + ["="]
        self.lb = np.concatenate([net.pmin, np.zeros(n_aux)])
        self.ub = np.concatenate([net.pmax, np.full(n_aux, np.inf)])
        self.c = np.concatenate([-net.cost, np.zeros(n_aux)])

    def rhs(self, demand):
        total = demand.sum()
        if not math.isfinite(total):
            raise ValueError("demand has a NaN or infinite entry")
        b = self.b0 + self.A[:, :self.net.n] @ demand
        b[-1] = total
        return b

    def problem(self, demand) -> LpProblem:
        return LpProblem(c=self.c, A=self.A, b=self.rhs(demand), rel=self.rel,
                         lb=self.lb, ub=self.ub, ranges=self.ranges)


class DcopfSolver(DispatchLp):
    """Minimum-cost dispatch under nominal-topology flow limits: the
    ``DispatchLp`` with no extra rows, answered from a table of its optimal
    bases (``lp.OptimalBases``).

    Only the demand enters the right-hand side, so a draw whose right-hand
    side one of the kept optimal bases keeps feasible is answered by one
    product and a bound check, with the bytes a warm re-solve from that
    basis returns.  A miss re-solves on the simplex engine from the basis of
    the most recent answer, and keeps the basis it ends at when optimal.
    A dispatch's bytes depend on its demand and the basis that answers it,
    not on the column order in which the simplex reached that basis.  The
    constructor solves nothing.

    ``counters()`` returns the demands solved (draws), the table's hits and
    misses and the engine's ``counters()`` over the solver's lifetime.
    """

    def __init__(self, net: Network):
        super().__init__(net)
        self.engine = SimplexEngine(self.problem(net.demand))
        self.bases = OptimalBases(self.engine)
        self.n_draws = 0

    def solve(self, demand=None) -> DcopfResult:
        demand = self.net.demand if demand is None else np.asarray(demand, dtype=float)
        b = self.rhs(demand)
        self.n_draws += 1
        p = self.bases.lookup(b)
        if p is None:
            self.bases.install()
            sol = self.engine.resolve_rhs(b)
            if sol.status is not LpStatus.OPTIMAL:
                return DcopfResult(sol.status)
            self.bases.add()
            p = sol.x
        return DcopfResult(LpStatus.OPTIMAL, p=p, cost=float(self.net.cost @ p),
                           injection=p - demand, H=self.H)

    def counters(self):
        return {"draws": self.n_draws, **self.bases.counters(),
                **self.engine.counters()}
