"""DC power network model: case loading, PTDF matrices, dispatch LPs.

Buses are 0-indexed.  A line l = (f, t) with susceptance s carries the flow
s * (theta_f - theta_t); positive flow runs from f to t.  All limits and
injections are in MW; PTDF rows are dimensionless, so the susceptance unit
cancels as long as it is consistent across lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .lp import LpProblem, LpSolution, LpStatus, SimplexEngine


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
    """Load a case from a JSON file path, file object, or parsed dict."""
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
    n = len(buses)
    demand = np.zeros(n)
    for i, bus in enumerate(buses):
        if int(bus.get("id", i)) != i:
            raise ValueError("bus ids must be 0..n-1 in order")
        demand[i] = float(bus.get("demand_mw", 0.0))
    line_arr = np.array([[int(l["from"]), int(l["to"])] for l in lines])
    susc = np.array([float(l["susceptance"]) for l in lines])
    f_up = np.array([float(l.get("limit_mw", np.inf)) for l in lines])
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
    status: LpStatus
    p: np.ndarray | None = None
    flows: np.ndarray | None = None
    cost: float | None = None

    def __bool__(self):
        return self.status is LpStatus.OPTIMAL


class DcopfSolver:
    """Minimum-cost dispatch under nominal-topology flow limits.

    The LP structure is fixed by the network; only the demand enters the
    right-hand side, so repeated solves warm-start from the previous basis.
    Each ``resolve_rhs`` refactorizes only a basis that changed, from the
    engine's kept inverse when it inverted that basis before.
    min cost @ p  s.t.  1@(p - d) = 0,  f_lower <= H (p - d) <= f_upper,
    pmin <= p <= pmax (p fixed to 0 at buses without generators).

    ``counters()`` returns the demands solved (draws) and the engine's
    ``counters()`` over the solver's lifetime.
    """

    def __init__(self, net: Network):
        self.net = net
        keep, H = ptdf(net)
        assert len(keep) == net.m
        self.H = H
        A = np.vstack([H, -H, np.ones((1, net.n))])
        rel = ["<="] * (2 * net.m) + ["="]
        b = self._rhs(net.demand)
        problem = LpProblem(c=-net.cost, A=A, b=b, rel=rel, lb=net.pmin, ub=net.pmax)
        self.engine = SimplexEngine(problem)
        self.n_draws = 0

    def _rhs(self, demand):
        Hd = self.H @ demand
        return np.concatenate([self.net.f_upper + Hd, -self.net.f_lower - Hd,
                               [float(np.sum(demand))]])

    def solve(self, demand=None) -> DcopfResult:
        demand = self.net.demand if demand is None else np.asarray(demand, dtype=float)
        sol = self.engine.resolve_rhs(self._rhs(demand))
        self.n_draws += 1
        if sol.status is not LpStatus.OPTIMAL:
            return DcopfResult(sol.status)
        p = sol.x
        flows = self.H @ (p - demand)
        return DcopfResult(LpStatus.OPTIMAL, p=p, flows=flows, cost=float(self.net.cost @ p))

    def counters(self):
        return {"draws": self.n_draws, **self.engine.counters()}


def solve_dcopf(net: Network, demand=None) -> DcopfResult:
    """One-shot minimum-cost DC dispatch for a demand vector."""
    return DcopfSolver(net).solve(demand)
