"""DC power network model: case loading, PTDF matrices, dispatch LPs.

Buses are 0-indexed.  A line l = (f, t) with susceptance s carries the flow
s * (theta_f - theta_t); positive flow runs from f to t.  All limits and
injections are in MW; PTDF rows are dimensionless, so the susceptance unit
cancels as long as it is consistent across lines.  One islanding check,
bitset reachability from bus 0, serves ``is_islanding`` and ``ptdf``.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .lp import LpProblem, LpStatus, OptimalBases, SimplexEngine

_ISLAND_BLOCK = 512  # outage sets per block of ``_islanding``


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


def _surviving(net: Network, outages):
    """(B, m) mask of the lines each outage set leaves, for one set of line
    indices (B = 1) or a (B, k) array of sets; and whether one set was given."""
    sets = np.asarray(outages, dtype=np.intp)
    alive = np.ones((1 if sets.ndim < 2 else len(sets), net.m), dtype=bool)
    alive[np.arange(len(alive))[:, None], np.atleast_2d(sets)] = False
    return alive, sets.ndim < 2


def _islanding(net: Network, alive) -> np.ndarray:
    """Per row of the surviving-line mask, True if the bus graph is split.

    Bitset reachability from bus 0, one uint64 word per 64 buses: each bus's
    neighbours over the surviving lines (one ``np.bitwise_or.reduceat`` over
    the line ends sorted by bus), then sweeps that add the neighbours of every
    reached bus until the reached set stops growing.  The graph is connected
    iff every bus is then reached.  Rows go through in blocks of
    ``_ISLAND_BLOCK``, so one block's masks stay small and in cache.
    """
    words = -(-net.n // 64)
    ends = net.lines.T.ravel()              # every from-end, then every to-end
    order = np.argsort(ends, kind="stable")
    other = net.lines[:, ::-1].T.ravel()[order].astype(np.uint64)
    line = np.tile(np.arange(net.m), 2)[order]
    bit = np.zeros((len(order), words, 1), dtype=np.uint64)
    bit[np.arange(len(order)), other >> 6, 0] = np.uint64(1) << (other & 63)
    starts = np.flatnonzero(np.r_[True, np.diff(ends[order]) != 0])
    bus = ends[order][starts]
    word, shift = bus >> 6, (bus & 63).astype(np.uint64)[:, None]
    every = np.full((words, 1), ~np.uint64(0))
    every[-1] >>= np.uint64(64 * words - net.n)
    split = np.empty(len(alive), dtype=bool)
    for lo in range(0, len(alive), _ISLAND_BLOCK):
        rows = alive[lo:lo + _ISLAND_BLOCK]
        adj = np.bitwise_or.reduceat(bit * rows.T[line, None], starts, axis=0)
        reached, grown = None, np.zeros((words, len(rows)), dtype=np.uint64)
        grown[0] = 1                                     # bus 0
        while not np.array_equal(grown, reached):
            reached = grown
            hit = (reached[word] >> shift) & np.uint64(1)
            grown = np.bitwise_or.reduce(adj * hit[:, None], axis=0) | reached
        split[lo:lo + len(rows)] = np.any(reached != every, axis=0)
    return split


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
    same number of lines, returns the stacks (B, nl) and (B, nl, n).  A
    single set is computed as a stack of one, so both go through the same
    arithmetic; each slice of a stack has the bytes the set gets alone.
    Raises IslandingError if a surviving graph is disconnected.

    Each stack is assembled, not multiplied out: every surviving line adds
    its susceptance s to the two diagonal entries of its ends and -s to the
    two entries between them, in ascending line order, straight into the
    (n - 1) x (n - 1) Laplacian L_red over the non-slack buses; the line's
    row of G holds s and -s at its non-slack ends.  Then
    H = G @ solve(L_red, I), the slack's angle held at 0.  Every term is
    exact, so L_red depends only on that order of its sums.  It is the
    order OpenBLAS takes in the dense incidence products (C diag(s) C^T,
    then diag(s) C^T times the zero-embedded inverse) at case39's sizes,
    so there H has those products' bytes; at other sizes a BLAS kernel may
    sum in another order, and the products may differ in the last bits.
    """
    alive, single = _surviving(net, outages)
    split = _islanding(net, alive)
    if split.any():
        out = np.nonzero(~alive[np.argmax(split)])[0].tolist()
        raise IslandingError(f"outage set {out} islands the network")
    nl = alive.sum(axis=1)
    if np.any(nl != nl[0]):
        raise ValueError("a stack of outage sets must remove equally many lines")
    B, n, slack = len(alive), net.n, net.slack
    keep = np.nonzero(alive)[1].reshape(B, nl[0])
    Bd = net.susceptance[keep]
    ends = net.lines[keep]                           # (B, nl, 2)
    on = ends != slack                               # ends with an angle
    red = ends - (ends > slack)                      # index among non-slack buses
    f, t = red[..., 0], red[..., 1]
    both = on.all(axis=-1)
    entry = np.stack([f * (n - 1) + f, t * (n - 1) + t,
                      f * (n - 1) + t, t * (n - 1) + f], axis=-1)
    entry += (np.arange(B) * (n - 1) ** 2)[:, None, None]
    term = np.stack([on[..., 0], on[..., 1], both, both], axis=-1)
    L_red = np.zeros((B, n - 1, n - 1))
    np.add.at(L_red.reshape(-1), entry[term],
              np.stack([Bd, Bd, -Bd, -Bd], axis=-1)[term])
    G = np.zeros((B, nl[0], n - 1))                  # s * C^T, slack column left out
    for end, sign in ((0, 1.0), (1, -1.0)):
        b, line = np.nonzero(on[..., end])
        G[b, line, red[b, line, end]] = sign * Bd[b, line]
    eye = np.eye(n)[np.arange(n) != slack]
    H = G @ np.linalg.solve(L_red, eye)
    # project onto balanced injections so H @ 1 = 0 exactly (pseudo-inverse PTDF)
    H -= np.mean(H, axis=2, keepdims=True)
    return (keep[0], H[0]) if single else (keep, H)


@dataclass
class DcopfResult:
    """A DC-OPF answer, with the injection p - d of the solved demand."""

    status: LpStatus
    p: np.ndarray | None = None
    cost: float | None = None
    injection: np.ndarray | None = field(default=None, repr=False)

    def __bool__(self):
        return self.status is LpStatus.OPTIMAL


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
    ``DispatchLp`` with no extra rows, answered from a tree of its optimal
    bases rooted at the nominal one (``lp.OptimalBases``).

    The constructor copies the network, so the solver describes the network
    it was built from, and solves the DC-OPF at its nominal demand.  Only
    the demand enters the right-hand side, so a draw is answered by walking
    memoized dual simplex pivots from that nominal optimal basis until a
    basis keeps the draw feasible, by one product and a bound check per
    basis, with the bytes a warm re-solve from that basis returns.  A miss
    (the first walk to reach a new node, an infeasible draw, or a walk
    beyond the tree's caps) re-solves on the simplex engine from the
    nominal basis, inverse included.  So a dispatch depends on its
    demand alone, not on the draws before it, nor on the column order in
    which the simplex reached its basis.  When the nominal DC-OPF is not
    optimal the tree has no root, and every draw solves on the engine from
    the slack basis.

    ``counters()`` returns the demands solved (draws), the tree's
    ``counters()`` and the engine's ``counters()`` over the solver's
    lifetime, the nominal solve included.
    """

    def __init__(self, net: Network):
        super().__init__(copy.deepcopy(net))
        self.engine = SimplexEngine(self.problem(self.net.demand))
        self.bases = OptimalBases(self.engine)
        self.n_draws = 0

    def solve(self, demand=None) -> DcopfResult:
        demand = self.net.demand if demand is None else np.asarray(demand, dtype=float)
        b = self.rhs(demand)
        self.n_draws += 1
        p = self.bases.lookup(b)
        if p is None:
            sol = self.bases.resolve(b)
            if sol.status is not LpStatus.OPTIMAL:
                return DcopfResult(sol.status)
            p = sol.x
        return DcopfResult(LpStatus.OPTIMAL, p=p, cost=float(self.net.cost @ p),
                           injection=p - demand)

    def counters(self):
        return {"draws": self.n_draws, **self.bases.counters(),
                **self.engine.counters()}
