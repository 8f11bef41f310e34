"""Polyhedral description of the N-k secure injection set.

``build_region`` stacks, for every non-islanding outage set of size <= k, the
post-contingency flow limits as linear rows a @ x <= b over net bus
injections x = p - d.  The raw stack is enormously redundant; the pipeline
(filter_contingencies -> drop_constant_dims -> with_box -> eliminate_redundant
-> standardize) shrinks it to a minimal representation while preserving
membership for every point inside the sampling box.

Row right-hand sides must stay strictly positive (the origin is interior);
transformations that would break that raise AssumptionViolated rather than
emit a region other code would silently mis-certify against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .artifacts import savez_deterministic

from .grid import Network, is_islanding, ptdf
from .lp import LpProblem, LpStatus, solve

TOL_RED = 1e-6     # slack used when declaring a row redundant
TOL_CONST = 1e-7   # tolerance for detecting constant sample dimensions

ROW_META_DTYPE = np.dtype([("contingency", np.int32), ("line", np.int32), ("sign", np.int8)])


class AssumptionViolated(ValueError):
    """The region lost an invariant (b > 0, nonzero rows, nonempty interior)."""


@dataclass
class ContingencyRegion:
    """Rows A x <= b in the region's current coordinates.

    Current coordinates are related to full original injection space by
    x_cur = (x_full[dim_map] - mu) / sigma.  Dropped dimensions carry the
    constant values recorded in ``dropped_values`` (NaN at retained dims).
    """

    A: np.ndarray
    b: np.ndarray
    row_meta: np.ndarray
    contingencies: list
    n_full: int
    dim_map: np.ndarray
    dropped_values: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    box_lower: np.ndarray | None = None
    box_upper: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_rows(self):
        return self.A.shape[0]

    @property
    def dim(self):
        return self.A.shape[1]

    def validate(self, require_interior=True):
        if self.A.ndim != 2 or self.A.shape[0] == 0:
            raise AssumptionViolated("region must have at least one row")
        if self.b.shape != (self.n_rows,):
            raise AssumptionViolated("b shape mismatch")
        if require_interior and np.any(self.b <= 0):
            raise AssumptionViolated("region requires b > 0 (origin interior)")
        if np.any(np.abs(self.A).max(axis=1) == 0.0):
            raise AssumptionViolated("zero row in region matrix")
        if self.row_meta.shape != (self.n_rows,):
            raise AssumptionViolated("row_meta shape mismatch")
        if len(self.dim_map) != self.dim:
            raise AssumptionViolated("dim_map length mismatch")
        if self.mu.shape != (self.dim,) or self.sigma.shape != (self.dim,):
            raise AssumptionViolated("standardization shape mismatch")
        if np.any(self.sigma <= 0):
            raise AssumptionViolated("sigma must be positive")
        if (self.box_lower is None) != (self.box_upper is None):
            raise AssumptionViolated("box must set both bounds")
        if self.box_lower is not None:
            if np.any(self.box_lower >= self.box_upper):
                raise AssumptionViolated("empty box")
            if not (np.all(np.isfinite(self.box_lower)) and np.all(np.isfinite(self.box_upper))):
                raise AssumptionViolated("box must be finite")
        return self

    def is_identity_transform(self):
        return (
            len(self.dim_map) == self.n_full
            and np.all(self.mu == 0.0)
            and np.all(self.sigma == 1.0)
        )

    def project(self, X_full):
        """Map points in full original coordinates into region coordinates."""
        X_full = np.atleast_2d(np.asarray(X_full, dtype=float))
        if X_full.shape[1] != self.n_full:
            raise ValueError(f"expected {self.n_full} dims, got {X_full.shape[1]}")
        return (X_full[:, self.dim_map] - self.mu) / self.sigma

    def margins(self, X_cur):
        """Largest row violation a @ x - b per point (negative = inside)."""
        X_cur = np.atleast_2d(np.asarray(X_cur, dtype=float))
        return (X_cur @ self.A.T - self.b).max(axis=1)

    def membership(self, X_full, tol=0.0):
        """Boolean membership for points given in full original coordinates."""
        return self.margins(self.project(X_full)) <= tol


def enumerate_contingencies(net: Network, k: int):
    """All non-islanding outage sets of size 1..k, by size then lexicographic."""
    if not (1 <= k <= net.m):
        raise ValueError("k must be between 1 and the line count")
    import itertools

    out = []
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(net.m), size):
            if not is_islanding(net, combo):
                out.append(tuple(combo))
    if not out:
        raise AssumptionViolated("every contingency islands the network")
    return out


def build_region(net: Network, k: int = 2) -> ContingencyRegion:
    """Stack post-contingency flow-limit rows for all surviving lines."""
    conts = enumerate_contingencies(net, k)
    blocks, rhs, metas = [], [], []
    for ci, c in enumerate(conts):
        keep, H = ptdf(net, c)
        nl = len(keep)
        rows = np.empty((2 * nl, net.n))
        rows[0::2] = H
        rows[1::2] = -H
        bb = np.empty(2 * nl)
        bb[0::2] = net.f_upper[keep]
        bb[1::2] = -net.f_lower[keep]
        mm = np.empty(2 * nl, dtype=ROW_META_DTYPE)
        mm["contingency"] = ci
        mm["line"][0::2] = keep
        mm["line"][1::2] = keep
        mm["sign"][0::2] = 1
        mm["sign"][1::2] = -1
        blocks.append(rows)
        rhs.append(bb)
        metas.append(mm)
    region = ContingencyRegion(
        A=np.vstack(blocks),
        b=np.concatenate(rhs),
        row_meta=np.concatenate(metas),
        contingencies=conts,
        n_full=net.n,
        dim_map=np.arange(net.n),
        dropped_values=np.full(net.n, np.nan),
        mu=np.zeros(net.n),
        sigma=np.ones(net.n),
        meta={"k": k, "network": net.name},
    )
    return region.validate()


def contingency_violation_fractions(region: ContingencyRegion, X_full):
    """Per-contingency fraction of samples violating any of its rows."""
    Xc = region.project(X_full)
    fracs = np.zeros(len(region.contingencies))
    cid = region.row_meta["contingency"]
    for ci in range(len(region.contingencies)):
        rows = cid == ci
        if not np.any(rows):
            fracs[ci] = 0.0
            continue
        viol = (Xc @ region.A[rows].T > region.b[rows]).any(axis=1)
        fracs[ci] = float(viol.mean())
    return fracs


def filter_contingencies(region: ContingencyRegion, X_full, threshold=0.9):
    """Drop contingencies violated by more than ``threshold`` of the samples.

    Such contingencies are infeasible for essentially the whole operating
    distribution, so screening against them is pointless; they are excluded
    from the region (and recorded) rather than drowning the labels.
    """
    fracs = contingency_violation_fractions(region, X_full)
    keep_c = np.nonzero(fracs <= threshold)[0]
    if len(keep_c) == 0:
        raise AssumptionViolated("every contingency exceeded the filter threshold")
    rows = np.isin(region.row_meta["contingency"], keep_c)
    new_meta = region.row_meta[rows].copy()
    new_meta["contingency"] = np.searchsorted(keep_c, new_meta["contingency"])
    keep_set = set(int(c) for c in keep_c)
    dropped = [region.contingencies[int(c)] for c in range(len(fracs)) if int(c) not in keep_set]
    out = replace(
        region,
        A=region.A[rows].copy(),
        b=region.b[rows].copy(),
        row_meta=new_meta,
        contingencies=[region.contingencies[int(c)] for c in keep_c],
        meta={**region.meta, "filtered_contingencies": dropped,
              "filter_threshold": threshold},
    )
    return out.validate()


def drop_constant_dims(region: ContingencyRegion, X_full, tol=TOL_CONST):
    """Fold dimensions that are constant across the samples into the rhs.

    The folded region describes the slice at the recorded constants; its
    right-hand side may lose strict positivity (the retained-coordinate
    origin is not necessarily interior), which later stages tolerate.
    """
    if np.any(region.mu != 0.0) or np.any(region.sigma != 1.0):
        raise ValueError("drop dimensions before standardizing")
    Xc = region.project(X_full)
    span = Xc.max(axis=0) - Xc.min(axis=0)
    scale = np.maximum(1.0, np.abs(Xc).max(axis=0))
    const = span <= tol * scale
    if np.all(const):
        raise AssumptionViolated("all dimensions constant; nothing to screen")
    values = Xc.mean(axis=0)
    keep = ~const
    b_new = region.b - region.A[:, const] @ values[const]
    A_new = region.A[:, keep]
    # rows that lived entirely on dropped dims are now constants themselves
    nz = np.abs(A_new).max(axis=1) > 0.0
    if np.any(b_new[~nz] < 0):
        raise AssumptionViolated("constant slice lies outside a contingency limit")
    dropped_values = region.dropped_values.copy()
    dropped_values[region.dim_map[const]] = values[const]
    out = replace(
        region,
        A=A_new[nz].copy(),
        b=b_new[nz].copy(),
        row_meta=region.row_meta[nz].copy(),
        dim_map=region.dim_map[keep].copy(),
        dropped_values=dropped_values,
        mu=region.mu[keep].copy(),
        sigma=region.sigma[keep].copy(),
        meta={**region.meta, "n_dropped_dims": int(const.sum())},
    )
    return out.validate(require_interior=False)


def bounding_box(X, inflate=1.2, include_origin=True):
    """Per-dimension box around the samples, widened about its midpoint."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    center = 0.5 * (lo + hi)
    half = np.maximum(0.5 * (hi - lo), 1e-12)
    lo = center - inflate * half
    hi = center + inflate * half
    if include_origin:
        lo = np.minimum(lo, 0.0)
        hi = np.maximum(hi, 0.0)
    return lo, hi


def with_box(region: ContingencyRegion, X_full, inflate=1.2):
    """Attach the sampling bounding box (in region coordinates)."""
    lo, hi = bounding_box(region.project(X_full), inflate=inflate)
    return replace(region, box_lower=lo, box_upper=hi).validate(require_interior=False)


def _normalized(A, b):
    norms = np.linalg.norm(A, axis=1)
    return A / norms[:, None], b / norms


def _dedup_rows(A_hat, b_hat):
    """Indices keeping one row per direction, the tightest rhs winning.

    Parallel rows with a looser bound are dominated outright, so this also
    removes them (ties break toward the lowest original index).
    """
    key = np.round(A_hat, 9)
    _, inverse = np.unique(key, axis=0, return_inverse=True)
    order = np.lexsort((np.arange(len(b_hat)), b_hat, inverse))
    seen = set()
    kept = []
    for i in order:
        g = int(inverse[i])
        if g not in seen:
            seen.add(g)
            kept.append(int(i))
    return np.array(sorted(kept))


def _ray_certified(A_hat, slack, box_lo, box_hi, origin, directions):
    """Rows that provably define facets, found by shooting rays from an
    interior point: the first hyperplane a ray crosses (strictly before the
    box boundary and strictly before every other row) is touched by a point
    of the region, so that row cannot be redundant.

    ``slack`` is b_hat - A_hat @ origin and must be strictly positive.
    """
    n_rows = len(slack)
    certified = np.zeros(n_rows, dtype=bool)
    if directions is None or len(directions) == 0:
        return certified
    D = np.atleast_2d(directions)
    norms = np.linalg.norm(D, axis=1)
    D = D[norms > 1e-12] / norms[norms > 1e-12][:, None]
    lo = box_lo - origin
    hi = box_hi - origin
    chunk = max(1, int(5e6 // max(1, n_rows)))
    for s in range(0, len(D), chunk):
        Dc = D[s : s + chunk]
        nd = Dc.shape[0]
        S = A_hat @ Dc.T                       # (rows, dirs)
        with np.errstate(divide="ignore"):
            T = np.where(S > 1e-12, slack[:, None] / S, np.inf)
        # distance to the box along each ray
        with np.errstate(divide="ignore", invalid="ignore"):
            t_hi = np.where(Dc > 1e-12, hi / Dc, np.inf)
            t_lo = np.where(Dc < -1e-12, lo / Dc, np.inf)
        t_box = np.minimum(t_hi, t_lo).min(axis=1)
        if n_rows == 1:
            ok = (T[0] < t_box * (1 - 1e-9)) & np.isfinite(T[0])
            certified[0] |= bool(np.any(ok))
            continue
        two = np.argpartition(T, 1, axis=0)[:2]
        ta = T[two[0], np.arange(nd)]
        tb = T[two[1], np.arange(nd)]
        first = np.where(ta <= tb, two[0], two[1])
        t1 = np.minimum(ta, tb)
        t2 = np.maximum(ta, tb)
        ok = (t1 < t_box * (1 - 1e-9)) & (t1 < t2 * (1 - 1e-9)) & np.isfinite(t1)
        certified[first[ok]] = True
    return certified


def _support_over_rows(A_rows, b_rows, lo, hi, obj):
    """max obj @ x subject to the rows and the box, via LP."""
    prob = LpProblem(c=obj, A=A_rows, b=b_rows, lb=lo, ub=hi)
    backend = "highs" if len(b_rows) > 400 else "simplex"
    sol = solve(prob, backend=backend)
    if sol.status is not LpStatus.OPTIMAL:
        raise AssumptionViolated(f"support LP ended {sol.status}; region box should bound it")
    return sol.objective


def eliminate_redundant(region: ContingencyRegion, tol_red=TOL_RED, aim_points=None,
                        origin=None):
    """Remove rows implied by the rest of the region within the box.

    Exactness only comes from LPs; everything else is sound screening that
    avoids LPs where possible: exact-duplicate collapse, facet certification
    by ray shooting from ``origin`` (default: coordinate origin) toward the
    row normals and the optional ``aim_points``, and a box-support dominance
    bound.  The result is minimal (re-running removes nothing) and defines
    the same set as the input inside the box.
    """
    if region.box_lower is None:
        raise ValueError("attach a box (with_box) before eliminating redundancy")
    A, b = region.A, region.b
    lo, hi = region.box_lower, region.box_upper
    A_hat, b_hat = _normalized(A, b)

    # 1. collapse duplicate directions, keeping the tightest rhs (lowest index on ties)
    unique_rows = _dedup_rows(A_hat, b_hat)
    A, b = A[unique_rows], b[unique_rows]
    A_hat, b_hat = A_hat[unique_rows], b_hat[unique_rows]
    meta_rows = region.row_meta[unique_rows]

    # 2. rays certify facet rows without any LP
    origin = np.zeros(region.dim) if origin is None else np.asarray(origin, dtype=float)
    slack = b_hat - A_hat @ origin
    in_box = np.all(origin >= lo) and np.all(origin <= hi)
    if np.all(slack > 0) and in_box:
        dir_stack = [A_hat]
        if aim_points is not None and len(aim_points):
            dir_stack.append(np.atleast_2d(aim_points) - origin)
        certified = _ray_certified(A_hat, slack, lo, hi, origin, np.vstack(dir_stack))
    else:
        # no interior point supplied: skip certification, LPs decide everything
        certified = np.zeros(len(b_hat), dtype=bool)

    # 3. box-support dominance: row j is redundant if some certified row i
    #    already implies it over the box: b_i + h_box(a_j - a_i) <= b_j
    cand = np.nonzero(~certified)[0]
    kept = np.nonzero(certified)[0]
    if len(kept) and len(cand):
        Ak, bk = A_hat[kept], b_hat[kept]
        sim = A_hat[cand] @ Ak.T
        nearest = np.argmax(sim, axis=1)
        diff = A_hat[cand] - Ak[nearest]
        gap = np.maximum(diff * hi, diff * lo).sum(axis=1)
        ub = bk[nearest] + gap
        drop_mask = ub <= b_hat[cand] + tol_red * 0.5
        cand = cand[~drop_mask]

    # 4. exact LP test for the survivors against the growing kept set
    kept_list = sorted(int(i) for i in np.nonzero(certified)[0])
    lp_added = []
    for j in cand:
        rows = kept_list + lp_added
        if not rows:
            lp_added.append(int(j))
            continue
        z = _support_over_rows(A_hat[rows], b_hat[rows], lo, hi, A_hat[j])
        if z > b_hat[j] + tol_red:
            lp_added.append(int(j))

    # 5. cleanup to exact minimality: only LP-added rows can still be implied
    final = sorted(kept_list + lp_added)
    removable = set(lp_added)
    changed = True
    while changed:
        changed = False
        for j in list(final):
            if j not in removable:
                continue
            others = [i for i in final if i != j]
            if not others:
                continue
            z = _support_over_rows(A_hat[others], b_hat[others], lo, hi, A_hat[j])
            if z <= b_hat[j] + tol_red:
                final.remove(j)
                removable.discard(j)
                changed = True

    idx = np.asarray(final, dtype=int)
    out = replace(
        region,
        A=A[idx].copy(),
        b=b[idx].copy(),
        row_meta=meta_rows[idx].copy(),
        meta={**region.meta, "rows_before_reduction": region.n_rows,
              "rows_after_dedup": int(len(unique_rows)),
              "rows_ray_certified": int(certified.sum()),
              "rows_lp_tested": int(len(cand))},
    )
    return out.validate(require_interior=False)


def prune_by_box_support(region: ContingencyRegion, tol_red=TOL_RED):
    """Drop duplicate rows and rows unreachable inside the box.

    Two cheap, sound screens: collapse parallel rows to the tightest bound,
    then drop rows whose supremum over the box alone (a closed form: positive
    coefficients meet the upper corner, negative the lower) stays at or below
    b_j, since such rows can never bind inside the box.  Unlike
    eliminate_redundant this never asks whether a COMBINATION of other rows
    implies a row, so it keeps every individually violable constraint; the
    reported reduced-matrix shape comes from this screening, while the
    LP-exact variant removes far more.
    """
    if region.box_lower is None:
        raise ValueError("attach a box (with_box) before box-support pruning")
    lo, hi = region.box_lower, region.box_upper
    A_hat, b_hat = _normalized(region.A, region.b)
    unique_rows = _dedup_rows(A_hat, b_hat)
    A, b = region.A[unique_rows], region.b[unique_rows]
    sup = A.clip(min=0.0) @ hi + A.clip(max=0.0) @ lo
    keep = unique_rows[sup > b + tol_red]
    if len(keep) == 0:
        raise AssumptionViolated("every row is redundant over the box; the "
                                 "box cannot reach any constraint")
    out = replace(
        region,
        A=region.A[keep].copy(),
        b=region.b[keep].copy(),
        row_meta=region.row_meta[keep].copy(),
        meta={**region.meta, "rows_before_reduction": region.n_rows},
    )
    return out.validate(require_interior=False)


def standardize(region: ContingencyRegion, mu, sigma):
    """Rewrite the region in standardized coordinates x' = (x - mu) / sigma."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if mu.shape != (region.dim,) or sigma.shape != (region.dim,):
        raise ValueError("mu/sigma must match the region dimension")
    if np.any(sigma <= 0):
        raise ValueError("sigma must be positive")
    if np.any(region.mu != 0.0) or np.any(region.sigma != 1.0):
        raise ValueError("region is already standardized")
    b_new = region.b - region.A @ mu
    if np.any(b_new <= 0):
        raise AssumptionViolated("standardization center lies outside the region")
    out = replace(
        region,
        A=region.A * sigma[None, :],
        b=b_new,
        mu=mu.copy(),
        sigma=sigma.copy(),
        box_lower=None if region.box_lower is None else (region.box_lower - mu) / sigma,
        box_upper=None if region.box_upper is None else (region.box_upper - mu) / sigma,
    )
    return out.validate()


def save_region(region: ContingencyRegion, path):
    meta = {
        "contingencies": [list(c) for c in region.contingencies],
        "meta": region.meta,
        "n_full": region.n_full,
    }
    savez_deterministic(
        path,
        A=region.A,
        b=region.b,
        row_meta=region.row_meta,
        dim_map=region.dim_map,
        dropped_values=region.dropped_values,
        mu=region.mu,
        sigma=region.sigma,
        box_lower=np.array([]) if region.box_lower is None else region.box_lower,
        box_upper=np.array([]) if region.box_upper is None else region.box_upper,
        meta_json=np.array(json.dumps(meta)),
    )


def load_region(path) -> ContingencyRegion:
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(str(z["meta_json"]))
        box_lo = z["box_lower"]
        box_hi = z["box_upper"]
        region = ContingencyRegion(
            A=z["A"],
            b=z["b"],
            row_meta=z["row_meta"],
            contingencies=[tuple(c) for c in meta["contingencies"]],
            n_full=int(meta["n_full"]),
            dim_map=z["dim_map"],
            dropped_values=z["dropped_values"],
            mu=z["mu"],
            sigma=z["sigma"],
            box_lower=None if box_lo.size == 0 else box_lo,
            box_upper=None if box_hi.size == 0 else box_hi,
            meta=meta["meta"],
        )
    return region.validate()
