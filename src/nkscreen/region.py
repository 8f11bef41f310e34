"""Polyhedral description of the N-k secure injection set.

``build_region`` stacks, for every non-islanding outage set of size <= k, the
post-contingency flow limits as linear rows a @ x <= b over net bus
injections x = p - d.  The raw stack is enormously redundant; the pipeline
(filter_contingencies -> drop_constant_dims -> with_box -> prune_by_box_support
or eliminate_redundant -> standardize) shrinks it while preserving membership
for every point inside the sampling box.  ``prune_by_box_support`` drops
duplicate rows and rows the box cannot reach; ``eliminate_redundant`` then
keeps only the facets, by Clarkson's search from a Chebyshev centre.

Every stage is array code, with no loop per contingency or per row: one
bitset islanding pass per outage-set size, PTDF stacks assembled by
scatter-add and one stacked solve, written straight into the preallocated
rows, and a filter and a prune that screen rows by their box support first,
so that only the rows near the box enter the filter's product and the
prune's sort-based duplicate search.  The filter then compares only the
columns whose maximum over a block of samples passes b.  A stage scans the
matrix for zero rows only where it makes rows (``validate``).

Between folding and standardizing, the origin need not be interior (b may
lose positivity); the standardized region has b > 0.  Transformations that
would break an invariant raise AssumptionViolated rather than emit a region
other code would silently mis-certify against.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .artifacts import savez_deterministic

from .grid import Network, is_islanding, ptdf
from .lp import LpProblem, LpStatus, solve

TOL_RED = 1e-6     # slack used when declaring a row redundant
TOL_CONST = 1e-7   # tolerance for detecting constant sample dimensions
_MARGIN_BLOCK = 256  # points per block of row values (``_point_blocks``)
_PTDF_CHUNK = 64     # outage sets per stacked ``ptdf`` call in ``build_region``

ROW_META_DTYPE = np.dtype([("contingency", np.int32), ("line", np.int32), ("sign", np.int8)])


def _point_blocks(n):
    """(start, stop) of consecutive blocks of ``_MARGIN_BLOCK`` points.

    Never a block of a single point among several: numpy multiplies a
    single row as a matrix-vector product, which rounds other than a row of
    a matrix product.
    """
    start = 0
    while start < n:
        stop = n if n - start <= _MARGIN_BLOCK + 1 else start + _MARGIN_BLOCK
        yield start, stop
        start = stop


def standardize_points(X, n_full, dim_map, mu, sigma):
    """u = (x[dim_map] - mu) / sigma for points x in full original
    coordinates: the one map into region and classifier coordinates.

    X is one point, (n_full,), or rows of points; the result is always rows,
    so one point gives a (1, len(dim_map)) array.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != n_full:
        raise ValueError(f"expected points of {n_full} dims, one or a row "
                         f"each, got shape {X.shape}")
    U = X[dim_map] if X.ndim == 1 else X[:, dim_map]
    U -= mu
    U /= sigma
    return U if X.ndim == 2 else U[None]


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
        """Check every invariant: ``_check_fields``'s, and that no row of A
        is zero.  Returns the region; raises AssumptionViolated.

        The zero-row scan reads the whole matrix, so it runs only where rows
        are made: ``build_region``, ``standardize`` (every column scaled)
        and ``load_region``.  ``drop_constant_dims`` drops the rows that
        fold to zero by its own mask, and the filter, ``with_box``, the
        prune and the elimination keep or subset rows; those stages check
        the rest alone, with ``_check_fields``.
        """
        self._check_fields(require_interior)
        if not np.all(np.any(self.A, axis=1)):
            raise AssumptionViolated("zero row in region matrix")
        return self

    def _check_fields(self, require_interior=True):
        """The invariants that need no pass over A: at least one row,
        consistent shapes of b, row_meta, dim_map, mu and sigma, sigma > 0,
        a finite nonempty box when one is set, and b > 0 when
        ``require_interior``."""
        if self.A.ndim != 2 or self.A.shape[0] == 0:
            raise AssumptionViolated("region must have at least one row")
        if self.b.shape != (self.n_rows,):
            raise AssumptionViolated("b shape mismatch")
        if require_interior and np.any(self.b <= 0):
            raise AssumptionViolated("region requires b > 0 (origin interior)")
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

    def describe_row(self, j):
        """Row j's outage set, monitored line and sign (+1 for the flow's
        upper limit, -1 for its lower limit), for reports."""
        meta = self.row_meta[j]
        return {"row": int(j),
                "outage": [int(line) for line in
                           self.contingencies[meta["contingency"]]],
                "line": int(meta["line"]), "sign": int(meta["sign"])}

    def is_identity_transform(self):
        return (
            len(self.dim_map) == self.n_full
            and np.all(self.mu == 0.0)
            and np.all(self.sigma == 1.0)
        )

    def project(self, X_full):
        """Map points in full original coordinates into region coordinates
        (``standardize_points``)."""
        return standardize_points(X_full, self.n_full, self.dim_map,
                                  self.mu, self.sigma)

    def margins(self, X_cur):
        """Largest row violation a @ x - b per point (negative = inside).

        The points go through in blocks of 256, so at most 256 x rows row
        values are held at once (108 MB at 52,606 rows), however many
        points there are.
        """
        X_cur = np.atleast_2d(np.asarray(X_cur, dtype=float))
        out = np.empty(len(X_cur))
        for start, stop in _point_blocks(len(X_cur)):
            vals = X_cur[start:stop] @ self.A.T
            vals -= self.b
            out[start:stop] = vals.max(axis=1)
            del vals  # before the next block is made
        return out

    def membership(self, X_full):
        """Boolean membership for points given in full original coordinates."""
        return self.margins(self.project(X_full)) <= 0.0


def _outage_sets(net: Network, k: int, counters=None):
    """Non-islanding outage sets of size 1..k: one (B, size) array per size.

    Each size's sets are in lexicographic order and go through one
    islanding pass together.
    """
    if not (1 <= k <= net.m):
        raise ValueError("k must be between 1 and the line count")
    groups, enumerated = [], 0
    for size in range(1, k + 1):
        sets = np.array(list(itertools.combinations(range(net.m), size)),
                        dtype=np.intp).reshape(-1, size)
        enumerated += len(sets)
        groups.append(sets[~is_islanding(net, sets)])
    kept = sum(len(g) for g in groups)
    if not kept:
        raise AssumptionViolated("every contingency islands the network")
    if counters is not None:
        counters.update(outage_sets_enumerated=enumerated,
                        outage_sets_islanding=enumerated - kept,
                        outage_sets_kept=kept)
    return groups


def build_region(net: Network, k: int = 2, counters=None) -> ContingencyRegion:
    """Stack post-contingency flow-limit rows for all surviving lines.

    Each contingency contributes, per surviving line, the row H and then
    -H.  The PTDFs come from ``ptdf``, assembled in stacks of
    ``_PTDF_CHUNK`` sets of one size, written straight into the
    preallocated rows.  A dict passed as counters receives the outage sets
    enumerated, islanding and kept, and the rows built.
    """
    groups = _outage_sets(net, k, counters)
    n_rows = sum(2 * len(g) * (net.m - g.shape[1]) for g in groups)
    A = np.empty((n_rows, net.n))
    b = np.empty(n_rows)
    row_meta = np.empty(n_rows, dtype=ROW_META_DTYPE)
    row = ci = 0
    for sets in groups:
        for lo in range(0, len(sets), _PTDF_CHUNK):
            keep, H = ptdf(net, sets[lo:lo + _PTDF_CHUNK])
            c, nl = keep.shape
            stop = row + 2 * c * nl
            rows = A[row:stop].reshape(c, nl, 2, net.n)
            rows[:, :, 0] = H
            np.negative(H, out=rows[:, :, 1])
            bb = b[row:stop].reshape(c, nl, 2)
            bb[:, :, 0] = net.f_upper[keep]
            bb[:, :, 1] = -net.f_lower[keep]
            mm = row_meta[row:stop].reshape(c, nl, 2)
            mm["contingency"] = np.arange(ci, ci + c)[:, None, None]
            mm["line"] = keep[:, :, None]
            mm["sign"] = (1, -1)
            row, ci = stop, ci + c
    if counters is not None:
        counters["rows_built"] = n_rows
    region = ContingencyRegion(
        A=A,
        b=b,
        row_meta=row_meta,
        contingencies=[tuple(c) for g in groups for c in g.tolist()],
        n_full=net.n,
        dim_map=np.arange(net.n),
        dropped_values=np.full(net.n, np.nan),
        mu=np.zeros(net.n),
        sigma=np.ones(net.n),
        meta={"k": k, "network": net.name},
    )
    return region.validate()


def _samples(region: ContingencyRegion, X_full, stage):
    """The samples in region coordinates, for a stage that takes samples;
    ValueError naming the stage when there are none, or when one has a NaN
    or infinite coordinate (a NaN breaks no row and spans no dimension, so
    it would pass the filter and hide a constant dimension)."""
    Xc = region.project(X_full)
    if len(Xc) == 0:
        raise ValueError(f"{stage} needs at least one sample")
    if not np.isfinite(Xc).all():
        raise ValueError(f"{stage}: a sample has a NaN or infinite coordinate")
    return Xc


def contingency_violation_fractions(region: ContingencyRegion, X_full, counters=None):
    """Per-contingency fraction of samples violating any of its rows.

    Rows whose support over the samples' own bounding box stays at or
    below b - TOL_RED cannot be violated by any sample (every sample lies
    in that box, and TOL_RED is far above the rounding of a row product),
    so only the other rows enter the product, taken in blocks of samples as
    in ``margins``.  Violations are rare, so each block's row values are
    reduced to their column maxima first, and only the columns whose
    maximum passes b are compared and scanned for the violating samples,
    256 columns at a time; they are counted one per violated (sample,
    contingency) pair.  A dict passed as counters receives the rows
    evaluated, the rows the screen skipped and the violated pairs.
    """
    Xc = _samples(region, X_full, "contingency_violation_fractions")
    A, b = region.A, region.b
    rows = np.nonzero(_box_support(A, Xc.min(axis=0), Xc.max(axis=0))
                      > b - TOL_RED)[0]
    n_c = len(region.contingencies)
    hits = np.zeros(n_c, dtype=np.intp)
    if len(rows):
        cid = region.row_meta["contingency"][rows].astype(np.intp)
        A_rows, b_rows = A[rows].T, b[rows]
        for start, stop in _point_blocks(len(Xc)):
            vals = Xc[start:stop] @ A_rows
            hot = np.flatnonzero(np.fmax.reduce(vals, axis=0) > b_rows)
            pairs = []
            for lo, hi in _point_blocks(len(hot)):   # bounds vals[:, cols]
                cols = hot[lo:hi]
                point, col = np.nonzero(vals[:, cols] > b_rows[cols])
                pairs.append(point * n_c + cid[cols[col]])
            del vals  # before the next block is made
            if pairs:
                pairs = np.unique(np.concatenate(pairs))
                hits += np.bincount(pairs % n_c, minlength=n_c)
    if counters is not None:
        counters.update(filter_rows_evaluated=len(rows),
                        filter_rows_skipped=region.n_rows - len(rows),
                        filter_violated_pairs=int(hits.sum()))
    return hits / len(Xc)


def filter_contingencies(region: ContingencyRegion, X_full, threshold=0.9,
                         counters=None):
    """Drop contingencies violated by more than ``threshold`` of the samples.

    Such contingencies are infeasible for essentially the whole operating
    distribution, so screening against them is pointless; they are excluded
    from the region (and recorded) rather than drowning the labels.  When
    none is dropped the result shares the input's arrays.
    ``counters`` goes to ``contingency_violation_fractions``.
    """
    fracs = contingency_violation_fractions(region, X_full, counters)
    kept = fracs <= threshold
    keep_c = np.nonzero(kept)[0]
    if len(keep_c) == 0:
        raise AssumptionViolated("every contingency exceeded the filter threshold")
    changed = {}
    if len(keep_c) < len(kept):
        mask = kept[region.row_meta["contingency"]]
        new_meta = region.row_meta[mask]
        new_meta["contingency"] = np.searchsorted(keep_c, new_meta["contingency"])
        changed = dict(A=region.A[mask], b=region.b[mask], row_meta=new_meta,
                       contingencies=[region.contingencies[c] for c in keep_c])
    out = replace(
        region,
        **changed,
        meta={**region.meta,
              "filtered_contingencies": [region.contingencies[c]
                                         for c in np.nonzero(~kept)[0]],
              "filter_threshold": threshold},
    )
    return out._check_fields()


def drop_constant_dims(region: ContingencyRegion, X_full):
    """Fold dimensions that are constant across the samples into the rhs.

    The folded region describes the slice at the recorded constants; its
    right-hand side may lose strict positivity (the retained-coordinate
    origin is not necessarily interior), which later stages tolerate.
    The kept columns are gathered once, into a C-ordered matrix (the
    dedup key and the saved bytes need that order), and its rows are
    gathered again only when some row folded to zero.  The samples must be
    nonempty and finite (``_samples``).
    """
    if np.any(region.mu != 0.0) or np.any(region.sigma != 1.0):
        raise ValueError("drop dimensions before standardizing")
    Xc = _samples(region, X_full, "drop_constant_dims")
    span = Xc.max(axis=0) - Xc.min(axis=0)
    scale = np.maximum(1.0, np.abs(Xc).max(axis=0))
    const = span <= TOL_CONST * scale
    if np.all(const):
        raise AssumptionViolated("all dimensions constant; nothing to screen")
    values = Xc.mean(axis=0)
    keep = ~const
    b_new = region.b - region.A[:, const] @ values[const]
    A_new = region.A.take(np.flatnonzero(keep), axis=1)
    row_meta = region.row_meta
    # rows that lived entirely on dropped dims are now constants themselves
    nz = np.any(A_new, axis=1)
    if not nz.all():
        if np.any(b_new[~nz] < 0):
            raise AssumptionViolated("constant slice lies outside a contingency limit")
        A_new, b_new, row_meta = A_new[nz], b_new[nz], row_meta[nz]
    dropped_values = region.dropped_values.copy()
    dropped_values[region.dim_map[const]] = values[const]
    out = replace(
        region,
        A=A_new,
        b=b_new,
        row_meta=row_meta,
        dim_map=region.dim_map[keep],
        dropped_values=dropped_values,
        mu=region.mu[keep],
        sigma=region.sigma[keep],
        meta={**region.meta, "n_dropped_dims": int(const.sum())},
    )
    return out._check_fields(require_interior=False)


def bounding_box(X, inflate=1.2):
    """Per-dimension box around the samples, widened about its midpoint,
    then stretched to hold the origin."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    center = 0.5 * (lo + hi)
    half = np.maximum(0.5 * (hi - lo), 1e-12)
    lo = center - inflate * half
    hi = center + inflate * half
    return np.minimum(lo, 0.0), np.maximum(hi, 0.0)


def with_box(region: ContingencyRegion, X_full, inflate=1.2):
    """Attach the sampling bounding box (in region coordinates); the
    samples must be nonempty and finite (``_samples``)."""
    lo, hi = bounding_box(_samples(region, X_full, "with_box"), inflate=inflate)
    return replace(region, box_lower=lo,
                   box_upper=hi)._check_fields(require_interior=False)


def _normalized(A, b):
    norms = np.linalg.norm(A, axis=1)
    return A / norms[:, None], b / norms


def _box_support(A, lo, hi):
    """Each row's supremum over the box lo <= x <= hi: positive
    coefficients meet the upper corner, negative ones the lower.

    Taken over the row blocks of ``_point_blocks``, so the clipped copies
    stay small; a row's value has the bytes of one product over all rows.
    """
    sup = np.empty(len(A))
    for start, stop in _point_blocks(len(A)):
        block = A[start:stop]
        sup[start:stop] = block.clip(min=0.0) @ hi + block.clip(max=0.0) @ lo
    return sup


def _dedup_rows(A_hat, b_hat):
    """Indices keeping one row per direction, the tightest rhs winning.

    Rows whose normals agree after rounding to 9 decimals form a group
    (A_hat is rounded in place, so it is a key afterwards, not a normal).
    With -0.0 turned into 0.0 (and no NaN), numerically equal rows have
    equal bytes, so one sort of the rows as raw bytes puts each group's
    rows next to each other.  Each row is compared with the one before it
    in that order through ``order``, over the blocks of ``_point_blocks``,
    so no sorted copy of the key is made.  Parallel rows with a looser
    bound are dominated outright, so each group keeps only its smallest rhs
    (ties break toward the lowest original index): two minima over each
    group's run of the sort order, the rhs first and then the index of the
    rows that reach it.
    """
    key = np.round(A_hat, 9, out=A_hat)
    key += 0.0  # -0.0 + 0.0 is +0.0
    order = np.argsort(key.view(np.dtype((np.void, key.itemsize * key.shape[1])))[:, 0])
    first = np.ones(len(order), dtype=bool)
    for start, stop in _point_blocks(len(order) - 1):
        rows = key[order[start:stop + 1]]
        first[start + 1:stop + 1] = np.any(rows[1:] != rows[:-1], axis=1)
    starts = np.flatnonzero(first)
    b_sorted = b_hat[order]
    least = np.minimum.reduceat(b_sorted, starts)
    tight = b_sorted == np.repeat(least, np.diff(np.append(starts, len(order))))
    return np.sort(np.minimum.reduceat(np.where(tight, order, len(order)),
                                       starts))


def _chebyshev_centre(A_hat, b_hat, lo, hi):
    """Centre of the largest ball inside the unit-normal rows, x in the box.

    The radius column is bounded below by 0.  Raises AssumptionViolated
    when the radius is not positive: the rows then leave no interior inside
    the box.
    """
    m, n = A_hat.shape
    prob = LpProblem(c=np.append(np.zeros(n), 1.0),
                     A=np.hstack([A_hat, np.ones((m, 1))]), b=b_hat,
                     lb=np.append(lo, 0.0), ub=np.append(hi, np.inf))
    sol = solve(prob)
    if sol.status is not LpStatus.OPTIMAL or sol.x[-1] <= 0.0:
        raise AssumptionViolated("the region has no interior inside the box")
    return sol.x[:-1], sol.iterations


def eliminate_redundant(region: ContingencyRegion, counters=None):
    """Remove rows implied by the rest of the region within the box.

    First the box-support screen, then Clarkson's output-sensitive search
    (Clarkson, FOCS 1994) over the rows that survive it, in index order.
    Row j is tested by maximizing its normal over the facets found so far
    plus the box; if the maximum stays within b_j + TOL_RED the row is
    implied.  Otherwise a ray from an interior point (the Chebyshev centre)
    to the maximizer leaves the region through a facet, the first row it
    crosses (lowest index on ties); that row joins the facets and j is
    tested again unless it was j itself.  Only facets are ever added, so
    the result is minimal and defines the same set as the input inside the
    box.  ``meta["elimination"]`` counts the rows after the screen, the LPs
    solved (the centre's included), their summed iterations and the facets.
    ``counters`` goes to ``prune_by_box_support``.
    """
    pre = prune_by_box_support(region, counters)
    lo, hi = pre.box_lower, pre.box_upper
    A_hat, b_hat = _normalized(pre.A, pre.b)
    centre, iterations = _chebyshev_centre(A_hat, b_hat, lo, hi)
    slack = b_hat - A_hat @ centre
    lps = 1
    facet = np.zeros(pre.n_rows, dtype=bool)
    for j in range(pre.n_rows):
        while not facet[j]:
            if facet.any():
                sol = solve(LpProblem(c=A_hat[j], A=A_hat[facet], b=b_hat[facet],
                                      lb=lo, ub=hi))
                if sol.status is not LpStatus.OPTIMAL:
                    raise AssumptionViolated(f"support LP ended {sol.status}; "
                                             "the box should bound it")
                lps += 1
                iterations += sol.iterations
                x, z = sol.x, sol.objective
            else:
                x = np.where(A_hat[j] > 0, hi, lo)
                z = A_hat[j] @ x
            if z <= b_hat[j] + TOL_RED:
                break
            rate = A_hat @ (x - centre)
            ratio = np.full(pre.n_rows, np.inf)
            hit = (rate > 0) & ~facet
            ratio[hit] = slack[hit] / rate[hit]
            facet[np.argmin(ratio)] = True
    idx = np.nonzero(facet)[0]
    out = replace(
        pre,
        A=pre.A[idx],
        b=pre.b[idx],
        row_meta=pre.row_meta[idx],
        meta={**pre.meta, "elimination": {
            "rows_after_box_screen": pre.n_rows, "lps": lps,
            "lp_iterations": int(iterations), "facets": len(idx)}},
    )
    return out._check_fields(require_interior=False)


def prune_by_box_support(region: ContingencyRegion, counters=None):
    """Drop duplicate rows and rows unreachable inside the box.

    Two cheap, sound screens: collapse parallel rows to the tightest bound,
    then drop rows whose supremum over the box alone (a closed form: positive
    coefficients meet the upper corner, negative the lower) stays at or below
    b_j, since such rows can never be violated inside the box.  There is no
    tolerance: a row whose supremum passes b_j by any amount is kept.  Unlike
    eliminate_redundant this never asks whether a COMBINATION of other rows
    implies a row, so it keeps every individually violable constraint; the
    reported reduced-matrix shape comes from this screening, while the
    LP-exact variant removes far more.

    The box screen comes first: only rows whose support passes b_j - TOL_RED
    * M * |a_j| (M = sum_k max(|lo_k|, |hi_k|)) are normalized and sorted for
    duplicates.  That keeps the rows a search over every row keeps: rows that
    share a dedup key have unit normals within 1e-9 per coordinate, so their
    normalized supports lie within 1e-9 * M, and a row as tight as a reachable
    duplicate lies within that of binding, 1,000 times inside the margin; so
    each group holding a kept row has its tightest row among the near ones.
    The norms are taken a ``_point_blocks`` block at a time, with the bytes of
    one norm over all rows.  A dict passed as counters receives the rows the
    box screen dropped before the search and the duplicates among the rest.
    """
    if region.box_lower is None:
        raise ValueError("attach a box (with_box) before box-support pruning")
    A, b, lo, hi = region.A, region.b, region.box_lower, region.box_upper
    sup = _box_support(A, lo, hi)
    norms = np.empty(len(A))
    for start, stop in _point_blocks(len(A)):
        norms[start:stop] = np.linalg.norm(A[start:stop], axis=1)
    M = np.maximum(np.abs(lo), np.abs(hi)).sum()
    near = np.flatnonzero(sup > b - TOL_RED * M * norms)
    A_hat = A[near]
    A_hat /= norms[near, None]
    unique = near[_dedup_rows(A_hat, b[near] / norms[near])]
    del A_hat  # before the kept rows are gathered
    if counters is not None:
        counters.update(rows_unreachable=region.n_rows - len(near),
                        duplicate_rows_collapsed=len(near) - len(unique))
    keep = unique[sup[unique] > b[unique]]
    if len(keep) == 0:
        raise AssumptionViolated("every row is redundant over the box; the "
                                 "box cannot reach any constraint")
    out = replace(
        region,
        A=A[keep],
        b=b[keep],
        row_meta=region.row_meta[keep],
        meta={**region.meta, "rows_before_reduction": region.n_rows},
    )
    return out._check_fields(require_interior=False)


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
