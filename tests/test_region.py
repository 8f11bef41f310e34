import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkscreen.grid import ptdf
from nkscreen.region import (
    ROW_META_DTYPE,
    TOL_RED,
    AssumptionViolated,
    _dedup_rows,
    _normalized,
    bounding_box,
    build_region,
    contingency_violation_fractions,
    drop_constant_dims,
    eliminate_redundant,
    prune_by_box_support,
    filter_contingencies,
    load_region,
    save_region,
    standardize,
    with_box,
)
from helpers import (dedup_rows_oracle, enumerate_contingencies,
                     is_islanding_bfs, mesh5, prune_full_sort,
                     region_from_rows, ring3)


def test_enumerate_ring_k1():
    net = ring3()
    assert enumerate_contingencies(net, 1) == [(0,), (1,), (2,)]


def test_enumerate_ring_k2_pairs_all_island():
    net = ring3()
    # every pair of ring edges isolates a bus, so only singletons survive
    assert enumerate_contingencies(net, 2) == [(0,), (1,), (2,)]


def test_build_region_counts_and_rhs():
    net = ring3()
    region = build_region(net, k=1)
    assert region.n_rows == 12  # 3 contingencies x 2 surviving lines x 2 signs
    assert np.all(region.b == 5.0)
    assert len(region.contingencies) == 3
    assert region.dim == 3


def test_build_region_counters():
    net = mesh5()
    counters = {}
    region = build_region(net, k=3, counters=counters)
    sets = [c for size in (1, 2, 3)
            for c in itertools.combinations(range(net.m), size)]
    kept = [c for c in sets if not is_islanding_bfs(net, c)]
    assert region.contingencies == kept == enumerate_contingencies(net, 3)
    assert counters == {"outage_sets_enumerated": len(sets),
                        "outage_sets_islanding": len(sets) - len(kept),
                        "outage_sets_kept": len(kept),
                        "rows_built": region.n_rows}
    assert region.n_rows == sum(2 * (net.m - len(c)) for c in kept)


def test_build_region_rows_follow_ptdf_order():
    # per contingency: surviving lines in order, each as H then -H
    net = mesh5()
    region = build_region(net, k=2)
    row = 0
    for ci, c in enumerate(region.contingencies):
        keep, H = ptdf(net, c)
        for line, h in zip(keep, H):
            for sign in (1, -1):
                assert region.A[row].tobytes() == (sign * h).tobytes()
                limit = net.f_upper[line] if sign == 1 else -net.f_lower[line]
                assert region.b[row] == limit
                assert tuple(region.row_meta[row]) == (ci, line, sign)
                row += 1
    assert row == region.n_rows


def test_describe_row_names_outage_line_and_sign():
    net = mesh5()
    region = build_region(net, k=2)
    for j in (0, 1, region.n_rows // 2, region.n_rows - 1):
        ci, line, sign = region.row_meta[j]
        assert region.describe_row(j) == {
            "row": j, "outage": list(region.contingencies[ci]),
            "line": int(line), "sign": int(sign)}
    assert region.describe_row(1)["sign"] == -1


def test_membership_memory_bounded_by_blocks():
    import tracemalloc

    # 2,000 points x 2,000 rows: one full matrix of row values is 32 MB
    rng = np.random.default_rng(5)
    A = rng.normal(size=(2000, 6))
    region = region_from_rows(A, np.abs(A).sum(axis=1))
    X = rng.uniform(-1.2, 1.2, size=(2000, 6))
    want = (X @ A.T <= region.b).all(axis=1)
    tracemalloc.start()
    try:
        member = region.membership(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(member, want)
    assert peak < 8e6, f"membership peaked at {peak / 1e6:.1f} MB"


def test_region_membership_matches_flow_oracle():
    net = ring3(limits=(1.0, 1.0, 1.0))
    region = build_region(net, k=1)
    rng = np.random.default_rng(0)
    X = rng.normal(scale=1.5, size=(200, 3))
    member = region.membership(X)
    for i, x in enumerate(X):
        ok = True
        for c in region.contingencies:
            keep, H = ptdf(net, c)
            f = H @ x
            if np.any(f > net.f_upper[keep] + 1e-9) or np.any(f < net.f_lower[keep] - 1e-9):
                ok = False
                break
        assert member[i] == ok


def test_violation_fractions_and_filter():
    # line 1 (1-2) has a tight limit; when line 0 is out, a bus0->bus1
    # transfer reroutes over line 1 and violates it, so contingency (0,)
    # is the one the filter should drop
    net = ring3(limits=(5.0, 1.0, 5.0))
    region = build_region(net, k=1)
    X = np.zeros((100, 3))
    X[:95, 0] = 2.0
    X[:95, 1] = -2.0
    fr = contingency_violation_fractions(region, X)
    assert fr[0] == pytest.approx(0.95)
    assert fr[1] == 0.0 and fr[2] == 0.0
    filtered = filter_contingencies(region, X, threshold=0.9)
    assert filtered.contingencies == [(1,), (2,)]
    assert filtered.n_rows == 8
    assert filtered.meta["filtered_contingencies"] == [(0,)]
    # contingency ids in row_meta stay aligned with the contingency list
    assert filtered.row_meta["contingency"].max() == len(filtered.contingencies) - 1


def _brute_force_fractions(region, X):
    Xc = region.project(X)
    fracs = np.zeros(len(region.contingencies))
    cid = region.row_meta["contingency"]
    for ci in range(len(region.contingencies)):
        rows = cid == ci
        if np.any(rows):
            fracs[ci] = (Xc @ region.A[rows].T > region.b[rows]).any(axis=1).mean()
    return fracs


@pytest.mark.parametrize("seed", range(6))
def test_violation_fractions_match_brute_force_on_box_corners(seed):
    # samples on the corners of their own box, and rows whose support over
    # that box sits exactly on b, just inside and outside TOL_RED of it;
    # multiples of 1/8 and integer corners keep every product exact
    rng = np.random.default_rng(seed)
    n, n_cont = 4, 7
    lo = rng.integers(-6, 0, size=n).astype(float)
    hi = rng.integers(1, 7, size=n).astype(float)
    corners = rng.integers(0, 2, size=(600, n)).astype(bool)   # 3 blocks
    corners[0], corners[1] = False, True   # both extreme corners present
    X = np.where(corners, hi, lo)
    A = rng.integers(-8, 9, size=(80, n)) / 8.0
    A[np.abs(A).sum(axis=1) == 0.0, 0] = 1.0
    sup = A.clip(min=0.0) @ hi + A.clip(max=0.0) @ lo
    offset = rng.choice([0.0, -0.5 * TOL_RED, 0.5 * TOL_RED, 2 * TOL_RED,
                         -3.0, 5.0], size=len(A))
    b = sup + offset
    meta = np.zeros(len(A), dtype=ROW_META_DTYPE)
    meta["contingency"] = np.sort(rng.integers(0, n_cont - 1, size=len(A)))
    meta["line"] = np.arange(len(A))
    region = replace(region_from_rows(A, np.abs(b) + 1.0), b=b, row_meta=meta,
                     contingencies=[(c,) for c in range(n_cont)])
    counters = {}
    got = contingency_violation_fractions(region, X, counters=counters)
    assert np.array_equal(got, _brute_force_fractions(region, X))
    assert got[-1] == 0.0   # the last contingency has no rows
    assert counters["filter_rows_evaluated"] == int(np.sum(offset < TOL_RED))
    assert counters["filter_rows_evaluated"] + counters["filter_rows_skipped"] == len(A)
    # shuffled rows give the same fractions
    perm = rng.permutation(len(A))
    shuffled = replace(region, A=A[perm], b=b[perm], row_meta=meta[perm])
    assert np.array_equal(contingency_violation_fractions(shuffled, X), got)


@pytest.mark.parametrize("seed", range(4))
def test_violation_fractions_match_brute_force_on_random_regions(seed):
    # random rows in random contingency order, several rows of one
    # contingency broken by one sample (counted once), and a first block of
    # 256 samples at the origin that breaks no row (skipped)
    rng = np.random.default_rng(100 + seed)
    n, n_cont, n_rows = 5, 12, 150
    A = rng.normal(size=(n_rows, n))
    b = rng.uniform(0.5, 3.0, size=n_rows)
    meta = np.zeros(n_rows, dtype=ROW_META_DTYPE)
    meta["contingency"] = rng.integers(0, n_cont, size=n_rows)
    meta["line"] = np.arange(n_rows)
    region = replace(region_from_rows(A, b), row_meta=meta,
                     contingencies=[(c,) for c in range(n_cont)])
    X = np.vstack([np.zeros((256, n)), rng.normal(scale=1.5, size=(700, n))])
    got = contingency_violation_fractions(region, X)
    want = _brute_force_fractions(region, X)
    assert np.array_equal(got, want)
    assert np.count_nonzero(want) > 0
    cid = meta["contingency"]
    broken = [(X @ A[cid == c].T > b[cid == c]).sum(axis=1).max()
              for c in range(n_cont)]
    assert max(broken) > 1


def test_violation_fractions_memory_bounded_by_blocks():
    import tracemalloc

    # 2,000 samples x 2,000 rows the box screen keeps: one full matrix of
    # row values is 32 MB
    rng = np.random.default_rng(6)
    A = rng.normal(size=(2000, 6))
    X = rng.uniform(-1.2, 1.2, size=(2000, 6))
    meta = np.zeros(len(A), dtype=ROW_META_DTYPE)
    meta["contingency"] = np.arange(len(A)) // 10
    region = replace(region_from_rows(A, 0.5 * np.abs(A).sum(axis=1)),
                     row_meta=meta, contingencies=[(c,) for c in range(200)])
    counters = {}
    tracemalloc.start()
    try:
        fracs = contingency_violation_fractions(region, X, counters=counters)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counters["filter_rows_evaluated"] == 2000
    assert np.array_equal(fracs, _brute_force_fractions(region, X))
    assert peak < 8e6, f"fractions peaked at {peak / 1e6:.1f} MB"


def test_filter_keeps_everything_when_benign():
    net = ring3()
    region = build_region(net, k=1)
    X = np.zeros((50, 3))
    filtered = filter_contingencies(region, X)
    assert filtered.n_rows == region.n_rows
    assert len(filtered.contingencies) == 3


def test_bounding_box_simple():
    X = np.array([[1.0, -2.0], [3.0, -6.0]])
    lo, hi = bounding_box(X, inflate=1.2)
    assert hi[0] == pytest.approx(3.2)
    assert lo[0] == pytest.approx(0.0)  # extended to include the origin
    assert lo[1] == pytest.approx(-6.4)
    assert hi[1] == pytest.approx(0.0)


def test_drop_constant_dims_folds_rhs():
    A = np.array([[1.0, 2.0], [0.5, -1.0]])
    b = np.array([4.0, 3.0])
    region = region_from_rows(A, b)
    X = np.column_stack([np.linspace(-1, 1, 20), np.full(20, 0.5)])
    out = drop_constant_dims(region, X)
    assert out.dim == 1
    assert out.b[0] == pytest.approx(4.0 - 2.0 * 0.5)
    assert out.b[1] == pytest.approx(3.0 + 1.0 * 0.5)
    assert list(out.dim_map) == [0]
    assert out.dropped_values[1] == pytest.approx(0.5)
    # membership of conforming full points is unchanged
    pts = np.column_stack([np.linspace(-3, 3, 30), np.full(30, 0.5)])
    before = region.membership(pts)
    after = out.membership(pts)
    assert np.array_equal(before, after)


def test_drop_constant_dims_removes_rows_on_dropped_dims():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([2.0, 2.0])
    region = region_from_rows(A, b)
    X = np.column_stack([np.linspace(-1, 1, 10), np.ones(10)])
    out = drop_constant_dims(region, X)
    assert out.n_rows == 1  # the row on the constant dim became vacuous
    assert out.dim == 1


def test_drop_constant_dims_drops_exactly_the_rows_folded_to_zero():
    A = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                  [0.0, -3.0, 0.0], [0.0, 0.0, -1.0]])
    b = np.array([4.0, 2.0, 3.0, 5.0, 1.0])
    region = region_from_rows(A, b)
    X = np.column_stack([np.linspace(-1, 1, 10), np.full(10, 0.5),
                         np.linspace(0, 1, 10)])
    out = drop_constant_dims(region, X)
    assert out.row_meta["line"].tolist() == [0, 2, 4]
    assert np.array_equal(out.A, A[[0, 2, 4]][:, [0, 2]])
    assert out.b.tolist() == [4.0, 2.5, 1.0]
    assert out.A.flags.c_contiguous


def test_drop_constant_dims_one_c_ordered_copy():
    """The kept columns are gathered once, C-ordered (the dedup key's void
    view and the saved bytes need that order), and no row folds to zero
    on case39 at k = 2, so the rows are not gathered again."""
    import tracemalloc

    from nkscreen.cli import resolve_case
    from nkscreen.datagen import DemandSampler, sample_injections
    from nkscreen.grid import load_network

    net = load_network(resolve_case("case39"))
    X = sample_injections(net, DemandSampler(net.demand, rel_std=0.15, seed=0),
                          2000)
    region = filter_contingencies(build_region(net, k=2), X)
    tracemalloc.start()
    try:
        out = drop_constant_dims(region, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.A.flags.c_contiguous
    assert out.row_meta is region.row_meta
    assert peak < 1.25 * out.A.nbytes, \
        f"drop_constant_dims peaked at {peak / out.A.nbytes:.2f} x its output"


def test_drop_constant_dims_rejects_violated_slice():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([2.0, 2.0])
    region = region_from_rows(A, b)
    X = np.column_stack([np.linspace(-1, 1, 10), np.full(10, 5.0)])  # slice outside row 1
    with pytest.raises(AssumptionViolated):
        drop_constant_dims(region, X)


def test_drop_constant_dims_all_constant_rejected():
    region = region_from_rows(np.array([[1.0, 1.0]]), np.array([2.0]))
    X = np.ones((10, 2))
    with pytest.raises(AssumptionViolated):
        drop_constant_dims(region, X)


def test_eliminate_redundant_duplicates_and_dominated():
    A = np.array([
        [1.0, 0.0],    # kept: x <= 1
        [2.0, 0.0],    # duplicate direction, x <= 1.5: dominated by neither... 3.0/2 = 1.5
        [1.0, 0.0],    # exact duplicate of row 0 with looser rhs
        [0.0, 1.0],    # kept: y <= 1
        [1.0, 1.0],    # x + y <= 5: redundant inside the box
        [-1.0, 0.0],   # kept: x >= -1
        [0.0, -1.0],   # kept: y >= -1
    ])
    b = np.array([1.0, 3.0, 2.0, 1.0, 5.0, 1.0, 1.0])
    box = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    region = region_from_rows(A, b, box=box)
    out = eliminate_redundant(region)
    # rows 0, 3, 5, 6 survive: the square [-1,1]^2
    assert out.n_rows == 4
    assert sorted(out.row_meta["line"].tolist()) == [0, 3, 5, 6]


def test_eliminate_redundant_idempotent():
    net = ring3(limits=(1.0, 2.0, 1.5))
    region = build_region(net, k=1)
    rng = np.random.default_rng(5)
    X = rng.normal(scale=0.8, size=(300, 3))
    region = with_box(region, X)
    once = eliminate_redundant(region)
    twice = eliminate_redundant(once)
    assert once.n_rows == twice.n_rows
    assert np.allclose(once.A, twice.A)
    assert np.allclose(once.b, twice.b)


def test_eliminate_redundant_preserves_membership_in_box():
    net = ring3(limits=(0.8, 1.6, 1.1))
    region = build_region(net, k=1)
    rng = np.random.default_rng(6)
    X = rng.normal(scale=0.7, size=(400, 3))
    region = with_box(region, X)
    reduced = eliminate_redundant(region)
    pts = rng.uniform(region.box_lower, region.box_upper, size=(1000, 3))
    m_before = region.margins(pts)
    m_after = reduced.margins(pts)
    # agree except within the tolerance band around the boundary
    clear = np.abs(m_before) > 1e-5
    assert np.array_equal(m_before[clear] <= 0, m_after[clear] <= 0)
    assert reduced.n_rows <= region.n_rows


def _random_polytope(seed, dim):
    """Rows of a random polytope around an interior point p, with exact
    duplicates, parallel rows of looser rhs and rows implied by positive
    combinations of two others mixed in.  Half the seeds put p far enough
    from the origin that some row excludes the origin."""
    rng = np.random.default_rng(seed)
    lo, hi = np.full(dim, -2.0), np.full(dim, 2.0)
    p = np.zeros(dim) if seed % 2 == 0 else rng.uniform(0.6, 1.0, size=dim)
    A = rng.normal(size=(6 * dim, dim))
    b = A @ p + rng.uniform(0.3, 1.2, size=len(A)) * np.linalg.norm(A, axis=1)
    extra_A, extra_b = [], []
    for _ in range(3 * dim):
        i, k = rng.choice(len(A), size=2, replace=False)
        kind = rng.integers(3)
        if kind == 0:     # exact duplicate
            extra_A.append(A[i])
            extra_b.append(b[i])
        elif kind == 1:   # parallel, scaled, with a looser rhs
            s = rng.uniform(0.5, 3.0)
            extra_A.append(s * A[i])
            extra_b.append(s * b[i] + rng.uniform(0.05, 0.5))
        else:             # implied by rows i and k, touching or not
            lam = rng.uniform(0.2, 0.8)
            extra_A.append(lam * A[i] + (1 - lam) * A[k])
            extra_b.append(lam * b[i] + (1 - lam) * b[k]
                           + rng.choice([0.0, 0.1]))
    A = np.vstack([A, extra_A])
    b = np.concatenate([b, extra_b])
    order = rng.permutation(len(b))
    return region_from_rows(A[order], b[order], box=(lo, hi))


def _brute_force_minimal(region):
    """Row indices of the minimal form, by HiGHS alone: drop row j when the
    maximum of its unit normal over the other surviving rows plus the box
    stays within b_j + TOL_RED.  Rows go from the last to the first, so of
    two equal rows the first survives, as the de-duplication keeps it."""
    from scipy.optimize import linprog

    norms = np.linalg.norm(region.A, axis=1)
    A_hat, b_hat = region.A / norms[:, None], region.b / norms
    bounds = list(zip(region.box_lower, region.box_upper))
    keep = list(range(region.n_rows))
    for j in reversed(range(region.n_rows)):
        others = [i for i in keep if i != j]
        res = linprog(-A_hat[j], A_ub=A_hat[others], b_ub=b_hat[others],
                      bounds=bounds, method="highs")
        assert res.status == 0
        if -res.fun <= b_hat[j] + TOL_RED:
            keep.remove(j)
    return keep


@pytest.mark.parametrize("seed", range(12))
def test_eliminate_redundant_matches_brute_force(seed):
    region = _random_polytope(seed, dim=2 + seed % 3)
    out = eliminate_redundant(region)
    assert out.row_meta["line"].tolist() == _brute_force_minimal(region)
    counts = out.meta["elimination"]
    assert counts["facets"] == out.n_rows
    assert counts["rows_after_box_screen"] >= out.n_rows
    assert counts["lps"] >= 1 and counts["lp_iterations"] >= 0


def test_eliminate_redundant_centre_when_origin_is_outside():
    A = np.array([
        [-1.0, 0.0],   # x >= 0.5: the origin violates it
        [1.0, 0.0],    # x <= 1.5
        [0.0, 1.0],    # y <= 1
        [0.0, -1.0],   # y >= -1
        [1.0, 1.0],    # x + y <= 4: implied by rows 1 and 2
        [-1.0, 1.0],   # y - x <= 0.5: implied by rows 0 and 2
        [1.0, -1.0],   # x - y <= 2: cuts the corner (1.5, -1), a facet
    ])
    b = np.array([-0.5, 1.5, 1.0, 1.0, 4.0, 0.5, 2.0])
    region = region_from_rows(A, b, box=(np.full(2, -2.0), np.full(2, 2.0)))
    out = eliminate_redundant(region)
    assert out.row_meta["line"].tolist() == [0, 1, 2, 3, 6]
    assert out.row_meta["line"].tolist() == _brute_force_minimal(region)


@pytest.mark.parametrize("seed", range(6))
def test_chebyshev_centre_on_the_simplex_matches_highs(seed, monkeypatch):
    # a region of at most 600 rows takes the simplex path, with the radius
    # bounded below by 0; HiGHS with a free radius finds the same radius
    from scipy.optimize import linprog

    import nkscreen.lp as lp
    from nkscreen.region import _chebyshev_centre

    region = _random_polytope(seed, dim=2 + seed % 3)
    A_hat, b_hat = _normalized(region.A, region.b)
    lo, hi = region.box_lower, region.box_upper
    m, n = A_hat.shape
    assert m <= 600
    ref = linprog(np.append(np.zeros(n), -1.0),
                  A_ub=np.hstack([A_hat, np.ones((m, 1))]), b_ub=b_hat,
                  bounds=[*zip(lo, hi), (None, None)], method="highs")
    assert ref.status == 0 and -ref.fun > 0.0

    def no_highs(problem):
        raise AssertionError("the centre LP went to HiGHS")

    monkeypatch.setattr(lp, "solve_highs", no_highs)
    centre, iterations = _chebyshev_centre(A_hat, b_hat, lo, hi)
    assert iterations > 0
    assert np.all((lo <= centre) & (centre <= hi))
    radius = (b_hat - A_hat @ centre).min()
    assert abs(radius - (-ref.fun)) <= 1e-9


@pytest.mark.parametrize("b", [[0.5, -0.5, 1.0, 1.0],    # the segment x = 0.5
                               [-0.5, -0.5, 1.0, 1.0]])  # x <= -0.5, x >= 0.5
def test_eliminate_redundant_rejects_empty_interior(b):
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    region = region_from_rows(A, np.array(b),
                              box=(np.full(2, -2.0), np.full(2, 2.0)))
    with pytest.raises(AssumptionViolated):
        eliminate_redundant(region)


# sha256 of A, b and row_meta of the exact case39 k=1 region below, recorded
# before the elimination was rewritten as one pass; numpy 2.4 with OpenBLAS
# on x86-64 (the same bytes with one BLAS thread and with two).
CASE39_K1_DIGEST = "1c67be4adba3fd9d1638ccfb9c61f34f6ba0c24aa1ac8f70a22d58ed6a0ec95d"


def test_exact_elimination_bytes_unchanged():
    import hashlib

    from nkscreen.cli import resolve_case
    from nkscreen.datagen import DemandSampler, sample_injections
    from nkscreen.grid import load_network

    net = load_network(resolve_case("case39"))
    X = sample_injections(net, DemandSampler(net.demand, rel_std=0.15, seed=0),
                          2000)
    region = filter_contingencies(build_region(net, k=1), X)
    out = eliminate_redundant(with_box(drop_constant_dims(region, X), X))
    h = hashlib.sha256()
    for arr in (out.A, out.b, out.row_meta):
        h.update(arr.tobytes())
    assert out.n_rows == 29
    assert h.hexdigest() == CASE39_K1_DIGEST


# sha256 of the case39 k=2 region straight from build_region, of the
# per-contingency violation fractions of a seeded 2,000-injection sample,
# and of that region after the filter, the folding, the box and the
# box-support screen; recorded before region construction became array
# code (numpy 2.4 with OpenBLAS on x86-64, one BLAS thread and two).
CASE39_K2_BUILD_DIGEST = "0fc38485592dfc8310dd88067477df245efafa020ef340cf640a518bab468256"
CASE39_K2_FRACTIONS_DIGEST = "1e1d65e9c4d7dd29a71c2aec06a2baf059558f0a3a5afff04809f80729ef5a05"
CASE39_K2_PRUNED_DIGEST = "d5a80161fef81f6e31f9b7c076e665502057a2220a3428cfa7a3a5ee2c2da710"


def _rows_digest(region):
    import hashlib

    h = hashlib.sha256()
    for arr in (region.A, region.b, region.row_meta):
        h.update(arr.tobytes())
    return h.hexdigest()


def test_region_construction_bytes_unchanged():
    import hashlib

    from nkscreen.cli import resolve_case
    from nkscreen.datagen import DemandSampler, sample_injections
    from nkscreen.grid import load_network

    net = load_network(resolve_case("case39"))
    region = build_region(net, k=2)
    assert (len(region.contingencies), region.n_rows) == (597, 52606)
    assert _rows_digest(region) == CASE39_K2_BUILD_DIGEST
    X = sample_injections(net, DemandSampler(net.demand, rel_std=0.15, seed=0),
                          2000)
    fracs = contingency_violation_fractions(region, X)
    assert hashlib.sha256(fracs.tobytes()).hexdigest() == CASE39_K2_FRACTIONS_DIGEST
    filtered = filter_contingencies(region, X)
    pruned = prune_by_box_support(with_box(drop_constant_dims(filtered, X), X))
    assert pruned.n_rows == 2040
    assert _rows_digest(pruned) == CASE39_K2_PRUNED_DIGEST


# sha256 of the case39 k=3 region after the same stages as above (517,522
# rows built), recorded while the duplicate search still sorted every row.
CASE39_K3_PRUNED_DIGEST = "ec15955cb4e87c15c6df61e69c7177d6645abadd832e567dda7c0022080323c4"


def test_region_construction_k3_pruned_bytes_unchanged():
    from nkscreen.cli import resolve_case
    from nkscreen.datagen import DemandSampler, sample_injections
    from nkscreen.grid import load_network

    net = load_network(resolve_case("case39"))
    region = build_region(net, k=3)
    assert region.n_rows == 517522
    X = sample_injections(net, DemandSampler(net.demand, rel_std=0.15, seed=0),
                          2000)
    region = filter_contingencies(region, X)
    region = with_box(drop_constant_dims(region, X), X)
    pruned = prune_by_box_support(region)
    assert pruned.n_rows == 13247
    assert _rows_digest(pruned) == CASE39_K3_PRUNED_DIGEST


def test_standardize_identity_roundtrip():
    net = ring3()
    region = build_region(net, k=1)
    out = standardize(region, np.zeros(3), np.ones(3))
    assert np.allclose(out.A, region.A)
    assert np.allclose(out.b, region.b)


def test_standardize_rejects_center_outside():
    region = region_from_rows(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(AssumptionViolated):
        standardize(region, np.array([5.0, 0.0]), np.ones(2))


def test_standardize_rejects_double_application():
    region = region_from_rows(np.eye(2), np.array([1.0, 1.0]))
    out = standardize(region, np.zeros(2), np.array([2.0, 2.0]))
    with pytest.raises(ValueError):
        standardize(out, np.zeros(2), np.ones(2))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_standardize_preserves_membership(seed):
    rng = np.random.default_rng(seed)
    net = ring3(limits=(1.0, 1.0, 1.0))
    region = build_region(net, k=1)
    mu = rng.normal(scale=0.05, size=3)
    sigma = rng.uniform(0.5, 2.0, size=3)
    out = standardize(region, mu, sigma)
    X = rng.normal(scale=1.2, size=(50, 3))
    assert np.array_equal(region.membership(X), out.membership(X))
    # margins in the new coordinates agree at mapped points
    assert np.allclose(out.margins(out.project(X)), region.margins(region.project(X)), atol=1e-9)


def test_save_load_roundtrip(tmp_path):
    net = ring3()
    region = build_region(net, k=1)
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 3))
    region = with_box(region, X)
    path = tmp_path / "region.npz"
    save_region(region, path)
    back = load_region(path)
    assert np.array_equal(back.A, region.A)
    assert np.array_equal(back.b, region.b)
    assert back.contingencies == region.contingencies
    assert np.array_equal(back.box_lower, region.box_lower)
    assert np.array_equal(back.row_meta, region.row_meta)
    assert back.meta["k"] == 1


def test_validate_rejects_bad_regions():
    with pytest.raises(AssumptionViolated):
        region_from_rows(np.array([[1.0, 0.0]]), np.array([-1.0])).validate()
    with pytest.raises(AssumptionViolated):
        region_from_rows(np.array([[0.0, 0.0]]), np.array([1.0]))


def test_box_support_prune_keeps_violable_rows_only():
    A = np.array([
        [1.0, 0.0],    # x <= 1: violable in box, kept
        [1.0, 0.0],    # parallel with looser rhs: collapsed into row 0
        [0.0, 1.0],    # y <= 5: box tops out at 2, unreachable, dropped
        [1.0, 1.0],    # x + y <= 3: reachable (max 4), kept
        [-1.0, 0.0],   # x >= -10: unreachable, dropped
    ])
    b = np.array([1.0, 1.5, 5.0, 3.0, 10.0])
    box = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    region = region_from_rows(A, b, box=box)
    out = prune_by_box_support(region)
    assert sorted(out.row_meta["line"].tolist()) == [0, 3]


def test_box_support_prune_is_weaker_than_exact():
    # a row implied only by a combination of other rows survives the screen
    # but not the exact elimination
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([1.0, 1.0, 3.0, 1.0, 1.0])
    box = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    region = region_from_rows(A, b, box=box)
    screened = prune_by_box_support(region)
    exact = eliminate_redundant(region)
    assert screened.n_rows == 5   # support of x+y over the box is 4 > 3
    assert exact.n_rows == 4      # but x <= 1 and y <= 1 imply it


def test_box_support_prune_idempotent_and_membership():
    net = ring3(limits=(0.8, 1.6, 1.1))
    region = build_region(net, k=1)
    rng = np.random.default_rng(11)
    X = rng.normal(scale=0.7, size=(400, 3))
    region = with_box(region, X)
    once = prune_by_box_support(region)
    twice = prune_by_box_support(once)
    assert once.n_rows == twice.n_rows
    assert np.allclose(once.A, twice.A)
    pts = rng.uniform(region.box_lower, region.box_upper, size=(1000, 3))
    m_before = region.margins(pts)
    m_after = once.margins(pts)
    clear = np.abs(m_before) > 1e-5
    assert np.array_equal(m_before[clear] <= 0, m_after[clear] <= 0)


def _dedup_case(seed):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(30, 5))
    base[rng.random(base.shape) < 0.3] = 0.0
    base[np.arange(30), rng.integers(0, 5, size=30)] = 1.0   # no zero row
    base[0] = 0.0
    base[0, 2] = 1.0
    rows = [base, base[rng.integers(0, 30, size=20)],            # exact copies
            base[rng.integers(0, 30, size=20)]
            * rng.uniform(0.5, 3.0, size=(20, 1))]                # scaled copies
    neg_zero = base[rng.integers(0, 30, size=15)].copy()
    neg_zero[neg_zero == 0.0] = -0.0
    tiny = base[rng.integers(0, 30, size=15)].copy()
    tiny[tiny == 0.0] = -1e-13                                   # rounds to -0.0
    A = np.vstack(rows + [neg_zero, tiny])
    b = rng.choice([1.0, 2.0, 3.0], size=len(A)) * np.linalg.norm(A, axis=1)
    return _normalized(A, b)


@pytest.mark.parametrize("seed", range(8))
def test_dedup_rows_matches_unique_oracle(seed):
    A_hat, b_hat = _dedup_case(seed)
    got = _dedup_rows(A_hat, b_hat)
    assert np.array_equal(got, dedup_rows_oracle(A_hat, b_hat))
    # every copy joins its base row's group
    assert len(got) == len(np.unique(np.round(A_hat[:30], 9), axis=0)) == 30
    assert np.all(np.diff(got) > 0)


def test_dedup_rows_negative_zero_and_ties():
    A = np.array([[1.0, 0.0], [1.0, -0.0], [1.0, -1e-12], [0.0, 1.0], [0.0, 1.0]])
    b = np.array([2.0, 1.0, 1.0, 3.0, 3.0])
    # rows 0-2 are one direction: the tightest b wins, the lowest index on
    # the tie; rows 3-4 tie outright
    assert _dedup_rows(A, b).tolist() == [1, 3]
    assert dedup_rows_oracle(A, b).tolist() == [1, 3]


@pytest.mark.parametrize("seed", [21, 22])
def test_dedup_rows_ties_across_many_parallel_copies(seed):
    """Groups of 3-6 parallel copies whose rhs tie, some below the rest:
    each keeps the lowest index of its least rhs."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(12, 4))
    group = np.repeat(np.arange(12), rng.integers(3, 7, size=12))
    rng.shuffle(group)
    A = base[group] * rng.choice([1.0, 2.0, 0.5], size=(len(group), 1))
    # rhs of 1 or 2 unit lengths: the copies' normals and rhs tie exactly
    A_hat, b_hat = _normalized(A, rng.choice([1.0, 2.0], size=len(group),
                                             p=[0.4, 0.6])
                               * np.linalg.norm(A, axis=1))
    want = sorted(min(np.flatnonzero((group == g)
                                     & (b_hat == b_hat[group == g].min())))
                  for g in range(12))
    got = _dedup_rows(A_hat.copy(), b_hat)
    assert got.tolist() == want
    assert np.array_equal(got, dedup_rows_oracle(A_hat, b_hat))


def test_box_support_prune_memory_below_one_and_a_half_matrices():
    """The unit normals, rounded in place into the dedup key, are the one
    copy of A the screen needs: sorted rows are compared through the sort
    order a block at a time, never as a sorted copy of the key.  24
    columns, as case39's k = 3 region has after folding."""
    import tracemalloc

    rng = np.random.default_rng(9)
    base = rng.normal(size=(10000, 24))
    A = np.vstack([base, 2.0 * base[:5000]])       # 5,000 parallel copies
    b = np.abs(A).sum(axis=1) * rng.uniform(0.2, 0.9, size=len(A))
    region = region_from_rows(A, b, box=(np.full(24, -1.0), np.full(24, 1.0)))
    counters = {}
    tracemalloc.start()
    try:
        out = prune_by_box_support(region, counters=counters)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counters["duplicate_rows_collapsed"] == 5000
    assert out.n_rows == 10000
    assert peak < 1.5 * A.nbytes, \
        f"prune peaked at {peak / A.nbytes:.2f} x A.nbytes"


def test_box_support_prune_keeps_rows_just_past_the_box():
    # a row whose box support exceeds b_j by less than TOL_RED can be
    # violated inside the box, so it stays; support exactly b_j cannot
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0 - 0.5 * TOL_RED, 1.0, 1.0])
    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    out = prune_by_box_support(region_from_rows(A, b, box=box))
    assert out.row_meta["line"].tolist() == [0, 2]
    x = np.array([[1.0, 0.0]])
    assert region_from_rows(A, b, box=box).margins(x)[0] > 0
    assert out.margins(x)[0] > 0


def test_box_support_prune_counts_duplicates():
    A = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 3.0, 1.0, 3.0, 2.5])
    box = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    counters = {}
    out = prune_by_box_support(region_from_rows(A, b, box=box), counters=counters)
    assert counters == {"rows_unreachable": 0, "duplicate_rows_collapsed": 2}
    assert out.row_meta["line"].tolist() == [0, 2, 4]


def test_box_support_prune_counts_unreachable_rows_apart():
    # rows 2 (row 0's direction) and 3 lie far beyond the box: the box
    # screen drops them before the duplicate search, so row 2 counts as
    # unreachable, not as a duplicate; row 1 is a duplicate of row 0
    A = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 3.0, 60.0, 50.0, 1.0])
    box = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    counters = {}
    out = prune_by_box_support(region_from_rows(A, b, box=box), counters=counters)
    assert counters == {"rows_unreachable": 2, "duplicate_rows_collapsed": 1}
    assert out.row_meta["line"].tolist() == [0, 4]


def _straddling_groups(seed):
    """Groups of parallel rows around the edge of a random box: each copy
    of a direction is scaled by a power of two (so b / |a| ties exactly
    across copies with one offset), some are nudged by under 1e-9 per
    unit-normal coordinate (one dedup key, other box supports), some carry
    -0.0 for 0.0, and each rhs sits at the copy's box support plus an
    offset from far inside to far beyond the box."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    lo, hi = -rng.uniform(0.5, 2.0, d), rng.uniform(0.5, 2.0, d)
    M = np.maximum(-lo, hi).sum()
    offsets = np.array([-1.0, -1e-6, -1e-9, 0.0, 1e-10, 1e-9, 5e-7, 1e-6,
                        2e-6, 1.0]) * M
    rows, rhs = [], []
    for _ in range(60):
        u = rng.normal(size=d)
        u[rng.random(d) < 0.3] = 0.0
        u[rng.integers(d)] = rng.choice([-1.0, 1.0])
        for _ in range(int(rng.integers(1, 7))):
            a = u * 2.0 ** int(rng.integers(-2, 3))
            if rng.random() < 0.3:
                a = a + (a != 0) * rng.uniform(-3e-10, 3e-10, d)
            if rng.random() < 0.3:
                a[a == 0.0] = -0.0
            sup = np.clip(a, 0.0, None) @ hi + np.clip(a, None, 0.0) @ lo
            rows.append(a)
            rhs.append(sup + rng.choice(offsets) * np.linalg.norm(a))
    order = rng.permutation(len(rows))
    return region_from_rows(np.array(rows)[order], np.array(rhs)[order],
                            box=(lo, hi))


@pytest.mark.parametrize("seed", range(12))
def test_box_support_prune_equals_full_sort_reference(seed):
    region = _straddling_groups(seed)
    keep, want = prune_full_sort(region)
    counters = {}
    out = prune_by_box_support(region, counters=counters)
    assert counters == want
    assert out.A.tobytes() == region.A[keep].tobytes()
    assert out.b.tobytes() == region.b[keep].tobytes()
    assert out.row_meta.tobytes() == region.row_meta[keep].tobytes()


def test_box_support_prune_tightest_copy_just_out_of_reach():
    """Row 0 binds exactly at the box corner, so it is out of reach; row 1
    shares its dedup key, is looser and reachable, but loses the group to
    row 0, as it would in a search over every row.  Row 2 is a tie of
    row 3 in b / |a| with a -0.0 entry; the lower index wins."""
    A = np.array([[1.0, 0.0], [1.0, 4e-10], [0.0, -2.0], [-0.0, -1.0]])
    b = np.array([1.0, 1.0 + 2e-10, 1.0, 0.5])
    region = region_from_rows(A, b, box=(np.full(2, -1.0), np.ones(2)))
    assert region.margins(np.array([[1.0, 1.0]]))[0] > 0   # row 1 is violable
    keep, want = prune_full_sort(region)
    counters = {}
    out = prune_by_box_support(region, counters=counters)
    assert keep.tolist() == out.row_meta["line"].tolist() == [2]
    assert counters == want == {"rows_unreachable": 0,
                                "duplicate_rows_collapsed": 2}


def test_box_support_prune_requires_box():
    region = region_from_rows(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        prune_by_box_support(region)


def test_box_support_prune_rejects_unreachable_everything():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([100.0, 100.0])
    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    region = region_from_rows(A, b, box=box)
    with pytest.raises(AssumptionViolated):
        prune_by_box_support(region)
