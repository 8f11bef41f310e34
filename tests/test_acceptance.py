"""Acceptance suite: the twelve headline guarantees, one test each.

The 39-bus artifacts are built once through the command-line pipeline into
.cache/<hash>/ at the repository root, where <hash> is the content hash of
src/nkscreen/: run directory names hash the flags and inputs but not the
code, so a code change must not reuse artifacts built by other code.  Run
directories are named by content hash and written deterministically, so
reruns reuse them; a cold run trains the reference checkpoint from scratch
(about 20 s on a 2-core machine) and records its wall time.  Everything
else is synthetic and runs in seconds.

Each criterion is a separate test so the verbose report reads as one
pass/fail line per guarantee.  Two checks on the 2,386-row support region
follow them: the nearest-first certification's pivots, and the screening
of points that the scaled set reaches outside the box.  The last check
holds screening's labels to their definition on the whole dataset.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import time

import numpy as np
import pytest

from nkscreen.artifacts import write_json
from nkscreen.baselines import mlp_forward, train_mlp
from nkscreen.cli import main, resolve_case
from nkscreen.datagen import load_dataset
from nkscreen.grid import load_network
from nkscreen.icnn import (IcnnParams, box_violation, forward, init_params,
                           load_checkpoint, raw_forward, save_checkpoint)
from nkscreen.lp import TOL_FEAS
from nkscreen.oracle import (DegenerateRatio, SublevelSolver, certify,
                             r_gradient, scale_fast)
from nkscreen.region import load_region
from nkscreen.scopf import solve_scopf_icnn
from nkscreen.training import (TrainingConfig, classification_rates,
                               scaled_batch_gradient, weighted_bce)

from helpers import scale_full, sublevel_max

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PKG = os.path.join(ROOT, "src", "nkscreen")


def src_hash():
    """sha256 over the relative paths and bytes of every file in the package."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(PKG):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, PKG).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


CACHE = os.path.join(ROOT, ".cache", src_hash()[:16])
CASE = "case39"
REGION_COUNTS = "10000,2000,2000"   # sampling protocol behind the region
DATA_COUNTS = "3000,1000,2000"      # reduced training set, full test split
SEED = "0"

TRAIN_FLAGS = ["--depth", "1", "--width", "50", "--warm-epochs", "500",
               "--scaling-epochs", "1000", "--batch-size", "128",
               "--pos-weight", "1.0", "--lr", "0.01",
               "--decay-epochs", "225,1275", "--seed", SEED]


def run_step(argv):
    """Run one pipeline command into the cache; returns its run directory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--out", CACHE, "--reuse"])
    text = buf.getvalue()
    assert code == 0, f"{argv} exited {code}:\n{text}"
    for line in text.splitlines():
        if line.startswith("run directory: "):
            return line.split(": ", 1)[1].replace(" (reused)", "").strip()
    raise AssertionError(f"no run directory printed:\n{text}")


def timed_train(dataset, region):
    """Train the reference checkpoint, keeping a wall-clock record.

    Reused runs take the recorded time; if the record is missing the cached
    run is discarded and trained again, so the duration bound is always a
    real measurement on the current machine.
    """
    argv = ["train", "--dataset", dataset, "--region", region] + TRAIN_FLAGS
    record = os.path.join(CACHE, "train_wall_seconds.json")
    t0 = time.perf_counter()
    run_dir = run_step(argv)
    wall = time.perf_counter() - t0
    if wall <= 5.0 and not os.path.isfile(record):
        shutil.rmtree(run_dir)
        t0 = time.perf_counter()
        run_dir = run_step(argv)
        wall = time.perf_counter() - t0
    if wall > 5.0:
        write_json(record, {"seconds": round(wall, 1)})
    with open(record) as fh:
        return run_dir, float(json.load(fh)["seconds"])


def remove_stale_caches():
    """Delete the 16-hex-digit directories directly under .cache/ other than
    CACHE: artifacts of other source trees, which no run of this one reads."""
    parent, own = os.path.split(CACHE)
    for name in os.listdir(parent):
        path = os.path.join(parent, name)
        if (name != own and re.fullmatch("[0-9a-f]{16}", name)
                and os.path.isdir(path) and not os.path.islink(path)):
            shutil.rmtree(path)


@pytest.fixture(scope="session")
def pipeline():
    """The 39-bus artifacts of this source tree, built or reused in CACHE.

    It first removes the directories that other source trees built
    directly under .cache/ (16 hex digits each, ``remove_stale_caches``)
    and leaves everything else there alone.
    """
    os.makedirs(CACHE, exist_ok=True)
    remove_stale_caches()
    prep = ["prepare-region", "--case", CASE, "--k", "2",
            "--counts", REGION_COUNTS, "--seed", SEED]
    support = run_step(prep + ["--elimination", "support"])
    exact = run_step(prep + ["--elimination", "exact"])
    gen = run_step(["gen-data", "--case", CASE, "--region-dir", support,
                    "--counts", DATA_COUNTS, "--seed", SEED])
    dataset = os.path.join(gen, "dataset.npz")
    train, train_seconds = timed_train(dataset,
                                       os.path.join(exact, "region.npz"))
    ckpt = os.path.join(train, "checkpoint.npz")
    region_full = os.path.join(support, "region_full.npz")
    screen = run_step(["screen", "--checkpoint", ckpt, "--dataset", dataset,
                       "--region-full", region_full, "--repeats", "3"])
    scopf = run_step(["scopf-bench", "--case", CASE, "--checkpoint", ckpt,
                      "--dataset", dataset, "--region-full", region_full,
                      "--limit", "60"])
    return {
        "net": load_network(resolve_case(CASE)),
        "region_full": load_region(region_full),
        "region_std": load_region(os.path.join(support, "region.npz")),
        "region_exact": load_region(os.path.join(exact, "region.npz")),
        "region_report": json.load(open(os.path.join(support,
                                                     "region_report.json"))),
        "ds": load_dataset(dataset),
        "ckpt": ckpt,
        "clf": load_checkpoint(ckpt),
        "train_seconds": train_seconds,
        "screen_report": json.load(open(os.path.join(screen,
                                                     "screen_report.json"))),
        "scopf_summary": json.load(open(os.path.join(scopf,
                                                     "scopf_summary.json"))),
    }


# ---------------------------------------------------------------------------
# synthetic instance helpers for the solver-level criteria


def random_net(rng, dim_lo=1, dim_hi=4, anchor_margin=0.5):
    """Random convex net with a guaranteed interior point of its 0-sublevel set."""
    dim = int(rng.integers(dim_lo, dim_hi + 1))
    depth = int(rng.integers(1, 4))
    width = int(rng.integers(2, 6))
    box = rng.uniform(1.0, 4.0, size=dim)
    params = init_params(dim, depth, width, -box, box,
                         seed=int(rng.integers(2 ** 31)))
    x0 = rng.uniform(-0.5, 0.5, size=dim) * box
    params.b[-1] = params.b[-1] - raw_forward(params, x0[None])[0] - anchor_margin
    return params


def random_region(rng, dim, m_lo=4, m_hi=8):
    m = int(rng.integers(m_lo, m_hi + 1))
    A = rng.normal(size=(m, dim))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    return A, rng.uniform(0.8, 2.0, size=m)


GRID_POINTS = {1: 512, 2: 64, 3: 16, 4: 11}


def grid_polish_max(params, c, tol=1e-9, max_cuts=300):
    """Independent support oracle: feasible grid incumbent, then cutting
    planes through scipy's LP until the relaxation optimum is feasible."""
    from scipy.optimize import linprog

    from nkscreen.icnn import backward

    lo, hi = params.box_lower, params.box_upper
    n = len(lo)
    axes = [np.linspace(lo[i], hi[i], GRID_POINTS[n]) for i in range(n)]
    G = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n)
    vals = G @ c
    vals[forward(params, G) > 0.0] = -np.inf
    incumbent = float(vals.max())
    cuts_A, cuts_b = [], []
    bounds = list(zip(lo, hi))
    for _ in range(max_cuts):
        res = linprog(-c, A_ub=np.array(cuts_A) if cuts_A else None,
                      b_ub=np.array(cuts_b) if cuts_b else None,
                      bounds=bounds, method="highs")
        assert res.status == 0, res.message
        x = res.x
        val = float(raw_forward(params, x[None])[0])
        if val <= tol:
            return max(incumbent, float(c @ x))
        _, dx = backward(params, x[None], np.array([1.0]), raw_only=True)
        cuts_A.append(dx[0])
        cuts_b.append(dx[0] @ x - val)
    raise AssertionError("cutting-plane oracle did not converge")


def param_blocks(p):
    return p.W + p.D + p.b


def largest_coordinate(grads):
    best = None
    for bi, g in enumerate(param_blocks(grads)):
        idx = np.unravel_index(np.argmax(np.abs(g)), g.shape)
        if best is None or abs(g[idx]) > abs(best[2]):
            best = (bi, idx, float(g[idx]))
    return best


def perturbed(params, bi, idx, h):
    probe = params.copy()
    param_blocks(probe)[bi][idx] += h
    return probe


def activation_pattern(params, X):
    raw, (_, pre, _) = raw_forward(params, X, want_cache=True)
    pen = params.box_gain * box_violation(params, X)
    return [p > 0 for p in pre], np.atleast_1d(pen) > np.atleast_1d(raw)


def patterns_equal(a, b):
    return (all(np.array_equal(x, y) for x, y in zip(a[0], b[0]))
            and np.array_equal(a[1], b[1]))


# ---------------------------------------------------------------------------
# the twelve criteria


def test_criterion_01_zero_false_negatives(pipeline):
    ds, clf = pipeline["ds"], pipeline["clf"]
    region = pipeline["region_exact"]
    y = ds.labels[ds.test].astype(bool)
    assert len(y) == 2000
    pred_infeasible = ~clf.predict_feasible(ds.standardized(ds.x[ds.test]))
    missed = int((~pred_infeasible & y).sum())
    fnr = missed / int(y.sum())
    assert fnr == 0.0, f"missed {missed} insecure test samples"
    assert pipeline["screen_report"]["fnr"] == 0.0
    report = certify(clf.params, region.A, region.b, r=clf.r, v=clf.v)
    assert report.reliable, f"certification verdict {report.verdict}"
    print(f"fnr 0 over {len(y)} samples ({int(y.sum())} insecure); "
          f"certified reliable, worst margin {report.margins.min():.2e}")


def test_criterion_02_support_lp_matches_grid_oracle():
    rng = np.random.default_rng(20240814)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        params = random_net(rng)
        c = rng.normal(size=params.n_inputs)
        c /= np.linalg.norm(c)
        lp = sublevel_max(params, c).value
        oracle = grid_polish_max(params, c)
        worst = max(worst, abs(lp - oracle))
        assert abs(lp - oracle) <= 1e-4, \
            f"support {lp:.8f} vs oracle {oracle:.8f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"200 random nets: worst |lp - oracle| {worst:.2e} in {elapsed:.1f}s")


def test_criterion_03_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    t0 = time.perf_counter()
    checked_r = checked_loss = tried = 0
    worst_r = worst_loss = 0.0
    while (checked_r < 50 or checked_loss < 50) and tried < 400:
        tried += 1
        params = random_net(rng, dim_lo=2, dim_hi=3)
        A, b = random_region(rng, params.n_inputs)
        try:
            scale = scale_fast(params, A, b)
        except DegenerateRatio:
            continue
        if scale.output_dual <= 0:
            continue

        # envelope derivative of the scaling ratio
        grads = r_gradient(params, scale, b)
        bi, idx, g = largest_coordinate(grads)
        if g != 0.0 and checked_r < 50:
            sp = scale_fast(perturbed(params, bi, idx, +h), A, b)
            sm = scale_fast(perturbed(params, bi, idx, -h), A, b)
            stable = (sp.row == sm.row == scale.row
                      and sp.x is not None and sm.x is not None
                      and np.allclose(sp.x, scale.x, atol=1e-6)
                      and np.allclose(sm.x, scale.x, atol=1e-6))
            if stable:
                fd = (sp.r - sm.r) / (2 * h)
                rel = abs(fd - g) / max(1.0, abs(fd), abs(g))
                worst_r = max(worst_r, rel)
                assert rel <= 1e-3, f"r-gradient {g} vs fd {fd}"
                checked_r += 1

        # total gradient of the scaled-model loss
        Xb = rng.uniform(-0.5, 0.5, size=(8, params.n_inputs)) * params.box_upper
        yb = rng.integers(0, 2, size=8).astype(float)
        w = float(rng.choice([0.5, 1.0, 2.0]))
        _, lgrads = scaled_batch_gradient(params, Xb, yb, scale, b, w)
        bi, idx, g = largest_coordinate(lgrads)
        if g == 0.0 or checked_loss >= 50:
            continue

        def loss_at(probe):
            s = scale_fast(probe, A, b)
            return float(weighted_bce(forward(probe, s.r * Xb), yb, w).mean()), s

        lp_, sp = loss_at(perturbed(params, bi, idx, +h))
        lm_, sm = loss_at(perturbed(params, bi, idx, -h))
        pat0 = activation_pattern(params, scale.r * Xb)
        stable = (sp.row == sm.row == scale.row
                  and patterns_equal(pat0, activation_pattern(
                      perturbed(params, bi, idx, +h), sp.r * Xb))
                  and patterns_equal(pat0, activation_pattern(
                      perturbed(params, bi, idx, -h), sm.r * Xb)))
        if not stable:
            continue
        fd = (lp_ - lm_) / (2 * h)
        rel = abs(fd - g) / max(1.0, abs(fd), abs(g))
        worst_loss = max(worst_loss, rel)
        assert rel <= 1e-3, f"loss gradient {g} vs fd {fd}"
        checked_loss += 1
    elapsed = time.perf_counter() - t0
    assert checked_r == 50 and checked_loss == 50, \
        f"only {checked_r}/{checked_loss} stable configurations in {tried} tries"
    assert elapsed < 300.0
    print(f"50 stable configs each: worst rel err {worst_r:.2e} (ratio), "
          f"{worst_loss:.2e} (loss) in {elapsed:.1f}s")


def test_criterion_04_midpoint_convexity(pipeline):
    clf = pipeline["clf"]
    params = clf.params
    rng = np.random.default_rng(4)
    span = 1.5 * (params.box_upper - params.box_lower)
    center = 0.5 * (params.box_upper + params.box_lower)
    U = center + span * (rng.random(size=(1000, params.n_inputs)) - 0.5)
    V = center + span * (rng.random(size=(1000, params.n_inputs)) - 0.5)
    gap = forward(params, 0.5 * (U + V)) - 0.5 * (forward(params, U)
                                                  + forward(params, V))
    assert gap.max() <= 1e-9, f"midpoint violation {gap.max():.3e}"
    print(f"1000 pairs: max midpoint gap {gap.max():.2e}")


def test_criterion_05_pinned_full_scaling_equals_fast():
    rng = np.random.default_rng(11)
    worst = 0.0
    done = 0
    while done < 50:
        params = random_net(rng, dim_lo=2, dim_hi=3)
        A, b = random_region(rng, params.n_inputs)
        try:
            r_sweep = scale_fast(params, A, b).r
            r_lp = scale_full(params, A, b).r
        except DegenerateRatio:
            continue
        worst = max(worst, abs(r_sweep - r_lp))
        assert abs(r_sweep - r_lp) <= 1e-8
        done += 1
    print(f"50 instances: max |r_fast - r_full| {worst:.2e}")


def test_criterion_06_region_matches_flow_oracle(pipeline):
    net = pipeline["net"]
    full = pipeline["region_full"]
    std = pipeline["region_std"]
    rng = np.random.default_rng(123)
    Z = rng.uniform(std.box_lower, std.box_upper, size=(500, std.dim))
    X_full = np.tile(std.dropped_values, (500, 1))
    X_full[:, std.dim_map] = std.mu + std.sigma * Z
    assert not np.isnan(X_full).any()

    tol = 1e-6
    member_after = np.all(Z @ std.A.T <= std.b + tol, axis=1)
    member_before = np.all(X_full @ full.A.T <= full.b + tol, axis=1)

    # independent oracle: per-contingency DC flow of the balanced component
    # (the rows annihilate constant shifts, so the oracle must too)
    X_bal = X_full - X_full.mean(axis=1, keepdims=True)
    C = np.zeros((len(net.lines), net.n))
    for l, (u, v) in enumerate(net.lines):
        C[l, u] = 1.0
        C[l, v] = -1.0
    keep_bus = np.arange(net.n) != net.slack
    ok = np.ones(500, dtype=bool)
    for cont in full.contingencies:
        alive = np.setdiff1d(np.arange(len(net.lines)), np.asarray(cont, int))
        Ca = C[alive]
        Ba = (Ca * net.susceptance[alive, None]).T @ Ca
        theta = np.zeros((net.n, 500))
        theta[keep_bus] = np.linalg.solve(Ba[np.ix_(keep_bus, keep_bus)],
                                          X_bal[:, keep_bus].T)
        flows = net.susceptance[alive, None] * (Ca @ theta)
        ok &= np.all((flows <= net.f_upper[alive, None] + tol)
                     & (flows >= net.f_lower[alive, None] - tol), axis=0)

    assert np.array_equal(member_before, ok), \
        f"{int((member_before != ok).sum())} disagreements before elimination"
    assert np.array_equal(member_after, ok), \
        f"{int((member_after != ok).sum())} disagreements after elimination"
    print(f"500 box points vs {len(full.contingencies)} contingency flows: "
          f"exact agreement before ({full.n_rows} rows) and after "
          f"({std.n_rows} rows), feasible share {ok.mean():.2f}")


def test_criterion_07_icnn_scopf_dispatches_stay_in_region(pipeline):
    net, clf = pipeline["net"], pipeline["clf"]
    ds = pipeline["ds"]
    full = pipeline["region_full"]
    demands = ds.d[ds.test]
    worst = -np.inf
    feasible = 0
    for d in demands:
        res = solve_scopf_icnn(net, d, clf)
        if not res:
            continue
        feasible += 1
        slack = (full.A @ (res.p - d) - full.b).max()
        worst = max(worst, slack)
        assert slack <= 1e-6, f"dispatch violates region by {slack:.3e}"
    assert feasible > 0
    print(f"{feasible}/{len(demands)} feasible dispatches, worst region "
          f"slack {worst:.2e}")


def test_criterion_08_region_shape(pipeline):
    report = pipeline["region_report"]
    rows, cols = report["rows"], report["columns"]
    assert 22 <= cols <= 30, f"columns {cols} outside 26 +- 4"
    assert abs(rows - 3613) <= 0.4 * 3613, f"rows {rows} outside 3613 +- 40%"
    print(f"reduced region {rows} rows x {cols} columns "
          f"(from {report['rows_enumerated']} enumerated)")


def test_criterion_09_fpr_within_budget(pipeline):
    # the reduced configuration named as the continuous-integration check:
    # 1000 scaling epochs, 3000 training samples, under half an hour
    ds, clf = pipeline["ds"], pipeline["clf"]
    y = ds.labels[ds.test].astype(bool)
    pred_infeasible = ~clf.predict_feasible(ds.standardized(ds.x[ds.test]))
    fpr = float(pred_infeasible[~y].mean())
    assert fpr <= 0.15, f"test fpr {fpr:.4f} above the reduced-config bound"
    assert pipeline["train_seconds"] <= 1800.0, \
        f"training took {pipeline['train_seconds']:.0f}s"
    print(f"test fpr {fpr:.4f} <= 0.15, trained in "
          f"{pipeline['train_seconds']:.0f}s <= 1800s")


def test_criterion_10_screening_speedup(pipeline):
    report = pipeline["screen_report"]
    assert report["n_test"] == 2000
    speedup = report["speedup_vs_full_sweep"]
    assert speedup >= 5.0, f"speedup {speedup:.1f}x below 5x"
    print(f"icnn {report['icnn_seconds'] * 1e3:.1f}ms vs full sweep "
          f"{report['full_sweep_seconds'] * 1e3:.0f}ms: {speedup:.0f}x")


def test_criterion_11_mlp_baseline_misses_insecure(pipeline):
    ds = pipeline["ds"]
    Z = ds.standardized()
    y = ds.labels
    fnrs = {}
    t0 = time.perf_counter()
    for depth in (1, 2, 3):
        for w in (0.5, 1.0, 1.5):
            cfg = TrainingConfig(depth=depth, width=50, warm_epochs=150,
                                 scaling_epochs=150, batch_size=128,
                                 positive_class_weight=w, learning_rate=1e-2,
                                 decay_epochs=(225,), seed=0)
            params, _ = train_mlp(Z[ds.train], y[ds.train],
                                  Z[ds.val], y[ds.val], cfg)
            _, fnr = classification_rates(
                mlp_forward(params, Z[ds.test]) > 0.0, y[ds.test])
            fnrs[(depth, w)] = fnr
    elapsed = time.perf_counter() - t0
    positive = sum(f > 0 for f in fnrs.values())
    assert positive >= 1, f"all nine configurations reached fnr 0: {fnrs}"
    print(f"{positive}/9 configurations miss insecure samples "
          f"(fnr up to {max(fnrs.values()):.3f}) in {elapsed:.0f}s")


def test_criterion_12_scopf_quality_and_speed(pipeline):
    s = pipeline["scopf_summary"]
    icnn = s["formulations"]["icnn"]
    assert pipeline["clf"].params.depth == 1
    assert icnn["cost_ratio_mean"] <= 1.005, \
        f"mean cost ratio {icnn['cost_ratio_mean']:.6f}"
    assert icnn["feasible_share"] >= 0.97, \
        f"feasible share {icnn['feasible_share']:.2%}"
    assert icnn["speedup"] >= 2.0, f"speedup {icnn['speedup']:.2f}x"
    print(f"{s['instances']} instances: cost ratio "
          f"{icnn['cost_ratio_mean']:.6f}, feasible share "
          f"{icnn['feasible_share']:.2%}, speedup {icnn['speedup']:.1f}x")


# ---------------------------------------------------------------------------
# the reference checkpoint against the 2,386-row support region


def test_support_region_certifies_nearest_first(pipeline):
    # a fresh certification takes at most a fifth of the pivots of the
    # same rows solved in index order, with the same verdict and worst row
    clf, region = pipeline["clf"], pipeline["region_std"]
    report = certify(clf.params, region.A, region.b, r=clf.r, v=clf.v)
    solver = SublevelSolver(clf.params)
    zeta = np.array([solver.support(row).value for row in region.A])
    scaled = (zeta - region.A @ clf.v) / clf.r
    index_pivots = solver.counters()["pivots"]
    index_verdict = ("violated" if np.any(scaled > region.b + TOL_FEAS)
                     else "reliable")
    assert report.verdict == index_verdict
    assert report.worst_row == int(np.argmin(region.b - scaled))
    np.testing.assert_allclose(report.supports, scaled, atol=1e-9)
    assert 5 * report.pivots <= index_pivots, \
        f"{report.pivots} pivots nearest-first, {index_pivots} in index order"
    print(f"{region.n_rows} rows: {report.pivots} pivots nearest-first, "
          f"{index_pivots} in index order; verdict {report.verdict}")


def test_points_outside_the_box_are_screened_insecure(pipeline):
    # The certificate covers the scaled set only inside the box.  Pull the
    # maximizer of the worst support row 5% toward a test point predicted
    # secure: the witness lies outside the box, region_full labels it
    # insecure, and screening must not pass it.
    clf, std, full, ds = (pipeline["clf"], pipeline["region_std"],
                          pipeline["region_full"], pipeline["ds"])
    report = certify(clf.params, std.A, std.b, r=clf.r, v=clf.v)
    u = sublevel_max(clf.params, std.A[report.worst_row]).x
    x = (u - clf.v) / clf.r
    test = ds.standardized(ds.x[ds.test])
    secure = test[clf.predict_feasible(test)][0]
    witness = x + 0.05 * (secure - x)
    lo, hi = clf.params.box_lower, clf.params.box_upper
    outside = max(np.max(lo - witness), np.max(witness - hi))
    assert outside > 0, "the witness lies inside the box"
    x_full = np.where(np.isnan(std.dropped_values), 0.0, std.dropped_values)
    x_full[std.dim_map] = witness * std.sigma + std.mu
    assert full.margins(full.project(x_full))[0] > 0
    assert not clf.predict_feasible(witness)[0]
    # points inside the box keep their predictions
    inside = np.all((test >= lo) & (test <= hi), axis=1)
    assert inside.all()
    np.testing.assert_array_equal(
        clf.predict_feasible(test),
        forward(clf.params, clf.r * test + clf.v) <= 0.0)
    print(f"witness {outside:.2f} standardized units outside the box: "
          "screened insecure")


def test_screening_labels_equal_the_definition(pipeline):
    # screening folds r and v into the weights and moves the box onto x;
    # on all 6,000 dataset points its labels equal the network with the
    # input box, evaluated at r x + v
    clf, ds = pipeline["clf"], pipeline["ds"]
    Z = ds.standardized()
    assert len(Z) == 6000
    p = clf.params
    lo, hi = clf.input_box()
    boxed = IcnnParams(W=p.W, D=p.D, b=p.b, box_lower=lo, box_upper=hi,
                       box_gain=p.box_gain)
    np.testing.assert_array_equal(clf.predict_feasible(Z),
                                  forward(boxed, clf.r * Z + clf.v) <= 0.0)


def test_resaved_checkpoint_keeps_its_bytes(pipeline, tmp_path):
    # loading fills nothing in and saving adds nothing: the reference
    # checkpoint, loaded and saved again, has the bytes train wrote
    again = tmp_path / "checkpoint.npz"
    save_checkpoint(load_checkpoint(pipeline["ckpt"]), again)
    with open(pipeline["ckpt"], "rb") as fh:
        assert again.read_bytes() == fh.read()
