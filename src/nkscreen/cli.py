"""Command-line pipeline: region preparation through SC-OPF benchmarking.

Every subcommand writes its outputs into a run directory named by a short
hash of the run manifest (subcommand, behavioral flags, seed, and content
hashes of the input artifacts).  Reruns with identical inputs land in the
same directory and, because artifact serialization is deterministic, produce
byte-identical files.  Artifact metadata carries the manifest hash so any
file can be traced back to the run that made it.

Exit codes: 0 success, 1 runtime failure, 2 invalid input, 3 certification
failure, 4 a trained model that screens nothing or a training whose
predicted set became empty before any epoch could be selected.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace

from . import __version__

CASE_DIR = os.path.join(os.path.dirname(__file__), "cases")


class ValidationError(ValueError):
    """Bad command input (missing file, inconsistent artifacts, bad flag)."""


@dataclass
class RunManifest:
    subcommand: str
    config: dict
    seed: int
    inputs: dict                      # artifact name -> sha256 of contents
    outputs: list = field(default_factory=list)
    version: str = __version__

    @property
    def hash(self):
        payload = {
            "subcommand": self.subcommand,
            "config": self.config,
            "seed": self.seed,
            "inputs": self.inputs,
            "version": self.version,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def write(self, run_dir):
        from .artifacts import write_json
        write_json(os.path.join(run_dir, "manifest.json"),
                   {**asdict(self), "hash": self.hash})


def resolve_case(name):
    """A case argument is either a JSON file path or a bundled case name."""
    if os.path.isfile(name):
        return name
    bundled = os.path.join(CASE_DIR, name + ".json")
    if os.path.isfile(bundled):
        return bundled
    raise ValidationError(f"case not found: {name!r} is neither a file nor a "
                          f"bundled case in {CASE_DIR}")


def parse_counts(text):
    try:
        counts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"counts must be comma-separated integers, got {text!r}")
    if len(counts) != 3 or any(c < 1 for c in counts):
        raise ValidationError("counts must be three positive integers: train,val,test")
    return counts


def parse_epochs(text):
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValidationError(f"decay epochs must be comma-separated integers, got {text!r}")


def hash_inputs(paths):
    from .artifacts import file_sha256
    hashed = {}
    for name, path in paths.items():
        if not os.path.isfile(path):
            raise ValidationError(f"input file not found: {path}")
        hashed[name] = file_sha256(path)
    return hashed


def start_run(subcommand, out_dir, config, seed, input_paths):
    manifest = RunManifest(subcommand=subcommand, config=config, seed=seed,
                           inputs=hash_inputs(input_paths))
    run_dir = os.path.join(out_dir, f"{subcommand}-{manifest.hash}")
    os.makedirs(run_dir, exist_ok=True)
    return manifest, run_dir


def finish_run(manifest, run_dir, outputs):
    manifest.outputs = sorted(outputs)
    manifest.write(run_dir)
    print(f"run directory: {run_dir}")
    return 0


def reuse_hit(manifest, run_dir):
    """True when the directory already holds a completed run of this manifest.

    A run counts as complete once finish_run wrote manifest.json, so a
    matching hash plus all listed outputs on disk means the artifacts can be
    taken as-is.
    """
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.isfile(path):
        return False
    try:
        with open(path) as fh:
            stored = json.load(fh)
    except json.JSONDecodeError:
        return False
    if stored.get("hash") != manifest.hash:
        return False
    outputs = stored.get("outputs", [])
    return bool(outputs) and all(
        os.path.isfile(os.path.join(run_dir, name)) for name in outputs)


def load_region_file(path):
    from .region import load_region
    if not os.path.isfile(path):
        raise ValidationError(f"region file not found: {path}")
    return load_region(path)


def require_same_transform(a, b, message):
    """Raise ValidationError(message) unless two artifacts standardize
    alike: the same mu, sigma and dim_map."""
    import numpy as np
    # dim_map first: it fixes the widths that allclose needs to agree
    if not (np.array_equal(a.dim_map, b.dim_map)
            and np.allclose(a.mu, b.mu) and np.allclose(a.sigma, b.sigma)):
        raise ValidationError(message)


# rows named one per line in a certification message; the report has all
_ROWS_SHOWN = 10


def name_rows(report, region):
    """The worst row and each violated or failed row of a certification,
    each with its outage set, monitored line and sign."""
    return {
        "worst": region.describe_row(report.worst_row),
        "violated": [region.describe_row(j) for j, _, _ in report.violations],
        "failed": [region.describe_row(j) for j in report.failed_rows],
    }


def row_text(row):
    sign = "+" if row["sign"] > 0 else "-"
    return (f"row {row['row']} (outage {tuple(row['outage'])}, "
            f"line {row['line']}, {sign})")


def print_bad_rows(named):
    """One line per violated or failed row, the first ``_ROWS_SHOWN`` of
    each kind."""
    for kind in ("violated", "failed"):
        rows = named[kind]
        for row in rows[:_ROWS_SHOWN]:
            print(f"  {kind}: {row_text(row)}", file=sys.stderr)
        if len(rows) > _ROWS_SHOWN:
            print(f"  ... and {len(rows) - _ROWS_SHOWN} more {kind} rows",
                  file=sys.stderr)


def peak_rss_mb():
    """The process's peak resident memory so far, in MB (``ru_maxrss`` is
    in KiB on Linux)."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# prepare-region


def cmd_prepare_region(args):
    import numpy as np

    from .datagen import DemandSampler, sample_injections
    from .grid import load_network
    from .region import (build_region, drop_constant_dims, eliminate_redundant,
                         filter_contingencies, prune_by_box_support,
                         save_region, standardize, with_box)

    case_path = resolve_case(args.case)
    counts = parse_counts(args.counts)
    config = {
        "case": os.path.basename(case_path),
        "k": args.k,
        "counts": list(counts),
        "rel_std": args.rel_std,
        "threshold": args.threshold,
        "inflate": args.inflate,
        "elimination": args.elimination,
    }
    manifest, run_dir = start_run("prepare-region", args.out, config,
                                  args.seed, {"case": case_path})
    if args.reuse and reuse_hit(manifest, run_dir):
        print(f"run directory: {run_dir} (reused)")
        return 0

    net = load_network(case_path)
    stamp = {
        "manifest": manifest.hash,
        "case": net.name,
        "k": args.k,
        "seed": args.seed,
        "rel_std": args.rel_std,
        "counts": list(counts),
        "threshold": args.threshold,
    }
    # timings and memory go in the report, never in the artifacts: artifact
    # bytes must depend only on inputs and seed
    stage_seconds, stage_peak_rss_mb = {}, {}

    def stage_done(name, t0):
        stage_seconds[name] = time.perf_counter() - t0
        stage_peak_rss_mb[name] = peak_rss_mb()

    def write_region(region, name):
        """Save one region file; ``write`` sums the seconds of both."""
        t0 = time.perf_counter()
        save_region(region, os.path.join(run_dir, name))
        stage_seconds["write"] = (stage_seconds.get("write", 0.0)
                                  + time.perf_counter() - t0)
        stage_peak_rss_mb["write"] = peak_rss_mb()

    t0 = time.perf_counter()
    construction = {}
    region0 = build_region(net, k=args.k, counters=construction)
    stage_done("build", t0)
    print(f"case {net.name}: {net.n} buses, {len(net.lines)} lines, k={args.k}")
    print(f"enumerated {len(region0.contingencies)} contingency sets, "
          f"{region0.n_rows} rows ({stage_seconds['build']:.1f}s)")

    sampler = DemandSampler(nominal=net.demand, rel_std=args.rel_std,
                            seed=args.seed)
    sampling = {}
    t0 = time.perf_counter()
    X = sample_injections(net, sampler, sum(counts), counters=sampling)
    stage_done("sample", t0)
    X_train = X[:counts[0]]
    print(f"sampled {len(X)} secure-dispatch injections "
          f"({stage_seconds['sample']:.1f}s)")

    t0 = time.perf_counter()
    filtered = filter_contingencies(region0, X_train, threshold=args.threshold,
                                    counters=construction)
    stage_done("filter", t0)
    full_sizes = {"contingencies_enumerated": len(region0.contingencies),
                  "rows_enumerated": int(region0.n_rows),
                  "rows_filtered": int(filtered.n_rows)}
    print(f"filtered: kept {len(filtered.contingencies)}/"
          f"{len(region0.contingencies)} contingencies, {filtered.n_rows} rows")
    # the stamp goes on a copy of the meta, so the later stages never see it
    write_region(replace(filtered, meta={**filtered.meta, **stamp}),
                 "region_full.npz")

    t0 = time.perf_counter()
    reduced = drop_constant_dims(filtered, X)
    # the full-coordinate matrices are saved; the later stages need neither
    del region0, filtered
    stage_done("drop_dims", t0)
    print(f"constant dims dropped: {net.n - reduced.dim} "
          f"({reduced.dim} columns remain), {reduced.n_rows} rows")

    boxed = with_box(reduced, X, inflate=args.inflate)
    t0 = time.perf_counter()
    if args.elimination == "exact":
        pruned = eliminate_redundant(boxed, counters=construction)
    else:
        pruned = prune_by_box_support(boxed, counters=construction)
    stage_done("eliminate", t0)
    print(f"redundancy elimination ({args.elimination}): "
          f"{boxed.n_rows} -> {pruned.n_rows} rows "
          f"({stage_seconds['eliminate']:.1f}s)")

    Xr = pruned.project(X_train)
    mu = Xr.mean(axis=0)
    sigma = Xr.std(axis=0)
    final = standardize(pruned, mu, sigma)
    final.meta.update(stamp)
    write_region(final, "region.npz")

    from .artifacts import write_json
    report = {
        "manifest": manifest.hash,
        "case": net.name,
        "k": args.k,
        **full_sizes,
        "contingencies_kept": len(final.contingencies),
        "rows_before_elimination": int(boxed.n_rows),
        # counts of the construction stages; report only, like the times,
        # so the region artifacts keep their bytes
        "construction": construction,
        # exact elimination keeps its LP counts in the region's meta; the
        # support screen solves no LP and adds none
        "elimination": {"method": args.elimination,
                        **pruned.meta.get("elimination", {})},
        "rows": int(final.n_rows),
        "columns": int(final.dim),
        "stage_seconds": {k: round(v, 3) for k, v in stage_seconds.items()},
        # the process's peak resident memory after each stage, a running
        # maximum: drop_dims still includes the write of region_full.npz,
        # and write is read after region.npz
        "stage_peak_rss_mb": {k: round(v, 1)
                              for k, v in stage_peak_rss_mb.items()},
        "sampling": sampling,
    }
    write_json(os.path.join(run_dir, "region_report.json"), report)

    print(f"reduced constraint matrix: {final.n_rows} rows x {final.dim} columns")
    return finish_run(manifest, run_dir,
                      ["region_full.npz", "region.npz", "region_report.json"])


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args):
    import numpy as np

    from .artifacts import write_json
    from .datagen import DemandSampler, build_dataset, save_dataset
    from .grid import load_network

    case_path = resolve_case(args.case)
    counts = parse_counts(args.counts)
    full_path = os.path.join(args.region_dir, "region_full.npz")
    std_path = os.path.join(args.region_dir, "region.npz")
    config = {
        "case": os.path.basename(case_path),
        "counts": list(counts),
        "rel_std": args.rel_std,
    }
    manifest, run_dir = start_run(
        "gen-data", args.out, config, args.seed,
        {"case": case_path, "region_full": full_path, "region": std_path})
    if args.reuse and reuse_hit(manifest, run_dir):
        print(f"run directory: {run_dir} (reused)")
        return 0

    net = load_network(case_path)
    region_full = load_region_file(full_path)
    region_std = load_region_file(std_path)
    for region, name in ((region_full, "region_full"), (region_std, "region")):
        if region.n_full != net.n:
            raise ValidationError(f"{name} was built for a {region.n_full}-bus "
                                  f"case, got {net.n} buses")
        for key, want in (("seed", args.seed), ("rel_std", args.rel_std)):
            have = region.meta.get(key)
            if have is not None and have != want:
                raise ValidationError(
                    f"{name} was prepared with {key}={have}, got {key}={want}; "
                    f"labels must come from the sampling that shaped the region")

    sampler = DemandSampler(nominal=net.demand, rel_std=args.rel_std,
                            seed=args.seed)
    sampling, stage_seconds = {}, {}
    t0 = time.perf_counter()
    ds = build_dataset(net, sampler, region_full, counts=counts,
                       counters=sampling, stage_seconds=stage_seconds)
    ds.attach_transform(region_std)
    elapsed = time.perf_counter() - t0

    ds.meta["manifest"] = manifest.hash
    ds.meta["region_manifest"] = region_std.meta.get("manifest", "")
    t0 = time.perf_counter()
    save_dataset(ds, os.path.join(run_dir, "dataset.npz"))
    stage_seconds["write"] = time.perf_counter() - t0
    # counts and times go in the report, so the dataset keeps its bytes
    write_json(os.path.join(run_dir, "gen_data_report.json"), {
        "manifest": manifest.hash,
        "case": net.name,
        "counts": list(counts),
        "sampling": sampling,
        "stage_seconds": {k: round(v, 3) for k, v in stage_seconds.items()},
    })

    for name, sl in (("train", ds.train), ("val", ds.val), ("test", ds.test)):
        y = ds.labels[sl]
        print(f"{name}: {len(y)} samples, {y.mean():.3f} insecure fraction")
    print(f"labeled {len(ds.labels)} injections against {region_full.n_rows} "
          f"rows ({elapsed:.1f}s)")
    return finish_run(manifest, run_dir,
                      ["dataset.npz", "gen_data_report.json"])


# ---------------------------------------------------------------------------
# train


def cmd_train(args):
    from .artifacts import write_json
    from .datagen import load_dataset
    from .icnn import save_checkpoint
    from .oracle import certify
    from .training import (TrainingCollapsed, TrainingConfig,
                           classification_rates, train)

    config = {
        "depth": args.depth,
        "width": args.width,
        "warm_epochs": args.warm_epochs,
        "scaling_epochs": args.scaling_epochs,
        "batch_size": args.batch_size,
        "pos_weight": args.pos_weight,
        "lr": args.lr,
        "decay_epochs": list(parse_epochs(args.decay_epochs)),
    }
    manifest, run_dir = start_run(
        "train", args.out, config, args.seed,
        {"dataset": args.dataset, "region": args.region})
    # a train manifest is only ever written after the certification gate
    # passed, so a reuse hit is always a certified checkpoint
    if args.reuse and reuse_hit(manifest, run_dir):
        print(f"run directory: {run_dir} (reused)")
        return 0

    ds = load_dataset(args.dataset)
    region = load_region_file(args.region)
    if ds.mu is None:
        raise ValidationError("dataset has no standardization transform; "
                              "regenerate it with gen-data")
    require_same_transform(ds, region,
                           "dataset and region standardizations disagree; "
                           "they must come from the same prepare-region run")

    Z = ds.standardized()
    y = ds.labels
    cfg = TrainingConfig(
        depth=args.depth, width=args.width,
        warm_epochs=args.warm_epochs, scaling_epochs=args.scaling_epochs,
        batch_size=args.batch_size, positive_class_weight=args.pos_weight,
        learning_rate=args.lr, decay_epochs=parse_epochs(args.decay_epochs),
        seed=args.seed,
    )

    t0 = time.perf_counter()
    try:
        clf, record = train(region.A, region.b, Z[ds.train], y[ds.train],
                            Z[ds.val], y[ds.val], cfg,
                            box_lower=region.box_lower,
                            box_upper=region.box_upper)
    except TrainingCollapsed as e:
        print(f"training collapsed: {e}; refusing to write checkpoint",
              file=sys.stderr)
        return 4
    elapsed = time.perf_counter() - t0
    if record.stopped_epoch is not None:
        print(f"stopped at epoch {record.stopped_epoch}: its rescale found "
              f"the predicted set empty")
    print(f"trained {args.warm_epochs}+{args.scaling_epochs} epochs in "
          f"{elapsed:.1f}s; selected epoch {record.best_epoch} "
          f"(val fpr {clf.meta['val_fpr']:.4f}), r = {clf.r:.6f}")

    # independent gate before anything is written: never persist an
    # uncertified checkpoint
    report = certify(clf.params, region.A, region.b, r=clf.r, v=clf.v)
    named = name_rows(report, region)
    print(f"certification: {report.verdict} "
          f"(worst margin {report.margins.min():.3e} at "
          f"{row_text(named['worst'])}, {report.n_lp} LPs)")
    if not report.reliable:
        print_bad_rows(named)
        print("refusing to write checkpoint", file=sys.stderr)
        return 3
    # sound but useless: it flags every secure validation point
    if clf.meta["val_fpr"] >= 1.0:
        print(f"selected model screens nothing (val fpr "
              f"{clf.meta['val_fpr']:.4f}); refusing to write checkpoint",
              file=sys.stderr)
        return 4

    clf = replace(clf, mu=region.mu, sigma=region.sigma,
                  dim_map=region.dim_map)

    pred_infeasible = ~clf.predict_feasible(Z[ds.test])
    fpr, fnr = classification_rates(pred_infeasible, y[ds.test])
    print(f"test: fpr {fpr:.4f}, fnr {fnr:.4f} over "
          f"{len(pred_infeasible)} samples")

    clf.meta.update({
        "manifest": manifest.hash,
        "dataset_manifest": ds.meta.get("manifest", ""),
        "region_manifest": region.meta.get("manifest", ""),
        "test_fpr": fpr,
        "test_fnr": fnr,
    })
    save_checkpoint(clf, os.path.join(run_dir, "checkpoint.npz"))
    record.to_csv(os.path.join(run_dir, "training_log.csv"))
    # wall time lives here only, so checkpoint and log stay reproducible
    write_json(os.path.join(run_dir, "train_report.json"), {
        "manifest": manifest.hash,
        "seconds": round(elapsed, 3),
        "val_fpr": clf.meta["val_fpr"],
        "solver": record.solver,
    })
    return finish_run(manifest, run_dir, ["checkpoint.npz", "training_log.csv",
                                          "train_report.json"])


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args):
    from .artifacts import write_json
    from .icnn import load_checkpoint
    from .oracle import certify

    manifest, run_dir = start_run(
        "certify", args.out, {}, 0,
        {"checkpoint": args.checkpoint, "region": args.region})
    if args.reuse and reuse_hit(manifest, run_dir):
        with open(os.path.join(run_dir, "certify_report.json")) as fh:
            stored = json.load(fh)
        print(f"run directory: {run_dir} (reused)")
        return 0 if stored.get("verdict") == "reliable" else 3

    clf = load_checkpoint(args.checkpoint)
    region = load_region_file(args.region)
    if clf.params.n_inputs != region.dim:
        raise ValidationError(
            f"checkpoint takes {clf.params.n_inputs} inputs but the region "
            f"has {region.dim} columns")
    require_same_transform(clf, region,
                           "checkpoint and region coordinates disagree; "
                           "certify against the region the classifier was "
                           "trained in")

    t0 = time.perf_counter()
    report = certify(clf.params, region.A, region.b, r=clf.r, v=clf.v)
    elapsed = time.perf_counter() - t0

    named = name_rows(report, region)
    out = {
        "manifest": manifest.hash,
        "checkpoint_manifest": clf.meta.get("manifest", ""),
        "r": clf.r,
        "seconds": round(elapsed, 3),
        **report.to_dict(),
        "named_rows": named,
    }
    write_json(os.path.join(run_dir, "certify_report.json"), out)
    print(f"certification: {report.verdict} over {region.n_rows} rows, "
          f"worst margin {report.margins.min():.3e} at "
          f"{row_text(named['worst'])} ({report.n_lp} LPs, {report.pivots} "
          f"pivots, {report.lockstep_rounds} lockstep rounds, "
          f"{elapsed:.1f}s)")
    print_bad_rows(named)
    finish_run(manifest, run_dir, ["certify_report.json"])
    return 0 if report.reliable else 3


# ---------------------------------------------------------------------------
# screen


def cmd_screen(args):
    import numpy as np

    from .artifacts import write_json
    from .baselines import screen_batch
    from .datagen import load_dataset
    from .icnn import load_checkpoint
    from .training import classification_rates

    manifest, run_dir = start_run(
        "screen", args.out, {"repeats": args.repeats}, 0,
        {"checkpoint": args.checkpoint, "dataset": args.dataset,
         "region_full": args.region_full})
    if args.reuse and reuse_hit(manifest, run_dir):
        print(f"run directory: {run_dir} (reused)")
        return 0

    load_seconds = {}

    def timed_load(name, load, path):
        t0 = time.perf_counter()
        out = load(path)
        load_seconds[name] = time.perf_counter() - t0
        return out

    clf = timed_load("checkpoint", load_checkpoint, args.checkpoint)
    ds = timed_load("dataset", load_dataset, args.dataset)
    region_full = timed_load("region_full", load_region_file, args.region_full)
    if ds.mu is None:
        raise ValidationError("dataset has no standardization transform")
    require_same_transform(ds, clf,
                           "dataset and checkpoint standardizations disagree")

    X = ds.x[ds.test]
    y = ds.labels[ds.test].astype(bool)

    def timed(fn):
        """fn's last result and its median wall time over the repeats."""
        times = []
        for _ in range(max(1, args.repeats)):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        return out, float(np.median(times))

    pred_infeasible, icnn_seconds = timed(
        lambda: ~clf.predict_feasible(ds.standardized(X)))
    fpr, fnr = classification_rates(pred_infeasible, y)
    single_seconds = []
    for x in X:
        t0 = time.perf_counter()
        clf.predict_feasible(ds.standardized(x))
        single_seconds.append(time.perf_counter() - t0)
    confusion = {
        "true_insecure_flagged": int((pred_infeasible & y).sum()),
        "missed_insecure": int((~pred_infeasible & y).sum()),
        "false_alarms": int((pred_infeasible & ~y).sum()),
        "true_secure_passed": int((~pred_infeasible & ~y).sum()),
    }

    full, full_sweep_seconds = timed(lambda: screen_batch(region_full, X))

    report = {
        "manifest": manifest.hash,
        "checkpoint_manifest": clf.meta.get("manifest", ""),
        "load_seconds": load_seconds,
        "n_test": int(len(y)),
        "fpr": fpr,
        "fnr": fnr,
        "confusion": confusion,
        "icnn_seconds": icnn_seconds,
        "icnn_single_us_p50": float(np.median(single_seconds)) * 1e6,
        "full_sweep_seconds": full_sweep_seconds,
        "speedup_vs_full_sweep": full_sweep_seconds / icnn_seconds,
        "exhaustive_agreement_full": float((full == ds.labels[ds.test]).mean()),
    }
    write_json(os.path.join(run_dir, "screen_report.json"), report)

    print(f"screened {len(y)} samples: fnr {fnr:.4f}, fpr {fpr:.4f}")
    print(f"icnn {icnn_seconds * 1e3:.1f}ms vs full sweep "
          f"{full_sweep_seconds * 1e3:.1f}ms: "
          f"speedup {report['speedup_vs_full_sweep']:.1f}x; one injection "
          f"{report['icnn_single_us_p50']:.1f}us")
    return finish_run(manifest, run_dir, ["screen_report.json"])


# ---------------------------------------------------------------------------
# scopf-bench


def cmd_scopf_bench(args):
    from .artifacts import write_json
    from .datagen import load_dataset
    from .grid import load_network
    from .icnn import load_checkpoint
    from .scopf import benchmark_scopf, save_benchmark

    case_path = resolve_case(args.case)
    config = {
        "case": os.path.basename(case_path),
        "limit": args.limit,
    }
    inputs = {"case": case_path, "checkpoint": args.checkpoint,
              "dataset": args.dataset, "region_full": args.region_full}
    if args.region:
        inputs["region"] = args.region
    manifest, run_dir = start_run("scopf-bench", args.out, config, 0, inputs)
    if args.reuse and reuse_hit(manifest, run_dir):
        print(f"run directory: {run_dir} (reused)")
        return 0

    net = load_network(case_path)
    clf = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.dataset)
    region_full = load_region_file(args.region_full)
    facets = load_region_file(args.region) if args.region else None
    if ds.d is None:
        raise ValidationError("dataset stores no demand draws; regenerate it "
                              "with gen-data")

    demands = ds.d[ds.test]
    if args.limit > 0:
        demands = demands[:args.limit]

    records, summary = benchmark_scopf(net, demands, region_full, clf, facets)
    summary["manifest"] = manifest.hash
    save_benchmark(records, summary,
                   os.path.join(run_dir, "scopf_instances.csv"),
                   os.path.join(run_dir, "scopf_summary.json"))

    def fmt(v, spec):
        # the comparisons are None when no instance is feasible under both
        return "n/a" if v is None else format(v, spec)

    n, full = summary["instances"], summary["full"]
    print(f"solved {n} instances; full: {full['feasible']} feasible, "
          f"mean {full['runtime_ms_mean']:.1f}ms")
    for name, f in summary["formulations"].items():
        print(f"{name}: {f['feasible']} feasible (share "
              f"{fmt(f['feasible_share'], '.2%')}), cost ratio mean "
              f"{fmt(f['cost_ratio_mean'], '.5f')} max "
              f"{fmt(f['cost_ratio_max'], '.5f')}, conservativeness "
              f"violations {f['conservativeness_violations']}; p50 "
              f"{f['runtime_ms_p50']:.3f}ms, p90 {f['runtime_ms_p90']:.3f}ms, "
              f"mean {fmt(f['runtime_ms_mean'], '.3f')}ms (speedup "
              f"{fmt(f['speedup'], '.1f')}x; setup {f['setup_s'] * 1e3:.1f}ms "
              f"once); step 1 answered {f['step1_answers']}/{n}")
    return finish_run(manifest, run_dir,
                      ["scopf_instances.csv", "scopf_summary.json"])


# ---------------------------------------------------------------------------
# parser and dispatch


def add_run_flags(p):
    p.add_argument("--out", default="runs",
                   help="directory that receives the run directory")
    p.add_argument("--reuse", action="store_true",
                   help="skip the run when this exact manifest already "
                        "completed under --out")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nkscreen",
        description="Certified contingency screening with input-convex "
                    "classifiers")
    parser.add_argument("--threads", type=int, default=0,
                        help="cap BLAS thread pools (0 leaves them alone)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("prepare-region",
                       help="build, filter, reduce, and standardize the "
                            "secure-injection polytope")
    p.add_argument("--case", required=True,
                   help="case JSON path or bundled case name (e.g. case39)")
    p.add_argument("--k", type=int, default=2, help="contingency order")
    p.add_argument("--counts", default="10000,2000,2000",
                   help="train,val,test sample counts")
    p.add_argument("--rel-std", type=float, default=0.15,
                   help="relative demand standard deviation")
    p.add_argument("--threshold", type=float, default=0.9,
                   help="drop contingencies violated by more than this "
                        "fraction of training samples")
    p.add_argument("--inflate", type=float, default=1.2,
                   help="bounding-box inflation factor")
    p.add_argument("--elimination", default="support",
                   choices=["support", "exact"],
                   help="row reduction: per-row box-support screening "
                        "(reference pipeline) or LP-exact minimal form")
    p.add_argument("--seed", type=int, default=0)
    add_run_flags(p)
    p.set_defaults(func=cmd_prepare_region)

    p = sub.add_parser("gen-data",
                       help="sample injections and label them against the "
                            "full region")
    p.add_argument("--case", required=True)
    p.add_argument("--region-dir", required=True,
                   help="prepare-region run directory")
    p.add_argument("--counts", default="10000,2000,2000")
    p.add_argument("--rel-std", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=0)
    add_run_flags(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train",
                       help="train a classifier and certify it against the "
                            "reduced region")
    p.add_argument("--dataset", required=True)
    p.add_argument("--region", required=True,
                   help="reduced standardized region (region.npz)")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--width", type=int, default=50)
    p.add_argument("--warm-epochs", type=int, default=500)
    p.add_argument("--scaling-epochs", type=int, default=9500)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--pos-weight", type=float, default=1.0)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--decay-epochs", default="1500,8500")
    p.add_argument("--seed", type=int, default=0)
    add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("certify",
                       help="re-verify a checkpoint against a region")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--region", required=True)
    add_run_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("screen",
                       help="time classifier screening against a sweep "
                            "of every region row on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--region-full", required=True,
                   help="full-dimension filtered region (region_full.npz)")
    p.add_argument("--repeats", type=int, default=3)
    add_run_flags(p)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("scopf-bench",
                       help="compare classifier-constrained dispatch against "
                            "the full security-constrained problem")
    p.add_argument("--case", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--region-full", required=True,
                   help="full-dimension dispatch region (region_full.npz); "
                        "a region that folds injection dimensions is "
                        "refused")
    p.add_argument("--region", default="",
                   help="reduced region (region.npz, the facets with "
                        "--elimination exact): also dispatch against its "
                        "rows, box and folded values, side by side")
    p.add_argument("--limit", type=int, default=0,
                   help="cap the number of test demand instances (0 = all)")
    add_run_flags(p)
    p.set_defaults(func=cmd_scopf_bench)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.threads > 0:
        # must happen before numpy loads its BLAS; heavy imports are
        # deferred into the command bodies for exactly this reason
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    except Exception as e:
        from .training import CertificationFailed
        if isinstance(e, CertificationFailed):
            print(f"certification failure: {e}", file=sys.stderr)
            return 3
        if isinstance(e, (ValueError, KeyError, FileNotFoundError,
                          IsADirectoryError, NotADirectoryError)):
            print(f"invalid input: {e}", file=sys.stderr)
            return 2
        import traceback
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
