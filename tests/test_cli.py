"""End-to-end tests for the command-line pipeline.

A small 3-bus ring runs through every subcommand, exercising run-directory
hashing, artifact reproducibility, and the exit-code contract (0 ok, 2 bad
input, 3 certification failure, 4 a model that screens nothing).
"""

import dataclasses
import glob
import json
import os

import numpy as np
import pytest

from nkscreen import artifacts
from nkscreen.artifacts import blas_kernel, file_sha256
from nkscreen.cli import (RunManifest, finish_run, main, parse_counts,
                          resolve_case, reuse_hit)
from nkscreen.datagen import load_dataset
from nkscreen.icnn import load_checkpoint, save_checkpoint
from nkscreen.region import load_region

RING_CASE = {
    "name": "ring3_demo",
    "slack_bus": 0,
    "buses": [
        {"id": 0, "demand_mw": 0.0},
        {"id": 1, "demand_mw": 0.4},
        {"id": 2, "demand_mw": 0.8},
    ],
    "lines": [
        {"from": 0, "to": 1, "susceptance": 1.0, "limit_mw": 1.30},
        {"from": 1, "to": 2, "susceptance": 1.0, "limit_mw": 0.95},
        {"from": 0, "to": 2, "susceptance": 1.0, "limit_mw": 1.30},
    ],
    "generators": [
        {"bus": 0, "pmax_mw": 10.0, "cost_per_mw": 1.0},
        {"bus": 1, "pmax_mw": 10.0, "cost_per_mw": 2.0},
    ],
}

COUNTS = "600,200,200"
TRAIN_FLAGS = ["--depth", "1", "--width", "8", "--warm-epochs", "30",
               "--scaling-epochs", "40", "--batch-size", "64",
               "--decay-epochs", "25,60", "--seed", "0"]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Run the whole pipeline once; tests inspect the results."""
    root = tmp_path_factory.mktemp("cli")
    case = root / "ring3.json"
    case.write_text(json.dumps(RING_CASE))
    runs = str(root / "runs")

    code = main(["prepare-region", "--case", str(case), "--k", "1",
                 "--counts", COUNTS, "--seed", "0", "--out", runs])
    assert code == 0
    (prep_dir,) = [d for d in os.listdir(runs) if d.startswith("prepare-region-")]
    prep = os.path.join(runs, prep_dir)

    code = main(["gen-data", "--case", str(case), "--region-dir", prep,
                 "--counts", COUNTS, "--seed", "0", "--out", runs])
    assert code == 0
    (gen_dir,) = [d for d in os.listdir(runs) if d.startswith("gen-data-")]
    dataset = os.path.join(runs, gen_dir, "dataset.npz")

    code = main(["train", "--dataset", dataset,
                 "--region", os.path.join(prep, "region.npz"),
                 "--out", runs] + TRAIN_FLAGS)
    assert code == 0
    (train_dir,) = [d for d in os.listdir(runs) if d.startswith("train-")]
    ckpt = os.path.join(runs, train_dir, "checkpoint.npz")

    return {"root": root, "case": str(case), "runs": runs, "prep": prep,
            "dataset": dataset, "train": os.path.join(runs, train_dir),
            "ckpt": ckpt}


class TestHelpers:
    def test_bundled_case_resolves(self):
        path = resolve_case("case39")
        assert path.endswith("case39.json") and os.path.isfile(path)

    def test_missing_case_rejected(self):
        with pytest.raises(ValueError):
            resolve_case("no_such_case_anywhere")

    def test_counts_parse(self):
        assert parse_counts("10,2,3") == (10, 2, 3)
        for bad in ("10,2", "a,b,c", "10,0,3", "1,2,3,4"):
            with pytest.raises(ValueError):
                parse_counts(bad)

    def test_manifest_hash_tracks_content(self):
        m = RunManifest("train", {"lr": 0.01}, 0, {"dataset": "aa"})
        same = RunManifest("train", {"lr": 0.01}, 0, {"dataset": "aa"})
        assert m.hash == same.hash and len(m.hash) == 12
        assert m.hash != RunManifest("train", {"lr": 0.02}, 0,
                                     {"dataset": "aa"}).hash
        assert m.hash != RunManifest("train", {"lr": 0.01}, 1,
                                     {"dataset": "aa"}).hash
        assert m.hash != RunManifest("train", {"lr": 0.01}, 0,
                                     {"dataset": "bb"}).hash

    def test_manifest_hash_ignores_outputs(self):
        a = RunManifest("train", {}, 0, {}, outputs=["x.npz"])
        b = RunManifest("train", {}, 0, {}, outputs=[])
        assert a.hash == b.hash


class TestExitCodes:
    def test_missing_case_file(self, tmp_path):
        code = main(["prepare-region", "--case", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "runs")])
        assert code == 2

    def test_malformed_case_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"buses": []}')
        code = main(["prepare-region", "--case", str(bad),
                     "--out", str(tmp_path / "runs")])
        assert code == 2

    def test_unparseable_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["prepare-region", "--case", str(bad),
                     "--out", str(tmp_path / "runs")])
        assert code == 2

    def test_argparse_rejects_unknown_subcommand(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0
        assert "prepare-region" in capsys.readouterr().out


class TestPrepareRegion:
    def test_run_dir_contains_artifacts(self, work):
        for name in ("region.npz", "region_full.npz", "region_report.json",
                     "manifest.json"):
            assert os.path.isfile(os.path.join(work["prep"], name))

    def test_report_matches_artifacts(self, work):
        report = json.load(open(os.path.join(work["prep"], "region_report.json")))
        region = load_region(os.path.join(work["prep"], "region.npz"))
        assert report["rows"] == region.n_rows
        assert report["columns"] == region.dim
        # 3 single-line outages on a 3-ring, 2 surviving lines each, 2 signs
        assert report["rows_enumerated"] == 12
        assert report["contingencies_enumerated"] == 3
        # the DC-OPF work of the sampling stage
        counts = [int(c) for c in COUNTS.split(",")]
        sampling = report["sampling"]
        assert set(sampling) == {"draws", "answers_by_hops", "nodes_derived",
                                 "resolves", "pivots", "refactorizations",
                                 "slack_retries", "bland_switches"}
        assert sampling["draws"] >= sum(counts)
        assert sum(sampling["answers_by_hops"]) + sampling["resolves"] == \
            sampling["draws"]
        assert sampling["refactorizations"] > 0
        # the process's peak memory after each timed stage, never falling
        # in the stages' order (the JSON sorts its keys)
        stages = ["build", "sample", "filter", "drop_dims", "eliminate",
                  "write"]
        peaks = report["stage_peak_rss_mb"]
        assert set(peaks) == set(report["stage_seconds"]) == set(stages)
        values = [peaks[name] for name in stages]
        assert values[0] > 0 and values == sorted(values)

    def test_stamp_ends_each_artifacts_meta(self, work):
        """The run's stamp follows every stage's keys.  Stamped into the
        filtered region's own meta before the later stages copy it, it
        would land before their keys and change region.npz's bytes."""
        stamp = ["manifest", "case", "seed", "rel_std", "counts", "threshold"]
        stages = ["k", "network", "filtered_contingencies", "filter_threshold"]
        full = load_region(os.path.join(work["prep"], "region_full.npz"))
        region = load_region(os.path.join(work["prep"], "region.npz"))
        assert list(full.meta) == stages + stamp
        assert list(region.meta) == stages + [
            "n_dropped_dims", "rows_before_reduction"] + stamp

    def test_manifest_hash_names_run_dir(self, work):
        manifest = json.load(open(os.path.join(work["prep"], "manifest.json")))
        assert os.path.basename(work["prep"]) == \
            f"prepare-region-{manifest['hash']}"
        assert manifest["subcommand"] == "prepare-region"
        assert set(manifest["outputs"]) == {
            "region.npz", "region_full.npz", "region_report.json"}
        assert "case" in manifest["inputs"]

    def test_artifacts_reference_manifest(self, work):
        manifest = json.load(open(os.path.join(work["prep"], "manifest.json")))
        for name in ("region.npz", "region_full.npz"):
            region = load_region(os.path.join(work["prep"], name))
            assert region.meta["manifest"] == manifest["hash"]

    def test_standardized_region_is_reduced(self, work):
        region = load_region(os.path.join(work["prep"], "region.npz"))
        assert not region.is_identity_transform()
        assert np.all(region.b > 0)
        full = load_region(os.path.join(work["prep"], "region_full.npz"))
        assert full.is_identity_transform()
        assert full.n_rows >= region.n_rows

    def test_rerun_is_byte_identical(self, work):
        before = {n: file_sha256(os.path.join(work["prep"], n))
                  for n in ("region.npz", "region_full.npz")}
        code = main(["prepare-region", "--case", work["case"], "--k", "1",
                     "--counts", COUNTS, "--seed", "0",
                     "--out", work["runs"]])
        assert code == 0
        for name, sha in before.items():
            assert file_sha256(os.path.join(work["prep"], name)) == sha

    def test_different_seed_changes_run_dir(self, work):
        code = main(["prepare-region", "--case", work["case"], "--k", "1",
                     "--counts", COUNTS, "--seed", "7",
                     "--out", work["runs"]])
        assert code == 0
        dirs = [d for d in os.listdir(work["runs"])
                if d.startswith("prepare-region-")]
        assert len(dirs) == 2


class TestExactElimination:
    @pytest.fixture(scope="class")
    def exact(self, work):
        runs = str(work["root"] / "runs_exact")
        args = ["prepare-region", "--case", work["case"], "--k", "1",
                "--counts", COUNTS, "--seed", "0", "--elimination", "exact",
                "--out", runs]
        assert main(args) == 0
        (run_dir,) = os.listdir(runs)
        return {"args": args, "dir": os.path.join(runs, run_dir)}

    def test_report_block_matches_artifact(self, exact):
        report = json.load(open(os.path.join(exact["dir"],
                                             "region_report.json")))
        region = load_region(os.path.join(exact["dir"], "region.npz"))
        counts = region.meta["elimination"]
        assert report["elimination"] == {"method": "exact", **counts}
        assert set(counts) == {"rows_after_box_screen", "lps",
                               "lp_iterations", "facets"}
        assert counts["facets"] == region.n_rows == report["rows"]
        assert region.n_rows <= counts["rows_after_box_screen"] \
            <= report["rows_before_elimination"]
        assert counts["lps"] >= 1

    def test_report_counts_construction(self, exact):
        report = json.load(open(os.path.join(exact["dir"],
                                             "region_report.json")))
        c = report["construction"]
        assert set(c) == {"outage_sets_enumerated", "outage_sets_islanding",
                          "outage_sets_kept", "rows_built",
                          "filter_rows_evaluated", "filter_rows_skipped",
                          "filter_violated_pairs", "rows_unreachable",
                          "duplicate_rows_collapsed"}
        assert c["outage_sets_enumerated"] == 3  # ring3 at k = 1
        assert c["outage_sets_kept"] == report["contingencies_enumerated"]
        assert c["outage_sets_islanding"] + c["outage_sets_kept"] == 3
        assert c["rows_built"] == report["rows_enumerated"]
        assert (c["filter_rows_evaluated"] + c["filter_rows_skipped"]
                == report["rows_enumerated"])
        n_train = int(COUNTS.split(",")[0])
        assert (0 <= c["filter_violated_pairs"]
                <= n_train * report["contingencies_enumerated"])
        assert (report["rows_before_elimination"] - c["rows_unreachable"]
                - c["duplicate_rows_collapsed"]
                >= report["elimination"]["rows_after_box_screen"])
        # counts live in the report only, never in the artifacts' meta
        for name in ("region.npz", "region_full.npz"):
            meta = load_region(os.path.join(exact["dir"], name)).meta
            assert not set(c) & set(meta)

    def test_rerun_is_byte_identical(self, exact):
        names = ("region.npz", "region_full.npz", "region_report.json")
        before = {n: file_sha256(os.path.join(exact["dir"], n))
                  for n in names[:2]}
        report = json.load(open(os.path.join(exact["dir"], names[2])))
        assert main(exact["args"]) == 0
        for name, sha in before.items():
            assert file_sha256(os.path.join(exact["dir"], name)) == sha
        again = json.load(open(os.path.join(exact["dir"], names[2])))
        assert again["elimination"] == report["elimination"]
        assert again["construction"] == report["construction"]

    def test_aim_samples_is_rejected(self, exact):
        with pytest.raises(SystemExit) as e:
            main(exact["args"] + ["--aim-samples", "500"])
        assert e.value.code == 2


class TestGenData:
    def test_labels_match_full_region(self, work):
        ds = load_dataset(work["dataset"])
        full = load_region(os.path.join(work["prep"], "region_full.npz"))
        assert np.array_equal(ds.labels, (~full.membership(ds.x)).astype(np.uint8))
        assert 0.0 < ds.labels.mean() < 1.0
        assert ds.d is not None and ds.d.shape == ds.x.shape

    def test_transform_copied_from_region(self, work):
        ds = load_dataset(work["dataset"])
        region = load_region(os.path.join(work["prep"], "region.npz"))
        assert np.allclose(ds.mu, region.mu)
        assert np.allclose(ds.sigma, region.sigma)
        assert np.array_equal(ds.dim_map, region.dim_map)

    def test_report_counts_dispatch_work(self, work):
        gen = os.path.dirname(work["dataset"])
        report = json.load(open(os.path.join(gen, "gen_data_report.json")))
        manifest = json.load(open(os.path.join(gen, "manifest.json")))
        assert report["manifest"] == manifest["hash"]
        assert set(manifest["outputs"]) == {"dataset.npz",
                                            "gen_data_report.json"}
        sampling = report["sampling"]
        assert sampling["draws"] >= sum(report["counts"])
        assert sum(sampling["answers_by_hops"]) + sampling["resolves"] == \
            sampling["draws"]
        # the same sampler and counts as prepare-region's sampling stage:
        # the same draws, tree answers and engine work
        prep = json.load(open(os.path.join(work["prep"],
                                           "region_report.json")))
        assert sampling == prep["sampling"]
        assert set(report["stage_seconds"]) == {"sample", "label", "write"}
        assert all(v >= 0 for v in report["stage_seconds"].values())

    def test_seed_mismatch_rejected(self, work):
        code = main(["gen-data", "--case", work["case"],
                     "--region-dir", work["prep"], "--counts", COUNTS,
                     "--seed", "3", "--out", work["runs"]])
        assert code == 2

    def test_rerun_is_byte_identical(self, work):
        sha = file_sha256(work["dataset"])
        code = main(["gen-data", "--case", work["case"],
                     "--region-dir", work["prep"], "--counts", COUNTS,
                     "--seed", "0", "--out", work["runs"]])
        assert code == 0
        assert file_sha256(work["dataset"]) == sha


class TestTrain:
    def test_checkpoint_certified_and_stamped(self, work):
        clf = load_checkpoint(work["ckpt"])
        manifest = json.load(open(os.path.join(work["train"], "manifest.json")))
        assert clf.meta["manifest"] == manifest["hash"]
        assert clf.meta["test_fnr"] == 0.0
        assert clf.r >= 1.0 or clf.r > 0  # exact rescale, any positive value
        region = load_region(os.path.join(work["prep"], "region.npz"))
        assert np.allclose(clf.mu, region.mu)
        assert np.array_equal(clf.dim_map, region.dim_map)

    def test_training_log_has_all_epochs(self, work):
        with open(os.path.join(work["train"], "training_log.csv")) as fh:
            rows = fh.read().strip().splitlines()
        assert len(rows) == 1 + 30 + 40  # header + warm + scaling

    def test_train_report_counts_solver_work(self, work):
        manifest = json.load(open(os.path.join(work["train"], "manifest.json")))
        assert "train_report.json" in manifest["outputs"]
        report = json.load(open(os.path.join(work["train"],
                                             "train_report.json")))
        assert report["manifest"] == manifest["hash"]
        assert report["seconds"] > 0
        assert report["val_fpr"] == load_checkpoint(work["ckpt"]).meta["val_fpr"]
        assert report["val_fpr"] < 1.0
        rows = load_region(os.path.join(work["prep"], "region.npz")).n_rows
        first = report["solver"]["first_rescale"]
        later = report["solver"]["later"]
        assert first["n_lp"] == rows and first["bases_reused"] == 0
        # 39 more rescales, the final one and the final certification
        assert later["n_lp"] == later["bases_reused"] == 41 * rows
        for work_done in (first, later):
            assert set(work_done) == {"n_lp", "pivots", "refactorizations",
                                      "slack_retries", "bland_switches",
                                      "bases_reused", "batched",
                                      "lockstep_rounds"}
            assert work_done["slack_retries"] == 0
        # the first rescale chains its rows; every later sweep is batched
        assert first["batched"] == first["lockstep_rounds"] == 0
        assert 0 < later["batched"] <= later["n_lp"]

    def test_rerun_is_byte_identical(self, work):
        sha = file_sha256(work["ckpt"])
        code = main(["train", "--dataset", work["dataset"],
                     "--region", os.path.join(work["prep"], "region.npz"),
                     "--out", work["runs"]] + TRAIN_FLAGS)
        assert code == 0
        assert file_sha256(work["ckpt"]) == sha

    def test_mismatched_region_rejected(self, work, tmp_path):
        region = load_region(os.path.join(work["prep"], "region.npz"))
        region.mu = region.mu + 1.0
        from nkscreen.region import save_region
        other = tmp_path / "region.npz"
        save_region(region, other)
        code = main(["train", "--dataset", work["dataset"],
                     "--region", str(other), "--out", str(tmp_path)]
                    + TRAIN_FLAGS)
        assert code == 2


    def test_model_that_screens_nothing_exits_four(self, work, tmp_path,
                                                   capsys, monkeypatch):
        """A certified model that flags every secure validation point is
        sound but useless: train refuses it and writes no checkpoint."""
        from nkscreen import training

        def useless(*args, **kwargs):
            clf = dataclasses.replace(load_checkpoint(work["ckpt"]),
                                      meta={"val_fpr": 1.0})
            return clf, training.TrainingRecord(best_epoch=0)

        monkeypatch.setattr(training, "train", useless)
        out = tmp_path / "runs"
        code = main(["train", "--dataset", work["dataset"],
                     "--region", os.path.join(work["prep"], "region.npz"),
                     "--out", str(out)] + TRAIN_FLAGS)
        assert code == 4
        assert "screens nothing" in capsys.readouterr().err
        assert not any("checkpoint.npz" in files
                       for _, _, files in os.walk(out))

    def test_collapsed_training_exits_four(self, work, tmp_path, capsys,
                                           monkeypatch):
        """A training whose predicted set empties before any epoch can be
        selected ends with exit 4 and a message, not a traceback."""
        from nkscreen import training

        def collapsed(*args, **kwargs):
            raise training.TrainingCollapsed("the predicted set is empty "
                                             "at epoch 30")

        monkeypatch.setattr(training, "train", collapsed)
        out = tmp_path / "runs"
        code = main(["train", "--dataset", work["dataset"],
                     "--region", os.path.join(work["prep"], "region.npz"),
                     "--out", str(out)] + TRAIN_FLAGS)
        err = capsys.readouterr().err
        assert code == 4
        assert "training collapsed" in err and "Traceback" not in err
        assert not any("checkpoint.npz" in files
                       for _, _, files in os.walk(out))


class TestCertify:
    def test_good_checkpoint_exits_zero(self, work, capsys):
        code = main(["certify", "--checkpoint", work["ckpt"],
                     "--region", os.path.join(work["prep"], "region.npz"),
                     "--out", work["runs"]])
        assert code == 0
        (d,) = [d for d in os.listdir(work["runs"]) if d.startswith("certify-")]
        report = json.load(open(os.path.join(work["runs"], d,
                                             "certify_report.json")))
        assert report["verdict"] == "reliable"
        # the summary line gives the simplex work the report holds
        assert (f"({report['n_lp']} LPs, {report['pivots']} pivots, "
                f"{report['lockstep_rounds']} lockstep rounds, ") \
            in capsys.readouterr().out
        assert min(report["margins"]) >= -1e-7
        # solver counters of the certification sweep (fresh solver)
        assert report["n_lp"] == len(report["margins"])
        assert report["pivots"] > 0 and report["refactorizations"] > 0
        assert report["slack_retries"] == 0 and report["bases_reused"] == 0
        assert report["bland_switches"] == 0
        worst = report["named_rows"]["worst"]
        assert worst["row"] == report["worst_row"]
        assert worst["sign"] in (-1, 1) and worst["outage"]
        assert report["named_rows"]["violated"] == []

    def test_tampered_checkpoint_exits_three(self, work, tmp_path, capsys):
        clf = load_checkpoint(work["ckpt"])
        # grows the predicted set past the region
        clf = dataclasses.replace(clf, r=clf.r * 0.2)
        bad = tmp_path / "tampered.npz"
        save_checkpoint(clf, bad)
        region_path = os.path.join(work["prep"], "region.npz")
        code = main(["certify", "--checkpoint", str(bad),
                     "--region", region_path, "--out", str(tmp_path)])
        assert code == 3
        # the report and the message name every violated row's outage set,
        # monitored line and sign
        (d,) = [d for d in os.listdir(tmp_path) if d.startswith("certify-")]
        report = json.load(open(tmp_path / d / "certify_report.json"))
        region = load_region(region_path)
        named = report["named_rows"]
        assert [row["row"] for row in named["violated"]] == \
            [j for j, _, _ in report["violations"]]
        assert named["failed"] == []
        assert named["worst"]["row"] == report["worst_row"]
        for row in [named["worst"], *named["violated"]]:
            meta = region.row_meta[row["row"]]
            assert row["line"] == meta["line"] and row["sign"] == meta["sign"]
            assert tuple(row["outage"]) == \
                region.contingencies[meta["contingency"]]
        err = capsys.readouterr().err
        first = named["violated"][0]
        assert (f"violated: row {first['row']} (outage "
                f"{tuple(first['outage'])}, line {first['line']}") in err

    @pytest.mark.parametrize("field", ["r", "v"])
    def test_non_finite_scaling_exits_two(self, work, tmp_path, capsys,
                                          field):
        # screening refuses such a checkpoint; certification must not pass
        # it as reliable
        clf = load_checkpoint(work["ckpt"])
        nan = (float("nan") if field == "r"
               else np.full(clf.params.n_inputs, np.nan))
        clf = dataclasses.replace(clf, **{field: nan})
        bad = tmp_path / "nan.npz"
        save_checkpoint(clf, bad)
        code = main(["certify", "--checkpoint", str(bad),
                     "--region", os.path.join(work["prep"], "region.npz"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_empty_region_exits_two(self, work, tmp_path, capsys):
        # the region's own validation stops both before any LP, naming the
        # empty region, with no traceback
        from nkscreen.region import save_region
        region = load_region(os.path.join(work["prep"], "region.npz"))
        empty = tmp_path / "empty.npz"
        save_region(dataclasses.replace(region, A=region.A[:0],
                                        b=region.b[:0],
                                        row_meta=region.row_meta[:0]), empty)
        code = main(["certify", "--checkpoint", work["ckpt"],
                     "--region", str(empty), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2 and "at least one row" in err
        code = main(["train", "--dataset", work["dataset"],
                     "--region", str(empty), "--out", str(tmp_path)]
                    + TRAIN_FLAGS)
        err = capsys.readouterr().err
        assert code == 2 and "at least one row" in err
        assert "Traceback" not in err

    def test_dimension_mismatch_rejected(self, work, tmp_path):
        code = main(["certify", "--checkpoint", work["ckpt"],
                     "--region",
                     os.path.join(work["prep"], "region_full.npz"),
                     "--out", str(tmp_path)])
        assert code == 2  # checkpoint lives in reduced coords


class TestScreen:
    def test_report_fields_and_zero_fnr(self, work):
        code = main(["screen", "--checkpoint", work["ckpt"],
                     "--dataset", work["dataset"],
                     "--region-full",
                     os.path.join(work["prep"], "region_full.npz"),
                     "--repeats", "2", "--out", work["runs"]])
        assert code == 0
        (d,) = [d for d in os.listdir(work["runs"]) if d.startswith("screen-")]
        report = json.load(open(os.path.join(work["runs"], d,
                                             "screen_report.json")))
        assert set(report) == {
            "manifest", "checkpoint_manifest", "load_seconds", "n_test",
            "fpr", "fnr",
            "confusion", "icnn_seconds", "icnn_single_us_p50",
            "full_sweep_seconds", "speedup_vs_full_sweep",
            "exhaustive_agreement_full", "blas"}
        assert report["fnr"] == 0.0
        assert report["n_test"] == 200
        assert report["exhaustive_agreement_full"] == 1.0
        conf = report["confusion"]
        assert sum(conf.values()) == 200
        assert conf["missed_insecure"] == 0
        assert report["icnn_seconds"] > 0
        assert report["icnn_single_us_p50"] > 0
        assert report["full_sweep_seconds"] > 0
        loads = report["load_seconds"]
        assert set(loads) == {"checkpoint", "dataset", "region_full"}
        assert all(v > 0 for v in loads.values())


class TestTransformChecks:
    """Every command that combines artifacts rejects ones standardized
    differently, with exit code 2 and a message naming the pair."""

    def shifted(self, load, save, path, out):
        artifact = load(path)
        save(dataclasses.replace(artifact, mu=artifact.mu + 1.0), out)
        return str(out)

    def narrowed(self, path, out):
        """The dataset with its first reduced coordinate dropped."""
        from nkscreen.datagen import save_dataset
        ds = load_dataset(path)
        ds.mu, ds.sigma, ds.dim_map = ds.mu[1:], ds.sigma[1:], ds.dim_map[1:]
        save_dataset(ds, out)
        return str(out)

    def run(self, argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().err

    def test_train_rejects_mismatched_dataset(self, work, tmp_path, capsys):
        from nkscreen.datagen import save_dataset
        data = self.shifted(load_dataset, save_dataset, work["dataset"],
                            tmp_path / "dataset.npz")
        code, err = self.run(["train", "--dataset", data, "--region",
                              os.path.join(work["prep"], "region.npz"),
                              "--out", str(tmp_path)] + TRAIN_FLAGS, capsys)
        assert code == 2
        assert "dataset and region standardizations disagree" in err

    def test_certify_rejects_mismatched_region(self, work, tmp_path, capsys):
        from nkscreen.region import save_region
        region = self.shifted(load_region, save_region,
                              os.path.join(work["prep"], "region.npz"),
                              tmp_path / "region.npz")
        code, err = self.run(["certify", "--checkpoint", work["ckpt"],
                              "--region", region, "--out", str(tmp_path)],
                             capsys)
        assert code == 2
        assert "checkpoint and region coordinates disagree" in err

    def test_screen_rejects_mismatched_checkpoint(self, work, tmp_path,
                                                  capsys):
        ckpt = self.shifted(load_checkpoint, save_checkpoint, work["ckpt"],
                            tmp_path / "checkpoint.npz")
        code, err = self.run(["screen", "--checkpoint", ckpt,
                              "--dataset", work["dataset"], "--region-full",
                              os.path.join(work["prep"], "region_full.npz"),
                              "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "dataset and checkpoint standardizations disagree" in err

    def test_train_rejects_narrower_dataset(self, work, tmp_path, capsys):
        data = self.narrowed(work["dataset"], tmp_path / "dataset.npz")
        code, err = self.run(["train", "--dataset", data, "--region",
                              os.path.join(work["prep"], "region.npz"),
                              "--out", str(tmp_path)] + TRAIN_FLAGS, capsys)
        assert code == 2
        assert "dataset and region standardizations disagree" in err

    def test_screen_rejects_narrower_dataset(self, work, tmp_path, capsys):
        data = self.narrowed(work["dataset"], tmp_path / "dataset.npz")
        code, err = self.run(["screen", "--checkpoint", work["ckpt"],
                              "--dataset", data, "--region-full",
                              os.path.join(work["prep"], "region_full.npz"),
                              "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "dataset and checkpoint standardizations disagree" in err

    def test_screen_rejects_mismatched_dataset(self, work, tmp_path, capsys):
        from nkscreen.datagen import save_dataset
        data = self.shifted(load_dataset, save_dataset, work["dataset"],
                            tmp_path / "dataset.npz")
        code, err = self.run(["screen", "--checkpoint", work["ckpt"],
                              "--dataset", data, "--region-full",
                              os.path.join(work["prep"], "region_full.npz"),
                              "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "dataset and checkpoint standardizations disagree" in err


class TestScopfBench:
    def test_bench_outputs(self, work):
        code = main(["scopf-bench", "--case", work["case"],
                     "--checkpoint", work["ckpt"],
                     "--dataset", work["dataset"],
                     "--region-full",
                     os.path.join(work["prep"], "region_full.npz"),
                     "--limit", "6", "--out", work["runs"]])
        assert code == 0
        (d,) = [d for d in os.listdir(work["runs"])
                if d.startswith("scopf-bench-")]
        run = os.path.join(work["runs"], d)
        summary = json.load(open(os.path.join(run, "scopf_summary.json")))
        assert summary["instances"] == 6
        assert set(summary) == {"instances", "full", "dcopf", "formulations",
                                "dcopf_diagnostic", "manifest", "blas"}
        (icnn,) = summary["formulations"].values()
        assert icnn["conservativeness_violations"] == 0
        assert icnn["max_region_violation"] <= 1e-6
        lp = icnn["lp"]
        assert set(lp) == {"rows", "ranged_rows", "pivots",
                           "refactorizations", "slack_retries",
                           "bland_switches"}
        assert all(type(v) is int and v >= 0 for v in lp.values())
        assert 0 < lp["ranged_rows"] < lp["rows"]
        self.check_dcopf_diagnostic(work, summary["dcopf_diagnostic"])
        self.check_counts(summary)
        with open(os.path.join(run, "scopf_instances.csv"), "rb") as fh:
            csv_bytes = fh.read()
        rows = csv_bytes.decode().strip().splitlines()
        assert len(rows) == 1 + 12  # header + two formulations per instance
        assert rows[0].split(",") == ["instance", "formulation", "status",
                                      "cost", "blocking"]
        # a second run of the same manifest writes the same CSV bytes: the
        # times live in the summary JSON only
        assert main(["scopf-bench", "--case", work["case"],
                     "--checkpoint", work["ckpt"],
                     "--dataset", work["dataset"],
                     "--region-full",
                     os.path.join(work["prep"], "region_full.npz"),
                     "--limit", "6", "--out", work["runs"]]) == 0
        with open(os.path.join(run, "scopf_instances.csv"), "rb") as fh:
            assert fh.read() == csv_bytes
        rerun = json.load(open(os.path.join(run, "scopf_summary.json")))
        assert rerun["dcopf_diagnostic"] == summary["dcopf_diagnostic"]

    def test_region_adds_the_facet_formulation(self, work, tmp_path,
                                               monkeypatch):
        """--region dispatches against the reduced region too, on the same
        DC-OPF solver; the full and classifier rows of the CSV are those of
        a run without it."""
        from nkscreen.grid import DcopfSolver

        built, init = [], DcopfSolver.__init__
        monkeypatch.setattr(DcopfSolver, "__init__",
                            lambda self, net: built.append(net)
                            or init(self, net))

        def run(extra, out):
            assert main(["scopf-bench", "--case", work["case"],
                         "--checkpoint", work["ckpt"],
                         "--dataset", work["dataset"],
                         "--region-full",
                         os.path.join(work["prep"], "region_full.npz"),
                         "--limit", "6", "--out", str(out)] + extra) == 0
            (d,) = os.listdir(out)
            with open(out / d / "scopf_instances.csv") as fh:
                rows = fh.read().strip().splitlines()
            return rows, json.load(open(out / d / "scopf_summary.json"))

        plain, summary = run([], tmp_path / "plain")
        del built[:]
        both, with_facets = run(
            ["--region", os.path.join(work["prep"], "region.npz")],
            tmp_path / "facets")
        assert len(built) == 1
        assert set(summary["formulations"]) == {"icnn"}
        assert len(both) == 1 + 18
        assert [r for r in both if ",facets," not in r] == plain
        icnn, facets = (with_facets["formulations"][k]
                        for k in ("icnn", "facets"))
        assert set(facets) == set(icnn)
        assert facets["conservativeness_violations"] == 0
        assert facets["max_region_violation"] <= 1e-6
        assert facets["runtime_ms_p50"] <= facets["runtime_ms_p90"]
        assert icnn["feasible"] == summary["formulations"]["icnn"]["feasible"]
        self.check_counts(with_facets)
        # the facet values are the facet check at the DC-OPF dispatch
        from helpers import fixed_start_dcopf
        from nkscreen.grid import load_network
        from nkscreen.scopf import region_inequalities

        net = load_network(work["case"])
        ds = load_dataset(work["dataset"])
        region = load_region(os.path.join(work["prep"], "region.npz"))
        demands = ds.d[ds.test][:6]
        X = np.array([sol.x - d for sol, d in
                      zip(fixed_start_dcopf(net, demands), demands)])
        G, h = region_inequalities(region)
        kept = region.dim_map
        folded = np.setdiff1d(np.arange(net.n), kept)
        lo = region.mu + region.sigma * region.box_lower
        hi = region.mu + region.sigma * region.box_upper
        want = np.max(np.hstack([
            X @ G.T - h, lo - X[:, kept], X[:, kept] - hi,
            np.abs(X[:, folded] - region.dropped_values[folded])]), axis=1)
        got = [e["values"]["facets"] for e in with_facets["dcopf_diagnostic"]]
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert [e["values"]["icnn"] for e in with_facets["dcopf_diagnostic"]] \
            == [e["values"]["icnn"] for e in summary["dcopf_diagnostic"]]

    @staticmethod
    def check_counts(summary):
        """Each solve answers at step 1 or re-solves the set's LP; the
        DC-OPF tree, reported once, answers each instance of the
        diagnostic pass from its nodes or re-solves on its engine."""
        n = summary["instances"]
        for name, f in summary["formulations"].items():
            assert f["step1_answers"] + f["resolves"] == n
            assert f["step1_answers"] == sum(
                e["dcopf_status"] == "OPTIMAL" and e["values"][name] <= 0
                for e in summary["dcopf_diagnostic"])
            assert "dcopf" not in f
        dcopf = summary["dcopf"]
        assert set(dcopf) == {"setup_s", "answers_by_hops", "nodes_derived",
                              "resolves"}
        assert dcopf["setup_s"] > 0.0
        assert sum(dcopf["answers_by_hops"]) + dcopf["resolves"] == n

    @staticmethod
    def check_dcopf_diagnostic(work, diagnostic):
        """Each instance's plain DC-OPF dispatch, from the fixed start of
        the classifier SC-OPF's first step, labelled against region_full
        and valued by the classifier as screening does."""
        from helpers import fixed_start_dcopf
        from nkscreen.grid import load_network

        net = load_network(work["case"])
        ds = load_dataset(work["dataset"])
        clf = load_checkpoint(work["ckpt"])
        full = load_region(os.path.join(work["prep"], "region_full.npz"))
        demands = ds.d[ds.test][:6]
        X = np.array([sol.x - d for sol, d in
                      zip(fixed_start_dcopf(net, demands), demands)])
        assert [e["instance"] for e in diagnostic] == list(range(6))
        assert all(e["dcopf_status"] == "OPTIMAL" for e in diagnostic)
        labels = [e["dcopf_label"] for e in diagnostic]
        values = np.array([e["values"]["icnn"] for e in diagnostic])
        assert labels == (~full.membership(X)).astype(int).tolist()
        assert np.allclose(values, clf.decision_values(ds.standardized(X)),
                           rtol=0, atol=1e-12)
        # certified: no DC-OPF point the classifier admits is insecure
        assert not any(v <= 0 and lab for v, lab in zip(values, labels))

    def test_no_instance_feasible_under_both(self, work, tmp_path, capsys,
                                             monkeypatch):
        """With no instance feasible under both formulations the comparisons
        are null; the summary line says n/a and the run still completes."""
        from nkscreen import scopf
        from nkscreen.lp import LpStatus

        monkeypatch.setattr(scopf.Dispatcher, "solve", lambda self, d:
                            scopf.ScopfResult(LpStatus.INFEASIBLE, "icnn"))
        out = tmp_path / "runs"
        code = main(["scopf-bench", "--case", work["case"],
                     "--checkpoint", work["ckpt"],
                     "--dataset", work["dataset"],
                     "--region-full",
                     os.path.join(work["prep"], "region_full.npz"),
                     "--limit", "2", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "cost ratio mean n/a max n/a" in printed
        assert "(speedup n/a" in printed
        (run,) = os.listdir(out)
        summary = json.load(open(out / run / "scopf_summary.json"))
        icnn = summary["formulations"]["icnn"]
        assert icnn["feasible"] == 0
        assert icnn["speedup"] is None and icnn["runtime_ms_mean"] is None
        assert os.path.isfile(out / run / "manifest.json")

    def test_folded_region_exits_two(self, work, tmp_path, capsys):
        from nkscreen.region import drop_constant_dims, save_region

        full = load_region(os.path.join(work["prep"], "region_full.npz"))
        # bus 1 has a generator; folding its injection at 0.3 is exact only
        # for dispatches that keep it there
        X = np.array([[0.1, 0.3, -0.1], [0.2, 0.3, -0.3]])
        folded = drop_constant_dims(full, X)
        assert list(folded.dim_map) == [0, 2]
        path = str(tmp_path / "region_folded.npz")
        save_region(folded, path)
        code = main(["scopf-bench", "--case", work["case"],
                     "--checkpoint", work["ckpt"],
                     "--dataset", work["dataset"], "--region-full", path,
                     "--limit", "2", "--out", str(tmp_path / "runs")])
        assert code == 2
        assert "region folds injection dimension(s) [1]" in capsys.readouterr().err


class TestReuse:
    def prep_args(self, work):
        return ["prepare-region", "--case", work["case"], "--k", "1",
                "--counts", COUNTS, "--seed", "0", "--out", work["runs"]]

    def test_completed_run_is_skipped(self, work, capsys):
        manifest = os.path.join(work["prep"], "manifest.json")
        before = os.path.getmtime(manifest)
        assert main(self.prep_args(work) + ["--reuse"]) == 0
        assert "(reused)" in capsys.readouterr().out
        assert os.path.getmtime(manifest) == before

    def test_missing_output_forces_rerun(self, work, capsys):
        report = os.path.join(work["prep"], "region_report.json")
        os.remove(report)
        assert main(self.prep_args(work) + ["--reuse"]) == 0
        assert "(reused)" not in capsys.readouterr().out
        assert os.path.isfile(report)

    def test_train_reuse_keeps_checkpoint(self, work, capsys):
        before = file_sha256(work["ckpt"])
        code = main(["train", "--dataset", work["dataset"],
                     "--region", os.path.join(work["prep"], "region.npz"),
                     "--out", work["runs"], "--reuse"] + TRAIN_FLAGS)
        assert code == 0
        assert "(reused)" in capsys.readouterr().out
        assert file_sha256(work["ckpt"]) == before

    def test_certify_reuse_returns_stored_verdict(self, work, capsys):
        args = ["certify", "--checkpoint", work["ckpt"],
                "--region", os.path.join(work["prep"], "region.npz"),
                "--out", work["runs"]]
        assert main(args) == 0
        assert main(args + ["--reuse"]) == 0
        assert "(reused)" in capsys.readouterr().out


class TestBlasKernel:
    """Every report and manifest names the OpenBLAS core and its thread
    count, beside the manifest hash and not in it."""

    def test_reports_and_manifests_name_the_kernel(self, work):
        found = set()
        for dirpath, _, names in os.walk(work["runs"]):
            for name in names:
                if name.endswith(("_report.json", "_summary.json",
                                  "manifest.json")):
                    record = json.load(open(os.path.join(dirpath, name)))
                    assert record["blas"] == blas_kernel()
                    found.add(name)
        assert {"manifest.json", "region_report.json", "gen_data_report.json",
                "train_report.json"} <= found
        # read from the OpenBLAS that numpy's wheel bundles, when it does
        bundled = glob.glob(os.path.join(os.path.dirname(np.__file__),
                                         os.pardir, "numpy.libs",
                                         "libscipy_openblas64_*"))
        assert (blas_kernel()["core"] != "unknown") == bool(bundled)

    def test_kernel_stays_out_of_the_manifest_hash(self, tmp_path,
                                                   monkeypatch):
        m = RunManifest("train", {"lr": 0.01}, 0, {"dataset": "aa"})
        m.write(tmp_path)
        here = json.load(open(tmp_path / "manifest.json"))
        other = {"core": "Nehalem", "threads": 0}  # no run's kernel
        monkeypatch.setattr(artifacts, "blas_kernel", lambda: other)
        m.write(tmp_path)
        there = json.load(open(tmp_path / "manifest.json"))
        assert here["blas"] != there["blas"] == other
        # the hash this manifest had before the kernel was recorded
        assert here["hash"] == there["hash"] == m.hash == "f14f56588658"

    def test_reuse_requires_the_same_kernel(self, tmp_path, monkeypatch):
        m = RunManifest("train", {"lr": 0.01}, 0, {"dataset": "aa"})
        (tmp_path / "checkpoint.npz").write_bytes(b"")
        finish_run(m, tmp_path, ["checkpoint.npz"])
        assert reuse_hit(m, tmp_path)
        here = blas_kernel()
        monkeypatch.setattr(artifacts, "blas_kernel",
                            lambda: {**here, "threads": 0})
        assert reuse_hit(m, tmp_path)  # the thread count does not matter
        monkeypatch.setattr(artifacts, "blas_kernel",
                            lambda: {"core": "Nehalem", "threads": 0})
        assert not reuse_hit(m, tmp_path)
