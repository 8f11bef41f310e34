"""scripts/bench_trajectory.py on synthetic run records: no perfbench run."""

import importlib.util
import json
import os

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bt():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", os.path.join(ROOT, "scripts", "bench_trajectory.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(seed, value, correct=True):
    return {"seed": seed, "correct": correct, "attempted": 10,
            "failed": 0 if correct else 1,
            "metrics": {"t_ms": value}, "units": {"t_ms": "ms"},
            "report": {"dispatch.n": value * 2},
            "src_hash": "abc", "artifact_sha256": {"checkpoint": "00"},
            "clock": {"factor_median": 1.0}}


def test_aggregate_leaves_incorrect_and_failed_runs_out_of_the_medians(bt):
    runs = [record(0, 1.0), record(1, 2.0), record(2, 3.0),
            record(3, 100.0, correct=False), record(4, 200.0, correct=False),
            {"seed": 5, "error": "timed out"}]
    out = bt.aggregate(runs)
    assert out["metrics"]["t_ms"]["median"] == 2.0
    assert out["metrics"]["t_ms"]["n"] == 3
    assert out["metrics"]["t_ms"]["unit"] == "ms"
    assert out["report"]["dispatch.n"]["median"] == 4.0
    assert out["runs"] == 6 and out["runs_correct"] == 3


def bench():
    return {"end_to_end": [{"name": "t_ms", "better": "lower", "bound": 0.25}]}


def test_compare_counts_wins_over_correct_pairs_only(bt, capsys):
    sides = [("a", "/a"), ("b", "/b")]
    # the second checkout is faster in every pair, but its one fast wrong
    # run and the pair with a wrong parent run do not count
    runs = {"a": {"w": [record(0, 2.0), record(1, 2.0),
                        record(2, 2.0, correct=False), record(3, 2.0)]},
            "b": {"w": [record(0, 1.0), record(1, 1.0), record(2, 1.0),
                        record(3, 0.1, correct=False)]}}
    bt.compare(bench(), runs, sides)
    line = next(x for x in capsys.readouterr().out.splitlines()
                if "t_ms" in x)
    assert "wins 2/2" in line
    assert "-> 1 (-50.0%)" in line


def test_main_keeps_every_run_in_per_run(bt, tmp_path, monkeypatch, capsys):
    sides = []
    for tag in ("old", "new"):
        path = tmp_path / tag
        (path / "perfbench").mkdir(parents=True)
        (path / "perfbench" / "run.py").write_text("")
        (path / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "workloads": [{"name": "w"}], **bench()}))
        sides.append(f"{tag}={path}")
    values = {"old": [3.0, 3.0, 3.0], "new": [1.0, 50.0, 1.0]}

    def fake_run(path, workload, seed, seconds):
        tag = os.path.basename(path)
        i = seed - 7
        return record(seed, values[tag][i], correct=(tag, i) != ("new", 1))

    monkeypatch.setattr(bt, "run_once", fake_run)
    monkeypatch.setattr(bt, "ROOT", str(tmp_path))
    assert bt.main(sides + ["--runs", "3", "--seed", "7"]) == 0
    new = json.loads((tmp_path / "BENCH_new.json").read_text())
    w = new["workloads"]["w"]
    assert [r["seed"] for r in w["per_run"]] == [7, 8, 9]
    assert [r["correct"] for r in w["per_run"]] == [True, False, True]
    assert w["runs"] == 3 and w["runs_correct"] == 2
    assert w["metrics"]["t_ms"]["median"] == 1.0
    assert "wins 2/2" in capsys.readouterr().out


def metric(better="lower", bound=0.25):
    return {"name": "t_ms", "better": better, "bound": bound}


@pytest.mark.parametrize("better,a,b,want", [
    # every pair won, the median 2.0 below: more than the IQR 1.0 of a
    ("lower", [10, 11, 12, 9, 10, 11, 12, 9, 10, 11],
     [8, 9, 10, 7, 8, 9, 10, 7, 8, 9], (10, "gain holds")),
    # 9 of 10 pairs are enough
    ("lower", [10, 11, 12, 9, 10, 11, 12, 9, 10, 11],
     [8, 9, 10, 7, 8, 9, 10, 7, 8, 12], (9, "gain holds")),
    # 8 of 10 pairs are not
    ("lower", [10, 11, 12, 9, 10, 11, 12, 9, 10, 11],
     [8, 9, 10, 7, 8, 9, 10, 7, 11, 12], (8, "")),
    # every pair won, but by less than the IQR
    ("lower", [10, 11, 12, 9, 10, 11, 12, 9, 10, 11],
     [9.5, 10.5, 11.5, 8.5, 9.5, 10.5, 11.5, 8.5, 9.5, 10.5], (10, "")),
    # 30% slower against a 25% bound
    ("lower", [10] * 10, [13] * 10, (0, "worse than bound")),
    # 20% slower stays within it
    ("lower", [10] * 10, [12] * 10, (0, "")),
    # higher is better: a 30% drop is worse, a rise a gain
    ("higher", [10] * 10, [7] * 10, (0, "worse than bound")),
    ("higher", [10, 11, 12, 9, 10, 11, 12, 9, 10, 11],
     [12, 13, 14, 11, 12, 13, 14, 11, 12, 13], (10, "gain holds")),
])
def test_verdict(bt, better, a, b, want):
    assert bt.verdict(metric(better), np.array(a, dtype=float),
                      np.array(b, dtype=float)) == want


def test_compare_prints_the_verdict(bt, capsys):
    sides = [("a", "/a"), ("b", "/b")]
    runs = {"a": {"w": [record(i, 10.0 + i % 3) for i in range(10)]},
            "b": {"w": [record(i, 20.0) for i in range(10)]}}
    bt.compare(bench(), runs, sides)
    line = next(x for x in capsys.readouterr().out.splitlines()
                if "t_ms" in x)
    assert line.endswith("wins 0/10, worse than bound")
    runs["b"]["w"] = [record(i, 5.0) for i in range(10)]
    bt.compare(bench(), runs, sides)
    line = next(x for x in capsys.readouterr().out.splitlines()
                if "t_ms" in x)
    assert line.endswith("wins 10/10, gain holds")
