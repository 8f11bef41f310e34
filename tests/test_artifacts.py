"""Deterministic serialization: equal arrays must give equal bytes."""

import dataclasses
import hashlib
import io
import zipfile

import numpy as np
import pytest
from numpy.lib import format as npformat

from nkscreen.artifacts import (canonical_json, file_sha256,
                                savez_deterministic, write_json)


def test_equal_arrays_equal_bytes(tmp_path):
    arrays = {
        "A": np.arange(30.0).reshape(5, 6),
        "flags": np.array([True, False, True]),
        "meta_json": np.array('{"k": 2}'),
        "counts": np.array([10, 2, 3], dtype=np.int64),
    }
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    savez_deterministic(p1, **arrays)
    savez_deterministic(p2, **arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_numpy_load_roundtrip(tmp_path):
    arrays = {
        "x": np.linspace(-1, 1, 7),
        "m": np.zeros((2, 3), dtype=np.int32),
        "s": np.array("hello"),
    }
    path = tmp_path / "a.npz"
    savez_deterministic(path, **arrays)
    with np.load(path, allow_pickle=False) as z:
        assert set(z.files) == set(arrays)
        for name in ("x", "m"):
            got = z[name]
            assert got.dtype == arrays[name].dtype
            assert np.array_equal(got, arrays[name])
        assert str(z["s"]) == "hello"


def test_content_changes_bytes(tmp_path):
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    savez_deterministic(p1, x=np.array([1.0, 2.0]))
    savez_deterministic(p2, x=np.array([1.0, 2.0 + 1e-12]))
    assert p1.read_bytes() != p2.read_bytes()


def test_object_arrays_rejected(tmp_path):
    with pytest.raises(ValueError):
        savez_deterministic(tmp_path / "a.npz", x=np.array([{"a": 1}], dtype=object))


def test_file_sha256_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    data = bytes(range(256)) * 100
    path.write_bytes(data)
    assert file_sha256(path) == hashlib.sha256(data).hexdigest()


def test_canonical_json_sorts_keys(tmp_path):
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b and a.endswith("\n")
    path = tmp_path / "r.json"
    write_json(path, {"z": 1, "a": 2})
    import json
    assert json.loads(path.read_text()) == {"z": 1, "a": 2}


def _savez_in_one_piece(path, arrays, compression=zipfile.ZIP_STORED):
    """The writer before streaming: each member's .npy bytes built whole in
    memory, then handed to ``writestr``.  With ZIP_DEFLATED it writes the
    bytes of the deflated writer that artifacts used before."""
    from nkscreen.artifacts import ZIP_EPOCH

    with zipfile.ZipFile(path, "w", compression=compression) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            npformat.write_array(buf, np.asarray(arrays[name]),
                                 allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=ZIP_EPOCH)
            info.compress_type = compression
            info.external_attr = 0o644 << 16
            zf.writestr(info, buf.getvalue())


def test_members_are_stored(tmp_path):
    path = tmp_path / "a.npz"
    savez_deterministic(path, A=np.arange(6.0).reshape(2, 3),
                        s=np.array("x"), e=np.array([]))
    with zipfile.ZipFile(path) as zf:
        types = [info.compress_type for info in zf.infolist()]
    assert types == [zipfile.ZIP_STORED] * 3


def _leaves(obj):
    """A loaded artifact as nested plain values, each array as its dtype,
    shape and bytes, so NaNs compare equal."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _leaves(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.compare}
    if isinstance(obj, (list, tuple)):
        return [_leaves(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return obj.dtype.descr, obj.shape, obj.tobytes()
    return obj


def test_deflated_files_still_load(tmp_path, monkeypatch):
    """Files written deflated, as every artifact was before members were
    stored, load through the loaders to the stored file's bytes: a folded
    region (NaN ``dropped_values``, structured ``row_meta``), a dataset and
    a checkpoint, each with a 0-d unicode ``meta_json``."""
    from helpers import region_from_rows
    from nkscreen import datagen, icnn, region

    reg = region.drop_constant_dims(
        region_from_rows([[1.0, 2.0, 0.5], [-1.0, 0.5, 1.0]], [3.0, 2.0]),
        np.array([[0.1, 0.3, -0.1], [0.2, 0.3, -0.3]]))
    reg.meta["name"] = "\u00e9t\u00e9"
    assert np.isnan(reg.dropped_values).sum() == 2
    X = np.random.default_rng(5).normal(size=(4, 3))
    ds = datagen.ScreeningDataset(
        x=X, labels=np.array([0, 1, 0, 1], dtype=np.uint8), counts=(2, 1, 1),
        d=X + 1.0, meta={"network": "\u00e9t\u00e9"}).attach_transform(reg)
    clf = icnn.ScaledClassifier(
        params=icnn.init_params(2, 1, 4, -np.ones(2), np.ones(2)), r=0.5,
        mu=reg.mu, sigma=reg.sigma, dim_map=reg.dim_map,
        meta={"name": "\u00e9t\u00e9"})

    def deflated_writer(path, **arrays):
        _savez_in_one_piece(path, arrays, zipfile.ZIP_DEFLATED)

    for module, save, load, obj in (
            (region, region.save_region, region.load_region, reg),
            (datagen, datagen.save_dataset, datagen.load_dataset, ds),
            (icnn, icnn.save_checkpoint, icnn.load_checkpoint, clf)):
        stored = tmp_path / "stored.npz"
        deflated = tmp_path / "deflated.npz"
        save(obj, stored)
        with monkeypatch.context() as m:
            m.setattr(module, "savez_deterministic", deflated_writer)
            save(obj, deflated)
        with zipfile.ZipFile(deflated) as zf:
            assert {i.compress_type for i in zf.infolist()} == \
                {zipfile.ZIP_DEFLATED}
        with np.load(stored) as a, np.load(deflated) as b:
            assert a.files == b.files and "meta_json" in a.files
            assert all(_leaves(a[n]) == _leaves(b[n]) for n in a.files)
        assert _leaves(load(deflated)) == _leaves(load(stored))


def test_streamed_members_match_one_piece_writer(tmp_path):
    rng = np.random.default_rng(3)
    meta = np.dtype([("contingency", np.int32), ("line", np.int32),
                     ("sign", np.int8)])
    rows = np.zeros(300_000, dtype=meta)                 # several 16 MB chunks
    rows["line"] = rng.integers(0, 46, size=len(rows))
    arrays = {
        "A": rng.normal(size=(120_000, 24)),             # 23 MB, two chunks
        "F": np.asfortranarray(rng.normal(size=(500, 7))),
        "row_meta": rows,
        "scalar": np.array(2.5),
        "empty": np.array([]),
        "no_rows": np.empty((0, 5)),
        "meta_json": np.array('{"k": 3, "name": "\\u00e9t\\u00e9"}'),
        "text": np.array(["a", "bcd", "é"]),
        "flags": rng.random(1001) < 0.5,
    }
    streamed, whole = tmp_path / "s.npz", tmp_path / "w.npz"
    savez_deterministic(streamed, **arrays)
    _savez_in_one_piece(whole, arrays)
    assert streamed.read_bytes() == whole.read_bytes()


def test_streamed_write_holds_no_whole_copy(tmp_path):
    """One 16 MB chunk of ``write_array`` (0.42 x); the one-piece writer
    peaks at 1.26 x stored and at 3.2 x deflated."""
    import tracemalloc

    big = np.random.default_rng(4).normal(size=(5_000_000,))   # 40 MB
    tracemalloc.start()
    try:
        savez_deterministic(tmp_path / "big.npz", A=big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * big.nbytes, \
        f"the write peaked at {peak / big.nbytes:.2f} x the array"
