"""Deterministic serialization: equal arrays must give equal bytes."""

import hashlib

import numpy as np
import pytest

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


def _savez_in_one_piece(path, **arrays):
    """The writer before streaming: each member's .npy bytes built whole in
    memory, then handed to ``writestr``."""
    import io
    import zipfile

    from numpy.lib import format as npformat

    from nkscreen.artifacts import ZIP_EPOCH

    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            npformat.write_array(buf, np.asarray(arrays[name]),
                                 allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o644 << 16
            zf.writestr(info, buf.getvalue())


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
    _savez_in_one_piece(whole, **arrays)
    assert streamed.read_bytes() == whole.read_bytes()


def test_streamed_write_holds_no_whole_copy(tmp_path):
    """One 16 MB chunk of ``write_array`` and a few compressor slices, on
    data that hardly compresses; the one-piece writer peaks at 3.2 x."""
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
