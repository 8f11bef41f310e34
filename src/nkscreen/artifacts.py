"""Byte-reproducible artifact files.

np.savez embeds the current clock in each zip member header, so two runs
that produce identical arrays still produce different bytes.  The writer
here pins the zip metadata, which makes artifact hashes usable as identity:
same inputs plus same seed gives the same file, bit for bit.  Members are
stored, not deflated: a load is then a read and a CRC check, where
inflating a deflated region_full.npz took most of a load.  np.load reads
stored and deflated members alike, so files written deflated still load.
"""

import hashlib
import json
import zipfile

import numpy as np
from numpy.lib import format as npformat

ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


class _Member:
    """Writable zip member for ``write_array``, opened at the first write.

    ``write_array`` writes the .npy header in one call before the data, so
    at that write the member's size is known: the header plus the array's
    bytes.  ``ZipFile.writestr`` sets the same size before it writes
    through ``open(info, "w")``; the size decides the member's zip64
    fields, so streaming gives writestr's bytes.  A stored member passes
    each write straight to the file.
    """

    def __init__(self, zf, info, nbytes):
        self._zf, self._info, self._nbytes = zf, info, nbytes
        self._fp = None

    def write(self, data):
        if self._fp is None:
            self._info.file_size = len(data) + self._nbytes
            self._fp = self._zf.open(self._info, "w")
        return self._fp.write(data)

    def close(self):
        if self._fp is not None:
            self._fp.close()


def savez_deterministic(path, **arrays):
    """Write an .npz readable by np.load, with fixed zip metadata.

    Members are stored uncompressed, in sorted name order, with a constant
    timestamp and mode, so the output depends only on the array contents.
    Each array streams into its member in ``write_array``'s chunks of
    16 MB, never as a whole copy of its .npy bytes (``_Member``).
    """
    with zipfile.ZipFile(path, "w") as zf:
        for name in sorted(arrays):
            array = np.asarray(arrays[name])
            info = zipfile.ZipInfo(name + ".npy", date_time=ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_STORED
            info.external_attr = 0o644 << 16
            member = _Member(zf, info, array.nbytes)
            try:
                npformat.write_array(member, array, allow_pickle=False)
            finally:
                member.close()


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def canonical_json(obj):
    """Stable JSON encoding (sorted keys, no incidental whitespace drift)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(canonical_json(obj))
