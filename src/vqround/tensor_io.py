"""Binary tensor container and CSV report writer.

The on-disk layout is fixed little-endian so a file written on one
platform loads bit-exactly on any other:

    bytes 0..3    magic ``b"VQRT"``
    bytes 4..7    format version, u32 (currently 1)
    bytes 8..11   number of dimensions, u32 (always 2)
    bytes 12..27  dims, two u64 (rows, cols)
    byte  28      element-type code, u8 (0 = float32)
    bytes 29..    row-major little-endian float32 payload

Accumulations elsewhere in the package run in float64 where it matters,
but nothing other than float32 is ever serialized.

A load makes one copy of the payload: the header's sizes are checked
against the file's before anything is allocated, and the payload is
read straight into the array it returns. (A pipe, which has no size,
is read whole first, then checked and copied.) A save writes a row-major
float32 array itself, without a bytes copy. Any other input is cast and
written by blocks of rows through one buffer of at most 1 MB, so a save
makes no whole float32 copy; an input laid out column-major, as a
transposed view is, is cast in cache-sized tiles.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import os
import stat
import struct

import numpy as np

from .errors import (
    IoFailure,
    MagicMismatch,
    NonFiniteValue,
    RaggedRows,
    ShapeMismatch,
    TensorFormatError,
    TruncatedPayload,
    VersionUnsupported,
)

MAGIC = b"VQRT"
VERSION = 1

_DTYPE_F32 = 0
_HEADER = struct.Struct("<4sIIQQB")
# Side of the square tiles a transposing copy moves at a time. Numpy
# copies a column-major source in the destination's row order, touching
# one cache line of the source per element; a 64x64 float64 tile is
# 32 KB, so the source lines a tile reads stay in cache until it is done.
# On a 2048x2048 transposed view (x86-64, one thread) a cast to float32
# took 32 ms whole and 11-13 ms in 64x64 tiles, against 16 ms in 32x32 or
# 128x128 ones.
_TILE = 64
# Bytes of the float32 buffer a save casts its blocks of rows into.
_SAVE_BYTES = 2**20


def _tiled_copy(out, src, minus=None):
    """``out[...] = src``, or ``src - minus`` in out's dtype, tile by tile.

    For a ``src`` (or ``minus``) laid out column-major, such as a
    transposed view, and a row-major ``out``. Every entry is the one
    numpy's whole-array assignment or subtraction gives.
    """
    m, n = out.shape
    for i in range(0, m, _TILE):
        rows = slice(i, i + _TILE)
        o, s = out[rows], src[rows]
        d = None if minus is None else minus[rows]
        for j in range(0, n, _TILE):
            cols = slice(j, j + _TILE)
            if d is None:
                o[:, cols] = s[:, cols]
            else:
                np.subtract(s[:, cols], d[:, cols], out=o[:, cols], dtype=out.dtype)
    return out


def _all_finite(arr) -> bool:
    """Whether every entry is finite. The extremes carry any NaN or inf,
    and taking them allocates nothing, where ``isfinite`` takes one byte
    per entry."""
    return bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def _f32_blocks(arr):
    """The row-major little-endian float32 bytes of ``arr``, in pieces,
    each checked finite.

    A row-major float32 array is its own one piece. Any other is cast by
    blocks of rows into one buffer of at most ``_SAVE_BYTES`` (or one
    row), each block a piece that the next overwrites; a block that is
    not row-major is cast tile by tile. The check runs on the cast
    values, so a float64 beyond float32's range, which the cast turns
    into inf, is refused with NaN and inf.
    """
    if arr.flags.c_contiguous and arr.dtype == np.dtype("<f4"):
        yield _checked_bytes(arr)
        return
    rows, cols = arr.shape
    step = max(1, _SAVE_BYTES // (4 * cols))
    if step > _TILE:
        step -= step % _TILE
    buf = np.empty((min(step, rows), cols), dtype="<f4")
    for r in range(0, rows, step):
        block = arr[r:r + step]
        out = buf[:len(block)]
        with np.errstate(over="ignore"):
            if block.flags.c_contiguous:
                out[...] = block
            else:
                _tiled_copy(out, block)
        yield _checked_bytes(out)


def _checked_bytes(out) -> memoryview:
    if not _all_finite(out):
        raise NonFiniteValue("tensor contains NaN or Inf, or a value beyond float32's range")
    return memoryview(out).cast("B")


def _write_atomic(path, chunks) -> None:
    """Write the byte ``chunks`` in order as the whole of ``path``, or
    leave it untouched.

    The bytes go to a fresh temp file in the same directory, which then
    replaces ``path`` in one ``os.replace``. A write that fails leaves an
    existing file as it was and removes the temp file.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    finally:
        # After a successful replace the temp name no longer exists.
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def save_tensor(t, path) -> None:
    """Write ``t`` so that :func:`load_tensor` restores it bit-exactly.

    Input of any float dtype is cast to float32; the round-trip
    guarantee applies to the cast value, which must be finite. The file
    is replaced whole or not at all.
    """
    arr = np.asarray(t)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(f"expected a non-empty 2-d array, got shape {arr.shape}")
    rows, cols = arr.shape
    header = _HEADER.pack(MAGIC, VERSION, 2, rows, cols, _DTYPE_F32)
    _write_atomic(path, itertools.chain([header], _f32_blocks(arr)))


def _check_payload(path, have, need) -> None:
    if have < need:
        raise TruncatedPayload(f"{path}: payload {have} bytes, need {need}")
    if have > need:
        raise TensorFormatError(f"{path}: {have - need} trailing bytes")


def load_tensor(path) -> np.ndarray:
    """Read a tensor file, validating magic, version and payload length.

    The payload length of a regular file is checked against the file's
    size before the array is allocated, and the payload is then read into
    it in place. A pipe is read whole first, then checked.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if len(head) < len(MAGIC):
                raise TruncatedPayload(f"{path}: file shorter than the magic bytes")
            if head[: len(MAGIC)] != MAGIC:
                raise MagicMismatch(f"{path}: bad magic {head[:len(MAGIC)]!r}")
            if len(head) < _HEADER.size:
                raise TruncatedPayload(f"{path}: incomplete header")

            _, version, ndim, rows, cols, dtype_code = _HEADER.unpack(head)
            if version != VERSION:
                raise VersionUnsupported(f"{path}: version {version}, expected {VERSION}")
            if ndim != 2:
                raise TensorFormatError(f"{path}: ndim {ndim}, only 2-d tensors supported")
            if dtype_code != _DTYPE_F32:
                raise TensorFormatError(f"{path}: unknown element-type code {dtype_code}")
            if rows < 1 or cols < 1:
                raise TensorFormatError(f"{path}: non-positive dims ({rows}, {cols})")

            need = 4 * rows * cols
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode):
                _check_payload(path, info.st_size - _HEADER.size, need)
                arr = np.empty((rows, cols), dtype="<f4")
                # The file can shrink between the size check and the read.
                _check_payload(path, fh.readinto(memoryview(arr).cast("B")), need)
            else:
                # A pipe or FIFO has no size to check before the read.
                payload = fh.read()
                _check_payload(path, len(payload), need)
                arr = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).copy()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if not _all_finite(arr):
        raise NonFiniteValue(f"{path}: payload contains NaN or Inf")
    return arr


def save_indices_u32(indices, path) -> None:
    """Write an index list as raw little-endian u32 values, replacing
    the file whole or not at all."""
    arr = np.ascontiguousarray(indices, dtype="<u4")
    if arr.ndim != 1:
        raise ShapeMismatch(f"expected a 1-d index list, got shape {arr.shape}")
    _write_atomic(path, [memoryview(arr).cast("B")])


def load_indices_u32(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if len(blob) % 4 != 0:
        raise TruncatedPayload(f"{path}: length {len(blob)} not a multiple of 4")
    return np.frombuffer(blob, dtype="<u4").astype(np.int64)


def _format_value(v) -> str:
    # Integers stay integers; floats carry 9 significant digits with a
    # '.' decimal separator ("#" keeps trailing zeros).
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), "#.9g")


def write_csv(headers, rows, path) -> None:
    """Write an RFC-4180-style CSV with '\\n' line endings.

    Every row must have exactly ``len(headers)`` entries; numeric values
    are rendered with 9 significant digits. The file is replaced whole
    or not at all.
    """
    headers = list(headers)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(headers)
    for i, row in enumerate(rows):
        row = list(row)
        if len(row) != len(headers):
            raise RaggedRows(f"row {i} has {len(row)} values, expected {len(headers)}")
        writer.writerow([_format_value(v) for v in row])
    _write_atomic(path, [text.getvalue().encode()])
