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
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
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


def _require_matrix(t) -> np.ndarray:
    arr = np.asarray(t)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(f"expected a non-empty 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue("tensor contains NaN or Inf")
    return arr


def _write_atomic(path, *chunks) -> None:
    """Write ``chunks`` as the whole of ``path``, or leave it untouched.

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

    Input of any float dtype is cast to float32 first; the round-trip
    guarantee applies to the cast value. The file is replaced whole or
    not at all.
    """
    arr = np.ascontiguousarray(_require_matrix(t), dtype="<f4")
    rows, cols = arr.shape
    header = _HEADER.pack(MAGIC, VERSION, 2, rows, cols, _DTYPE_F32)
    _write_atomic(path, header, arr.tobytes())


def load_tensor(path) -> np.ndarray:
    """Read a tensor file, validating magic, version and payload length."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc

    if len(blob) < len(MAGIC):
        raise TruncatedPayload(f"{path}: file shorter than the magic bytes")
    if blob[: len(MAGIC)] != MAGIC:
        raise MagicMismatch(f"{path}: bad magic {blob[:len(MAGIC)]!r}")
    if len(blob) < _HEADER.size:
        raise TruncatedPayload(f"{path}: incomplete header")

    _, version, ndim, rows, cols, dtype_code = _HEADER.unpack_from(blob)
    if version != VERSION:
        raise VersionUnsupported(f"{path}: version {version}, expected {VERSION}")
    if ndim != 2:
        raise TensorFormatError(f"{path}: ndim {ndim}, only 2-d tensors supported")
    if dtype_code != _DTYPE_F32:
        raise TensorFormatError(f"{path}: unknown element-type code {dtype_code}")
    if rows < 1 or cols < 1:
        raise TensorFormatError(f"{path}: non-positive dims ({rows}, {cols})")

    payload = blob[_HEADER.size :]
    need = 4 * rows * cols
    if len(payload) < need:
        raise TruncatedPayload(f"{path}: payload {len(payload)} bytes, need {need}")
    if len(payload) > need:
        raise TensorFormatError(f"{path}: {len(payload) - need} trailing bytes")

    arr = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).copy()
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{path}: payload contains NaN or Inf")
    return arr


def save_indices_u32(indices, path) -> None:
    """Write an index list as raw little-endian u32 values, replacing
    the file whole or not at all."""
    arr = np.ascontiguousarray(indices, dtype="<u4")
    if arr.ndim != 1:
        raise ShapeMismatch(f"expected a 1-d index list, got shape {arr.shape}")
    _write_atomic(path, arr.tobytes())


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
    _write_atomic(path, text.getvalue().encode())
