import builtins
import errno
import functools
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vqround import errors, tensor_io


def roundtrip(arr, tmp_path):
    path = tmp_path / "t.vqt"
    tensor_io.save_tensor(arr, path)
    return tensor_io.load_tensor(path)


class TestRoundTrip:
    def test_zeros_3x2(self, tmp_path):
        t = np.zeros((3, 2), dtype=np.float32)
        out = roundtrip(t, tmp_path)
        assert out.shape == (3, 2)
        assert np.array_equal(out, t)

    def test_pi_bit_pattern(self, tmp_path):
        t = np.array([[np.pi]], dtype=np.float32)
        out = roundtrip(t, tmp_path)
        assert out.tobytes() == t.tobytes()

    def test_identity_2x2(self, tmp_path):
        t = np.eye(2, dtype=np.float32)
        assert np.array_equal(roundtrip(t, tmp_path), t)

    def test_f64_input_is_cast(self, tmp_path):
        t = np.array([[0.1, 0.2]], dtype=np.float64)
        out = roundtrip(t, tmp_path)
        assert np.array_equal(out, t.astype(np.float32))

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            dtype=np.float32,
            shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
        )
    )
    def test_roundtrip_bit_exact(self, arr):
        import tempfile, os

        fd, path = tempfile.mkstemp(suffix=".vqt")
        os.close(fd)
        try:
            tensor_io.save_tensor(arr, path)
            out = tensor_io.load_tensor(path)
            assert out.tobytes() == np.ascontiguousarray(arr).tobytes()
        finally:
            os.unlink(path)


class TestFileLayout:
    def test_golden_bytes(self, tmp_path):
        # Freezes the little-endian layout: any platform must emit the
        # exact same bytes for the same tensor.
        path = tmp_path / "t.vqt"
        tensor_io.save_tensor(np.array([[1.0, 2.0]], dtype=np.float32), path)
        expected = (
            b"VQRT"
            + struct.pack("<II", 1, 2)
            + struct.pack("<QQ", 1, 2)
            + struct.pack("<B", 0)
            + struct.pack("<ff", 1.0, 2.0)
        )
        assert path.read_bytes() == expected

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.vqt"
        tensor_io.save_tensor(np.eye(2), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(errors.MagicMismatch):
            tensor_io.load_tensor(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "t.vqt"
        tensor_io.save_tensor(np.eye(2), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(errors.VersionUnsupported):
            tensor_io.load_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.vqt"
        tensor_io.save_tensor(np.eye(2), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(errors.TruncatedPayload):
            tensor_io.load_tensor(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "t.vqt"
        tensor_io.save_tensor(np.eye(2), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(errors.TensorFormatError):
            tensor_io.load_tensor(path)

    def test_nan_payload_rejected_on_load(self, tmp_path):
        path = tmp_path / "t.vqt"
        header = struct.pack("<4sIIQQB", b"VQRT", 1, 2, 1, 1, 0)
        path.write_bytes(header + struct.pack("<f", float("nan")))
        with pytest.raises(errors.NonFiniteValue):
            tensor_io.load_tensor(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(errors.IoFailure):
            tensor_io.load_tensor(tmp_path / "missing.vqt")

    def test_empty_tensor_rejected_at_save(self, tmp_path):
        with pytest.raises(errors.ShapeMismatch):
            tensor_io.save_tensor(np.zeros((0, 3)), tmp_path / "t.vqt")

    def test_nan_rejected_at_save(self, tmp_path):
        with pytest.raises(errors.NonFiniteValue):
            tensor_io.save_tensor(np.array([[np.nan]]), tmp_path / "t.vqt")

    @pytest.mark.parametrize("value", [1e39, -1e39, np.finfo(np.float64).max])
    def test_beyond_float32_rejected_at_save(self, tmp_path, value):
        # A finite float64 that float32 cannot hold would be written as
        # inf, which load_tensor refuses. The cast raises no warning.
        path = tmp_path / "t.vqt"
        with np.errstate(all="raise"):
            with pytest.raises(errors.NonFiniteValue):
                tensor_io.save_tensor(np.array([[value, 1.0]]), path)
            with pytest.raises(errors.NonFiniteValue):
                tensor_io.save_tensor(np.array([[value, 1.0], [2.0, 3.0]]).T, path)
        assert list(tmp_path.iterdir()) == []

    def test_largest_float32_saves(self, tmp_path):
        big = float(np.finfo(np.float32).max)
        assert np.array_equal(roundtrip(np.array([[big, -big]]), tmp_path), [[big, -big]])


def header(rows, cols):
    return struct.pack("<4sIIQQB", b"VQRT", 1, 2, rows, cols, 0)


def peak_alloc(fn):
    """Bytes allocated at the peak of ``fn()`` above what was in use before."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class _ShortRead:
    """File stand-in whose ``readinto`` fills only half of the buffer, as
    a file that shrinks between the size check and the read would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def readinto(self, buf):
        return self.fh.readinto(memoryview(buf)[: len(buf) // 2])


class TestOneCopyLoad:
    def test_huge_header_refused_before_allocating(self, tmp_path):
        path = tmp_path / "t.vqt"
        path.write_bytes(header(2**40, 3) + b"\0" * 64)

        def load():
            with pytest.raises(errors.TruncatedPayload):
                tensor_io.load_tensor(path)

        assert peak_alloc(load) < 2**20

    def test_short_read_is_truncated(self, tmp_path, monkeypatch):
        path = tmp_path / "t.vqt"
        tensor_io.save_tensor(np.ones((4, 4)), path)
        monkeypatch.setattr(tensor_io, "open", lambda *a, **k: _ShortRead(builtins.open(*a, **k)),
                            raising=False)
        with pytest.raises(errors.TruncatedPayload):
            tensor_io.load_tensor(path)

    def test_load_allocates_one_payload(self, tmp_path):
        path = tmp_path / "t.vqt"
        t = np.random.default_rng(0).normal(size=(2048, 512)).astype(np.float32)
        tensor_io.save_tensor(t, path)
        out = []
        assert peak_alloc(lambda: out.append(tensor_io.load_tensor(path))) <= t.nbytes + 2**20
        assert out[0].tobytes() == t.tobytes()
        assert out[0].flags.c_contiguous and out[0].flags.writeable

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("extra, error", [(0, None), (-4, errors.TruncatedPayload),
                                              (4, errors.TensorFormatError)])
    def test_load_through_a_pipe(self, tmp_path, extra, error):
        # A pipe has no size: it is read whole, then checked as a file is.
        t = np.arange(12, dtype=np.float32).reshape(3, 4)
        blob = header(3, 4) + t.tobytes()
        blob = blob[:extra] if extra < 0 else blob + b"\0" * extra
        fifo = tmp_path / "pipe.vqt"
        os.mkfifo(fifo)

        def write():
            with open(fifo, "wb") as fh:
                fh.write(blob)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            if error is None:
                assert tensor_io.load_tensor(fifo).tobytes() == t.tobytes()
            else:
                with pytest.raises(error):
                    tensor_io.load_tensor(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()


def whole_cast_bytes(t):
    """The file a whole-array cast to float32 writes for ``t``."""
    rows, cols = t.shape
    return header(rows, cols) + np.ascontiguousarray(t, "<f4").tobytes()


def layouts(a):
    """``a`` itself and views of it in other layouts, by name."""
    return {
        "c": a,
        "f": np.asfortranarray(a),
        "transposed": a.T,
        "strided": a[::2, ::3],
        "negative": a[::-1, ::-2],
        "transposed-negative": a.T[::-1],
    }


class TestSaveBytes:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 200), (200, 1), (65, 130), (130, 65), (64, 64),
                                       (3, 2)])
    def test_bytes_match_whole_array_cast(self, tmp_path, shape, dtype):
        a = np.random.default_rng(0).normal(scale=100.0, size=shape).astype(dtype)
        path = tmp_path / "t.vqt"
        for name, view in layouts(a).items():
            tensor_io.save_tensor(view, path)
            assert path.read_bytes() == whole_cast_bytes(view), name

    def test_tiled_copy_of_every_layout(self):
        a = np.random.default_rng(1).normal(size=(130, 200))
        for name, view in layouts(a).items():
            got = tensor_io._tiled_copy(np.empty(view.shape, np.float32), view)
            assert got.tobytes() == view.astype(np.float32).tobytes(), name
            got = tensor_io._tiled_copy(np.empty(view.shape), view.astype(np.float32), minus=view)
            want = np.asarray(view.astype(np.float32), dtype=np.float64) - view
            assert got.tobytes() == want.tobytes(), name


class TestBlockedSave:
    """A save casts and writes by blocks of rows through one buffer."""

    @pytest.mark.parametrize("dtype", [np.float16, np.float64, ">f4"])
    @pytest.mark.parametrize("block_rows", [1, 3, 64, 130])
    def test_bytes_match_whole_array_cast_across_blocks(self, tmp_path, monkeypatch,
                                                       dtype, block_rows):
        # Blocks of 1, 3, 64 and 128 rows (a budget of 130 rows rounds
        # down to whole 64-row tiles) over views of 65 to 200 rows: most
        # span several blocks, the last one short.
        a = np.random.default_rng(2).normal(scale=100.0, size=(130, 200)).astype(dtype)
        path = tmp_path / "t.vqt"
        for name, view in layouts(a).items():
            monkeypatch.setattr(tensor_io, "_SAVE_BYTES", 4 * view.shape[1] * block_rows)
            tensor_io.save_tensor(view, path)
            assert path.read_bytes() == whole_cast_bytes(view), (name, block_rows)

    def test_transposed_save_holds_one_block(self, tmp_path):
        # A whole float32 copy of the 1024 x 1024 view would take 4 MB.
        t = np.random.default_rng(3).normal(size=(1024, 1024)).T
        path = tmp_path / "t.vqt"
        block = 4 * t.shape[1] * (tensor_io._SAVE_BYTES // (4 * t.shape[1]))
        assert peak_alloc(lambda: tensor_io.save_tensor(t, path)) <= block + 2**20
        assert path.read_bytes() == whole_cast_bytes(t)


class TestIndicesSidecar:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "i.u32"
        idx = np.array([0, 5, 2, 4294967295 >> 1], dtype=np.int64)
        tensor_io.save_indices_u32(idx, path)
        assert np.array_equal(tensor_io.load_indices_u32(path), idx)

    def test_little_endian_bytes(self, tmp_path):
        path = tmp_path / "i.u32"
        tensor_io.save_indices_u32([258], path)
        assert path.read_bytes() == b"\x02\x01\x00\x00"


class _DiskFullFile:
    """File stand-in that stores half of a write and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(bytes(data)[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicWrite:
    @pytest.mark.parametrize("save, value", [
        (tensor_io.save_tensor, np.full((4, 4), 7.0)),
        (tensor_io.save_indices_u32, np.arange(16)),
        (functools.partial(tensor_io.write_csv, ["step", "loss"]), [[1, 0.5], [2, 0.25]]),
    ])
    def test_failed_write_leaves_existing_file_intact(self, tmp_path, monkeypatch, save, value):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous contents")

        def disk_full_open(file, mode="r", *args, **kwargs):
            return _DiskFullFile(builtins.open(file, mode, *args, **kwargs))

        monkeypatch.setattr(tensor_io, "open", disk_full_open, raising=False)
        with pytest.raises(errors.IoFailure):
            save(value, path)
        assert path.read_bytes() == b"previous contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "t.vqt"
        tensor_io.save_tensor(np.zeros((8, 8)), path)
        tensor_io.save_tensor(np.ones((1, 1)), path)
        assert np.array_equal(tensor_io.load_tensor(path), [[1.0]])
        assert [p.name for p in tmp_path.iterdir()] == ["t.vqt"]


class TestWriteCsv:
    def test_simple(self, tmp_path):
        path = tmp_path / "r.csv"
        tensor_io.write_csv(["a", "b"], [[1, 2]], path)
        assert path.read_text() == "a,b\n1,2\n"

    def test_ragged_rows(self, tmp_path):
        with pytest.raises(errors.RaggedRows):
            tensor_io.write_csv(["a", "b"], [[1, 2], [3]], tmp_path / "r.csv")

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "r.csv"
        tensor_io.write_csv(["x"], [[0.3]], path)
        assert path.read_text() == "x\n0.300000000\n"

    def test_mixed_types(self, tmp_path):
        path = tmp_path / "r.csv"
        tensor_io.write_csv(["i", "f"], [[7, 1.5]], path)
        assert path.read_text() == "i,f\n7,1.50000000\n"
