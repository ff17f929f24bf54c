import builtins
import errno
import functools
import struct

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
