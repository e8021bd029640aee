"""Round-trip and corruption tests for the BVNX tensor/bundle formats."""

import struct

import numpy as np
import pytest

from bevnext import bvnx
from bevnext.errors import FormatError
from bevnext.kernels import SplitMix64


def test_tensor_roundtrip_bitexact(tmp_path):
    arr = SplitMix64(8).uniform_array((2, 3, 4, 5), -10, 10)
    p = tmp_path / "t.bvnx"
    bvnx.save_tensor(p, arr)
    back = bvnx.load_tensor(p)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr)


def test_tensor_layout_on_disk(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    p = tmp_path / "t.bvnx"
    bvnx.save_tensor(p, arr)
    raw = p.read_bytes()
    assert raw[:4] == b"BVNX"
    version, rank = struct.unpack("<HH", raw[4:8])
    assert version == 1 and rank == 2
    assert struct.unpack("<II", raw[8:16]) == (2, 3)
    np.testing.assert_array_equal(np.frombuffer(raw[16:], dtype="<f4"), arr.ravel())


def test_corrupt_magic_names_offset_zero(tmp_path):
    p = tmp_path / "bad.bvnx"
    p.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError, match="offset 0"):
        bvnx.load_tensor(p)


def test_truncated_payload(tmp_path):
    arr = np.ones((4, 4), np.float32)
    p = tmp_path / "t.bvnx"
    bvnx.save_tensor(p, arr)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(FormatError, match="truncated"):
        bvnx.load_tensor(p)


def test_version_mismatch(tmp_path):
    p = tmp_path / "t.bvnx"
    blob = b"BVNX" + struct.pack("<HH", 9, 1) + struct.pack("<I", 1) + struct.pack("<f", 1.0)
    p.write_bytes(blob)
    with pytest.raises(FormatError, match="version 9"):
        bvnx.load_tensor(p)


def test_nan_payload_rejected(tmp_path):
    p = tmp_path / "t.bvnx"
    blob = b"BVNX" + struct.pack("<HH", 1, 1) + struct.pack("<I", 2) + struct.pack("<ff", 1.0, float("nan"))
    p.write_bytes(blob)
    with pytest.raises(FormatError, match="NaN/Inf"):
        bvnx.load_tensor(p)


def test_bundle_save_is_deterministic(tmp_path):
    rng = SplitMix64(16)
    bundle = {"b": rng.uniform_array((2,)), "a": rng.uniform_array((2,))}
    p1, p2 = tmp_path / "x1", tmp_path / "x2"
    bvnx.save_bundle(p1, bundle)
    bvnx.save_bundle(p2, dict(reversed(list(bundle.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_u32_record_is_rejected_as_bad_magic(tmp_path):
    """Every tensor is float32: a record tagged BVNU fails like any unknown magic."""
    p = tmp_path / "t.bvnx"
    p.write_bytes(b"BVNU" + struct.pack("<HHI", 1, 1, 1) + struct.pack("<I", 7))
    with pytest.raises(FormatError, match="bad magic b'BVNU' at offset 0"):
        bvnx.load_tensor(p)
    bundle = tmp_path / "b.bvnb"
    bundle.write_bytes(b"BVNB" + struct.pack("<HIH", 1, 1, 1) + b"a" + p.read_bytes())
    with pytest.raises(FormatError, match="bad magic b'BVNU' at offset 13"):
        bvnx.load_bundle(bundle)


def test_bundle_bad_magic(tmp_path):
    p = tmp_path / "bad.bvnb"
    p.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(FormatError, match="offset 0"):
        bvnx.load_bundle(p)
