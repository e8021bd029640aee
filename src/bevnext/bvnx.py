"""BVNX binary tensor format and the named-bundle container.

Single tensor file: magic ``BVNX``, format version u16, rank u16, dims as
u32, then the float32 row-major payload, everything little-endian.
Bundles (weight files) use magic ``BVNB`` and hold named records; each
record is a full BVNX tensor. Every tensor is float32, and non-finite
payloads are rejected on load.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError

MAGIC_TENSOR = b"BVNX"
MAGIC_BUNDLE = b"BVNB"
FORMAT_VERSION = 1
MAX_RANK = 4


def _pack_tensor(arr: np.ndarray) -> bytes:
    if arr.ndim < 1 or arr.ndim > MAX_RANK:
        raise FormatError(f"tensor rank must be 1..{MAX_RANK}, got {arr.ndim}")
    a = np.ascontiguousarray(arr, dtype="<f4")
    head = MAGIC_TENSOR + struct.pack("<HH", FORMAT_VERSION, a.ndim)
    head += struct.pack(f"<{a.ndim}I", *a.shape)
    return head + a.tobytes()


class _Reader:
    def __init__(self, data: bytes, name: str):
        self.data = data
        self.off = 0
        self.name = name

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise FormatError(f"{self.name}: truncated file at offset {self.off}, needed {n} more bytes")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out


def _unpack_tensor(r: _Reader) -> np.ndarray:
    start = r.off
    magic = r.take(4)
    if magic != MAGIC_TENSOR:
        raise FormatError(f"{r.name}: bad magic {magic!r} at offset {start}")
    version, rank = struct.unpack("<HH", r.take(4))
    if version != FORMAT_VERSION:
        raise FormatError(f"{r.name}: format version {version} unsupported (expected {FORMAT_VERSION})")
    if rank < 1 or rank > MAX_RANK:
        raise FormatError(f"{r.name}: rank {rank} outside 1..{MAX_RANK}")
    dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
    if any(d < 1 for d in dims):
        raise FormatError(f"{r.name}: dims {dims} contain a zero axis")
    count = int(np.prod(dims))
    payload = r.take(4 * count)
    arr = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)
    if not np.isfinite(arr).all():
        raise FormatError(f"{r.name}: payload contains NaN/Inf values")
    return arr


def save_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(_pack_tensor(np.asarray(arr)))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        r = _Reader(f.read(), str(path))
    arr = _unpack_tensor(r)
    if r.off != len(r.data):
        raise FormatError(f"{path}: {len(r.data) - r.off} trailing bytes after payload")
    return arr


def save_bundle(path, tensors: dict[str, np.ndarray]) -> None:
    """Write a named tensor bundle; entries are sorted by name for determinism."""
    blob = MAGIC_BUNDLE + struct.pack("<HI", FORMAT_VERSION, len(tensors))
    for name in sorted(tensors):
        enc = name.encode("utf-8")
        blob += struct.pack("<H", len(enc)) + enc + _pack_tensor(np.asarray(tensors[name]))
    with open(path, "wb") as f:
        f.write(blob)


def load_bundle(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        r = _Reader(f.read(), str(path))
    magic = r.take(4)
    if magic != MAGIC_BUNDLE:
        raise FormatError(f"{path}: bad magic {magic!r} at offset 0 (expected {MAGIC_BUNDLE!r})")
    version, count = struct.unpack("<HI", r.take(6))
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: bundle version {version} unsupported (expected {FORMAT_VERSION})")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", r.take(2))
        start = r.off
        try:
            name = r.take(nlen).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: entry name is not UTF-8 at offset {start + exc.start}: {exc.reason}"
            ) from exc
        if name in out:
            raise FormatError(f"{path}: duplicate entry name '{name}'")
        out[name] = _unpack_tensor(r)
    if r.off != len(r.data):
        raise FormatError(f"{path}: {len(r.data) - r.off} trailing bytes after last entry")
    return out
