"""Deterministic neural-numeric primitives shared by every stage.

All operations are pure functions over numpy arrays. Feature tensors use
NCHW layout and float32 storage; accumulations run in float64 and each
result is rounded to float32 once.

Determinism: the same inputs give byte-identical outputs for any
``--threads`` and any ``OPENBLAS_NUM_THREADS``, on one machine with one
NumPy/OpenBLAS build. Two float64 contractions run as OpenBLAS GEMMs:
``conv2d`` (the reshaped weight times im2col blocks) and the CRF messages
of ``depth_crf.mean_field_step`` (coupling times the current distributions).
OpenBLAS splits a GEMM across its threads by output rows and columns,
never along the summed axis, so each output keeps one summation order
whatever the thread count; that order is the library's own and may differ
on another CPU or build. Every other contraction keeps its documented
order: the MLPs here, lift and the decoder's sums are ``np.einsum``
without ``optimize``, which never dispatches to BLAS, and the decoder's
query projections are one matrix-vector product per query. An einsum's reduction order can depend on the memory layout of its
operands (with the reduced axis innermost and contiguous in both, einsum
switches to a vectorised dot product that sums out of order), so a layout
change to an einsum needs a bit-identity test against an oracle. So does
any change to how ``conv2d`` builds its blocks: ``tests/test_kernels.py``
pins the GEMM order with an independent im2col oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 PRNG: portable, constant-documented, bit-stable.

    gamma = 0x9E3779B97F4A7C15; mix constants 0xBF58476D1CE4E5B9 and
    0x94D049BB133111EB with shifts 30/27/31. Identical seeds yield
    identical streams on every platform.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.state = self.seed

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform float64 in [0, 1), 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_array(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """n = prod(shape) draws of ``uniform`` in stream order, scaled to [low, high), float32.

        The i-th draw mixes state + i * gamma (i = 1..n, wrapping mod 2^64),
        so the whole array is computed at once and the state advances by
        n * gamma, exactly as n calls of ``next_u64`` would leave it.
        """
        n = int(np.prod(shape)) if shape else 1
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self.state)
        self.state = (self.state + n * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        vals = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
        out = low + (high - low) * vals
        return out.reshape(shape).astype(np.float32)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], rejection-free modulo (desk scale)."""
        span = high - low + 1
        return low + self.next_u64() % span


def init_weights(shape, fan_in: int, rng: SplitMix64) -> np.ndarray:
    """Uniform init in [-b, b] with b = sqrt(1 / fan_in)."""
    b = math.sqrt(1.0 / fan_in)
    return rng.uniform_array(shape, -b, b)


@dataclass
class ConvSpec:
    """2D convolution parameters; weight layout [out, in, k, k].

    The channel counts and the kernel size are read off the weight's
    shape, so a spec cannot state a shape its weight does not have.
    """

    weight: np.ndarray
    bias: np.ndarray
    stride: int
    padding: int

    def __post_init__(self):
        shape = tuple(self.weight.shape)
        if len(shape) != 4 or shape[2] != shape[3] or shape[2] not in (1, 3):
            raise ShapeError(f"ConvSpec: weight must be [out, in, k, k] with k in (1, 3), got {shape}")
        if self.stride not in (1, 2):
            raise ShapeError(f"ConvSpec: stride must be 1 or 2, got {self.stride}")
        if self.padding < 0:
            raise ShapeError(f"ConvSpec: padding must be >= 0, got {self.padding}")
        if tuple(self.bias.shape) != (self.out_channels,):
            raise ShapeError(
                f"ConvSpec: bias axis 0 must equal out_channels={self.out_channels}, got {tuple(self.bias.shape)}"
            )

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weight.shape[2]


@dataclass
class MlpSpec:
    """Per-layer weights [out, in], biases [out], activation tag per layer ("relu" or "identity").

    Their shapes come from ``weights.expected_shapes`` and are checked once, by ``validate_bundle``.
    """

    weights: list
    biases: list
    activations: list

    @property
    def in_width(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_width(self) -> int:
        return self.weights[-1].shape[0]


# Column-buffer bytes per conv2d block: each block's im2col matrix is one
# float64 GEMM operand, large enough for the BLAS kernel to run at speed and
# small enough that a full-scale 3x3 conv never builds its whole column
# matrix.
_CONV_BLOCK_BYTES = 1 << 20


def conv2d(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Strided 2D convolution on an NCHW float32 tensor, as float64 GEMMs.

    Output spatial dims follow (H + 2p - k) // s + 1. Per image, output
    rows go in blocks of as many rows as fit _CONV_BLOCK_BYTES of column
    buffer (at least one). Each block's (rows - 1) * s + k padded input
    rows are copied into one float64 buffer allocated once per call; only
    its rows that fall in the padding are zeroed, so no padded float64
    copy of the whole input exists. Every tap's window is copied from it
    into a float64 column buffer in (channel, ky, kx) row order;
    ``np.matmul`` multiplies weight.reshape(out, C*k*k) by it, the bias
    is added to the product, and the sum is cast to float32 once. The
    summation order inside the GEMM is OpenBLAS's (see the module
    docstring).
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be rank-4 NCHW, got rank {x.ndim}")
    n, c, h, w = x.shape
    if c != spec.in_channels:
        raise ShapeError(f"conv2d: input channel axis has {c}, spec.in_channels is {spec.in_channels}")
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    if h + 2 * p < k:
        raise ShapeError(f"conv2d: height axis {h} too small for kernel {k} with padding {p}")
    if w + 2 * p < k:
        raise ShapeError(f"conv2d: width axis {w} too small for kernel {k} with padding {p}")
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    wmat = spec.weight.astype(np.float64).reshape(spec.out_channels, c * k * k)
    bias = spec.bias.astype(np.float64)[:, None]
    out = np.empty((n, spec.out_channels, ho, wo), dtype=np.float32)
    rows = max(1, min(ho, _CONV_BLOCK_BYTES // max(1, 8 * c * k * k * wo)))
    buf = np.empty(c * k * k * rows * wo, dtype=np.float64)
    span = (rows - 1) * s + k  # padded input rows one block reads
    xb = np.zeros((c, span, w + 2 * p), dtype=np.float64)  # side columns stay zero
    for b in range(n):
        for r0 in range(0, ho, rows):
            r = min(rows, ho - r0)
            y0 = r0 * s - p  # input row of the block buffer's first row
            lo = min(max(-y0, 0), span)  # buffer rows [lo, hi) hold input rows
            hi = min(max(h - y0, lo), span)
            xb[:, :lo] = 0.0
            xb[:, hi:] = 0.0
            xb[:, lo:hi, p : p + w] = x[b, :, y0 + lo : y0 + hi]
            col = buf[: c * k * k * r * wo].reshape(c, k, k, r, wo)
            for ky in range(k):
                for kx in range(k):
                    np.copyto(col[:, ky, kx], xb[:, ky : ky + (r - 1) * s + 1 : s, kx : kx + (wo - 1) * s + 1 : s])
            acc = np.matmul(wmat, col.reshape(c * k * k, r * wo))
            acc += bias
            out[b, :, r0 : r0 + r] = acc.reshape(spec.out_channels, r, wo)
    return out


def mlp_forward(x: np.ndarray, spec: MlpSpec) -> np.ndarray:
    """MLP over the last axis; identity activation path is an exact affine map."""
    x = np.asarray(x)
    if x.shape[-1] != spec.in_width:
        raise ShapeError(f"mlp_forward: input last axis {x.shape[-1]} != first layer width {spec.in_width}")
    lead = x.shape[:-1]
    y = x.reshape(-1, spec.in_width).astype(np.float64)
    for w, b, act in zip(spec.weights, spec.biases, spec.activations):
        y = np.einsum("mi,oi->mo", y, w.astype(np.float64)) + b.astype(np.float64)
        if act == "relu":
            y = np.maximum(y, 0.0)
    return y.reshape(*lead, spec.out_width).astype(np.float32)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax, computed and returned in float64."""
    x64 = np.asarray(x, dtype=np.float64)
    if not -x64.ndim <= axis < x64.ndim:
        raise ShapeError(f"softmax: axis {axis} out of range for rank {x64.ndim}")
    m = np.max(x64, axis=axis, keepdims=True)
    e = np.exp(x64 - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def bilinear_sample(fmap: np.ndarray, points) -> tuple[np.ndarray, np.ndarray]:
    """Sample a CHW map at continuous (x, y) pixel coordinates.

    Returns (values [P, C] float32, valid [P] bool). Points outside
    [0, W-1] x [0, H-1] produce zeros with valid=False; integer
    coordinates return exact grid values.
    """
    fmap = np.asarray(fmap)
    if fmap.ndim != 3:
        raise ShapeError(f"bilinear_sample: map must be rank-3 CHW, got rank {fmap.ndim}")
    c, h, w = fmap.shape
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    valid = (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)
    xc = np.clip(x, 0.0, w - 1.0)
    yc = np.clip(y, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(xc), w - 2 if w > 1 else 0).astype(np.int64)
    y0 = np.minimum(np.floor(yc), h - 2 if h > 1 else 0).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xc - x0
    fy = yc - y0
    f64 = np.asarray(fmap, dtype=np.float64)  # a float64 map is read in place, not copied
    v00 = f64[:, y0, x0]
    v01 = f64[:, y0, x1]
    v10 = f64[:, y1, x0]
    v11 = f64[:, y1, x1]
    top = v00 * (1.0 - fx) + v01 * fx
    bot = v10 * (1.0 - fx) + v11 * fx
    out = (top * (1.0 - fy) + bot * fy).T
    out[~valid] = 0.0
    return out.astype(np.float32), valid
