"""Deterministic neural-numeric primitives shared by every stage.

All operations are pure functions over numpy arrays. Feature tensors use
NCHW layout and float32 storage; accumulations run in float64 with a fixed
loop nesting (``np.einsum`` without ``optimize``, which never dispatches to
BLAS), so results are bit-identical across runs and thread counts.

``conv2d`` fixes the order of every output element's sum: for each tap in
(ky, kx) order, a float64 tap sum starts at zero and adds
w[o, i, ky, kx] * x[i] for i = 0..C-1 one by one; that tap sum is added to
the accumulator, the bias is added last, and the result is cast to float32
once. An einsum's reduction order can depend on the memory layout of its
operands: when the reduced axis is innermost and contiguous in both inputs,
einsum switches to a vectorised dot product that sums out of order. Any
layout change to an einsum therefore needs a bit-identity test against a
sequential oracle (``tests/test_kernels.py`` has one for ``conv2d``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

_MASK64 = 0xFFFFFFFFFFFFFFFF


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
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform float64 in [0, 1), 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_array(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        vals = np.empty(n, dtype=np.float64)
        for i in range(n):
            vals[i] = self.uniform()
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
    """Per-layer weights [out, in], biases [out], activation tag per layer."""

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    activations: list = field(default_factory=list)

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ShapeError("MlpSpec: weights/biases/activations length mismatch")
        if not self.weights:
            raise ShapeError("MlpSpec: at least one layer required")
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if w.ndim != 2:
                raise ShapeError(f"MlpSpec: layer {i} weight must be 2-D")
            if b.shape != (w.shape[0],):
                raise ShapeError(f"MlpSpec: layer {i} bias axis 0 must equal {w.shape[0]}")
            if act not in ("relu", "identity"):
                raise ShapeError(f"MlpSpec: layer {i} has unknown activation '{act}'")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ShapeError(
                    f"MlpSpec: layer {i} input width {w.shape[1]} != layer {i - 1} output width "
                    f"{self.weights[i - 1].shape[0]}"
                )

    @property
    def in_width(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_width(self) -> int:
        return self.weights[-1].shape[0]


# Input bytes per conv2d block: one block's tap window stays in a core's L2
# cache while every output channel passes over it.
_CONV_BLOCK_BYTES = 1 << 18


def conv2d(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Strided 2D convolution on an NCHW float32 tensor.

    Output spatial dims follow (H + 2p - k) // s + 1. Each output element
    is summed in float64 in one fixed order: taps in (ky, kx) order; within
    a tap, w[o, i, ky, kx] * x[i] for input channels i = 0..C-1 in order,
    starting from zero; each tap sum added to the running total; then the
    bias; then one rounding to float32. No reassociation, hence
    bit-determinism.
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
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=np.float64)
    xp[:, :, p : p + h, p : p + w] = x
    wt = spec.weight.astype(np.float64)
    acc = np.zeros((n, spec.out_channels, ho, wo), dtype=np.float64)
    # Output rows go in blocks whose input window fits in cache, and each
    # tap's window of a block is copied into one buffer, so the einsum runs
    # contiguous loops over (rows, wo) on cached data. Blocks hold disjoint
    # outputs, so every output keeps its order of taps and channels. The
    # spare element per channel keeps the channel axis non-contiguous: with
    # a one-pixel output that axis would be innermost, and einsum would sum
    # it with its out-of-order dot kernel.
    rows = max(1, min(ho, _CONV_BLOCK_BYTES // max(1, 8 * n * c * wo)))
    buf = np.empty((n, c, rows * wo + 1), dtype=np.float64)[:, :, : rows * wo].reshape(n, c, rows, wo)
    for r0 in range(0, ho, rows):
        r = min(rows, ho - r0)
        win = buf[:, :, :r]
        out = acc[:, :, r0 : r0 + r]
        for ky in range(k):
            y0 = ky + r0 * s
            for kx in range(k):
                np.copyto(win, xp[:, :, y0 : y0 + (r - 1) * s + 1 : s, kx : kx + (wo - 1) * s + 1 : s])
                out += np.einsum("oi,nihw->nohw", wt[:, :, ky, kx], win)
    acc += spec.bias.astype(np.float64)[:, None, None]
    return acc.astype(np.float32)


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
    f64 = fmap.astype(np.float64)
    v00 = f64[:, y0, x0]
    v01 = f64[:, y0, x1]
    v10 = f64[:, y1, x0]
    v11 = f64[:, y1, x1]
    top = v00 * (1.0 - fx) + v01 * fx
    bot = v10 * (1.0 - fx) + v11 * fx
    out = (top * (1.0 - fy) + bot * fy).T
    out[~valid] = 0.0
    return out.astype(np.float32), valid
