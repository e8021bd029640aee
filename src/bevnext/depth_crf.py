"""CRF modulation of per-pixel depth distributions.

Depth estimation is treated as classification over K metric bins. The raw
network output is softmaxed into per-pixel distributions, then refined by
T synchronous mean-field steps whose pairwise coupling prefers equal depth
bins for pixels with similar patch colors. The coupling is the dense-CRF
kernel pair of Kraehenbuehl & Koltun (arXiv 1210.5644), fixed here: an
appearance kernel over mean patch RGB (weight 1.0, theta 0.1) plus a
spatial smoothness kernel over feature-cell coordinates (weight 0.3,
theta 3.0). Label compatibility between two bins is the metric distance of
their centers, so large depth disagreements between similar-looking
pixels cost more than small ones.

With no depth evidence this CRF does not stay uniform: zero logits on
scene seed 0, camera 0, after 5 steps end at p ~ 0.5 on bins 3 and 4 of 8
(0-based) at desk.cfg and at p = 1.0 on bin 29 of 59 at full.cfg. ROADMAP
item 1 plans the replacement.

All distributions in this module are float64; the unary cost of a
probability p is -log(p + 1e-12). Pairwise sums follow the ordered-pair
convention (each unordered pair counted twice), which only scales the
energy and is applied consistently in both the energy and the messages.

A mean-field step sets every probability below the smallest normal
float64 (``np.finfo(np.float64).tiny``, about 2.2e-308) to 0, because
subnormal operands make the next step's einsum several times slower.
This is a numerics decision: only those entries change, and the pinned
CRF and pipeline digests stay the same.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .kernels import softmax

UNARY_EPS = 1e-12
MAX_ITERS = 64
APPEARANCE_WEIGHT, APPEARANCE_THETA = 1.0, 0.1  # over mean patch RGB
SPATIAL_WEIGHT, SPATIAL_THETA = 0.3, 3.0  # over feature-cell coordinates


@dataclass(frozen=True)
class DepthBins:
    """K discrete depth bins with strictly increasing metric centers."""

    centers: np.ndarray
    d_min: float
    d_max: float

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.float64)
        object.__setattr__(self, "centers", c)
        if c.ndim != 1 or c.size < 2:
            raise ShapeError("DepthBins: need at least 2 centers")
        if not (np.diff(c) > 0).all():
            raise ShapeError("DepthBins: centers must be strictly increasing")
        if c[0] < self.d_min or c[-1] > self.d_max:
            raise ShapeError("DepthBins: centers must lie within [d_min, d_max]")

    @property
    def k(self) -> int:
        return int(self.centers.size)

    @classmethod
    def uniform(cls, k: int, d_min: float, d_max: float) -> "DepthBins":
        """Evenly spaced centers at d_min + i * (d_max - d_min) / k."""
        step = (d_max - d_min) / k
        return cls(d_min + step * np.arange(k), d_min, d_max)


@dataclass
class DepthVolume:
    """Per-pixel categorical distribution over depth bins, shape [K, H, W]."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        if p.ndim != 3:
            raise ShapeError(f"DepthVolume: probs must be rank-3 [K, H, W], got rank {p.ndim}")
        if (p < 0).any():
            raise ShapeError("DepthVolume: negative probability entry")
        sums = p.sum(axis=0)
        # A NaN compares False both ways: test "within 1e-6" and negate it.
        if not (np.abs(sums - 1.0) <= 1e-6).all():
            raise ShapeError("DepthVolume: per-pixel probabilities must sum to 1 within 1e-6")

    @property
    def k(self) -> int:
        return self.probs.shape[0]

    @property
    def height(self) -> int:
        return self.probs.shape[1]

    @property
    def width(self) -> int:
        return self.probs.shape[2]


def patch_colors(image: np.ndarray, stride: int) -> np.ndarray:
    """Mean RGB of every stride x stride patch of an [H, W, 3] image, [H', W', 3] float64."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ShapeError("patch_colors: image must be [H, W, 3]")
    h, w, _ = img.shape
    if h % stride or w % stride:
        raise ShapeError(
            f"patch_colors: image dims {h}x{w} not divisible by stride {stride}; crop the input first"
        )
    # One row per patch offset in raster order, added row after row: mean(axis=(1, 3))'s bits.
    block = img.reshape(h // stride, stride, w // stride, stride, 3).transpose(1, 3, 0, 2, 4)
    return (np.add.reduce(block.reshape(stride**2, -1), axis=0) / stride**2).reshape(block.shape[2:])


def build_compat(bins: DepthBins) -> np.ndarray:
    """Label compatibility: metric distance |c_a - c_b| between bin centers."""
    c = bins.centers
    return np.abs(c[:, None] - c[None, :])


@functools.lru_cache(maxsize=8)
def _spatial_term(height: int, width: int) -> np.ndarray:
    """SPATIAL_WEIGHT * exp(-d^2 / (2 SPATIAL_THETA^2)) over squared cell-coordinate distances.

    It depends only on the grid, so every camera pass of a run shares one
    read-only copy.
    """
    rows, cols = np.divmod(np.arange(height * width, dtype=np.float64), width)
    term, dc = np.subtract.outer(rows, rows), np.subtract.outer(cols, cols)
    term *= term
    term += np.square(dc, out=dc)
    term /= -(2.0 * SPATIAL_THETA * SPATIAL_THETA)  # exact integer d^2; -x / y == x / -y
    np.multiply(np.exp(term, out=term), SPATIAL_WEIGHT, out=term)
    term.flags.writeable = False
    return term


def pairwise_affinity(colors: np.ndarray) -> np.ndarray:
    """Dense pairwise coupling a(i, j) over flattened feature cells, [n, n] float64.

    `colors` is the [H, W, 3] mean patch RGB. a(i, j) is the appearance
    kernel APPEARANCE_WEIGHT * exp(-|rgb_i - rgb_j|^2 / (2 APPEARANCE_THETA^2))
    plus the cached spatial kernel over squared cell-coordinate distance,
    added in that order. The diagonal is zero (no cell couples to itself).
    The array is new on every call and C-contiguous; the caller owns it.
    """
    c = np.asarray(colors, dtype=np.float64)
    if c.ndim != 3 or c.shape[2] != 3:
        raise ShapeError("pairwise_affinity: colors must be [H, W, 3]")
    h, w, _ = c.shape
    flat = c.reshape(h * w, 3)
    # (c0 + c2) + c1 is the order np.einsum("ijc,ijc->ij") sums the three
    # squared channel differences in, so the bits match the [n, n, 3] form.
    # Two [n, n] arrays, updated in place: a holds the sum, d each term.
    a, d = (np.subtract(flat[:, ch, None], flat[None, :, ch]) for ch in (0, 2))
    a *= a
    a += np.square(d, out=d)
    a += np.square(np.subtract(flat[:, 1, None], flat[None, :, 1], out=d), out=d)
    a /= -(2.0 * APPEARANCE_THETA * APPEARANCE_THETA)  # -x / y and x / -y are the same bits
    np.exp(a, out=a)
    a *= APPEARANCE_WEIGHT
    a += _spatial_term(h, w)
    np.fill_diagonal(a, 0.0)
    return a


def unary_from_probs(probs: np.ndarray) -> np.ndarray:
    """Unary potentials -log(p + eps), shape preserved."""
    return -np.log(np.asarray(probs, dtype=np.float64) + UNARY_EPS)


def crf_energy(labels: np.ndarray, unary: np.ndarray, coupling: np.ndarray, compat: np.ndarray) -> float:
    """Total energy of a hard bin assignment.

    E = sum_i unary(i, l_i) + sum_{i != j} a(i, j) * compat(l_i, l_j),
    the pairwise sum running over ordered pairs.
    """
    k = compat.shape[0]
    lab = np.asarray(labels).reshape(-1)
    if lab.min() < 0 or lab.max() >= k:
        raise ShapeError(f"crf_energy: label outside [0, {k})")
    n = lab.size
    u = np.asarray(unary, dtype=np.float64).reshape(k, n).T  # [N, K]
    e_unary = float(u[np.arange(n), lab].sum())
    pair_compat = compat[np.ix_(lab, lab)]
    e_pair = float((coupling * pair_compat).sum())
    return e_unary + e_pair


def mean_field_step(q: DepthVolume, unary: np.ndarray, coupling: np.ndarray, compat: np.ndarray) -> DepthVolume:
    """One synchronous (Jacobi) mean-field update.

    Q'_i(a) ~ exp(-unary(i, a) - sum_{j != i} a(i, j) * sum_b compat(a, b) Q_j(b)),
    normalized per pixel. All messages read the previous iterate, so the
    update is order-independent and safe to parallelize over pixels.
    """
    k, h, w = q.probs.shape
    n = h * w
    if coupling.shape != (n, n):
        raise ShapeError(f"mean_field_step: coupling is {coupling.shape}, expected {(n, n)}")
    qf = q.probs.reshape(k, n).T  # [N, K]
    expected = np.einsum("nb,ab->na", qf, compat)  # E_b compat(a,b) Q_j(b) per pixel
    # One float64 OpenBLAS GEMM sums over j; its order is the library's, the
    # same for any thread count (see the kernels module docstring).
    messages = coupling @ expected  # [N, K]
    logits = -(unary.reshape(k, n).T + messages)
    out = softmax(logits, axis=1)
    out[out < np.finfo(np.float64).tiny] = 0.0  # no subnormals (module docstring)
    return DepthVolume(out.T.reshape(k, h, w))


def modulate(
    logits: np.ndarray,
    image: np.ndarray,
    bins: DepthBins,
    iters: int,
) -> DepthVolume:
    """Softmax the depth logits and run `iters` mean-field refinement steps.

    `iters` must lie in [0, MAX_ITERS]; 0 returns softmax(logits)
    unchanged. The coupling is `pairwise_affinity` of the image's patch
    colors, and the unary stays fixed at -log softmax(logits) across
    iterations.
    """
    if not 0 <= iters <= MAX_ITERS:
        raise ShapeError(f"modulate: iters must be in [0, {MAX_ITERS}], got {iters}")
    lg = np.asarray(logits)
    if lg.ndim != 3:
        raise ShapeError(f"modulate: logits must be [K, H', W'], got rank {lg.ndim}")
    k, h, w = lg.shape
    if k != bins.k:
        raise ShapeError(f"modulate: logits bin axis {k} != bins.k {bins.k}")
    probs0 = softmax(lg, axis=0)
    vol = DepthVolume(probs0)
    if iters == 0:
        return vol
    ih, iw = np.asarray(image).shape[:2]
    if ih % h or iw % w:
        raise ShapeError(f"modulate: image dims {ih}x{iw} not an integer multiple of feature dims {h}x{w}")
    stride = ih // h
    if iw // w != stride:
        raise ShapeError(f"modulate: inconsistent stride between axes ({ih}/{h} vs {iw}/{w})")
    colors = patch_colors(image, stride)
    coupling = pairwise_affinity(colors)
    compat = build_compat(bins)
    unary = unary_from_probs(probs0)
    for _ in range(iters):
        vol = mean_field_step(vol, unary, coupling, compat)
    return vol


def map_labeling(q: DepthVolume) -> np.ndarray:
    """Per-pixel argmax bin index; ties break toward the lower index."""
    return np.argmax(q.probs, axis=0)
