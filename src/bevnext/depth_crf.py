"""CRF modulation of per-pixel depth distributions.

Depth estimation is treated as classification over K metric bins. The raw
network output is softmaxed into per-pixel distributions, then refined by
T synchronous mean-field steps of the fully connected CRF of Kraehenbuehl
& Koltun (arXiv 1210.5644, eq. 3) with a Potts label compatibility: two
cells pay their coupling a(i, j) when their bins differ, whatever the
distance between the bins. The coupling is one bilateral kernel over
feature cells, exp(-|p_i - p_j|^2 / (2 * 3.0^2)) * exp(-|rgb_i - rgb_j|^2
/ (2 * 0.1^2)), with positions in feature cells and colors the mean patch
RGB, so nearby cells of similar color prefer equal depth bins.

Under Potts, a neighborhood's message is the same for every bin when its
distributions are uniform, so a cell without depth evidence stays
uniform: the CRF spreads depth that the unary holds, and invents none.

Depth distributions are plain float64 [K, H', W'] arrays, bin axis
first: ``modulate`` returns one per camera, and ``lift``, the decoder's
depth embedding and the depth dump read it as it is. The unary cost of a
probability p is -log(p + 1e-12). Pairwise sums follow the ordered-pair
convention (each unordered pair counted twice), which only scales the
energy and is applied consistently in both the energy and the messages.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .kernels import softmax

UNARY_EPS = 1e-12
MAX_ITERS = 64
APPEARANCE_THETA = 0.1  # over mean patch RGB
SPATIAL_THETA = 3.0  # over feature-cell coordinates


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
        if not np.isfinite(np.append(c, (self.d_min, self.d_max))).all():
            raise ShapeError("DepthBins: centers, d_min and d_max must be finite")
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


@functools.lru_cache(maxsize=8)
def _spatial_term(height: int, width: int) -> np.ndarray:
    """exp(-d^2 / (2 SPATIAL_THETA^2)) over squared cell-coordinate distances.

    It depends only on the grid, so every camera pass of a run shares one
    read-only copy.
    """
    rows, cols = np.divmod(np.arange(height * width, dtype=np.float64), width)
    term, dc = np.subtract.outer(rows, rows), np.subtract.outer(cols, cols)
    term *= term
    term += np.square(dc, out=dc)
    term /= -(2.0 * SPATIAL_THETA * SPATIAL_THETA)  # exact integer d^2; -x / y == x / -y
    np.exp(term, out=term)
    term.flags.writeable = False
    return term


def pairwise_affinity(colors: np.ndarray) -> np.ndarray:
    """Dense pairwise coupling a(i, j) over flattened feature cells, [n, n] float64.

    `colors` is the [H, W, 3] mean patch RGB. a(i, j) is the bilateral
    kernel exp(-|rgb_i - rgb_j|^2 / (2 APPEARANCE_THETA^2)) times the cached
    spatial kernel over squared cell-coordinate distance, multiplied in that
    order. The diagonal is zero (no cell couples to itself).
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
    a *= _spatial_term(h, w)
    np.fill_diagonal(a, 0.0)
    return a


def unary_from_probs(probs: np.ndarray) -> np.ndarray:
    """Unary potentials -log(p + eps), shape preserved."""
    return -np.log(np.asarray(probs, dtype=np.float64) + UNARY_EPS)


def mean_field_step(q: np.ndarray, unary: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """One synchronous (Jacobi) mean-field update.

    Q'_i(a) ~ exp(-unary(i, a) - sum_{j != i} a(i, j) * (1 - Q_j(a))), the
    Potts message, normalized per pixel. Its sum_j a(i, j) is the same for
    every bin and cancels in the normalization, leaving
    softmax(coupling @ Q - unary). All messages read the previous iterate,
    so the update is order-independent and safe to parallelize over pixels.
    `q` is the [K, H, W] iterate; the new one is returned in float64.
    """
    k, h, w = q.shape
    n = h * w
    if coupling.shape != (n, n):
        raise ShapeError(f"mean_field_step: coupling is {coupling.shape}, expected {(n, n)}")
    # One float64 OpenBLAS GEMM sums over j; its order is the library's, the
    # same for any thread count (see the kernels module docstring).
    logits = coupling @ q.reshape(k, n).T  # [N, K]
    logits -= unary.reshape(k, n).T
    return softmax(logits, axis=1).T.reshape(k, h, w)


def modulate(
    logits: np.ndarray,
    image: np.ndarray,
    bins: DepthBins,
    iters: int,
) -> np.ndarray:
    """Softmax the depth logits and run `iters` mean-field refinement steps.

    Returns the float64 [K, H', W'] per-pixel depth distributions. The
    logits must be finite, which makes every distribution finite,
    non-negative and summing to 1. `iters` must lie in [0, MAX_ITERS];
    0 returns softmax(logits) unchanged. The coupling is
    `pairwise_affinity` of the image's patch colors, and the unary stays
    fixed at -log softmax(logits) across iterations.
    """
    if not 0 <= iters <= MAX_ITERS:
        raise ShapeError(f"modulate: iters must be in [0, {MAX_ITERS}], got {iters}")
    lg = np.asarray(logits)
    if lg.ndim != 3:
        raise ShapeError(f"modulate: logits must be [K, H', W'], got rank {lg.ndim}")
    k, h, w = lg.shape
    if k != bins.k:
        raise ShapeError(f"modulate: logits bin axis {k} != bins.k {bins.k}")
    if not np.isfinite(lg).all():
        raise ShapeError("modulate: non-finite depth logit")
    probs = softmax(lg, axis=0)
    if iters == 0:
        return probs
    ih, iw = np.asarray(image).shape[:2]
    if ih % h or iw % w:
        raise ShapeError(f"modulate: image dims {ih}x{iw} not an integer multiple of feature dims {h}x{w}")
    stride = ih // h
    if iw // w != stride:
        raise ShapeError(f"modulate: inconsistent stride between axes ({ih}/{h} vs {iw}/{w})")
    colors = patch_colors(image, stride)
    coupling = pairwise_affinity(colors)
    unary = unary_from_probs(probs)
    for _ in range(iters):
        probs = mean_field_step(probs, unary, coupling)
    return probs


def map_labeling(probs: np.ndarray) -> np.ndarray:
    """Per-pixel argmax bin of [K, H, W] probabilities; ties break toward the lower index."""
    return np.argmax(probs, axis=0)
