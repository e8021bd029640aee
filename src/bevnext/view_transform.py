"""Camera-to-BEV view transform: frustum lifting and sum pooling.

Forward projection in three steps: each feature pixel spawns one 3D point
per depth bin (a frustum of candidate positions, a float64 [H', W', K, 3]
array), image features are spread across those candidates weighted by the
per-pixel depth distribution (the float64 [K, H', W'] array ``modulate``
returns), and every candidate inside the grid's extent and the height
band [Z_MIN, Z_MAX] is sum-pooled into the ego-centric grid cell it falls
in. The scatter plan is precomputed once per geometry (PoolIndex): per
camera, one (source, cell) pair of index arrays in (pixel, depth bin)
order. ``lift`` computes only the plan's entries of a camera, in plan
order, so no [C, H', W', K] tensor is ever written. A frustum's position
in the list the plan is built from is its camera index, so frustum order
is camera, then pixel, then depth bin.

Accumulation contract: per cell and channel, pooling sums the cell's
entries in float64, sequentially in frustum order, then rounds to
float32 once, so pooled grids are bit-identical across runs and thread
counts. `np.bincount` with weights and `np.add.at` both add in index
order and keep it; `np.add.reduceat`, `ndarray.sum` along a contiguous
axis and `matmul`/BLAS sum pairwise or in blocks and would change the low
bits.

Camera axis convention: x right, y down, z forward in the camera frame.
The extrinsic transform maps camera-frame points into the ego frame.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from .depth_crf import DepthBins
from .errors import ShapeError

ROTATION_TOL = 1e-6
_LIFT_BLOCK_BYTES = 1 << 20  # float64 product buffer per lift call
_POOL_BLOCK_BYTES = 1 << 18  # float64 values per pool block
# Ego heights (m) the plan keeps. Every preset draws one world: ground at
# z = 0 and objects at most 1.2 m tall (scene._SIZE_RANGES), so points
# below the ground or above any object carry no surface. The floor is
# 0.75 m under the ground because a bin centre and a stride-16 pixel
# centre can push an object hit below it: at -0.25 m, full.cfg loses 8 of
# its 129 object-surface hits (seeds 0-2). Mass outside the band is
# dropped, not renormalised, as LSS (arXiv 2008.05625) drops it.
Z_MIN, Z_MAX = -0.75, 1.5


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus a rigid camera-to-ego transform."""

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if self.fx <= 0 or self.fy <= 0:
            raise ShapeError("CameraModel: focal lengths must be > 0")
        if r.shape != (3, 3):
            raise ShapeError(f"CameraModel: rotation must be 3x3, got {r.shape}")
        if t.shape != (3,):
            raise ShapeError(f"CameraModel: translation must be a 3-vector, got {t.shape}")
        if not np.isfinite(np.concatenate([[self.fx, self.fy, self.cx, self.cy], r.ravel(), t])).all():
            raise ShapeError("CameraModel: intrinsics, rotation and translation must be finite")
        if np.abs(r @ r.T - np.eye(3)).max() > ROTATION_TOL:
            raise ShapeError("CameraModel: rotation must be orthonormal within 1e-6")

    def ego_to_cam(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64) - self.translation
        return np.einsum("nj,ji->ni", p, self.rotation)

    def project(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Project ego-frame [N, 3] points to pixel (u, v) and depth.

        Depth is the camera-frame z coordinate; points at or behind the
        image plane (depth <= 0) yield non-finite or mirrored pixels, so
        callers must mask on the returned depth.
        """
        cam = self.ego_to_cam(points)
        z = cam[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.fx * cam[:, 0] / z + self.cx
            v = self.fy * cam[:, 1] / z + self.cy
        return np.stack([u, v], axis=1), z


@dataclass(frozen=True)
class BevSpec:
    """Square ego-centric grid: G x G cells covering [-L, L] in x and y."""

    g: int
    extent: float

    def __post_init__(self):
        if self.g < 8:
            raise ShapeError(f"BevSpec: grid size {self.g} below minimum 8")

    @property
    def cell_size(self) -> float:
        return 2.0 * self.extent / self.g


@dataclass(frozen=True)
class BevGrid:
    """Single-frame C-channel feature raster over the ego ground plane, [C, G, G].

    Only its values are checked: large finite weights can overflow float32.
    """

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float32)
        object.__setattr__(self, "data", d)
        if not np.isfinite(d).all():
            raise ShapeError("BevGrid: non-finite feature value")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def g(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class PoolIndex:
    """Scatter plan: for each camera, its in-bounds frustum points and the cells they add to.

    source[n] and cell[n] are camera n's intp arrays of one length, in
    (pixel, bin) order: source is the flat offset pixel * K + bin of the
    point in the camera's [H', W', K] frustum, with pixel = row * W' + col;
    cell is the flat BEV cell iy * G + ix. Camera n is the n-th frustum
    the plan was built from. The ranges are checked once, here, on
    read-only copies.
    """

    g: int
    feat_shape: Tuple[int, int, int]
    source: Tuple[np.ndarray, ...]
    cell: Tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "feat_shape", tuple(int(v) for v in self.feat_shape))
        for name in ("source", "cell"):
            arrays = tuple(np.array(a, dtype=np.intp) for a in getattr(self, name))
            for a in arrays:
                a.flags.writeable = False  # pool trusts the ranges checked below
            object.__setattr__(self, name, arrays)
        if len(self.source) != len(self.cell):
            raise ShapeError(f"PoolIndex: {len(self.source)} source arrays but {len(self.cell)} cell arrays")
        h, w, k = self.feat_shape
        for n, (src, cell) in enumerate(zip(self.source, self.cell)):
            if src.ndim != 1 or src.shape != cell.shape:
                raise ShapeError(f"PoolIndex: camera {n}'s source and cell arrays differ in length")
            if not src.size:
                continue
            if min(src.min(), cell.min()) < 0:
                raise ShapeError(f"PoolIndex: camera {n} has a negative entry")
            if src.max() >= h * w * k:
                raise ShapeError(f"PoolIndex: camera {n} has a source outside the H'*W'*K = {h * w * k} slots")
            if cell.max() >= self.g * self.g:
                raise ShapeError(f"PoolIndex: camera {n} has a cell outside the G*G = {self.g * self.g} cells")

    @property
    def n_cameras(self) -> int:
        return len(self.source)

    @property
    def entry_count(self) -> int:
        return sum(src.size for src in self.source)


def build_frustum(cam: CameraModel, feat_h: int, feat_w: int, stride: int, bins: DepthBins) -> np.ndarray:
    """Ego-frame point of every (feature pixel, depth bin) pair, float64 [H', W', K, 3].

    Feature pixel (row, col) covers image pixels [row*stride, (row+1)*stride);
    its center (u, v) = ((col + 0.5) * stride, (row + 0.5) * stride) is pushed
    through the inverse intrinsics at each bin center depth, then through the
    camera-to-ego transform. Its inputs are finite: CameraModel and
    DepthBins refuse anything else.
    """
    u = (np.arange(feat_w, dtype=np.float64) + 0.5) * stride
    v = (np.arange(feat_h, dtype=np.float64) + 0.5) * stride
    d = bins.centers
    x = (u[None, :, None] - cam.cx) / cam.fx * d[None, None, :]
    y = (v[:, None, None] - cam.cy) / cam.fy * d[None, None, :]
    z = np.broadcast_to(d[None, None, :], (feat_h, feat_w, bins.k))
    pts_cam = np.stack(np.broadcast_arrays(x, y, z), axis=-1)
    return np.einsum("hwkj,ij->hwki", pts_cam, cam.rotation) + cam.translation


def lift(features: np.ndarray, depth: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Features spread over the plan's depth bins: out[c, e] = f[c, pixel_e] * p[bin_e, pixel_e].

    ``depth`` is the float64 [K, H', W'] distribution array ``modulate``
    returns; ``source`` is one camera's plan entries (PoolIndex.source[n]),
    each the offset pixel * K + bin. Returns float32 [C, len(source)] in
    plan order. Each product has the bits of ``np.einsum("chw,khw->chwk")``:
    the float64 product plus 0.0 (einsum adds it to a zeroed output, so a
    negative feature times a zero probability is +0.0, where a plain
    product is -0.0), rounded to float32 once. Channels go in blocks of at
    most _LIFT_BLOCK_BYTES of float64 products.
    """
    f = np.asarray(features, dtype=np.float32)
    if f.ndim != 3:
        raise ShapeError(f"lift: features must be [C, H', W'], got rank {f.ndim}")
    c, h, w = f.shape
    k = depth.shape[0]
    if depth.shape[1:] != (h, w):
        raise ShapeError(f"lift: depth dims {depth.shape[1:]} != feature dims {(h, w)}")
    pixel, bin_ = np.divmod(source, k)
    prob = depth.reshape(k, -1)[bin_, pixel]
    flat = f.reshape(c, -1)
    out = np.empty((c, len(prob)), dtype=np.float32)
    block = max(1, _LIFT_BLOCK_BYTES // max(1, 8 * len(prob)))
    buf = np.empty((min(block, c), len(prob)))
    for c0 in range(0, c, block):
        part = buf[: min(block, c - c0)]
        np.multiply(flat[c0 : c0 + block, pixel], prob, out=part)
        part += 0.0
        out[c0 : c0 + block] = part
    return out


def precompute_pool_index(frusta: Sequence[np.ndarray], spec: BevSpec) -> PoolIndex:
    """Per-camera scatter plan from frustum geometry; reusable across frames.

    frusta[n] is camera n's [H', W', K, 3] points from ``build_frustum``;
    there is at least one, and all have the shape of the first. Each
    camera keeps its points inside the extent and with ego z in [Z_MIN,
    Z_MAX], in (pixel, bin) order; the others are dropped here, never
    lifted or pooled. Cameras that see the same cell all add to it.
    """
    h, w, k = frusta[0].shape[:3]
    sources, cells = [], []
    for f in frusta:
        x = f[..., 0].reshape(-1)
        y = f[..., 1].reshape(-1)
        ix = np.floor((x + spec.extent) / spec.cell_size).astype(np.intp)
        iy = np.floor((y + spec.extent) / spec.cell_size).astype(np.intp)
        z = f[..., 2].reshape(-1)
        ok = (ix >= 0) & (ix < spec.g) & (iy >= 0) & (iy < spec.g) & (z >= Z_MIN) & (z <= Z_MAX)
        sources.append(np.flatnonzero(ok))
        cells.append((iy * spec.g + ix)[ok])
    return PoolIndex(spec.g, (h, w, k), tuple(sources), tuple(cells))


def pool(lifted: Iterable[np.ndarray], index: PoolIndex) -> BevGrid:
    """Sum-pool lifted plan entries into the BEV grid.

    Iterates the cameras in camera order, from any iterable yielding
    camera n's float32 [C, E_n] ``lift`` output for source[n], and reads
    each in full before it asks for the next. Per block of channels (at
    most _POOL_BLOCK_BYTES of float64 values), one `np.add.at` adds the
    values, widened, along cell[n] onto the flat float64 [C, G*G]
    accumulator channel by channel in entry order, rounded to float32
    once. So each cell sums its entries sequentially in frustum order,
    whatever the threading; `np.add.reduceat`, `.sum`, `matmul` or a
    per-camera `np.bincount` onto the running sums would change the bits.
    """
    n_cells = index.g * index.g
    stale = f"pool: stale index (built for cameras={index.n_cameras}, dims={index.feat_shape})"
    acc, n = None, -1
    for n, camera in enumerate(lifted):
        f = np.asarray(camera, dtype=np.float32)
        if acc is None:
            acc = np.zeros(f.shape[:1] + (n_cells,))  # float64 running sums, [C, G*G]
        if n == index.n_cameras or f.shape != (len(acc), index.cell[n].size):
            raise ShapeError(f"{stale}; got camera {n} of shape {f.shape}; rebuild the index")
        cell = index.cell[n]
        block = max(1, _POOL_BLOCK_BYTES // max(1, 8 * cell.size))
        into = cell + np.arange(0, min(block, len(acc)) * n_cells, n_cells)[:, None]
        for c0 in range(0, len(acc), block):
            vals = f[c0 : c0 + block].astype(np.float64)
            np.add.at(acc.reshape(-1)[c0 * n_cells :], into[: len(vals)].reshape(-1), vals.reshape(-1))
    if acc is None or n + 1 != index.n_cameras:
        raise ShapeError(f"{stale}; got {n + 1} cameras; rebuild the index")
    return BevGrid(acc.astype(np.float32).reshape(-1, index.g, index.g))
