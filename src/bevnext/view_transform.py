"""Camera-to-BEV view transform: frustum lifting and sum pooling.

Forward projection in three steps: each feature pixel spawns one 3D point
per depth bin (a frustum of candidate positions), image features are spread
across those candidates weighted by the per-pixel depth distribution, and
every in-bounds candidate is sum-pooled into the ego-centric grid cell it
falls in. The scatter plan is precomputed once per geometry (PoolIndex)
and kept in frustum order: camera index, then pixel, then depth bin.

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
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .depth_crf import DepthBins, DepthVolume
from .errors import ShapeError

ROTATION_TOL = 1e-6
_LIFT_BLOCK_BYTES = 1 << 20  # float64 product buffer per lift call


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
class CameraRig:
    """Ordered set of cameras sharing one ego frame."""

    cameras: Tuple[CameraModel, ...]

    def __post_init__(self):
        object.__setattr__(self, "cameras", tuple(self.cameras))
        if not self.cameras:
            raise ShapeError("CameraRig: at least one camera required")

    def __len__(self) -> int:
        return len(self.cameras)

    def __iter__(self):
        return iter(self.cameras)

    def __getitem__(self, i: int) -> CameraModel:
        return self.cameras[i]


@dataclass(frozen=True)
class BevSpec:
    """Square ego-centric grid: G x G cells covering [-L, L] in x and y."""

    g: int
    cell_size: float
    extent: float

    def __post_init__(self):
        if self.g < 8:
            raise ShapeError(f"BevSpec: grid size {self.g} below minimum 8")
        if abs(self.g * self.cell_size - 2.0 * self.extent) > 1e-9:
            raise ShapeError(
                f"BevSpec: g * cell_size = {self.g * self.cell_size} must equal 2 * extent = {2 * self.extent}"
            )

    @classmethod
    def square(cls, g: int, extent: float) -> "BevSpec":
        return cls(g, 2.0 * extent / g, extent)

    @property
    def n_cells(self) -> int:
        return self.g * self.g


@dataclass(frozen=True)
class FrustumGrid:
    """Ego-frame 3D point of every (feature pixel, depth bin) pair, [H', W', K, 3]."""

    camera: int
    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", p)
        if p.ndim != 4 or p.shape[3] != 3:
            raise ShapeError(f"FrustumGrid: points must be [H', W', K, 3], got {p.shape}")
        if self.camera < 0:
            raise ShapeError("FrustumGrid: camera index must be >= 0")
        if not np.isfinite(p).all():
            raise ShapeError("FrustumGrid: non-finite point coordinate")


@dataclass(frozen=True)
class BevGrid:
    """Single-frame C-channel feature raster over the ego ground plane, [C, G, G]."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float32)
        object.__setattr__(self, "data", d)
        if d.ndim != 3:
            raise ShapeError(f"BevGrid: data must be rank-3 [C, G, G], got rank {d.ndim}")
        if d.shape[1] != d.shape[2]:
            raise ShapeError(f"BevGrid: grid must be square, got {d.shape[1]}x{d.shape[2]}")
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
    """Scatter plan in frustum order: every in-bounds (camera, pixel, bin) entry and its cell.

    Entries run in ascending camera index, then pixel, then bin, so the
    entries of any one cell keep that order too. Per-entry source
    coordinates index into a [n_cameras, C, H', W', K] lifted feature
    stack; entry_cell is the flat BEV cell (iy * G + ix) each one adds to.
    """

    g: int
    n_cameras: int
    feat_shape: Tuple[int, int, int]
    entry_cell: np.ndarray
    entry_camera: np.ndarray
    entry_pixel: np.ndarray
    entry_bin: np.ndarray

    def __post_init__(self):
        for name in ("entry_cell", "entry_camera", "entry_pixel", "entry_bin"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.uint32))
        object.__setattr__(self, "feat_shape", tuple(int(v) for v in self.feat_shape))
        m = self.entry_count
        if self.entry_camera.size != m or self.entry_pixel.size != m or self.entry_bin.size != m:
            raise ShapeError("PoolIndex: entry arrays must have one length")
        if m and int(self.entry_cell.max()) >= self.g * self.g:
            raise ShapeError(f"PoolIndex: entry cell outside the G*G = {self.g * self.g} cells")

    @property
    def entry_count(self) -> int:
        return int(self.entry_cell.size)


def build_frustum(
    cam: CameraModel,
    feat_h: int,
    feat_w: int,
    stride: int,
    bins: DepthBins,
    camera: int = 0,
) -> FrustumGrid:
    """Ego-frame point of every (feature pixel, depth bin) pair.

    Feature pixel (row, col) covers image pixels [row*stride, (row+1)*stride);
    its center (u, v) = ((col + 0.5) * stride, (row + 0.5) * stride) is pushed
    through the inverse intrinsics at each bin center depth, then through the
    camera-to-ego transform.
    """
    u = (np.arange(feat_w, dtype=np.float64) + 0.5) * stride
    v = (np.arange(feat_h, dtype=np.float64) + 0.5) * stride
    d = bins.centers
    x = (u[None, :, None] - cam.cx) / cam.fx * d[None, None, :]
    y = (v[:, None, None] - cam.cy) / cam.fy * d[None, None, :]
    z = np.broadcast_to(d[None, None, :], (feat_h, feat_w, bins.k))
    pts_cam = np.stack(np.broadcast_arrays(x, y, z), axis=-1)
    ego = np.einsum("hwkj,ij->hwki", pts_cam, cam.rotation) + cam.translation
    return FrustumGrid(camera, ego)


def lift(features: np.ndarray, depth: DepthVolume, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Spread [C, H', W'] features over depth bins: out[c,u,v,d] = f[c,u,v] * p[d,u,v].

    The float32 result goes into ``out`` when given (a [C, H', W', K]
    float32 array, e.g. one camera's slot of a preallocated stack), which
    is returned; otherwise into a new array. The float64 product is
    ``np.einsum("chw,khw->chwk")`` run over blocks of channels, each into
    one buffer of at most _LIFT_BLOCK_BYTES and cast into ``out``, so no
    float64 product of the whole tensor exists. einsum adds each product
    to a zeroed output, so a negative feature times a zero probability
    is +0.0; ``np.multiply`` would write -0.0 there.
    """
    f = np.asarray(features, dtype=np.float32)
    if f.ndim != 3:
        raise ShapeError(f"lift: features must be [C, H', W'], got rank {f.ndim}")
    c, h, w = f.shape
    if (depth.height, depth.width) != (h, w):
        raise ShapeError(
            f"lift: depth dims {depth.height}x{depth.width} != feature dims {h}x{w}"
        )
    shape = (c, h, w, depth.k)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    elif out.shape != shape or out.dtype != np.float32:
        raise ShapeError(f"lift: out must be float32 {shape}, got {out.dtype} {out.shape}")
    block = max(1, _LIFT_BLOCK_BYTES // max(1, 8 * h * w * depth.k))
    buf = np.empty((min(block, c), h, w, depth.k), dtype=np.float64)
    for c0 in range(0, c, block):
        part = buf[: min(block, c - c0)]
        np.einsum("chw,khw->chwk", f[c0 : c0 + block].astype(np.float64), depth.probs, out=part)
        np.copyto(out[c0 : c0 + block], part, casting="same_kind")
    return out


def precompute_pool_index(
    frusta: Union[FrustumGrid, Sequence[FrustumGrid]],
    spec: BevSpec,
) -> PoolIndex:
    """Frustum-order scatter plan from frustum geometry; reusable across frames.

    Frusta from all cameras share one index, taken in ascending camera
    index whatever order they come in; overlapping cells accumulate.
    Out-of-extent points are dropped here, never at pool time.
    """
    if isinstance(frusta, FrustumGrid):
        frusta = [frusta]
    frusta = sorted(frusta, key=lambda f: f.camera)
    if not frusta:
        raise ShapeError("precompute_pool_index: at least one frustum required")
    h, w, k, _ = frusta[0].points.shape
    seen = set()
    for f in frusta:
        if f.points.shape != (h, w, k, 3):
            raise ShapeError(
                f"precompute_pool_index: frustum dims {f.points.shape[:3]} != {(h, w, k)}"
            )
        if f.camera in seen:
            raise ShapeError(f"precompute_pool_index: duplicate camera index {f.camera}")
        seen.add(f.camera)

    cells, cams, sources = [], [], []
    flat = np.arange(h * w * k, dtype=np.int64)
    for f in frusta:
        x = f.points[..., 0].reshape(-1)
        y = f.points[..., 1].reshape(-1)
        ix = np.floor((x + spec.extent) / spec.cell_size).astype(np.int64)
        iy = np.floor((y + spec.extent) / spec.cell_size).astype(np.int64)
        ok = (ix >= 0) & (ix < spec.g) & (iy >= 0) & (iy < spec.g)
        cells.append((iy * spec.g + ix)[ok])
        cams.append(np.full(int(ok.sum()), f.camera, dtype=np.int64))
        sources.append(flat[ok])
    source = np.concatenate(sources)
    return PoolIndex(
        g=spec.g,
        n_cameras=frusta[-1].camera + 1,
        feat_shape=(h, w, k),
        entry_cell=np.concatenate(cells),
        entry_camera=np.concatenate(cams),
        entry_pixel=source // k,
        entry_bin=source % k,
    )


def pool(frustum_features: np.ndarray, index: PoolIndex, spec: BevSpec) -> BevGrid:
    """Sum-pool lifted features into the BEV grid along the precomputed plan.

    Accepts [C, H', W', K] (single camera) or [N, C, H', W', K]. Each cell
    accumulates its entries in float64, sequentially in frustum order,
    then rounds to float32 once, so results are bit-identical regardless of
    threading. Per channel, the entries' values are gathered straight from
    the float32 stack (front to back, since the plan is in frustum order),
    widened, and summed by `np.bincount`, whose loop adds in entry order;
    only [entries] float64 values exist at a time, never a float64 copy of
    the stack. Reordering primitives (`np.add.reduceat`, `.sum`, `matmul`)
    would break the contract.
    """
    f = np.asarray(frustum_features, dtype=np.float32)
    if f.ndim == 4:
        f = f[None]
    if f.ndim != 5:
        raise ShapeError(f"pool: features must be [N, C, H', W', K], got rank {f.ndim}")
    n, c, h, w, k = f.shape
    if spec.g != index.g or (h, w, k) != index.feat_shape or n != index.n_cameras:
        raise ShapeError(
            f"pool: stale index (built for cameras={index.n_cameras}, dims={index.feat_shape}, "
            f"G={index.g}; got cameras={n}, dims={(h, w, k)}, G={spec.g}); rebuild the index"
        )
    if index.entry_count and (
        int(index.entry_camera.max()) >= n
        or int(index.entry_pixel.max()) >= h * w
        or int(index.entry_bin.max()) >= k
    ):
        raise ShapeError("pool: index entry outside the cameras, pixels or bins of its dims")
    flat = f.reshape(-1)
    volume = h * w * k  # one channel of one camera
    src = (  # channel 0; channel ch reads the same offsets past ch * volume
        index.entry_camera.astype(np.int64) * (c * volume)
        + index.entry_pixel.astype(np.int64) * k
        + index.entry_bin.astype(np.int64)
    )
    cells = index.entry_cell.astype(np.intp)
    out = np.empty((c, spec.n_cells), dtype=np.float32)
    for ch in range(c):
        vals = np.take(flat[ch * volume:], src).astype(np.float64)
        out[ch] = np.bincount(cells, weights=vals, minlength=spec.n_cells)
    return BevGrid(out.reshape(c, spec.g, spec.g))
