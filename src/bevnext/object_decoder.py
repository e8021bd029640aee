"""Two-stage BEV object decoding.

Stage one proposes centers: a 3x3 conv plus sigmoid turns the fused BEV
grid into a per-class heatmap, and cells strictly above a threshold
become proposals. Stage two refines each proposal from the camera views:
the 7x7 BEV neighborhood of the center is cut out, the cell is lifted to
several candidate heights, each height is projected into every camera,
and deformable attention samples the image feature maps (optionally
shifted by a depth-distribution embedding) around the valid projections.
The attended result is a per-ROI residual broadcast over the whole patch.
Regression heads then decode center offset, size, yaw, height, and
velocity from the refined patch.

Heatmap scores are kept in float64 and clamped away from 0 and 1, so a
threshold comparison like score > 0.1 is exact and never flips due to
float32 rounding of the threshold value.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .depth_crf import DepthVolume
from .errors import FormatError, ShapeError
from .kernels import ConvSpec, MlpSpec, bilinear_sample, conv2d, mlp_forward, softmax
from .view_transform import BevGrid, BevSpec, CameraRig

ROI_SIZE = 7
N_QUERY_POSITIONS = ROI_SIZE * ROI_SIZE
CENTER_POSITION = N_QUERY_POSITIONS // 2
HEATMAP_CLAMP = 1e-12
YAW_PARSE_SLACK = 1e-6


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class Heatmap:
    """Per-class center scores over the BEV grid, every value in (0, 1)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 3:
            raise ShapeError(f"Heatmap: values must be [K_cls, G, G], got rank {v.ndim}")
        if v.shape[1] != v.shape[2]:
            raise ShapeError(f"Heatmap: grid must be square, got {v.shape[1]}x{v.shape[2]}")
        if v.size and (v.min() <= 0.0 or v.max() >= 1.0):
            raise ShapeError("Heatmap: values must lie in the open interval (0, 1)")

    @property
    def g(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CenterProposal:
    """One candidate object center: grid cell, class, heatmap score."""

    x: int
    y: int
    cls: int
    score: float


@dataclass(frozen=True)
class RoiSet:
    """Proposals with their 7x7 BEV patches and the learned position queries."""

    centers: np.ndarray
    classes: np.ndarray
    scores: np.ndarray
    patches: np.ndarray
    queries: np.ndarray

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.int64)
        classes = np.asarray(self.classes, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        patches = np.asarray(self.patches, dtype=np.float32)
        queries = np.asarray(self.queries, dtype=np.float32)
        for name, value in (
            ("centers", centers),
            ("classes", classes),
            ("scores", scores),
            ("patches", patches),
            ("queries", queries),
        ):
            object.__setattr__(self, name, value)
        n = centers.shape[0]
        if centers.ndim != 2 or centers.shape[1] != 2:
            raise ShapeError(f"RoiSet: centers must be [N, 2], got {centers.shape}")
        if classes.shape != (n,) or scores.shape != (n,):
            raise ShapeError("RoiSet: classes and scores must match the center count")
        if patches.ndim != 4 or patches.shape[0] != n or patches.shape[2:] != (ROI_SIZE, ROI_SIZE):
            raise ShapeError(f"RoiSet: patches must be [N, C, {ROI_SIZE}, {ROI_SIZE}], got {patches.shape}")
        if queries.ndim != 2 or queries.shape != (N_QUERY_POSITIONS, patches.shape[1]):
            raise ShapeError(
                f"RoiSet: queries must be [{N_QUERY_POSITIONS}, C={patches.shape[1]}], got {queries.shape}"
            )
        if n and (scores.min() <= 0.0 or scores.max() >= 1.0):
            raise ShapeError("RoiSet: scores must lie in (0, 1)")

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    @property
    def channels(self) -> int:
        return self.patches.shape[1]


@dataclass(frozen=True)
class RefPointSet:
    """Lifted 3D reference points per ROI, with per-camera projections.

    valid is False wherever the point sits behind the camera plane or
    projects outside the image rectangle.
    """

    points: np.ndarray
    uv: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        uv = np.asarray(self.uv, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "uv", uv)
        object.__setattr__(self, "valid", valid)
        if points.ndim != 3 or points.shape[2] != 3:
            raise ShapeError(f"RefPointSet: points must be [N, J, 3], got {points.shape}")
        n, j = points.shape[:2]
        if uv.ndim != 4 or uv.shape[0] != n or uv.shape[2] != j or uv.shape[3] != 2:
            raise ShapeError(f"RefPointSet: uv must be [N, n_cam, J, 2], got {uv.shape}")
        if valid.shape != uv.shape[:3]:
            raise ShapeError(f"RefPointSet: valid must be {uv.shape[:3]}, got {valid.shape}")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def n_cameras(self) -> int:
        return self.uv.shape[1]

    @property
    def n_heights(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class AttnSpec:
    """Deformable-attention parameters for ROI refinement.

    One attention head; for each of n_ref heights, n_points samples are
    taken at learned offsets around the projected reference point with
    softmax-normalized weights, both produced by linear projections of
    the query vector.
    """

    n_ref: int
    n_points: int
    w_offset: np.ndarray
    b_offset: np.ndarray
    w_weight: np.ndarray
    b_weight: np.ndarray
    w_value: np.ndarray
    b_value: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        for name in ("w_offset", "b_offset", "w_weight", "b_weight", "w_value", "b_value", "w_out", "b_out"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float32))
        if self.n_ref < 1 or self.n_points < 1:
            raise ShapeError("AttnSpec: n_ref and n_points must be >= 1")
        c = self.w_value.shape[1] if self.w_value.ndim == 2 else 0
        if self.w_value.shape != (c, c) or self.w_out.shape != (c, c):
            raise ShapeError("AttnSpec: value and output projections must be square [C, C]")
        if self.b_value.shape != (c,) or self.b_out.shape != (c,):
            raise ShapeError("AttnSpec: projection biases must be length C")
        rows_off = self.n_ref * self.n_points * 2
        rows_w = self.n_ref * self.n_points
        if self.w_offset.shape != (rows_off, c) or self.b_offset.shape != (rows_off,):
            raise ShapeError(f"AttnSpec: offset projection must map C -> {rows_off}")
        if self.w_weight.shape != (rows_w, c) or self.b_weight.shape != (rows_w,):
            raise ShapeError(f"AttnSpec: weight projection must map C -> {rows_w}")

    @property
    def channels(self) -> int:
        return self.w_value.shape[1]


@dataclass(frozen=True)
class Detection:
    """One decoded object in metric ego coordinates."""

    cls: int
    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    yaw: float
    vx: float
    vy: float
    score: float

    def __post_init__(self):
        vals = (self.x, self.y, self.z, self.l, self.w, self.h, self.yaw, self.vx, self.vy, self.score)
        if not all(math.isfinite(v) for v in vals):
            raise ShapeError("Detection: non-finite attribute")
        if self.l <= 0 or self.w <= 0 or self.h <= 0:
            raise ShapeError("Detection: size must be strictly positive")
        for name in ("l", "w", "h"):
            value = getattr(self, name)
            if value < 1e-6 and f"{value:.6f}" == "0.000000":
                raise ShapeError(f"Detection: size {name}={value!r} prints as 0.000000 and cannot be read back")
        # fixed-decimal serialization can round pi up, or -pi down, by < 1e-6;
        # -pi itself is outside the range, and its upper neighbour prints the same
        yaw = self.yaw
        if math.pi < yaw <= math.pi + YAW_PARSE_SLACK:
            yaw = math.pi
        elif -math.pi - YAW_PARSE_SLACK <= yaw <= -math.pi:
            yaw = math.nextafter(-math.pi, 0.0)
        if not (-math.pi < yaw <= math.pi):
            raise ShapeError(f"Detection: yaw {yaw} outside (-pi, pi]")
        object.__setattr__(self, "yaw", yaw)


@dataclass(frozen=True)
class RegressionHeads:
    """Shared trunk plus one linear head per object attribute."""

    shared: MlpSpec
    offset: MlpSpec
    z: MlpSpec
    size: MlpSpec
    yaw: MlpSpec
    vel: MlpSpec

    def __post_init__(self):
        trunk = self.shared.out_width
        for name, spec, width in (
            ("offset", self.offset, 2),
            ("z", self.z, 1),
            ("size", self.size, 3),
            ("yaw", self.yaw, 2),
            ("vel", self.vel, 2),
        ):
            if spec.out_width != width:
                raise ShapeError(f"RegressionHeads: {name} head must output {width} values")
            if spec.in_width != trunk:
                raise ShapeError(f"RegressionHeads: {name} head input width {spec.in_width} != trunk {trunk}")


def compute_heatmap(bev: BevGrid, spec: ConvSpec) -> Heatmap:
    """Sigmoid of a dim-preserving conv over the BEV grid."""
    if spec.in_channels != bev.channels:
        raise ShapeError(
            f"compute_heatmap: conv expects channel axis {spec.in_channels}, BEV has {bev.channels}"
        )
    if spec.stride != 1 or spec.padding != spec.kernel_size // 2:
        raise ShapeError("compute_heatmap: conv must be stride 1 with dim-preserving padding")
    raw = conv2d(bev.data[None], spec)[0].astype(np.float64)
    probs = np.clip(_sigmoid(raw), HEATMAP_CLAMP, 1.0 - HEATMAP_CLAMP)
    return Heatmap(probs)


def select_centers(heatmap: Heatmap, tau: float, top_n: Optional[int] = None) -> List[CenterProposal]:
    """Cells whose best class score is strictly above tau.

    One proposal per cell (class = argmax over channels); sorted by
    descending score, ties by (y, x); optionally capped at top_n.
    """
    if not 0.0 <= tau < 1.0:
        raise ShapeError(f"select_centers: threshold must be in [0, 1), got {tau}")
    if top_n is not None and top_n < 1:
        raise ShapeError(f"select_centers: top_n must be >= 1, got {top_n}")
    scores = heatmap.values.max(axis=0)
    classes = heatmap.values.argmax(axis=0)
    ys, xs = np.nonzero(scores > tau)
    if ys.size == 0:
        return []
    picked_scores = scores[ys, xs]
    order = np.lexsort((xs, ys, -picked_scores))
    if top_n is not None:
        order = order[:top_n]
    return [
        CenterProposal(int(xs[i]), int(ys[i]), int(classes[ys[i], xs[i]]), float(picked_scores[i]))
        for i in order
    ]


def expand_roi(bev: BevGrid, proposals: Sequence[CenterProposal], queries: np.ndarray) -> RoiSet:
    """Cut the 7x7 neighborhood of each proposal, zero-padded at borders."""
    n, c, g = len(proposals), bev.channels, bev.g
    half = ROI_SIZE // 2
    patches = np.zeros((n, c, ROI_SIZE, ROI_SIZE), dtype=np.float32)
    centers = np.zeros((n, 2), dtype=np.int64)
    classes = np.zeros(n, dtype=np.int64)
    scores = np.zeros(n, dtype=np.float64)
    for idx, p in enumerate(proposals):
        if not (0 <= p.x < g and 0 <= p.y < g):
            raise ShapeError(f"expand_roi: center ({p.x}, {p.y}) outside grid axis 0..{g - 1}")
        x0, y0 = p.x - half, p.y - half
        gx0, gy0 = max(x0, 0), max(y0, 0)
        gx1, gy1 = min(p.x + half + 1, g), min(p.y + half + 1, g)
        patches[idx, :, gy0 - y0 : gy1 - y0, gx0 - x0 : gx1 - x0] = bev.data[:, gy0:gy1, gx0:gx1]
        centers[idx] = (p.x, p.y)
        classes[idx] = p.cls
        scores[idx] = p.score
    return RoiSet(centers, classes, scores, patches, np.asarray(queries, dtype=np.float32))


def lift_references(
    cells: np.ndarray,
    spec: BevSpec,
    heights: Sequence[float],
    rig: CameraRig,
    image_h: int,
    image_w: int,
) -> RefPointSet:
    """Lift each ROI cell center to several heights and project into every camera.

    A projection is valid only when the point lies in front of the camera
    plane (positive camera-frame depth) and inside the image rectangle.
    """
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    hs = np.asarray(list(heights), dtype=np.float64)
    if hs.size < 1:
        raise ShapeError("lift_references: at least one height required")
    n, j = cells.shape[0], hs.size
    ego_x = -spec.extent + (cells[:, 0] + 0.5) * spec.cell_size
    ego_y = -spec.extent + (cells[:, 1] + 0.5) * spec.cell_size
    points = np.zeros((n, j, 3), dtype=np.float64)
    points[:, :, 0] = ego_x[:, None]
    points[:, :, 1] = ego_y[:, None]
    points[:, :, 2] = hs[None, :]
    uv = np.zeros((n, len(rig), j, 2), dtype=np.float64)
    valid = np.zeros((n, len(rig), j), dtype=bool)
    flat = points.reshape(-1, 3)
    for ci, cam in enumerate(rig):
        puv, depth = cam.project(flat)
        ok = (
            (depth > 0)
            & (puv[:, 0] >= 0)
            & (puv[:, 0] < image_w)
            & (puv[:, 1] >= 0)
            & (puv[:, 1] < image_h)
        )
        puv = np.where(np.isfinite(puv), puv, 0.0)
        uv[:, ci] = puv.reshape(n, j, 2)
        valid[:, ci] = ok.reshape(n, j)
    return RefPointSet(points, uv, valid)


def depth_embedding(depth: DepthVolume, mlp: MlpSpec) -> np.ndarray:
    """Per-pixel MLP over the K-vector of depth probabilities, [C, H', W']."""
    if mlp.in_width != depth.k:
        raise ShapeError(
            f"depth_embedding: mlp input width {mlp.in_width} != depth bin axis {depth.k}"
        )
    k, h, w = depth.probs.shape
    flat = depth.probs.transpose(1, 2, 0).reshape(-1, k).astype(np.float32)
    out = mlp_forward(flat, mlp)
    return out.T.reshape(mlp.out_width, h, w)


def _project_queries(w: np.ndarray, b: np.ndarray, query: np.ndarray) -> np.ndarray:
    """w @ q + b for each query vector of a [..., C] batch, in float64.

    Stacked matmul runs one matrix-vector product per query, the same
    product a single 1-D query gets, so a batch gives every query the
    bits it would get alone.
    """
    q = np.asarray(query, dtype=np.float64)
    return np.matmul(w.astype(np.float64), q[..., None])[..., 0] + b.astype(np.float64)


def attention_weights(attn: AttnSpec, query: np.ndarray) -> np.ndarray:
    """Softmax-normalized sample weights [..., n_ref, n_points] for [..., C] queries; rows sum to 1."""
    raw = _project_queries(attn.w_weight, attn.b_weight, query)
    return softmax(raw.reshape(raw.shape[:-1] + (attn.n_ref, attn.n_points)), axis=-1)


def sampling_offsets(attn: AttnSpec, query: np.ndarray) -> np.ndarray:
    """Learned sample offsets [..., n_ref, n_points, 2] in feature-pixel units for [..., C] queries."""
    raw = _project_queries(attn.w_offset, attn.b_offset, query)
    return raw.reshape(raw.shape[:-1] + (attn.n_ref, attn.n_points, 2))


def spatial_cross_attention(
    roi: RoiSet,
    refs: RefPointSet,
    features: np.ndarray,
    attn: AttnSpec,
    stride: int,
    embedding: Optional[np.ndarray] = None,
) -> Tuple[RoiSet, np.ndarray]:
    """Refine ROI patches by deformable sampling of the camera feature maps.

    Per ROI: the query is the patch-center feature plus the learned
    center-position query; each valid (camera, height) reference yields
    n_points bilinear samples at query-predicted offsets around the
    projected point, value-projected and combined with softmax weights.
    The output projection maps the sum to a residual, and the residual is
    broadcast over all 49 patch positions. Cells with no valid reference
    pass through untouched; the returned bool array flags refined cells.
    Invalid references and samples falling outside the feature map
    contribute exactly zero.

    All ROIs are processed at once, one camera at a time, in a fixed
    float64 summation order: each camera's weighted samples are summed
    into a partial that starts at zero and adds them height by height,
    point by point within a height; the partials are then added to the
    ROI's total in camera order. The result is bit-identical to a loop
    over ROIs in that order; a change to the order must pass the loop
    oracle test in tests/test_object_decoder.py.
    """
    feats = np.asarray(features, dtype=np.float32)
    if feats.ndim != 4:
        raise ShapeError(f"spatial_cross_attention: features must be [n_cam, C, H', W'], got rank {feats.ndim}")
    if refs.n != roi.n:
        raise ShapeError(f"spatial_cross_attention: refs cover {refs.n} cells, roi has {roi.n}")
    if refs.n_cameras != feats.shape[0]:
        raise ShapeError(
            f"spatial_cross_attention: refs project into {refs.n_cameras} cameras, features have {feats.shape[0]}"
        )
    if refs.n_heights != attn.n_ref:
        raise ShapeError(
            f"spatial_cross_attention: refs carry {refs.n_heights} heights, attention expects {attn.n_ref}"
        )
    if attn.channels != roi.channels or feats.shape[1] != attn.channels:
        raise ShapeError("spatial_cross_attention: channel axes of roi, features, and attention must agree")
    if embedding is not None:
        emb = np.asarray(embedding, dtype=np.float32)
        if emb.shape != feats.shape:
            raise ShapeError(
                f"spatial_cross_attention: embedding shape {emb.shape} != features shape {feats.shape}"
            )
        maps = feats + emb
    else:
        maps = feats

    n, c = roi.n, attn.channels
    w_value = attn.w_value.astype(np.float64)
    b_value = attn.b_value.astype(np.float64)
    center = roi.patches[:, :, CENTER_POSITION // ROI_SIZE, CENTER_POSITION % ROI_SIZE].astype(np.float64)
    q = center + roi.queries[CENTER_POSITION].astype(np.float64)
    wgt = attention_weights(attn, q)
    off = sampling_offsets(attn, q)
    acc = np.zeros((n, c), dtype=np.float64)
    for cam in range(feats.shape[0]):
        visible = np.nonzero(refs.valid[:, cam].any(axis=1))[0]
        if visible.size == 0:
            continue
        mask = refs.valid[visible, cam]
        rows, heights = np.nonzero(mask)
        base = refs.uv[visible[rows], cam, heights] / stride - 0.5
        pts = base[:, None, :] + off[visible[rows], heights]
        vals, _ = bilinear_sample(maps[cam], pts.reshape(-1, 2))
        sampled = np.einsum("pc,oc->po", vals.astype(np.float64), w_value) + b_value
        projected = np.zeros((visible.size, attn.n_ref, attn.n_points, c), dtype=np.float64)
        projected[rows, heights] = sampled.reshape(-1, attn.n_points, c)
        # An invalid height adds w * 0 = +0 to a partial that is never -0,
        # which leaves it unchanged: each ROI sums only its valid samples.
        weights = np.where(mask[:, :, None], wgt[visible], 0.0).reshape(visible.size, -1)
        acc[visible] += np.einsum("rk,rko->ro", weights, projected.reshape(visible.size, -1, c))
    flags = refs.valid.any(axis=(1, 2))
    delta = np.einsum("rc,oc->ro", acc, attn.w_out.astype(np.float64)) + attn.b_out.astype(np.float64)
    out_patches = roi.patches.copy()
    # in place: a boolean-indexed += would copy the refined patches twice
    np.add(out_patches, delta.astype(np.float32)[:, :, None, None], out=out_patches, where=flags[:, None, None, None])
    refined = RoiSet(roi.centers, roi.classes, roi.scores, out_patches, roi.queries)
    return refined, flags


def regress(roi: RoiSet, heads: RegressionHeads, spec: BevSpec) -> List[Detection]:
    """Decode object attributes from each refined ROI patch.

    The patch is mean-pooled to one feature vector, pushed through the
    shared trunk, then each head decodes its attribute: sub-cell center
    offset via tanh (at most half a cell), size via exp floored at 1e-6 m
    (the least size that detections.txt writes as nonzero), yaw via atan2
    of a (sin, cos) pair, z and velocity linear.
    """
    if roi.n == 0:
        return []
    pooled = roi.patches.astype(np.float64).mean(axis=(2, 3)).astype(np.float32)
    trunk = mlp_forward(pooled, heads.shared)
    off = mlp_forward(trunk, heads.offset).astype(np.float64)
    zed = mlp_forward(trunk, heads.z).astype(np.float64)
    size = mlp_forward(trunk, heads.size).astype(np.float64)
    yaw_raw = mlp_forward(trunk, heads.yaw).astype(np.float64)
    vel = mlp_forward(trunk, heads.vel).astype(np.float64)
    shift = 0.5 * np.tanh(off)
    xs = -spec.extent + (roi.centers[:, 0] + 0.5 + shift[:, 0]) * spec.cell_size
    ys = -spec.extent + (roi.centers[:, 1] + 0.5 + shift[:, 1]) * spec.cell_size
    rows = zip(
        roi.classes.tolist(), xs.tolist(), ys.tolist(), zed[:, 0].tolist(), np.maximum(np.exp(size), 1e-6).tolist(),
        yaw_raw.tolist(), vel.tolist(), roi.scores.tolist(),
    )
    dets = []
    for cls, x, y, z, (l, w, h), (sin, cos), (vx, vy), score in rows:
        yaw = math.atan2(sin, cos)
        if yaw <= -math.pi:
            yaw += 2.0 * math.pi
        dets.append(Detection(cls, x, y, z, l, w, h, yaw, vx, vy, score))
    return dets


def format_detections(dets: Sequence[Detection]) -> str:
    """One line per detection: class x y z l w h yaw vx vy score."""
    lines = []
    for d in dets:
        fields = (d.x, d.y, d.z, d.l, d.w, d.h, d.yaw, d.vx, d.vy, d.score)
        lines.append(str(d.cls) + " " + " ".join(f"{v:.6f}" for v in fields))
    return "".join(line + "\n" for line in lines)


def parse_detections(text: str) -> List[Detection]:
    """Inverse of format_detections; skips blank lines and # comments."""
    dets = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cols = stripped.split()
        if len(cols) != 11:
            raise FormatError(f"detection line {lineno} has {len(cols)} columns, expected 11")
        try:
            cls = int(cols[0])
            vals = [float(c) for c in cols[1:]]
        except ValueError as exc:
            raise FormatError(f"detection line {lineno}: {exc}") from exc
        dets.append(Detection(cls, *vals))
    return dets
