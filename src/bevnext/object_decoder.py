"""Two-stage BEV object decoding.

Stage one proposes centers: a 3x3 conv plus sigmoid turns the fused BEV
grid into a per-class heatmap, and cells strictly above a threshold
become proposals, passed on as one [N] structured array of centers,
classes and scores. Stage two refines each proposal from the camera
views. A proposal's ROI is the 7x7 window of the fused grid centred on
its cell, zero where it leaves the grid; stage two reads the proposals
and the grid as they are, and no window is copied out until regression
pools it. The cell is lifted to several candidate heights, each height
is projected into every camera, and deformable attention samples the
image feature maps (optionally shifted by a depth-distribution embedding)
around the valid projections. The attended result is a per-ROI residual
that applies to the whole window. Regression heads decode each window
plus residual, pooled ROI_BLOCK ROIs at a time, into one row of an [N]
DETECTION_DTYPE array, which check_detections accepts or refuses.

Heatmap scores are kept in float64 and clamped away from 0 and 1, so a
threshold comparison like score > 0.1 is exact and never flips due to
float32 rounding of the threshold value.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import BOX_DTYPE, parse_rows
from .errors import FormatError, ShapeError
from .kernels import ConvSpec, MlpSpec, bilinear_sample, conv2d, mlp_forward, softmax
from .view_transform import BevGrid, BevSpec, CameraModel

ROI_SIZE = 7
HEATMAP_CLAMP = 1e-12
ROI_BLOCK = 128  # ROIs sampled per camera, or cut and pooled, at a time: bounds the decoder's temporaries
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


# select_centers' proposals: the cell (x, y), the class and the heatmap score
PROPOSAL_DTYPE = np.dtype([("center", np.int64, (2,)), ("cls", np.int64), ("score", np.float64)])


def _check_proposals(caller: str, proposals: np.ndarray, g: int) -> None:
    """Refuse all but an [N] PROPOSAL_DTYPE array of centres on the G x G grid (indexing would wrap a -1)."""
    arr = np.asarray(proposals)
    if arr.dtype != PROPOSAL_DTYPE or arr.ndim != 1:
        raise ShapeError(f"{caller}: proposals must be an [N] PROPOSAL_DTYPE array, got {arr.dtype} {arr.shape}")
    centers = arr["center"]
    outside = np.flatnonzero(((centers < 0) | (centers >= g)).any(axis=1))
    if outside.size:
        x, y = centers[outside[0]]
        raise ShapeError(f"{caller}: center ({x}, {y}) outside grid axis 0..{g - 1}")


@dataclass(frozen=True)
class RefPointSet:
    """Per-camera projections [N, n_cam, J, 2] of each ROI's reference points at J heights.

    valid is False wherever the point sits behind the camera plane or
    projects outside the image rectangle.
    """

    uv: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        uv = np.asarray(self.uv, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        object.__setattr__(self, "uv", uv)
        object.__setattr__(self, "valid", valid)
        if uv.ndim != 4 or uv.shape[3] != 2:
            raise ShapeError(f"RefPointSet: uv must be [N, n_cam, J, 2], got {uv.shape}")
        if valid.shape != uv.shape[:3]:
            raise ShapeError(f"RefPointSet: valid must be {uv.shape[:3]}, got {valid.shape}")

    @property
    def n(self) -> int:
        return self.uv.shape[0]

    @property
    def n_cameras(self) -> int:
        return self.uv.shape[1]

    @property
    def n_heights(self) -> int:
        return self.uv.shape[2]


@dataclass(frozen=True)
class AttnSpec:
    """Deformable-attention parameters for ROI refinement.

    One attention head; for each of n_ref heights, n_points samples are
    taken at learned offsets around the projected reference point with
    softmax-normalized weights, both produced by linear projections of
    the query vector. The projections' shapes come from
    ``weights.expected_shapes`` and are checked once, by ``validate_bundle``.
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

    @property
    def channels(self) -> int:
        return self.w_value.shape[1]


# regress's detections: a box record, its yaw in (-pi, pi], plus the heatmap score
DETECTION_DTYPE = np.dtype(BOX_DTYPE.descr + [("score", np.float64)])


def check_detections(dets: np.ndarray) -> Optional[Tuple[int, str]]:
    """(row, cause) of the first row of a DETECTION_DTYPE array that breaks a rule, or None.

    The cause is the first rule the row breaks: all values finite, sizes > 0, no size that prints
    as 0.000000 (for a positive double, exactly <= 5e-7), yaw in (-pi, pi]. First, a yaw at most
    YAW_PARSE_SLACK past pi or -pi (6 decimals can round it there) is remapped in place to pi or to
    the double just above -pi, which prints the same.
    """
    yaw = dets["yaw"]  # a view of the field
    yaw[(yaw > math.pi) & (yaw <= math.pi + YAW_PARSE_SLACK)] = math.pi
    yaw[(yaw >= -math.pi - YAW_PARSE_SLACK) & (yaw <= -math.pi)] = math.nextafter(-math.pi, 0.0)
    values = np.column_stack([dets[name] for name in DETECTION_DTYPE.names[1:]])
    size = values[:, 3:6]
    rules = [~np.isfinite(values).all(axis=1), (size <= 0).any(axis=1), (size <= 5e-7).any(axis=1)]
    broken = np.stack(rules + [~((yaw > -math.pi) & (yaw <= math.pi))], axis=1)  # [N, rule]
    rows = np.flatnonzero(broken.any(axis=1))
    if not rows.size:
        return None
    row = int(rows[0])
    axis = int((size[row] <= 5e-7).argmax())
    causes = (
        "non-finite attribute",
        "size must be strictly positive",
        f"size {'lwh'[axis]}={size[row, axis].item()!r} prints as 0.000000 and cannot be read back",
        f"yaw {yaw[row].item()} outside (-pi, pi]",
    )
    return row, causes[int(broken[row].argmax())]


@dataclass(frozen=True)
class RegressionHeads:
    """Shared trunk plus one linear head per object attribute (offset 2, z 1, size 3, yaw 2, vel 2 wide).

    Their shapes come from ``weights.expected_shapes`` and are checked once, by ``validate_bundle``.
    """

    shared: MlpSpec
    offset: MlpSpec
    z: MlpSpec
    size: MlpSpec
    yaw: MlpSpec
    vel: MlpSpec


def compute_heatmap(bev: BevGrid, spec: ConvSpec) -> Heatmap:
    """Sigmoid of a dim-preserving conv over the BEV grid."""
    raw = conv2d(bev.data[None], spec)[0].astype(np.float64)
    probs = np.clip(_sigmoid(raw), HEATMAP_CLAMP, 1.0 - HEATMAP_CLAMP)
    return Heatmap(probs)


def select_centers(heatmap: Heatmap, tau: float, top_n: Optional[int] = None) -> np.ndarray:
    """Cells whose best class score is strictly above tau, as an [N] PROPOSAL_DTYPE array.

    One proposal per cell (class = argmax over channels); sorted by
    descending score, ties by (y, x); optionally capped at top_n.
    """
    if not 0.0 <= tau < 1.0:
        raise ShapeError(f"select_centers: threshold must be in [0, 1), got {tau}")
    if top_n is not None and top_n < 1:
        raise ShapeError(f"select_centers: top_n must be >= 1, got {top_n}")
    scores = heatmap.values.max(axis=0)
    ys, xs = np.nonzero(scores > tau)
    order = np.lexsort((xs, ys, -scores[ys, xs]))[:top_n]
    ys, xs = ys[order], xs[order]
    proposals = np.empty(order.size, PROPOSAL_DTYPE)
    proposals["center"] = np.stack([xs, ys], axis=1)
    proposals["cls"] = heatmap.values.argmax(axis=0)[ys, xs]
    proposals["score"] = scores[ys, xs]
    return proposals


def lift_references(
    cells: np.ndarray,
    spec: BevSpec,
    heights: Sequence[float],
    rig: Sequence[CameraModel],
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
    ego_xy = -spec.extent + (cells + 0.5) * spec.cell_size
    flat = np.column_stack([np.repeat(ego_xy, j, axis=0), np.tile(hs, n)])  # [N*J, 3] ego points, height fastest
    uv = np.zeros((n, len(rig), j, 2), dtype=np.float64)
    valid = np.zeros((n, len(rig), j), dtype=bool)
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
    return RefPointSet(uv, valid)


def depth_embedding(depth: np.ndarray, mlp: MlpSpec) -> np.ndarray:
    """Per-pixel MLP over the K-vector of [K, H', W'] depth probabilities, [C, H', W']."""
    k, h, w = depth.shape
    if mlp.in_width != k:
        raise ShapeError(f"depth_embedding: mlp input width {mlp.in_width} != depth bin axis {k}")
    flat = depth.transpose(1, 2, 0).reshape(-1, k).astype(np.float32)
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
    bev: BevGrid,
    proposals: np.ndarray,
    query: np.ndarray,
    refs: RefPointSet,
    features: np.ndarray,
    attn: AttnSpec,
    stride: int,
    embedding: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-ROI residuals by deformable sampling of the camera feature maps.

    Per ROI: the query is the bev feature at the proposal's center cell
    plus the one learned [1, C] query row; each valid (camera, height)
    reference yields n_points bilinear samples at query-predicted offsets
    around the projected point, value-projected and combined with softmax
    weights. The output projection maps the sum to the ROI's residual.
    Returns (residual [N, C] float32, refined [N] bool): a ROI with no
    valid reference is not refined and its residual row is zero, to be
    left unapplied (regress adds a residual only where refined). Invalid
    references and samples falling outside the feature map contribute
    exactly zero.

    ROIs are processed one camera at a time, ROI_BLOCK visible ROIs at a
    time, in a fixed float64 summation order: each camera's weighted
    samples are summed into a partial that starts at zero and adds them
    height by height, point by point within a height; the partials are
    then added to the ROI's total in camera order. The result is
    bit-identical to a loop over ROIs in that order; a change to the order
    must pass the loop oracle test in tests/test_object_decoder.py.
    """
    _check_proposals("spatial_cross_attention", proposals, bev.g)
    query = np.asarray(query, dtype=np.float32)
    if query.shape != (1, bev.channels):
        raise ShapeError(f"spatial_cross_attention: query must be [1, C={bev.channels}], got {query.shape}")
    feats = np.asarray(features, dtype=np.float32)
    if feats.ndim != 4:
        raise ShapeError(f"spatial_cross_attention: features must be [n_cam, C, H', W'], got rank {feats.ndim}")
    if refs.n != len(proposals):
        raise ShapeError(f"spatial_cross_attention: refs cover {refs.n} cells, there are {len(proposals)} proposals")
    if refs.n_cameras != feats.shape[0]:
        raise ShapeError(
            f"spatial_cross_attention: refs project into {refs.n_cameras} cameras, features have {feats.shape[0]}"
        )
    if refs.n_heights != attn.n_ref:
        raise ShapeError(
            f"spatial_cross_attention: refs carry {refs.n_heights} heights, attention expects {attn.n_ref}"
        )
    if attn.channels != bev.channels or feats.shape[1] != attn.channels:
        raise ShapeError("spatial_cross_attention: channel axes of the grid, features, and attention must agree")
    emb = None if embedding is None else np.asarray(embedding, dtype=np.float32)
    if emb is not None and emb.shape != feats.shape:
        raise ShapeError(f"spatial_cross_attention: embedding shape {emb.shape} != features shape {feats.shape}")

    n, c = len(proposals), attn.channels
    w_value = attn.w_value.astype(np.float64)
    b_value = attn.b_value.astype(np.float64)
    cells = proposals["center"]
    q = bev.data.transpose(1, 2, 0)[cells[:, 1], cells[:, 0]].astype(np.float64)
    q += query[0].astype(np.float64)
    wgt = attention_weights(attn, q)
    off = sampling_offsets(attn, q)
    acc = np.zeros((n, c), dtype=np.float64)
    for cam in range(feats.shape[0]):
        visible = np.flatnonzero(refs.valid[:, cam].any(axis=1))
        if visible.size == 0:
            continue
        # the float32 sum of map and embedding, widened once for all of the camera's blocks
        fmap = (feats[cam] if emb is None else feats[cam] + emb[cam]).astype(np.float64)
        for start in range(0, visible.size, ROI_BLOCK):
            rois = visible[start : start + ROI_BLOCK]
            mask = refs.valid[rois, cam]
            rows, heights = np.nonzero(mask)
            base = refs.uv[rois[rows], cam, heights] / stride - 0.5
            pts = base[:, None, :] + off[rois[rows], heights]
            vals, _ = bilinear_sample(fmap, pts.reshape(-1, 2))
            sampled = np.einsum("pc,oc->po", vals.astype(np.float64), w_value) + b_value
            projected = np.zeros((rois.size, attn.n_ref, attn.n_points, c), dtype=np.float64)
            projected[rows, heights] = sampled.reshape(-1, attn.n_points, c)
            # An invalid height adds w * 0 = +0 to a partial that is never -0,
            # which leaves it unchanged: each ROI sums only its valid samples.
            weights = np.where(mask[:, :, None], wgt[rois], 0.0).reshape(rois.size, -1)
            acc[rois] += np.einsum("rk,rko->ro", weights, projected.reshape(rois.size, -1, c))
    refined = refs.valid.any(axis=(1, 2))
    delta = np.einsum("rc,oc->ro", acc, attn.w_out.astype(np.float64)) + attn.b_out.astype(np.float64)
    delta[~refined] = 0.0
    return delta.astype(np.float32), refined


def regress(
    bev: BevGrid, proposals: np.ndarray, residual: np.ndarray, refined: np.ndarray, heads: RegressionHeads, spec: BevSpec
) -> np.ndarray:
    """Decode each proposal's window of bev plus its residual where refined into an [N] DETECTION_DTYPE array.

    ROI_BLOCK windows at a time are cut from a zero-padded copy of the
    grid, get their float32 residual added where refined, and are
    mean-pooled to one feature vector each in float64. The vectors go
    through the shared trunk, then each head decodes its attribute for all
    ROIs at once: sub-cell center offset via tanh (at most half a cell),
    size via exp floored at 1e-6 m (the least size that detections.txt
    writes as nonzero), z and velocity linear, and yaw via math.atan2 of a
    (sin, cos) pair, row by row (np.arctan2 can differ in the last bit);
    class and score are the proposal's. A row that check_detections
    refuses raises ShapeError naming it.
    """
    _check_proposals("regress", proposals, bev.g)
    n, c = len(proposals), bev.channels
    residual = np.asarray(residual, dtype=np.float32)
    refined = np.asarray(refined, dtype=bool)
    if residual.shape != (n, c) or refined.shape != (n,):
        raise ShapeError(
            f"regress: residual must be [{n}, {c}] and refined [{n}], got {residual.shape} and {refined.shape}"
        )
    dets = np.empty(n, DETECTION_DTYPE)
    if n == 0:  # nothing proposes: skip the grid copy
        return dets
    half = ROI_SIZE // 2
    padded = np.pad(bev.data.transpose(1, 2, 0), ((half, half), (half, half), (0, 0)))  # [G+6, G+6, C]
    windows = sliding_window_view(padded, (ROI_SIZE, ROI_SIZE), axis=(0, 1))  # [y, x]: the window of (x, y)
    cells = proposals["center"]
    pooled = np.empty((n, c), dtype=np.float32)
    for start in range(0, n, ROI_BLOCK):
        block = slice(start, start + ROI_BLOCK)
        patches = windows[cells[block, 1], cells[block, 0]]  # a [B, C, 7, 7] copy
        # in place and where refined, so an unrefined window keeps its bits, signed zeros too
        np.add(patches, residual[block, :, None, None], out=patches, where=refined[block, None, None, None])
        pooled[block] = patches.mean(axis=(2, 3), dtype=np.float64)
    trunk = mlp_forward(pooled, heads.shared)
    shift = 0.5 * np.tanh(mlp_forward(trunk, heads.offset).astype(np.float64))
    dets["cls"] = proposals["cls"]
    dets["x"] = -spec.extent + (cells[:, 0] + 0.5 + shift[:, 0]) * spec.cell_size
    dets["y"] = -spec.extent + (cells[:, 1] + 0.5 + shift[:, 1]) * spec.cell_size
    dets["z"] = mlp_forward(trunk, heads.z)[:, 0]
    dets["l"], dets["w"], dets["h"] = np.maximum(np.exp(mlp_forward(trunk, heads.size).astype(np.float64)), 1e-6).T
    dets["yaw"] = [math.atan2(sin, cos) for sin, cos in mlp_forward(trunk, heads.yaw).tolist()]
    dets["yaw"][dets["yaw"] <= -math.pi] += 2.0 * math.pi
    dets["vx"], dets["vy"] = mlp_forward(trunk, heads.vel).T
    dets["score"] = proposals["score"]
    bad = check_detections(dets)
    if bad is not None:
        raise ShapeError(f"regress: detection {bad[0]}: {bad[1]}")
    return dets


def format_detections(dets: np.ndarray) -> str:
    """One line per DETECTION_DTYPE row: class x y z l w h yaw vx vy score."""
    line = "%d" + " %.6f" * 10 + "\n"
    return "".join(line % row for row in dets.tolist())


def parse_detections(text: str) -> np.ndarray:
    """Inverse of format_detections: the [N] DETECTION_DTYPE array, naming the line of a refused row."""
    rows = list(parse_rows(text, len(DETECTION_DTYPE), "detection"))
    dets = np.array([row for _, row in rows], DETECTION_DTYPE)
    bad = check_detections(dets)
    if bad is not None:
        raise FormatError(f"detection line {rows[bad[0]][0]}: {bad[1]}")
    return dets
