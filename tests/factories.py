"""Test-side builders and oracles that the library itself does not need.

The pipeline takes every weight from a bundle (``weights.init_bundle``);
these factories build single specs for unit tests. Each draws its
weights from the given ``SplitMix64`` in a fixed order, so a test's data
depend only on its seed and the order of its calls. ``cam_to_ego`` and
``project_depth_labels`` are geometry oracles (the inverse of
``CameraModel.ego_to_cam``, and sparse depth labels from surface
points). ``partition``, ``reduce_groups`` and ``multiscale_cascade`` are
the temporal fusion's stages one at a time, and ``composed_fusion`` the
composition ``fuse`` must equal; ``crf_energy`` is the Potts energy of a
hard depth labelling. ``format_config`` writes a config back out as text,
``render_view`` and ``render_depth`` are the image and the depth buffer
of ``scene._render`` for one camera, and ``traced_transient`` measures
the memory a call allocates.
``proposals`` builds select_centers' array from cells, and ``tile_roi`` a
grid and the proposals whose windows are given [N, C, 7, 7] patches;
``roi_windows`` cuts each proposal's window of a grid one by one (the
per-proposal loop the decoder replaced), and ``refined_patches`` adds a
residual to them where refined, as ``regress`` does.
``detection_oracle`` applies the detection rules to one row in scalar
Python, the reference ``object_decoder.check_detections`` is tested
against, and ``detections`` builds a ``DETECTION_DTYPE`` array from rows
it accepts.
"""

import math
import tracemalloc
from dataclasses import fields
from typing import List, Sequence, Tuple

import numpy as np

from bevnext.config import _SCHEMA, SceneConfig
from bevnext.depth_crf import DepthBins
from bevnext.kernels import ConvSpec, MlpSpec, SplitMix64, conv2d, init_weights
from bevnext.errors import ShapeError
from bevnext.object_decoder import (
    DETECTION_DTYPE,
    PROPOSAL_DTYPE,
    ROI_SIZE,
    YAW_PARSE_SLACK,
    AttnSpec,
    RegressionHeads,
)
from bevnext.res2fusion import FusionConfig, _conv
from bevnext.scene import _ray_directions, _render
from bevnext.view_transform import BevGrid, BevSpec, CameraModel
from bevnext.weights import WeightBundle, expected_shapes


def conv_spec(
    in_channels: int,
    out_channels: int,
    kernel_size: int,
    rng: SplitMix64,
    stride: int = 1,
    padding: int | None = None,
    zero_bias: bool = False,
) -> ConvSpec:
    if padding is None:
        padding = kernel_size // 2
    fan_in = in_channels * kernel_size * kernel_size
    weight = init_weights((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng)
    if zero_bias:
        bias = np.zeros(out_channels, dtype=np.float32)
    else:
        bias = init_weights((out_channels,), fan_in, rng)
    return ConvSpec(weight, bias, stride, padding)


def mlp_spec(widths: list, rng: SplitMix64, final_identity: bool = True) -> MlpSpec:
    weights, biases, acts = [], [], []
    for i in range(len(widths) - 1):
        fan_in = widths[i]
        weights.append(init_weights((widths[i + 1], widths[i]), fan_in, rng))
        biases.append(init_weights((widths[i + 1],), fan_in, rng))
        last = i == len(widths) - 2
        acts.append("identity" if (last and final_identity) else "relu")
    return MlpSpec(weights, biases, acts)


def zero_mlp(widths: list) -> MlpSpec:
    weights = [np.zeros((widths[i + 1], widths[i]), np.float32) for i in range(len(widths) - 1)]
    biases = [np.zeros(widths[i + 1], np.float32) for i in range(len(widths) - 1)]
    acts = ["relu"] * (len(widths) - 2) + ["identity"]
    return MlpSpec(weights, biases, acts)


def attn_spec(channels: int, n_ref: int, n_points: int, rng: SplitMix64) -> AttnSpec:
    rows_off = n_ref * n_points * 2
    rows_w = n_ref * n_points
    return AttnSpec(
        n_ref=n_ref,
        n_points=n_points,
        w_offset=init_weights((rows_off, channels), channels, rng),
        b_offset=np.zeros(rows_off, np.float32),
        w_weight=init_weights((rows_w, channels), channels, rng),
        b_weight=np.zeros(rows_w, np.float32),
        w_value=init_weights((channels, channels), channels, rng),
        b_value=np.zeros(channels, np.float32),
        w_out=init_weights((channels, channels), channels, rng),
        b_out=np.zeros(channels, np.float32),
    )


def regression_heads(channels: int, rng: SplitMix64) -> RegressionHeads:
    return RegressionHeads(
        shared=mlp_spec([channels, channels], rng, final_identity=False),
        offset=mlp_spec([channels, 2], rng),
        z=mlp_spec([channels, 1], rng),
        size=mlp_spec([channels, 3], rng),
        yaw=mlp_spec([channels, 2], rng),
        vel=mlp_spec([channels, 2], rng),
    )


def zero_heads(channels: int) -> RegressionHeads:
    return RegressionHeads(
        shared=zero_mlp([channels, channels]),
        offset=zero_mlp([channels, 2]),
        z=zero_mlp([channels, 1]),
        size=zero_mlp([channels, 3]),
        yaw=zero_mlp([channels, 2]),
        vel=zero_mlp([channels, 2]),
    )


def proposals(cells, classes=0, scores=0.5) -> np.ndarray:
    """select_centers' output for the given (x, y) cells, classes and scores, in that order."""
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    out = np.zeros(cells.shape[0], PROPOSAL_DTYPE)
    out["center"], out["cls"], out["score"] = cells, classes, scores
    return out


def tile_roi(patches, classes=0, scores=0.5) -> Tuple[BevGrid, np.ndarray]:
    """A grid and its proposals, whose windows are the given [N, C, 7, 7] patches, bit for bit.

    Patch i fills the i-th disjoint 7x7 block of a zero grid, k blocks to a
    row, so proposal i is centred on cell (3 + 7 (i % k), 3 + 7 (i // k)).
    """
    patches = np.asarray(patches, dtype=np.float32)
    n, c = patches.shape[:2]
    k = max(1, int(np.ceil(np.sqrt(n))))
    blocks = np.zeros((k * k, c, ROI_SIZE, ROI_SIZE), np.float32)
    blocks[:n] = patches
    grid = blocks.reshape(k, k, c, ROI_SIZE, ROI_SIZE).transpose(2, 0, 3, 1, 4).reshape(c, k * ROI_SIZE, -1)
    i = np.arange(n)
    centers = np.stack([i % k, i // k], axis=1) * ROI_SIZE + ROI_SIZE // 2
    return BevGrid(grid), proposals(centers, classes, scores)


def roi_windows(bev: BevGrid, props: np.ndarray) -> np.ndarray:
    """The [N, C, 7, 7] window of bev around each proposal, cut one at a time and zero outside the grid."""
    g, half = bev.g, ROI_SIZE // 2
    patches = np.zeros((len(props), bev.channels, ROI_SIZE, ROI_SIZE), dtype=np.float32)
    for idx, (x, y) in enumerate(props["center"].tolist()):
        x0, y0 = x - half, y - half
        gx0, gy0, gx1, gy1 = max(x0, 0), max(y0, 0), min(x + half + 1, g), min(y + half + 1, g)
        patches[idx, :, gy0 - y0 : gy1 - y0, gx0 - x0 : gx1 - x0] = bev.data[:, gy0:gy1, gx0:gx1]
    return patches


def refined_patches(bev: BevGrid, props: np.ndarray, residual: np.ndarray, refined: np.ndarray) -> np.ndarray:
    """roi_windows plus the float32 [N, C] residual where refined: the patches regress pools."""
    patches = roi_windows(bev, props)
    np.add(patches, np.asarray(residual, np.float32)[:, :, None, None], out=patches, where=refined[:, None, None, None])
    return patches


def zero_bundle(cfg: SceneConfig) -> WeightBundle:
    """All-zero weights of the expected shapes (ablation baseline)."""
    return WeightBundle(
        {name: np.zeros(shape, np.float32) for name, shape in expected_shapes(cfg).items()}
    )


def partition(frames: Sequence[BevGrid], window: int) -> List[np.ndarray]:
    """Cut the frames (oldest first) into ceil(k / w) channel-concatenated windows.

    Group 0 holds the w newest frames ending at the current one; the
    oldest group is zero padded on its old side up to width w. Within a
    group, channels run in chronological order (oldest frame first).
    """
    if window < 1:
        raise ShapeError(f"partition: window must be >= 1, got {window}")
    groups = []
    for end in range(len(frames), 0, -window):
        parts = [f.data for f in frames[max(end - window, 0) : end]]
        c, g = parts[0].shape[:2]
        groups.append(np.concatenate([np.zeros(((window - len(parts)) * c, g, g), np.float32)] + parts))
    return groups


def reduce_groups(groups: Sequence[np.ndarray], specs: Sequence[ConvSpec]) -> List[np.ndarray]:
    """Apply each group's 1x1 reduction independently."""
    if len(groups) != len(specs):
        raise ShapeError(f"reduce_groups: {len(groups)} groups but {len(specs)} specs")
    return [_conv(grp, spec) for grp, spec in zip(groups, specs)]


def multiscale_cascade(bprime: Sequence[np.ndarray], specs: Sequence[ConvSpec]) -> List[np.ndarray]:
    """Run the 3x3 cascade from the oldest group toward the newest.

    The oldest group is convolved alone; each later group i >= 1 adds the
    convolved output of its older neighbor before its own 3x3 conv; group
    0 passes through untouched. Inherently sequential in the group index.
    """
    g = len(bprime)
    if len(specs) != g - 1:
        raise ShapeError(f"multiscale_cascade: need {g - 1} specs for {g} groups, got {len(specs)}")
    out = list(bprime)
    for i in range(g - 1, 0, -1):
        out[i] = _conv(bprime[i] if i == g - 1 else bprime[i] + out[i + 1], specs[i - 1])
    return out


def composed_fusion(frames: Sequence[BevGrid], config: FusionConfig) -> np.ndarray:
    """partition -> reduce_groups -> multiscale_cascade -> concat (oldest group first) -> final 1x1.

    The whole frame stack at once, stage by stage: the composition ``fuse``
    must equal bit for bit.
    """
    groups = partition(frames, config.window)
    bp = reduce_groups(groups, config.reduce_specs)
    bpp = multiscale_cascade(bp, config.cascade_specs)
    cat = np.concatenate(list(reversed(bpp)), axis=0)
    return conv2d(cat[None], config.final_spec)[0]


def crf_energy(labels: np.ndarray, unary: np.ndarray, coupling: np.ndarray) -> float:
    """Total energy of a hard bin assignment.

    E = sum_i unary(i, l_i) + sum_{i != j} a(i, j) * [l_i != l_j] (Potts),
    the pairwise sum running over ordered pairs.
    """
    u = np.asarray(unary, dtype=np.float64)
    k = u.shape[0]
    lab = np.asarray(labels).reshape(-1)
    if lab.min() < 0 or lab.max() >= k:
        raise ShapeError(f"crf_energy: label outside [0, {k})")
    n = lab.size
    e_unary = float(u.reshape(k, n)[lab, np.arange(n)].sum())
    e_pair = float(coupling[lab[:, None] != lab[None, :]].sum())
    return e_unary + e_pair


def cam_to_ego(camera: CameraModel, points: np.ndarray) -> np.ndarray:
    """Map camera-frame [N, 3] points into the ego frame."""
    p = np.asarray(points, dtype=np.float64)
    return np.einsum("nj,ij->ni", p, camera.rotation) + camera.translation


def reference_points(cells, spec: BevSpec, heights) -> np.ndarray:
    """[N, J, 3] ego points: each BEV cell's centre at each height, the points lift_references projects."""
    rows = [[[-spec.extent + (x + 0.5) * spec.cell_size, -spec.extent + (y + 0.5) * spec.cell_size, h] for h in heights]
            for x, y in np.asarray(cells).tolist()]
    return np.array(rows, dtype=np.float64).reshape(-1, len(heights), 3)


def project_depth_labels(
    points: np.ndarray,
    camera: CameraModel,
    feat_h: int,
    feat_w: int,
    stride: int,
    bins: DepthBins,
) -> Tuple[np.ndarray, float]:
    """Sparse depth labels: project points onto the feature grid.

    Each point maps to the feature cell containing its pixel and to the
    bin with the nearest center; within a cell the nearest point wins
    (ties by input order). Returns the [H', W'] int64 label raster with
    -1 for unlabeled cells, and coverage = labeled cells / total cells.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    labels = np.full((feat_h, feat_w), -1, dtype=np.int64)
    total = feat_h * feat_w
    if pts.shape[0] == 0:
        return labels, 0.0
    uv, depth = camera.project(pts)
    with np.errstate(invalid="ignore"):
        ok = (
            (depth > 0)
            & np.isfinite(uv).all(axis=1)
            & (uv[:, 0] >= 0)
            & (uv[:, 0] < feat_w * stride)
            & (uv[:, 1] >= 0)
            & (uv[:, 1] < feat_h * stride)
        )
    idx = np.nonzero(ok)[0]
    if idx.size == 0:
        return labels, 0.0
    u, v, d = uv[idx, 0], uv[idx, 1], depth[idx]
    cell = (v.astype(np.int64) // stride) * feat_w + (u.astype(np.int64) // stride)
    order = np.lexsort((idx, d, cell))
    cells_sorted = cell[order]
    _, first = np.unique(cells_sorted, return_index=True)
    chosen = order[first]
    bin_idx = np.abs(d[chosen][:, None] - bins.centers[None, :]).argmin(axis=1)
    labels.reshape(-1)[cell[chosen]] = bin_idx
    coverage = float(cell[chosen].size) / float(total)
    return labels, coverage


def format_config(cfg: SceneConfig) -> str:
    """Render a config as schema-keyed text; parses back to an equal config."""
    by_attr = {attr: key for key, (attr, _) in _SCHEMA.items()}
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "heights":
            rendered = ",".join(repr(h) for h in value)
        else:
            rendered = str(value)
        lines.append(f"{by_attr[f.name]} = {rendered}")
    return "".join(line + "\n" for line in lines)


def render_view(camera: CameraModel, boxes: np.ndarray, image_h: int, image_w: int) -> np.ndarray:
    """One camera's [H, W, 3] view of [N] BOX_DTYPE boxes, as ``gen_scene`` renders it."""
    return _render(camera, _ray_directions(camera, image_h, image_w), boxes)[0]


def render_depth(camera: CameraModel, boxes: np.ndarray, image_h: int, image_w: int) -> np.ndarray:
    """Camera-frame depth of each pixel's nearest box hit, [H, W] float64, inf where no box is hit."""
    return _render(camera, _ray_directions(camera, image_h, image_w), boxes)[1]


def traced_transient(fn, *args, **kwargs) -> int:
    """Peak bytes traced by tracemalloc while fn(*args, **kwargs) runs, above what was live before.

    NumPy reports its data buffers to tracemalloc, so this counts every
    array the call builds, its result included.
    """
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def detections(rows) -> np.ndarray:
    """A DETECTION_DTYPE array of (cls, x, y, z, l, w, h, yaw, vx, vy, score) rows.

    Each row goes through ``detection_oracle`` first: a refused row raises
    ShapeError with its cause, and an accepted row keeps its remapped yaw.
    """
    checked = []
    for row in rows:
        cause, yaw = detection_oracle(row)
        if cause is not None:
            raise ShapeError(f"detection {len(checked)}: {cause}")
        checked.append(tuple(row[:7]) + (yaw,) + tuple(row[8:]))
    return np.array(checked, dtype=DETECTION_DTYPE)


def detection_oracle(row) -> Tuple[str | None, float]:
    """One (cls, x, y, z, l, w, h, yaw, vx, vy, score) row under the detection rules, one value at a time.

    Returns (cause, yaw): cause is None for a row the rules accept, whose
    yaw is then remapped if text rounding can put it just past +-pi, and
    otherwise the first rule the row breaks, in the order non-finite,
    size <= 0, size that prints as 0.000000, yaw outside (-pi, pi].
    """
    _, x, y, z, l, w, h, yaw, vx, vy, score = row
    if not all(map(math.isfinite, (x, y, z, l, w, h, yaw, vx, vy, score))):
        return "non-finite attribute", yaw
    if l <= 0 or w <= 0 or h <= 0:
        return "size must be strictly positive", yaw
    for name, value in (("l", l), ("w", w), ("h", h)):
        if value < 1e-6 and f"{value:.6f}" == "0.000000":
            return f"size {name}={value!r} prints as 0.000000 and cannot be read back", yaw
    if math.pi < yaw <= math.pi + YAW_PARSE_SLACK:
        yaw = math.pi
    elif -math.pi - YAW_PARSE_SLACK <= yaw <= -math.pi:
        yaw = math.nextafter(-math.pi, 0.0)
    if not (-math.pi < yaw <= math.pi):
        return f"yaw {yaw} outside (-pi, pi]", yaw
    return None, yaw
