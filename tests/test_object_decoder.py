"""Object decoder tests: naive attention oracle, threshold/geometry edge cases."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevnext import object_decoder, weights
from bevnext.config import SceneConfig, load_config
from bevnext.errors import FormatError, ShapeError
from bevnext.kernels import ConvSpec, SplitMix64, bilinear_sample, conv2d, mlp_forward, softmax
from bevnext.object_decoder import (
    HEATMAP_CLAMP,
    PROPOSAL_DTYPE,
    ROI_SIZE,
    DETECTION_DTYPE,
    AttnSpec,
    Heatmap,
    RefPointSet,
    attention_weights,
    compute_heatmap,
    depth_embedding,
    format_detections,
    lift_references,
    parse_detections,
    regress,
    check_detections,
    sampling_offsets,
    select_centers,
    spatial_cross_attention,
)
from bevnext.view_transform import BevGrid, BevSpec, CameraModel
from factories import (
    attn_spec,
    cam_to_ego,
    conv_spec,
    detection_oracle,
    detections,
    mlp_spec,
    proposals,
    reference_points,
    refined_patches,
    regression_heads,
    roi_windows,
    tile_roi,
    traced_transient,
    zero_heads,
    zero_mlp,
)


# ---------------------------------------------------------------- oracles


def manual_bilinear(fmap, x, y):
    """Single-point bilinear lookup; zeros outside [0, W-1] x [0, H-1]."""
    c, h, w = fmap.shape
    if not (0 <= x <= w - 1 and 0 <= y <= h - 1):
        return np.zeros(c, np.float32)
    x0 = min(int(math.floor(x)), w - 2) if w > 1 else 0
    y0 = min(int(math.floor(y)), h - 2) if h > 1 else 0
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = x - x0, y - y0
    f = fmap.astype(np.float64)
    val = (
        f[:, y0, x0] * (1 - fx) * (1 - fy)
        + f[:, y0, x1] * fx * (1 - fy)
        + f[:, y1, x0] * (1 - fx) * fy
        + f[:, y1, x1] * fx * fy
    )
    return val.astype(np.float32)


def naive_sca(bev, props, query, refs, features, attn, stride, embedding=None):
    """Literal loop over (roi, camera, height, point); returns the refined patches and flags."""
    maps = features if embedding is None else features + embedding
    patches = roi_windows(bev, props)
    n, ncam, j_count = refs.valid.shape
    p_count = attn.n_points
    out, flags = [], []
    for i in range(n):
        q = patches[i, :, 3, 3].astype(np.float64) + query[0].astype(np.float64)
        w_raw = (attn.w_weight.astype(np.float64) @ q + attn.b_weight).reshape(j_count, p_count)
        e = np.exp(w_raw - w_raw.max(axis=1, keepdims=True))
        wgt = e / e.sum(axis=1, keepdims=True)
        off = (attn.w_offset.astype(np.float64) @ q + attn.b_offset).reshape(j_count, p_count, 2)
        acc = np.zeros(attn.channels)
        hit = False
        for cam in range(ncam):
            for j in range(j_count):
                if not refs.valid[i, cam, j]:
                    continue
                hit = True
                for p in range(p_count):
                    sx = refs.uv[i, cam, j, 0] / stride - 0.5 + off[j, p, 0]
                    sy = refs.uv[i, cam, j, 1] / stride - 0.5 + off[j, p, 1]
                    sampled = manual_bilinear(maps[cam], sx, sy)
                    acc += wgt[j, p] * (attn.w_value.astype(np.float64) @ sampled.astype(np.float64) + attn.b_value)
        if hit:
            delta = attn.w_out.astype(np.float64) @ acc + attn.b_out
            out.append(patches[i] + delta.astype(np.float32)[:, None, None])
        else:
            out.append(patches[i])
        flags.append(hit)
    return np.stack(out), np.array(flags)


def loop_attention_weights(attn, query):
    q = np.asarray(query, dtype=np.float64)
    raw = attn.w_weight.astype(np.float64) @ q + attn.b_weight.astype(np.float64)
    return softmax(raw.reshape(attn.n_ref, attn.n_points), axis=1)


def loop_sampling_offsets(attn, query):
    q = np.asarray(query, dtype=np.float64)
    raw = attn.w_offset.astype(np.float64) @ q + attn.b_offset.astype(np.float64)
    return raw.reshape(attn.n_ref, attn.n_points, 2)


def loop_sca(bev, props, query, refs, features, attn, stride, embedding=None):
    """The per-ROI, per-camera loop spatial_cross_attention ran before it was
    batched over ROIs; the bit-exact oracle for its summation order. Returns
    the float32 residuals, zero where not refined, and the refined flags."""
    feats = np.asarray(features, dtype=np.float32)
    maps = feats if embedding is None else feats + np.asarray(embedding, dtype=np.float32)
    w_value = attn.w_value.astype(np.float64)
    b_value = attn.b_value.astype(np.float64)
    w_out = attn.w_out.astype(np.float64)
    b_out = attn.b_out.astype(np.float64)
    patches = roi_windows(bev, props)
    residual = np.zeros((len(props), bev.channels), dtype=np.float32)
    flags = np.zeros(len(props), dtype=bool)
    for i in range(len(props)):
        q = patches[i, :, ROI_SIZE // 2, ROI_SIZE // 2].astype(np.float64) + query[0].astype(np.float64)
        wgt = loop_attention_weights(attn, q)
        off = loop_sampling_offsets(attn, q)
        acc = np.zeros(attn.channels, dtype=np.float64)
        hit = False
        for cam in range(feats.shape[0]):
            mask = refs.valid[i, cam]
            if not mask.any():
                continue
            hit = True
            j_idx = np.nonzero(mask)[0]
            base = refs.uv[i, cam][j_idx] / stride - 0.5
            pts = base[:, None, :] + off[j_idx]
            vals, _ = bilinear_sample(maps[cam], pts.reshape(-1, 2))
            projected = np.einsum("pc,oc->po", vals.astype(np.float64), w_value) + b_value
            acc += np.einsum("p,po->o", wgt[j_idx].reshape(-1), projected)
        if hit:
            residual[i] = np.einsum("c,oc->o", acc, w_out) + b_out
            flags[i] = True
    return residual, flags


def loop_regress(bev, props, residual, refined, heads, spec):
    """The per-ROI loop regress ran before it worked on whole arrays; the
    bit-exact oracle for its arithmetic, its rows checked one at a time by
    factories.detection_oracle."""
    pooled = refined_patches(bev, props, residual, refined).astype(np.float64).mean(axis=(2, 3)).astype(np.float32)
    trunk = mlp_forward(pooled, heads.shared)
    off = mlp_forward(trunk, heads.offset).astype(np.float64)
    zed = mlp_forward(trunk, heads.z).astype(np.float64)
    size = mlp_forward(trunk, heads.size).astype(np.float64)
    yaw_raw = mlp_forward(trunk, heads.yaw).astype(np.float64)
    vel = mlp_forward(trunk, heads.vel).astype(np.float64)
    rows = []
    for i, (cx, cy) in enumerate(props["center"].tolist()):
        dx, dy = 0.5 * np.tanh(off[i])
        x = -spec.extent + (cx + 0.5 + dx) * spec.cell_size
        y = -spec.extent + (cy + 0.5 + dy) * spec.cell_size
        l, w, h = np.maximum(np.exp(size[i]), 1e-6)
        yaw = math.atan2(yaw_raw[i, 0], yaw_raw[i, 1])
        if yaw <= -math.pi:
            yaw += 2.0 * math.pi
        values = (x, y, zed[i, 0], l, w, h, yaw, vel[i, 0], vel[i, 1], props["score"][i])
        rows.append((int(props["cls"][i]),) + tuple(map(float, values)))
    return detections(rows)


def single_class_heatmap(values):
    return Heatmap(np.asarray(values, dtype=np.float64)[None])


def make_roi(rng, n, c):
    """(bev, proposals, query), spatial_cross_attention's first three arguments: n random
    windows tiled into a grid, and a random [1, c] query row."""
    bev, props = tile_roi(rng.uniform_array((n, c, 7, 7), -1, 1))
    return bev, props, rng.uniform_array((1, c), -0.5, 0.5)


def no_residual(bev, props):
    return np.zeros((len(props), bev.channels), np.float32), np.zeros(len(props), bool)


def pooled_by_regress(monkeypatch, bev, props, residual, refined):
    """The [N, C] float32 vectors regress feeds its shared trunk."""
    inputs = []

    def recording(x, spec):
        inputs.append(x)
        return mlp_forward(x, spec)

    monkeypatch.setattr(object_decoder, "mlp_forward", recording)
    regress(bev, props, residual, refined, zero_heads(bev.channels), BevSpec(8, 4.0))
    return inputs[0]


def make_refs(rng, n, ncam, j, image_h, image_w, valid_rate=0.7):
    uv = np.stack(
        [
            rng.uniform_array((n, ncam, j), 0, image_w).astype(np.float64),
            rng.uniform_array((n, ncam, j), 0, image_h).astype(np.float64),
        ],
        axis=-1,
    )
    return RefPointSet(uv=uv, valid=rng.uniform_array((n, ncam, j)) < valid_rate)


# ---------------------------------------------------------------- heatmap


def test_heatmap_zero_conv_gives_half():
    bev = BevGrid(np.zeros((3, 8, 8), np.float32))
    spec = ConvSpec(np.zeros((2, 3, 3, 3), np.float32), np.zeros(2, np.float32), 1, 1)
    h = compute_heatmap(bev, spec)
    np.testing.assert_array_equal(h.values, np.full((2, 8, 8), 0.5))


def test_heatmap_saturating_bias():
    bev = BevGrid(np.zeros((2, 8, 8), np.float32))
    spec = ConvSpec(np.zeros((1, 2, 3, 3), np.float32), np.full(1, -20.0, np.float32), 1, 1)
    h = compute_heatmap(bev, spec)
    assert h.values.max() < 1e-8
    assert h.values.min() > 0  # open interval survives saturation


def test_heatmap_clips_saturated_scores_into_the_open_interval():
    """Scores that the sigmoid rounds to exactly 0 or 1 are clipped to HEATMAP_CLAMP from either end."""
    bev = BevGrid(np.zeros((2, 8, 8), np.float32))
    spec = ConvSpec(np.zeros((2, 2, 3, 3), np.float32), np.array([-1000.0, 1000.0], np.float32), 1, 1)
    h = compute_heatmap(bev, spec)
    assert (h.values[0] == HEATMAP_CLAMP).all() and (h.values[1] == 1.0 - HEATMAP_CLAMP).all()


def test_heatmap_matches_conv_sigmoid_composition():
    rng = SplitMix64(3)
    bev = BevGrid(rng.uniform_array((3, 8, 8), -1, 1))
    spec = conv_spec(3, 2, 3, rng)
    h = compute_heatmap(bev, spec)
    raw = conv2d(bev.data[None], spec)[0].astype(np.float64)
    ref = 1.0 / (1.0 + np.exp(-raw))
    np.testing.assert_allclose(h.values, ref, atol=1e-6, rtol=0)


# ---------------------------------------------------------------- select


def test_select_strict_threshold():
    vals = np.full((8, 8), 0.01)
    vals[2, 3] = 0.05
    vals[4, 5] = 0.1
    vals[6, 7] = 0.2
    picked = select_centers(single_class_heatmap(vals), 0.1)
    assert picked.dtype == PROPOSAL_DTYPE
    assert picked["center"].tolist() == [[7, 6]]
    assert picked["score"].tolist() == [0.2]
    assert picked["cls"].tolist() == [0]


def test_select_empty_below_threshold():
    picked = select_centers(single_class_heatmap(np.full((8, 8), 0.05)), 0.1)
    assert len(picked) == 0 and picked.dtype == PROPOSAL_DTYPE


def test_select_uniform_top_n_tie_order():
    picked = select_centers(single_class_heatmap(np.full((8, 8), 0.5)), 0.1, top_n=10)
    assert len(picked) == 10
    assert picked["center"][:, ::-1].tolist() == [[0, x] for x in range(8)] + [[1, 0], [1, 1]]


def test_select_argmax_class_per_cell():
    vals = np.full((2, 8, 8), 0.2)
    vals[1, 3, 4] = 0.7
    picked = select_centers(Heatmap(vals), 0.6)
    assert len(picked) == 1
    assert (picked["center"].tolist(), picked["cls"].tolist(), picked["score"].tolist()) == ([[4, 3]], [1], [0.7])


def test_select_sorted_by_descending_score():
    rng = SplitMix64(7)
    vals = rng.uniform_array((2, 8, 8), 0.01, 0.99).astype(np.float64)
    picked = select_centers(Heatmap(vals), 0.3)
    scores = picked["score"].tolist()
    assert scores == sorted(scores, reverse=True)


def test_select_monotone_in_threshold():
    rng = SplitMix64(9)
    vals = rng.uniform_array((2, 8, 8), 0.01, 0.99).astype(np.float64)
    h = Heatmap(vals)
    prev = {tuple(c) for c in select_centers(h, 0.0)["center"].tolist()}
    assert len(prev) == 64  # threshold zero keeps every cell
    for tau in (0.2, 0.4, 0.6, 0.8):
        cur = {tuple(c) for c in select_centers(h, tau)["center"].tolist()}
        assert cur <= prev
        prev = cur


# ---------------------------------------------------------------- roi


def test_roi_interior_patch_is_subgrid(monkeypatch):
    rng = SplitMix64(11)
    bev = BevGrid(rng.uniform_array((2, 16, 16), -1, 1))
    props = proposals([(8, 9)])
    np.testing.assert_array_equal(roi_windows(bev, props)[0], bev.data[:, 6:13, 5:12])
    pooled = pooled_by_regress(monkeypatch, bev, props, *no_residual(bev, props))
    window_mean = bev.data[:, 6:13, 5:12].astype(np.float64).mean(axis=(1, 2)).astype(np.float32)
    assert pooled[0].tobytes() == window_mean.tobytes()


def test_roi_corner_patch_zero_padded(monkeypatch):
    bev = BevGrid(np.ones((1, 32, 32), np.float32))
    props = proposals([(0, 0)])
    patch = roi_windows(bev, props)[0, 0]
    assert not patch[:3, :].any()
    assert not patch[:, :3].any()
    assert (patch[3:, 3:] == 1).all()
    assert pooled_by_regress(monkeypatch, bev, props, *no_residual(bev, props))[0, 0] == np.float32(16 / 49)


def test_roi_interior_ones_sum_49(monkeypatch):
    bev = BevGrid(np.ones((1, 16, 16), np.float32))
    props = proposals([(8, 8)])
    assert roi_windows(bev, props)[0].sum() == 49
    assert pooled_by_regress(monkeypatch, bev, props, *no_residual(bev, props))[0, 0] == 1.0


def test_roi_bit_identical_to_loop_oracle_on_every_border_cell(monkeypatch):
    """regress pools the zero-padded window of every border cell, plus the residual where refined,
    bit for bit as the windows cut one at a time would pool."""
    rng = np.random.default_rng(47)
    data = rng.normal(0.0, 1.0, (3, 8, 8)).astype(np.float32)
    data[0, 0, 0] = -0.0  # the sign of zero is a bit too
    bev = BevGrid(data)
    cells = [(x, y) for y in range(8) for x in range(8) if x in (0, 7) or y in (0, 7)] + [(3, 4), (1, 6)]
    props = proposals(cells, np.arange(len(cells)) % 3)
    residual = rng.normal(0.0, 1.0, (len(props), 3)).astype(np.float32)
    refined = np.arange(len(props)) % 2 == 0
    pooled = pooled_by_regress(monkeypatch, bev, props, residual, refined)
    oracle = refined_patches(bev, props, residual, refined).astype(np.float64).mean(axis=(2, 3)).astype(np.float32)
    assert pooled.view(np.uint32).tobytes() == oracle.view(np.uint32).tobytes()


def _decode_stage(stage, bev, props):
    """Run spatial_cross_attention or regress on props, with every other input well formed."""
    n, c = len(props), bev.channels
    if stage == "regress":
        return regress(bev, props, np.zeros((n, c)), np.zeros(n, bool), zero_heads(c), BevSpec(8, 4.0))
    refs = RefPointSet(np.zeros((n, 1, 1, 2)), np.zeros((n, 1, 1), bool))
    features = np.zeros((1, c, 6, 6), np.float32)
    return spatial_cross_attention(bev, props, np.zeros((1, c)), refs, features, _unit_attn(c), 8)


@pytest.mark.parametrize("stage", ["spatial_cross_attention", "regress"])
@pytest.mark.parametrize(
    "props, cause",
    [
        (proposals([(3, 3), (8, 0), (9, 9)]), r"center \(8, 0\) outside grid axis 0\.\.7"),
        (proposals([(3, 3), (0, -1), (9, 9)]), r"center \(0, -1\) outside grid axis 0\.\.7"),
        (proposals([(3, 3), (-1, 8), (9, 9)]), r"center \(-1, 8\) outside grid axis 0\.\.7"),
        (np.array([(3, 3), (4, 4), (5, 5)], np.int64), r"proposals must be an \[N\] PROPOSAL_DTYPE array, got int64"),
    ],
    ids=["x-at-G", "y-at-minus-1", "minus-1-and-G", "plain-int64"],
)
def test_stage_two_refuses_malformed_proposals(stage, props, cause):
    """Both stage-two steps refuse proposals that fancy indexing would wrap or fail on, naming the first."""
    bev = BevGrid(np.ones((2, 8, 8), np.float32))
    with pytest.raises(ShapeError, match=f"^{stage}: {cause}"):
        _decode_stage(stage, bev, props)


def test_zero_proposals_allocate_no_padded_grid_at_full_size():
    """tracemalloc on a full.cfg-sized grid and camera maps: with no proposals,
    spatial_cross_attention and regress copy neither the grid (4.6 MB padded) nor the maps
    (1.1 MB summed with their embedding, 0.36 MB per camera widened to float64)."""
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "full.cfg"))
    c, g = cfg.channels, cfg.bev_grid
    bev = BevGrid(np.ones((c, g, g), np.float32))
    features = np.ones((cfg.camera_count, c, cfg.feat_h, cfg.feat_w), np.float32)
    attn = attn_spec(c, len(cfg.heights), cfg.points, SplitMix64(3))
    refs = lift_references(np.zeros((0, 2)), cfg.bev(), cfg.heights, cfg.rig(), cfg.image_h, cfg.image_w)
    heads, spec, query = zero_heads(c), cfg.bev(), np.zeros((1, c), np.float32)

    def decode():
        props = proposals([])
        residual, refined = spatial_cross_attention(bev, props, query, refs, features, attn, cfg.stride, features)
        assert len(regress(bev, props, residual, refined, heads, spec)) == 0

    assert traced_transient(decode) < 2**18


# ---------------------------------------------------------------- references


def _axis_camera(translation, image=(64, 64)):
    return CameraModel(100.0, 100.0, image[1] / 2, image[0] / 2, np.eye(3), np.asarray(translation, np.float64))


def test_references_on_optical_axis():
    spec = BevSpec(8, 4.0)
    rig = (_axis_camera([-0.5, -0.5, 0.0]),)
    # cell (3, 3) center is ego (-0.5, -0.5); height 1.0 puts it on the optical axis
    np.testing.assert_array_equal(reference_points([[3, 3]], spec, [1.0]), [[[-0.5, -0.5, 1.0]]])
    refs = lift_references(np.array([[3, 3]]), spec, [1.0], rig, 64, 64)
    np.testing.assert_allclose(refs.uv[0, 0, 0], [32.0, 32.0], atol=1e-9)
    assert refs.valid[0, 0, 0]


def test_references_behind_camera_invalid():
    spec = BevSpec(8, 4.0)
    rig = (_axis_camera([-0.5, -0.5, 2.0]),)  # camera past the point
    refs = lift_references(np.array([[3, 3]]), spec, [1.0], rig, 64, 64)
    assert not refs.valid[0, 0, 0]


def test_references_outside_image_invalid():
    spec = BevSpec(8, 4.0)
    rig = (_axis_camera([-4.5, -0.5, 0.0]),)  # 4 m lateral offset
    refs = lift_references(np.array([[3, 3]]), spec, [1.0], rig, 64, 64)
    assert not refs.valid[0, 0, 0]


def _random_ref_camera(rng):
    a = rng.uniform_array((3, 3), -1, 1).astype(np.float64)
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return CameraModel(90.0, 110.0, 32.0, 32.0, q, rng.uniform_array((3,), -1, 1).astype(np.float64))


def test_references_roundtrip_to_ego():
    rng = SplitMix64(15)
    spec = BevSpec(8, 4.0)
    rig = tuple(_random_ref_camera(rng) for _ in range(3))
    cells = np.array([[1, 2], [4, 4], [6, 3], [0, 7]])
    heights = [-1.0, 0.5, 2.0]
    refs = lift_references(cells, spec, heights, rig, 64, 64)
    points = reference_points(cells, spec, heights)
    assert refs.valid.any()
    for i in range(cells.shape[0]):
        for ci, cam in enumerate(rig):
            for j in range(len(heights)):
                if not refs.valid[i, ci, j]:
                    continue
                u, v = refs.uv[i, ci, j]
                p_ego = points[i, j]
                depth = cam.ego_to_cam(p_ego[None])[0, 2]
                p_cam = np.array([(u - cam.cx) / cam.fx * depth, (v - cam.cy) / cam.fy * depth, depth])
                np.testing.assert_allclose(cam_to_ego(cam, p_cam[None])[0], p_ego, atol=1e-5)


# ---------------------------------------------------------------- embedding


def test_depth_embedding_zero_mlp():
    probs = np.full((4, 3, 5), 0.25)
    emb = depth_embedding(probs, zero_mlp([4, 6, 2]))
    assert emb.shape == (2, 3, 5)
    assert not emb.any()


def test_depth_embedding_pointwise():
    rng = SplitMix64(17)
    probs = np.full((4, 2, 3), 0.25)
    probs[:, 1, 2] = [0.7, 0.1, 0.1, 0.1]
    probs[:, 0, 0] = [0.7, 0.1, 0.1, 0.1]
    mlp = mlp_spec([4, 5, 3], rng)
    emb = depth_embedding(probs, mlp)
    np.testing.assert_array_equal(emb[:, 1, 2], emb[:, 0, 0])


def test_depth_embedding_matches_per_pixel_oracle():
    rng = SplitMix64(19)
    probs = softmax(rng.uniform_array((4, 3, 4), -1, 1), axis=0)
    mlp = mlp_spec([4, 6, 5], rng)
    emb = depth_embedding(probs, mlp)
    for r in range(3):
        for c in range(4):
            ref = mlp_forward(probs[:, r, c].astype(np.float32), mlp)
            np.testing.assert_allclose(emb[:, r, c], ref, atol=1e-6, rtol=0)


# ---------------------------------------------------------------- attention


def _unit_attn(c, rng=None, n_ref=1, n_points=1):
    """Identity-ish attention: zero offsets, identity output projection."""
    rng = rng or SplitMix64(99)
    return AttnSpec(
        n_ref=n_ref,
        n_points=n_points,
        w_offset=np.zeros((n_ref * n_points * 2, c), np.float32),
        b_offset=np.zeros(n_ref * n_points * 2, np.float32),
        w_weight=np.zeros((n_ref * n_points, c), np.float32),
        b_weight=np.zeros(n_ref * n_points, np.float32),
        w_value=rng.uniform_array((c, c), -0.5, 0.5),
        b_value=np.zeros(c, np.float32),
        w_out=np.eye(c, dtype=np.float32),
        b_out=np.zeros(c, np.float32),
    )


def test_attention_weights_normalized():
    rng = SplitMix64(21)
    attn = attn_spec(6, 4, 2, rng)
    queries = rng.uniform_array((5, 6), -2, 2).astype(np.float64)
    for q in queries:
        w = attention_weights(attn, q)
        assert w.shape == (4, 2)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)
        off = sampling_offsets(attn, q)
        assert off.shape == (4, 2, 2)
    # a batch of queries gets each query's own bits
    batch_w, batch_off = attention_weights(attn, queries), sampling_offsets(attn, queries)
    assert batch_w.shape == (5, 4, 2) and batch_off.shape == (5, 4, 2, 2)
    for q, w, off in zip(queries, batch_w, batch_off):
        np.testing.assert_array_equal(w, loop_attention_weights(attn, q))
        np.testing.assert_array_equal(off, loop_sampling_offsets(attn, q))


def test_sca_degenerate_single_sample():
    rng = SplitMix64(23)
    c, stride = 3, 8
    roi = make_roi(rng, 1, c)
    attn = _unit_attn(c, rng)
    features = rng.uniform_array((1, c, 6, 6), -1, 1)
    uv = np.array([[[[20.0, 28.0]]]])  # feature coords (1.5, 2.5)
    refs = RefPointSet(uv=uv, valid=np.ones((1, 1, 1), bool))
    residual, flags = spatial_cross_attention(*roi, refs, features, attn, stride)
    assert flags[0]
    sampled = manual_bilinear(features[0], 20.0 / stride - 0.5, 28.0 / stride - 0.5)
    delta = (attn.w_value.astype(np.float64) @ sampled.astype(np.float64)).astype(np.float32)
    np.testing.assert_allclose(residual[0], delta, atol=1e-6)
    np.testing.assert_allclose(
        refined_patches(*roi[:2], residual, flags)[0], roi_windows(*roi[:2])[0] + delta[:, None, None], atol=1e-6
    )


def test_sca_all_invalid_passthrough():
    rng = SplitMix64(25)
    c = 3
    roi = make_roi(rng, 2, c)
    attn = attn_spec(c, 2, 2, rng)
    features = rng.uniform_array((2, c, 6, 6), -1, 1)
    refs = make_refs(rng, 2, 2, 2, 48, 48, valid_rate=-1.0)  # nothing valid
    residual, flags = spatial_cross_attention(*roi, refs, features, attn, 8)
    assert not flags.any() and not residual.any()
    np.testing.assert_array_equal(refined_patches(*roi[:2], residual, flags), roi_windows(*roi[:2]))


def test_sca_matches_naive_oracle():
    rng = SplitMix64(27)
    c, n, ncam, j, stride = 4, 3, 2, 2, 8
    roi = make_roi(rng, n, c)
    attn = attn_spec(c, j, 2, rng)
    features = rng.uniform_array((ncam, c, 8, 10), -1, 1)
    refs = make_refs(rng, n, ncam, j, 64, 80)
    residual, flags = spatial_cross_attention(*roi, refs, features, attn, stride)
    ref_patches, ref_flags = naive_sca(*roi, refs, features, attn, stride)
    np.testing.assert_array_equal(flags, ref_flags)
    np.testing.assert_allclose(refined_patches(*roi[:2], residual, flags), ref_patches, atol=1e-5, rtol=0)


def test_sca_oracle_with_embedding():
    rng = SplitMix64(29)
    c, n, ncam, j, stride = 3, 2, 2, 3, 8
    roi = make_roi(rng, n, c)
    attn = attn_spec(c, j, 2, rng)
    features = rng.uniform_array((ncam, c, 8, 10), -1, 1)
    embedding = rng.uniform_array((ncam, c, 8, 10), -0.5, 0.5)
    refs = make_refs(rng, n, ncam, j, 64, 80)
    residual, flags = spatial_cross_attention(*roi, refs, features, attn, stride, embedding=embedding)
    ref_patches, _ = naive_sca(*roi, refs, features, attn, stride, embedding=embedding)
    np.testing.assert_allclose(refined_patches(*roi[:2], residual, flags), ref_patches, atol=1e-5, rtol=0)


def test_sca_zero_embedding_is_identity_ablation():
    rng = SplitMix64(31)
    c, n, ncam, j, stride = 3, 2, 2, 2, 8
    roi = make_roi(rng, n, c)
    attn = attn_spec(c, j, 2, rng)
    features = rng.uniform_array((ncam, c, 8, 10), -1, 1)
    refs = make_refs(rng, n, ncam, j, 64, 80)
    probs = np.full((5, 8, 10), 0.2)
    zero_emb = np.stack([depth_embedding(probs, zero_mlp([5, c])) for i in range(ncam)])
    with_emb, _ = spatial_cross_attention(*roi, refs, features, attn, stride, embedding=zero_emb)
    without, _ = spatial_cross_attention(*roi, refs, features, attn, stride)
    assert with_emb.tobytes() == without.tobytes()


def _order_sensitive_sca(seed, n, ncam, n_ref, n_points, c, with_embedding):
    """ROIs, references, maps and weights on which the decoder's sum order shows.

    Values have random signs and magnitudes from 1e-8 to 1e8: cameras 0
    and 1 hold the large ones, the other cameras and the patches span the
    whole range. Camera 1 holds exactly the negated maps of camera 0, and
    half the ROIs see both at the same references, so those two partial
    sums cancel exactly when added in camera order; a small partial added
    to one of them first loses its low bits. ROI 0 has no valid reference,
    ROI 1 one camera, ROI 2 every (camera, height), and ROI 3 a camera
    whose valid heights project far off the feature map. The rest are
    random.
    """
    rng = np.random.default_rng(seed)
    fh, fw, stride = 5, 7, 8

    def spread(shape, low=-8.0, high=8.0):
        signs = rng.choice(np.array([-1.0, 1.0]), size=shape)
        return (signs * 10.0 ** rng.uniform(low, high, shape)).astype(np.float32)

    def camera_maps():
        maps = spread((ncam, c, fh, fw), high=-1.0)
        maps[0] = spread((c, fh, fw), low=0.0)
        maps[1] = -maps[0]
        return maps

    features = camera_maps()
    embedding = camera_maps() if with_embedding else None
    uv = np.stack(
        [rng.uniform(0.0, fw * stride, (n, ncam, n_ref)), rng.uniform(0.0, fh * stride, (n, ncam, n_ref))],
        axis=-1,
    )
    valid = rng.random((n, ncam, n_ref)) < 0.6
    twins = rng.random(n) < 0.5
    uv[twins, 1], valid[twins, 1] = uv[twins, 0], valid[twins, 0]
    valid[0] = False
    valid[1] = False
    valid[1, 1, 0] = True
    valid[2] = True
    valid[3] = False
    valid[3, ncam - 1] = True
    uv[3, ncam - 1] = 1e4
    refs = RefPointSet(uv=uv, valid=valid)
    roi = (*tile_roi(spread((n, c, ROI_SIZE, ROI_SIZE))), spread((1, c)))
    # tiny weight and offset projections keep the softmax finite and the
    # offsets within a few pixels for queries up to 1e8
    rows = n_ref * n_points
    attn = AttnSpec(
        n_ref=n_ref,
        n_points=n_points,
        w_offset=rng.uniform(-1e-8, 1e-8, (2 * rows, c)),
        b_offset=rng.uniform(-1.5, 1.5, 2 * rows),
        w_weight=rng.uniform(-1e-8, 1e-8, (rows, c)),
        b_weight=rng.uniform(-2.0, 2.0, rows),
        w_value=rng.uniform(-1.0, 1.0, (c, c)),
        b_value=np.zeros(c),
        w_out=rng.uniform(-1.0, 1.0, (c, c)),
        b_out=np.zeros(c),
    )
    return roi, refs, features, attn, stride, embedding


def _cameras_reversed(refs, features, embedding):
    flipped = RefPointSet(refs.uv[:, ::-1], refs.valid[:, ::-1])
    return flipped, features[::-1], None if embedding is None else embedding[::-1]


@pytest.mark.parametrize("with_embedding", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_sca_bit_identical_to_loop_oracle(seed, with_embedding):
    roi, refs, features, attn, stride, emb = _order_sensitive_sca(seed, 24, 3, 4, 2, 6, with_embedding)
    residual, flags = spatial_cross_attention(*roi, refs, features, attn, stride, emb)
    expected, expected_flags = loop_sca(*roi, refs, features, attn, stride, emb)
    np.testing.assert_array_equal(flags, expected_flags)
    np.testing.assert_array_equal(residual, expected)
    assert list(flags[:4]) == [False, True, True, True]
    assert not residual[0].any()
    np.testing.assert_array_equal(refined_patches(*roi[:2], residual, flags)[0], roi_windows(*roi[:2])[0])
    # the same per-camera sums added in reverse camera order change the bits
    flipped_refs, flipped_features, flipped_emb = _cameras_reversed(refs, features, emb)
    back_to_front, _ = loop_sca(*roi, flipped_refs, flipped_features, attn, stride, flipped_emb)
    assert not np.array_equal(back_to_front, expected), "data cannot detect a reordered camera sum"


@pytest.mark.parametrize("block", [1, 7, 24])
def test_sca_bit_identical_to_loop_oracle_in_any_roi_block(monkeypatch, block):
    """Sampling a camera's visible ROIs ROI_BLOCK at a time (here 1, 7 and all 24) leaves every bit."""
    roi, refs, features, attn, stride, emb = _order_sensitive_sca(3, 24, 3, 4, 2, 6, True)
    monkeypatch.setattr(object_decoder, "ROI_BLOCK", block)
    residual, flags = spatial_cross_attention(*roi, refs, features, attn, stride, emb)
    expected, expected_flags = loop_sca(*roi, refs, features, attn, stride, emb)
    np.testing.assert_array_equal(flags, expected_flags)
    np.testing.assert_array_equal(residual, expected)


def test_sca_bit_identical_to_loop_oracle_within_a_camera():
    """Samples on grid points with weights of exactly 1/2 and identity
    projections, so each camera's partial is an exact sum of map values.
    The maps hold +-2**60 and values near 1, so the large terms cancel and
    whether a small one survives their float64 sum depends on the order
    within the camera."""
    rng = np.random.default_rng(5)
    n, ncam, n_ref, n_points, c, fh, fw, stride = 64, 2, 4, 2, 2, 4, 6, 8
    levels = np.array([2.0**60, -(2.0**60), 2.0**60, -(2.0**60), 0.75, -1.25, 3.0], dtype=np.float32)
    features = rng.choice(levels, size=(ncam, c, fh, fw))
    cells = np.stack([rng.integers(0, fw - 1, (n, ncam, n_ref)), rng.integers(0, fh - 1, (n, ncam, n_ref))], -1)
    refs = RefPointSet((cells + 0.5) * stride, rng.random((n, ncam, n_ref)) < 0.8)
    rows = n_ref * n_points
    eye = np.eye(c, dtype=np.float32)
    attn = AttnSpec(
        n_ref, n_points,
        w_offset=np.zeros((2 * rows, c)), b_offset=np.tile([0.0, 0.0, 1.0, 1.0], n_ref),
        w_weight=np.zeros((rows, c)), b_weight=np.zeros(rows),
        w_value=eye, b_value=np.zeros(c), w_out=eye, b_out=np.zeros(c),
    )
    roi = (*tile_roi(np.zeros((n, c, ROI_SIZE, ROI_SIZE))), np.zeros((1, c)))
    residual, flags = spatial_cross_attention(*roi, refs, features, attn, stride)
    expected, expected_flags = loop_sca(*roi, refs, features, attn, stride)
    np.testing.assert_array_equal(flags, expected_flags)
    np.testing.assert_array_equal(residual, expected)
    # the same samples summed with the heights back to front change the bits
    heights_flipped = RefPointSet(refs.uv[:, :, ::-1], refs.valid[:, :, ::-1])
    back_to_front, _ = loop_sca(*roi, heights_flipped, features, attn, stride)
    assert not np.array_equal(back_to_front, expected), "data cannot detect a reordered height sum"


def test_sca_empty_roi_set():
    rng = SplitMix64(41)
    roi = make_roi(rng, 0, 3)
    attn = attn_spec(3, 2, 2, rng)
    refs = make_refs(rng, 0, 2, 2, 48, 48)
    features = rng.uniform_array((2, 3, 6, 6), -1, 1)
    residual, flags = spatial_cross_attention(*roi, refs, features, attn, 8)
    expected, expected_flags = loop_sca(*roi, refs, features, attn, 8)
    np.testing.assert_array_equal(residual, expected)
    np.testing.assert_array_equal(flags, expected_flags)
    assert residual.shape == (0, 3) and residual.dtype == np.float32
    assert flags.shape == (0,) and flags.dtype == bool


def test_every_element_of_the_bundles_query_moves_a_refined_residual():
    """Stage two reads all of the bundle's query tensor: nudging any one element of it
    changes the residual of a refined ROI, so no stored query value goes unread."""
    cfg = SceneConfig()
    bundle = weights.init_bundle(cfg, 7)
    query, attn = bundle["decoder.query"], weights.attn_spec(bundle, cfg)
    rng = SplitMix64(43)
    bev = BevGrid(rng.uniform_array((cfg.channels, cfg.bev_grid, cfg.bev_grid), -1, 1))
    props = proposals([(4, 16), (16, 4), (28, 16), (16, 28)])
    refs = lift_references(props["center"], cfg.bev(), cfg.heights, cfg.rig(), cfg.image_h, cfg.image_w)
    features = rng.uniform_array((cfg.camera_count, cfg.channels, cfg.feat_h, cfg.feat_w), -1, 1)
    base, refined = spatial_cross_attention(bev, props, query, refs, features, attn, cfg.stride)
    assert refined.all()
    for idx in np.ndindex(query.shape):
        nudged = query.copy()
        nudged[idx] += 0.5
        residual, _ = spatial_cross_attention(bev, props, nudged, refs, features, attn, cfg.stride)
        assert not np.array_equal(residual, base), f"query element {idx} moves no refined residual"


# ---------------------------------------------------------------- regression


def test_regress_zero_heads():
    rng = SplitMix64(35)
    spec = BevSpec(8, 4.0)
    bev, props, _ = make_roi(rng, 1, 4)
    dets = regress(bev, props, *no_residual(bev, props), zero_heads(4), spec)
    d = dets[0]
    assert (d["l"], d["w"], d["h"]) == (1.0, 1.0, 1.0)
    assert d["yaw"] == 0.0
    assert (d["vx"], d["vy"]) == (0.0, 0.0)
    assert d["z"] == 0.0
    np.testing.assert_allclose(d["x"], -4.0 + (props["center"][0, 0] + 0.5) * 1.0)
    np.testing.assert_allclose(d["y"], -4.0 + (props["center"][0, 1] + 0.5) * 1.0)


def test_regress_yaw_quarter_turn():
    rng = SplitMix64(37)
    spec = BevSpec(8, 4.0)
    bev, props, _ = make_roi(rng, 1, 4)
    heads = zero_heads(4)
    heads.yaw.biases[0][:] = [1.0, 0.0]  # (sin, cos) raw outputs
    dets = regress(bev, props, *no_residual(bev, props), heads, spec)
    np.testing.assert_allclose(dets[0]["yaw"], math.pi / 2, atol=1e-12)


def test_regress_offset_bounded_by_half_cell():
    spec = BevSpec(8, 4.0)
    for seed in range(10):
        rng = SplitMix64(100 + seed)
        bev, props, _ = make_roi(rng, 3, 4)
        heads = regression_heads(4, rng)
        for d, (cx, cy) in zip(regress(bev, props, *no_residual(bev, props), heads, spec), props["center"]):
            center_x = -4.0 + (cx + 0.5) * 1.0
            center_y = -4.0 + (cy + 0.5) * 1.0
            assert abs(d["x"] - center_x) <= 0.5 + 1e-9
            assert abs(d["y"] - center_y) <= 0.5 + 1e-9
            assert d["l"] > 0 and d["w"] > 0 and d["h"] > 0
            assert -math.pi < d["yaw"] <= math.pi


def test_regress_bit_identical_to_loop_oracle():
    rng = np.random.default_rng(43)
    n, c = 4096, 8
    spec = BevSpec(64, 25.6)
    bev, props = tile_roi(
        rng.normal(0.0, 3.0, (n, c, ROI_SIZE, ROI_SIZE)),
        classes=rng.integers(0, 3, n),
        scores=rng.uniform(0.01, 0.99, n),
    )
    residual = rng.normal(0.0, 1.0, (n, c)).astype(np.float32)
    refined = rng.random(n) < 0.5
    heads = regression_heads(c, SplitMix64(45))
    dets = regress(bev, props, residual, refined, heads, spec)
    assert len(dets) == n and dets.dtype == DETECTION_DTYPE
    assert dets.tobytes() == loop_regress(bev, props, residual, refined, heads, spec).tobytes()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 1024])
def test_regress_pools_each_patch_as_a_float64_copy_would(monkeypatch, n):
    """The pooled vectors match a float64 copy's mean bit for bit, across magnitudes 1e-9 to 1e9."""
    rng = np.random.default_rng(n)
    c = 32
    magnitude = 10.0 ** rng.uniform(-9.0, 9.0, (n, c, ROI_SIZE, ROI_SIZE))
    patches = (magnitude * rng.choice([-1.0, 1.0], magnitude.shape)).astype(np.float32)
    bev, props = tile_roi(patches)
    pooled = pooled_by_regress(monkeypatch, bev, props, *no_residual(bev, props))
    oracle = patches.astype(np.float64).mean(axis=(2, 3)).astype(np.float32)
    assert pooled.dtype == np.float32
    assert pooled.view(np.uint32).tobytes() == oracle.view(np.uint32).tobytes()


def test_regress_empty_roi():
    spec = BevSpec(8, 4.0)
    bev, props = tile_roi(np.zeros((0, 4, 7, 7), np.float32))
    dets = regress(bev, props, *no_residual(bev, props), zero_heads(4), spec)
    assert dets.shape == (0,) and dets.dtype == DETECTION_DTYPE


# ---------------------------------------------------------------- detections


def unchecked(*rows):
    """A DETECTION_DTYPE array of the rows as given, no rule applied."""
    return np.array(list(rows), dtype=DETECTION_DTYPE)


def test_detection_line_format():
    dets = detections([(2, 1.25, -0.5, 0.75, 2.0, 1.0, 1.5, 0.5, 0.25, -0.125, 0.9)])
    line = format_detections(dets).strip()
    assert line == "2 1.250000 -0.500000 0.750000 2.000000 1.000000 1.500000 0.500000 0.250000 -0.125000 0.900000"


def test_detection_roundtrip():
    dets = detections([
        (0, 0.1, 0.2, 0.3, 1.0, 2.0, 3.0, -1.5, 0.0, 0.5, 0.4),
        (1, -2.0, 3.0, 0.0, 0.5, 0.5, 0.5, math.pi, 1.0, -1.0, 0.8),
    ])
    back = parse_detections(format_detections(dets))
    assert back.dtype == DETECTION_DTYPE and len(back) == 2
    assert back["cls"].tolist() == [0, 1]
    for field in DETECTION_DTYPE.names[1:]:
        np.testing.assert_allclose(back[field], dets[field], rtol=0, atol=1e-6)


def test_detection_parse_rejects_bad_columns():
    with pytest.raises(FormatError, match="column"):
        parse_detections("0 1.0 2.0\n")


@pytest.mark.parametrize(
    "line, cause",
    [
        ("0 1 2 3 0 1 1 0 0 0 0.5", "size must be strictly positive"),
        ("0 nan 2 3 1 1 1 0 0 0 0.5", "non-finite attribute"),
        ("0 1 2 3 1 1 1 9 0 0 0.5", "yaw 9.0 outside"),
    ],
    ids=["size-0", "nan", "yaw-9"],
)
def test_detection_parse_reports_rejected_detection_with_line_number(line, cause):
    with pytest.raises(FormatError, match=f"detection line 3: .*{cause}"):
        parse_detections("# header\n0 0 0 0 1 1 1 0 0 0 0.5\n" + line + "\n")


def test_detection_parse_refuses_a_class_id_int64_cannot_hold():
    good = "0 0 0 0 1 1 1 0 0 0 0.5\n"
    for cls in (2**63, -(2**63) - 1, 99999999999999999999):
        with pytest.raises(FormatError, match=f"detection line 2: class id {cls} does not fit in int64"):
            parse_detections(good + f"{cls} 0 0 0 1 1 1 0 0 0 0.5\n")
    for cls in (2**63 - 1, -(2**63)):
        assert parse_detections(good + f"{cls} 0 0 0 1 1 1 0 0 0 0.5\n")["cls"].tolist() == [0, cls]


def test_detection_parse_skips_blank_and_comments():
    text = "# header\n\n0 0.0 0.0 0.0 1.0 1.0 1.0 0.0 0.0 0.0 0.5\n"
    assert len(parse_detections(text)) == 1
    empty = parse_detections("# header\n\n")
    assert empty.shape == (0,) and empty.dtype == DETECTION_DTYPE


def test_detection_validates_size():
    assert check_detections(unchecked((0, 0, 0, 0, -1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.5))) == (
        0, "size must be strictly positive"
    )


def test_detection_size_that_prints_as_zero_is_rejected():
    assert check_detections(unchecked((0, 0, 0, 0, 1.0, 5e-7, 1.0, 0.0, 0.0, 0.0, 0.5))) == (
        0, "size w=5e-07 prints as 0.000000 and cannot be read back"
    )
    dets = unchecked((0, 0, 0, 0, 1.0, math.nextafter(5e-7, 1.0), 1.0, 0.0, 0.0, 0.0, 0.5))
    assert check_detections(dets) is None
    assert format_detections(dets).split()[5] == "0.000001"


@pytest.mark.parametrize("yaw", [-3.1415926, -math.pi, -math.pi - 1e-6, math.pi + 1e-6])
def test_detection_yaw_rounded_past_pi_reads_back(yaw):
    dets = unchecked((0, 0, 0, 0, 1.0, 1.0, 1.0, yaw, 0.0, 0.0, 0.5))
    assert check_detections(dets) is None
    text = format_detections(dets)
    (back,) = parse_detections(text)
    assert -math.pi < back["yaw"] <= math.pi
    assert format_detections(back[None]) == text


def test_detection_yaw_beyond_parse_slack_is_rejected():
    for yaw in (math.nextafter(-math.pi - 1e-6, -4.0), math.nextafter(math.pi + 1e-6, 4.0)):
        assert check_detections(unchecked((0, 0, 0, 0, 1.0, 1.0, 1.0, yaw, 0.0, 0.0, 0.5))) == (
            0, f"yaw {yaw} outside (-pi, pi]"
        )


@pytest.mark.parametrize(
    "row, cause",
    [
        ((0, 0, 0, math.inf, -1.0, 1e-9, 1.0, 9.0, 0, 0, 0.5), "non-finite attribute"),
        ((0, 0, 0, 0, 1e-9, -1.0, 1.0, 9.0, 0, 0, 0.5), "size must be strictly positive"),
        ((0, 0, 0, 0, 1.0, 1e-9, 2e-7, 9.0, 0, 0, 0.5), "size w=1e-09 prints as 0.000000 and cannot be read back"),
        ((0, 0, 0, 0, 1.0, 1.0, 1.0, -9.0, 0, 0, math.nan), "non-finite attribute"),
    ],
    ids=["inf-before-size", "size-before-tiny", "first-tiny-axis", "nan-before-yaw"],
)
def test_check_names_the_first_rule_a_row_breaks(row, cause):
    good = (1, 0, 0, 0, 1.0, 1.0, 1.0, 0.0, 0, 0, 0.5)
    assert detection_oracle(row)[0] == cause
    assert check_detections(unchecked(good, row, good, row)) == (1, cause)


def test_regress_refuses_an_overflowing_size_naming_the_row():
    spec = BevSpec(8, 4.0)
    bev, props, _ = make_roi(SplitMix64(35), 3, 4)
    heads = zero_heads(4)
    heads.size.biases[0][:] = 1000.0  # exp(1000) overflows to inf
    with np.errstate(over="ignore"), pytest.raises(ShapeError, match="regress: detection 0: non-finite attribute"):
        regress(bev, props, *no_residual(bev, props), heads, spec)


_ANY = st.floats(allow_nan=False, allow_infinity=False)
_VALUE = st.one_of(_ANY, _ANY, _ANY, st.sampled_from([math.nan, math.inf, -math.inf]))
_SIZE = st.one_of(st.floats(0.0, 2e-6), _VALUE)
_YAW = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(-math.pi - 1e-6, -math.pi + 1e-6),
    st.floats(math.pi - 1e-6, math.pi + 1e-6),
    st.sampled_from([math.nan, math.inf]),
)
_ROW = st.tuples(st.integers(-5, 5), _VALUE, _VALUE, _VALUE, _SIZE, _SIZE, _SIZE, _YAW, _VALUE, _VALUE, _VALUE)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROW, min_size=1, max_size=6))
def test_every_detection_text_parses_back_to_itself(rows):
    """check_detections against factories.detection_oracle on multi-row arrays.

    The check refuses the first row the oracle refuses, with the oracle's
    cause (for a row that breaks several rules, the first in order),
    remaps every accepted row's yaw as the oracle does, and the accepted
    rows' text parses back to itself; parse names the first refused row's
    line.
    """
    verdicts = [detection_oracle(row) for row in rows]
    refused = [i for i, (cause, _) in enumerate(verdicts) if cause is not None]
    accepted = [i for i, (cause, _) in enumerate(verdicts) if cause is None]
    dets = unchecked(*rows)
    assert check_detections(dets) == ((refused[0], verdicts[refused[0]][0]) if refused else None)
    assert dets["yaw"][accepted].tobytes() == np.array([verdicts[i][1] for i in accepted]).tobytes()
    text = format_detections(dets[accepted])
    assert format_detections(parse_detections(text)) == text
    if refused:
        with pytest.raises(FormatError, match=f"^detection line {refused[0] + 2}: "):
            parse_detections("# cls x y z l w h yaw vx vy score\n" + format_detections(dets))
