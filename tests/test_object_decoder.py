"""Object decoder tests: naive attention oracle, threshold/geometry edge cases."""

import math

import numpy as np
import pytest

from bevnext.depth_crf import DepthVolume
from bevnext.errors import FormatError, ShapeError
from bevnext.kernels import ConvSpec, SplitMix64, conv2d, mlp_forward
from bevnext.object_decoder import (
    AttnSpec,
    CenterProposal,
    Detection,
    Heatmap,
    RefPointSet,
    RoiSet,
    attention_weights,
    compute_heatmap,
    depth_embedding,
    expand_roi,
    format_detections,
    lift_references,
    parse_detections,
    regress,
    sampling_offsets,
    select_centers,
    spatial_cross_attention,
)
from bevnext.view_transform import BevGrid, BevSpec, CameraModel, CameraRig
from factories import attn_spec, cam_to_ego, conv_spec, mlp_spec, regression_heads, zero_heads, zero_mlp


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


def naive_sca(roi, refs, features, attn, stride, embedding=None):
    """Literal loop over (roi, camera, height, point)."""
    maps = features if embedding is None else features + embedding
    n, ncam, j_count = refs.valid.shape
    p_count = attn.n_points
    out, flags = [], []
    for i in range(n):
        q = roi.patches[i, :, 3, 3].astype(np.float64) + roi.queries[24].astype(np.float64)
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
            out.append(roi.patches[i] + delta.astype(np.float32)[:, None, None])
        else:
            out.append(roi.patches[i])
        flags.append(hit)
    return np.stack(out), np.array(flags)


def single_class_heatmap(values):
    return Heatmap(np.asarray(values, dtype=np.float64)[None])


def make_roi(rng, n, c, g=16):
    centers = np.stack([rng.uniform_array((n,), 3, g - 4).astype(np.int64) for _ in range(2)], axis=1)
    return RoiSet(
        centers=centers,
        classes=np.zeros(n, np.int64),
        scores=np.full(n, 0.5),
        patches=rng.uniform_array((n, c, 7, 7), -1, 1),
        queries=rng.uniform_array((49, c), -0.5, 0.5),
    )


def make_refs(rng, n, ncam, j, image_h, image_w, valid_rate=0.7):
    uv = np.stack(
        [
            rng.uniform_array((n, ncam, j), 0, image_w).astype(np.float64),
            rng.uniform_array((n, ncam, j), 0, image_h).astype(np.float64),
        ],
        axis=-1,
    )
    valid = rng.uniform_array((n, ncam, j)) < valid_rate
    return RefPointSet(
        points=rng.uniform_array((n, j, 3), -4, 4).astype(np.float64),
        uv=uv,
        valid=valid,
    )


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


def test_heatmap_matches_conv_sigmoid_composition():
    rng = SplitMix64(3)
    bev = BevGrid(rng.uniform_array((3, 8, 8), -1, 1))
    spec = conv_spec(3, 2, 3, rng)
    h = compute_heatmap(bev, spec)
    raw = conv2d(bev.data[None], spec)[0].astype(np.float64)
    ref = 1.0 / (1.0 + np.exp(-raw))
    np.testing.assert_allclose(h.values, ref, atol=1e-6, rtol=0)


def test_heatmap_channel_mismatch():
    rng = SplitMix64(5)
    bev = BevGrid(np.zeros((3, 8, 8), np.float32))
    with pytest.raises(ShapeError, match="channel"):
        compute_heatmap(bev, conv_spec(4, 2, 3, rng))


def test_heatmap_rejects_closed_interval_values():
    with pytest.raises(ShapeError, match="open interval"):
        Heatmap(np.zeros((1, 8, 8)))


# ---------------------------------------------------------------- select


def test_select_strict_threshold():
    vals = np.full((8, 8), 0.01)
    vals[2, 3] = 0.05
    vals[4, 5] = 0.1
    vals[6, 7] = 0.2
    picked = select_centers(single_class_heatmap(vals), 0.1)
    assert [(p.x, p.y) for p in picked] == [(7, 6)]
    assert picked[0].score == 0.2
    assert picked[0].cls == 0


def test_select_empty_below_threshold():
    assert select_centers(single_class_heatmap(np.full((8, 8), 0.05)), 0.1) == []


def test_select_uniform_top_n_tie_order():
    picked = select_centers(single_class_heatmap(np.full((8, 8), 0.5)), 0.1, top_n=10)
    assert len(picked) == 10
    assert [(p.y, p.x) for p in picked] == [(0, x) for x in range(8)] + [(1, 0), (1, 1)]


def test_select_argmax_class_per_cell():
    vals = np.full((2, 8, 8), 0.2)
    vals[1, 3, 4] = 0.7
    picked = select_centers(Heatmap(vals), 0.6)
    assert len(picked) == 1
    assert (picked[0].x, picked[0].y, picked[0].cls, picked[0].score) == (4, 3, 1, 0.7)


def test_select_sorted_by_descending_score():
    rng = SplitMix64(7)
    vals = rng.uniform_array((2, 8, 8), 0.01, 0.99).astype(np.float64)
    picked = select_centers(Heatmap(vals), 0.3)
    scores = [p.score for p in picked]
    assert scores == sorted(scores, reverse=True)


def test_select_monotone_in_threshold():
    rng = SplitMix64(9)
    vals = rng.uniform_array((2, 8, 8), 0.01, 0.99).astype(np.float64)
    h = Heatmap(vals)
    prev = {(p.x, p.y) for p in select_centers(h, 0.0)}
    assert len(prev) == 64  # threshold zero keeps every cell
    for tau in (0.2, 0.4, 0.6, 0.8):
        cur = {(p.x, p.y) for p in select_centers(h, tau)}
        assert cur <= prev
        prev = cur


def test_select_rejects_bad_threshold():
    with pytest.raises(ShapeError, match="threshold"):
        select_centers(single_class_heatmap(np.full((8, 8), 0.5)), 1.0)


# ---------------------------------------------------------------- roi


def test_roi_interior_patch_is_subgrid():
    rng = SplitMix64(11)
    bev = BevGrid(rng.uniform_array((2, 16, 16), -1, 1))
    queries = np.zeros((49, 2), np.float32)
    roi = expand_roi(bev, [CenterProposal(8, 9, 0, 0.5)], queries)
    np.testing.assert_array_equal(roi.patches[0], bev.data[:, 6:13, 5:12])


def test_roi_corner_patch_zero_padded():
    bev = BevGrid(np.ones((1, 32, 32), np.float32))
    roi = expand_roi(bev, [CenterProposal(0, 0, 0, 0.5)], np.zeros((49, 1), np.float32))
    patch = roi.patches[0, 0]
    assert not patch[:3, :].any()
    assert not patch[:, :3].any()
    assert (patch[3:, 3:] == 1).all()


def test_roi_interior_ones_sum_49():
    bev = BevGrid(np.ones((1, 16, 16), np.float32))
    roi = expand_roi(bev, [CenterProposal(8, 8, 0, 0.5)], np.zeros((49, 1), np.float32))
    assert roi.patches[0].sum() == 49


def test_roi_carries_queries_and_scores():
    rng = SplitMix64(13)
    bev = BevGrid(rng.uniform_array((2, 16, 16), -1, 1))
    queries = rng.uniform_array((49, 2), -1, 1)
    roi = expand_roi(bev, [CenterProposal(5, 6, 1, 0.7)], queries)
    np.testing.assert_array_equal(roi.queries, queries)
    assert roi.classes[0] == 1 and roi.scores[0] == 0.7


# ---------------------------------------------------------------- references


def _axis_camera(translation, image=(64, 64)):
    return CameraModel(100.0, 100.0, image[1] / 2, image[0] / 2, np.eye(3), np.asarray(translation, np.float64))


def test_references_on_optical_axis():
    spec = BevSpec(8, 1.0, 4.0)
    rig = CameraRig((_axis_camera([-0.5, -0.5, 0.0]),))
    # cell (3, 3) center is ego (-0.5, -0.5); height 1.0 puts it on the optical axis
    refs = lift_references(np.array([[3, 3]]), spec, [1.0], rig, 64, 64)
    np.testing.assert_allclose(refs.points[0, 0], [-0.5, -0.5, 1.0])
    np.testing.assert_allclose(refs.uv[0, 0, 0], [32.0, 32.0], atol=1e-9)
    assert refs.valid[0, 0, 0]


def test_references_behind_camera_invalid():
    spec = BevSpec(8, 1.0, 4.0)
    rig = CameraRig((_axis_camera([-0.5, -0.5, 2.0]),))  # camera past the point
    refs = lift_references(np.array([[3, 3]]), spec, [1.0], rig, 64, 64)
    assert not refs.valid[0, 0, 0]


def test_references_outside_image_invalid():
    spec = BevSpec(8, 1.0, 4.0)
    rig = CameraRig((_axis_camera([-4.5, -0.5, 0.0]),))  # 4 m lateral offset
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
    spec = BevSpec(8, 1.0, 4.0)
    rig = CameraRig(tuple(_random_ref_camera(rng) for _ in range(3)))
    cells = np.array([[1, 2], [4, 4], [6, 3], [0, 7]])
    heights = [-1.0, 0.5, 2.0]
    refs = lift_references(cells, spec, heights, rig, 64, 64)
    for i in range(cells.shape[0]):
        for ci, cam in enumerate(rig):
            for j in range(len(heights)):
                if not refs.valid[i, ci, j]:
                    continue
                u, v = refs.uv[i, ci, j]
                p_ego = refs.points[i, j]
                depth = cam.ego_to_cam(p_ego[None])[0, 2]
                p_cam = np.array([(u - cam.cx) / cam.fx * depth, (v - cam.cy) / cam.fy * depth, depth])
                np.testing.assert_allclose(cam_to_ego(cam, p_cam[None])[0], p_ego, atol=1e-5)


# ---------------------------------------------------------------- embedding


def test_depth_embedding_zero_mlp():
    probs = np.full((4, 3, 5), 0.25)
    emb = depth_embedding(DepthVolume(probs), zero_mlp([4, 6, 2]))
    assert emb.shape == (2, 3, 5)
    assert not emb.any()


def test_depth_embedding_pointwise():
    rng = SplitMix64(17)
    probs = np.full((4, 2, 3), 0.25)
    probs[:, 1, 2] = [0.7, 0.1, 0.1, 0.1]
    probs[:, 0, 0] = [0.7, 0.1, 0.1, 0.1]
    mlp = mlp_spec([4, 5, 3], rng)
    emb = depth_embedding(DepthVolume(probs), mlp)
    np.testing.assert_array_equal(emb[:, 1, 2], emb[:, 0, 0])


def test_depth_embedding_matches_per_pixel_oracle():
    rng = SplitMix64(19)
    from bevnext.kernels import softmax

    probs = softmax(rng.uniform_array((4, 3, 4), -1, 1), axis=0)
    mlp = mlp_spec([4, 6, 5], rng)
    emb = depth_embedding(DepthVolume(probs), mlp)
    for r in range(3):
        for c in range(4):
            ref = mlp_forward(probs[:, r, c].astype(np.float32), mlp)
            np.testing.assert_allclose(emb[:, r, c], ref, atol=1e-6, rtol=0)


def test_depth_embedding_width_mismatch():
    with pytest.raises(ShapeError, match="width"):
        depth_embedding(DepthVolume(np.full((4, 2, 2), 0.25)), zero_mlp([5, 3]))


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
    for _ in range(5):
        q = rng.uniform_array((6,), -2, 2).astype(np.float64)
        w = attention_weights(attn, q)
        assert w.shape == (4, 2)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)
        off = sampling_offsets(attn, q)
        assert off.shape == (4, 2, 2)


def test_sca_degenerate_single_sample():
    rng = SplitMix64(23)
    c, stride = 3, 8
    roi = make_roi(rng, 1, c)
    attn = _unit_attn(c, rng)
    features = rng.uniform_array((1, c, 6, 6), -1, 1)
    uv = np.array([[[[20.0, 28.0]]]])  # feature coords (1.5, 2.5)
    refs = RefPointSet(points=np.zeros((1, 1, 3)), uv=uv, valid=np.ones((1, 1, 1), bool))
    refined, flags = spatial_cross_attention(roi, refs, features, attn, stride)
    assert flags[0]
    sampled = manual_bilinear(features[0], 20.0 / stride - 0.5, 28.0 / stride - 0.5)
    delta = (attn.w_value.astype(np.float64) @ sampled.astype(np.float64)).astype(np.float32)
    np.testing.assert_allclose(refined.patches[0], roi.patches[0] + delta[:, None, None], atol=1e-6)


def test_sca_all_invalid_passthrough():
    rng = SplitMix64(25)
    c = 3
    roi = make_roi(rng, 2, c)
    attn = attn_spec(c, 2, 2, rng)
    features = rng.uniform_array((2, c, 6, 6), -1, 1)
    refs = make_refs(rng, 2, 2, 2, 48, 48, valid_rate=-1.0)  # nothing valid
    refined, flags = spatial_cross_attention(roi, refs, features, attn, 8)
    assert not flags.any()
    np.testing.assert_array_equal(refined.patches, roi.patches)


def test_sca_matches_naive_oracle():
    rng = SplitMix64(27)
    c, n, ncam, j, stride = 4, 3, 2, 2, 8
    roi = make_roi(rng, n, c)
    attn = attn_spec(c, j, 2, rng)
    features = rng.uniform_array((ncam, c, 8, 10), -1, 1)
    refs = make_refs(rng, n, ncam, j, 64, 80)
    refined, flags = spatial_cross_attention(roi, refs, features, attn, stride)
    ref_patches, ref_flags = naive_sca(roi, refs, features, attn, stride)
    np.testing.assert_array_equal(flags, ref_flags)
    np.testing.assert_allclose(refined.patches, ref_patches, atol=1e-5, rtol=0)


def test_sca_oracle_with_embedding():
    rng = SplitMix64(29)
    c, n, ncam, j, stride = 3, 2, 2, 3, 8
    roi = make_roi(rng, n, c)
    attn = attn_spec(c, j, 2, rng)
    features = rng.uniform_array((ncam, c, 8, 10), -1, 1)
    embedding = rng.uniform_array((ncam, c, 8, 10), -0.5, 0.5)
    refs = make_refs(rng, n, ncam, j, 64, 80)
    refined, _ = spatial_cross_attention(roi, refs, features, attn, stride, embedding=embedding)
    ref_patches, _ = naive_sca(roi, refs, features, attn, stride, embedding=embedding)
    np.testing.assert_allclose(refined.patches, ref_patches, atol=1e-5, rtol=0)


def test_sca_zero_embedding_is_identity_ablation():
    rng = SplitMix64(31)
    c, n, ncam, j, stride = 3, 2, 2, 2, 8
    roi = make_roi(rng, n, c)
    attn = attn_spec(c, j, 2, rng)
    features = rng.uniform_array((ncam, c, 8, 10), -1, 1)
    refs = make_refs(rng, n, ncam, j, 64, 80)
    probs = np.full((5, 8, 10), 0.2)
    zero_emb = np.stack([depth_embedding(DepthVolume(probs), zero_mlp([5, c])) for i in range(ncam)])
    with_emb, _ = spatial_cross_attention(roi, refs, features, attn, stride, embedding=zero_emb)
    without, _ = spatial_cross_attention(roi, refs, features, attn, stride)
    np.testing.assert_array_equal(with_emb.patches, without.patches)


def test_sca_rejects_mismatched_refs():
    rng = SplitMix64(33)
    roi = make_roi(rng, 2, 3)
    attn = attn_spec(3, 2, 2, rng)
    refs = make_refs(rng, 3, 1, 2, 48, 48)  # wrong roi count
    with pytest.raises(ShapeError, match="refs"):
        spatial_cross_attention(roi, refs, rng.uniform_array((1, 3, 6, 6), -1, 1), attn, 8)


# ---------------------------------------------------------------- regression


def test_regress_zero_heads():
    rng = SplitMix64(35)
    spec = BevSpec(8, 1.0, 4.0)
    roi = make_roi(rng, 1, 4, g=8)
    dets = regress(roi, zero_heads(4), spec)
    d = dets[0]
    assert (d.l, d.w, d.h) == (1.0, 1.0, 1.0)
    assert d.yaw == 0.0
    assert (d.vx, d.vy) == (0.0, 0.0)
    assert d.z == 0.0
    np.testing.assert_allclose(d.x, -4.0 + (roi.centers[0, 0] + 0.5) * 1.0)
    np.testing.assert_allclose(d.y, -4.0 + (roi.centers[0, 1] + 0.5) * 1.0)


def test_regress_yaw_quarter_turn():
    rng = SplitMix64(37)
    spec = BevSpec(8, 1.0, 4.0)
    roi = make_roi(rng, 1, 4, g=8)
    heads = zero_heads(4)
    heads.yaw.biases[0][:] = [1.0, 0.0]  # (sin, cos) raw outputs
    dets = regress(roi, heads, spec)
    np.testing.assert_allclose(dets[0].yaw, math.pi / 2, atol=1e-12)


def test_regress_offset_bounded_by_half_cell():
    spec = BevSpec(8, 1.0, 4.0)
    for seed in range(10):
        rng = SplitMix64(100 + seed)
        roi = make_roi(rng, 3, 4, g=8)
        heads = regression_heads(4, rng)
        for d, (cx, cy) in zip(regress(roi, heads, spec), roi.centers):
            center_x = -4.0 + (cx + 0.5) * 1.0
            center_y = -4.0 + (cy + 0.5) * 1.0
            assert abs(d.x - center_x) <= 0.5 + 1e-9
            assert abs(d.y - center_y) <= 0.5 + 1e-9
            assert d.l > 0 and d.w > 0 and d.h > 0
            assert -math.pi < d.yaw <= math.pi


def test_regress_empty_roi():
    spec = BevSpec(8, 1.0, 4.0)
    roi = RoiSet(
        centers=np.zeros((0, 2), np.int64),
        classes=np.zeros(0, np.int64),
        scores=np.zeros(0),
        patches=np.zeros((0, 4, 7, 7), np.float32),
        queries=np.zeros((49, 4), np.float32),
    )
    assert regress(roi, zero_heads(4), spec) == []


# ---------------------------------------------------------------- detections


def test_detection_line_format():
    d = Detection(2, 1.25, -0.5, 0.75, 2.0, 1.0, 1.5, 0.5, 0.25, -0.125, 0.9)
    line = format_detections([d]).strip()
    assert line == "2 1.250000 -0.500000 0.750000 2.000000 1.000000 1.500000 0.500000 0.250000 -0.125000 0.900000"


def test_detection_roundtrip():
    dets = [
        Detection(0, 0.1, 0.2, 0.3, 1.0, 2.0, 3.0, -1.5, 0.0, 0.5, 0.4),
        Detection(1, -2.0, 3.0, 0.0, 0.5, 0.5, 0.5, math.pi, 1.0, -1.0, 0.8),
    ]
    back = parse_detections(format_detections(dets))
    assert len(back) == 2
    for a, b in zip(dets, back):
        assert a.cls == b.cls
        for field in ("x", "y", "z", "l", "w", "h", "yaw", "vx", "vy", "score"):
            assert abs(getattr(a, field) - getattr(b, field)) <= 1e-6


def test_detection_parse_rejects_bad_columns():
    with pytest.raises(FormatError, match="column"):
        parse_detections("0 1.0 2.0\n")


def test_detection_parse_skips_blank_and_comments():
    text = "# header\n\n0 0.0 0.0 0.0 1.0 1.0 1.0 0.0 0.0 0.0 0.5\n"
    assert len(parse_detections(text)) == 1


def test_detection_validates_size():
    with pytest.raises(ShapeError, match="size"):
        Detection(0, 0, 0, 0, -1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.5)
