"""End-to-end pipeline tests: backbone, depth labels, orchestration, artifacts."""

import os

import numpy as np
import pytest

from bevnext.config import SceneConfig, load_config
from bevnext.depth_crf import modulate
from bevnext.errors import (
    ConfigError,
    FormatError,
    ShapeError,
    StageError,
)
from bevnext.kernels import conv2d
from bevnext.object_decoder import parse_detections
from bevnext.pipeline import (
    PipelineResult,
    run_pipeline,
    run_stage,
    tensor_digest,
    toy_backbone,
    write_artifacts,
)
from bevnext.ppm import load_ppm
from bevnext.scene import background_image, gen_scene
from bevnext.view_transform import lift
from bevnext.weights import backbone_specs, depth_head_spec, init_bundle
from factories import cam_to_ego, project_depth_labels, zero_bundle

DESK = SceneConfig()
DESK_BUNDLE = init_bundle(DESK, 7)

# Pinned on the first verified run of the seeded desk backbone; any change
# to weights init, conv arithmetic, or input scaling must show up here.
GOLDEN_BACKBONE_8 = "f5ac2203f147d0becb02f89a142b3b52ab1dd4f02606d883c9df00c3d3d8b895"
GOLDEN_BACKBONE_16 = "f32137463c9506d3617493f481adce1f286273244dc9111cd43c35c753571d3d"

# configs/desk.cfg (scene seed 0) with init_bundle(cfg, 7): digests of the
# fused BEV and the heatmap, pinned before pool moved from np.add.at to
# per-channel np.bincount. Any change to the numerics of any stage up to the
# heatmap must show up here.
GOLDEN_DESK_BEV = "97815573cd5f9e01bbcc44b6875268c7698eb94581efe4116da88ab389100b83"
GOLDEN_DESK_HEATMAP = "ee4e24e449b2f9a6496e36a845bebe6fc7fd4c450850c88e1188386353a5c187"

# Same config, scene and weights, frame 0: digests of the six cameras'
# stage outputs stacked in camera order, pinned before conv2d copied its tap
# windows and the CRF cached its spatial kernel.
GOLDEN_DESK_CAMERA_STAGES = {
    "backbone": "9b2b0be1848d444c654c53c372d5ec0be681fa7baffab16830b97006812f8e2f",
    "depth": "206874f1fe58c746d6a564f2bb548b0eba6bd10c4d26e553421368286adbb86d",
    "crf": "01e6382e058b53411ac401cb08ae55b7ee92a57e17b77c72406966499b58601a",
    "lift": "ee1a354a49f0caddff7c03bf9775a56e73e0d6341d2e780364c346c29d93a086",
}


# ---------------------------------------------------------------- helpers


def desk_scene(seed=0, frames=9, objects=(1, 4)):
    cfg = SceneConfig(seed=seed, frames=frames, objects_min=objects[0], objects_max=objects[1])
    return cfg, gen_scene(cfg)


def camera_point_grid(camera, feat_h, feat_w, stride, depth):
    """One ego point per feature cell, at the cell's pixel center."""
    us = (np.arange(feat_w) + 0.5) * stride
    vs = (np.arange(feat_h) + 0.5) * stride
    uu, vv = np.meshgrid(us, vs)
    x = (uu.reshape(-1) - camera.cx) / camera.fx * depth
    y = (vv.reshape(-1) - camera.cy) / camera.fy * depth
    z = np.full_like(x, depth)
    return cam_to_ego(camera, np.stack([x, y, z], axis=1))


# ---------------------------------------------------------------- toy_backbone


def test_backbone_output_dims_follow_stride():
    out = toy_backbone(background_image(64, 176), 8, backbone_specs(DESK_BUNDLE))
    assert out.shape == (32, 8, 22)
    out16 = toy_backbone(background_image(64, 176), 16, backbone_specs(DESK_BUNDLE))
    assert out16.shape == (32, 4, 11)


def test_backbone_zero_weights_zero_features():
    specs = backbone_specs(zero_bundle(DESK))
    img = background_image(64, 176)
    assert np.all(toy_backbone(img, 8, specs) == 0.0)


def test_backbone_rejects_indivisible_dims():
    with pytest.raises(ShapeError, match="divisible"):
        toy_backbone(background_image(60, 176), 8, backbone_specs(DESK_BUNDLE))


def test_backbone_rejects_bad_stride():
    with pytest.raises(ShapeError, match="stride"):
        toy_backbone(background_image(64, 176), 4, backbone_specs(DESK_BUNDLE))


def test_backbone_golden_checksum_pinned():
    specs = backbone_specs(DESK_BUNDLE)
    img = background_image(64, 176)
    assert tensor_digest(toy_backbone(img, 8, specs)) == GOLDEN_BACKBONE_8
    assert tensor_digest(toy_backbone(img, 16, specs)) == GOLDEN_BACKBONE_16


# ---------------------------------------------------------------- depth labels


def test_depth_labels_zero_points():
    cfg = DESK
    labels, coverage = project_depth_labels(
        np.zeros((0, 3)), cfg.rig()[0], cfg.feat_h, cfg.feat_w, cfg.stride, cfg.bins()
    )
    assert coverage == 0.0
    assert np.all(labels == -1)


def test_depth_labels_one_point_per_cell_full_coverage():
    cfg = DESK
    cam, bins = cfg.rig()[0], cfg.bins()
    pts = camera_point_grid(cam, cfg.feat_h, cfg.feat_w, cfg.stride, depth=4.0)
    labels, coverage = project_depth_labels(pts, cam, cfg.feat_h, cfg.feat_w, cfg.stride, bins)
    assert coverage == 1.0
    assert np.all(labels == np.abs(4.0 - bins.centers).argmin())


def test_depth_labels_nearest_point_wins():
    cfg = DESK
    cam, bins = cfg.rig()[0], cfg.bins()
    cell_center = camera_point_grid(cam, 1, 1, cfg.stride, depth=2.0)[0]
    far = camera_point_grid(cam, 1, 1, cfg.stride, depth=7.0)[0]
    labels, coverage = project_depth_labels(
        np.stack([far, cell_center]), cam, cfg.feat_h, cfg.feat_w, cfg.stride, bins
    )
    assert coverage == pytest.approx(1 / (cfg.feat_h * cfg.feat_w))
    assert labels[0, 0] == np.abs(2.0 - bins.centers).argmin()


def test_depth_labels_points_behind_camera_ignored():
    cfg = DESK
    cam = cfg.rig()[0]
    behind = np.array([[-5.0, 0.0, 0.9]])  # camera 0 looks along +x
    labels, coverage = project_depth_labels(
        behind, cam, cfg.feat_h, cfg.feat_w, cfg.stride, cfg.bins()
    )
    assert coverage == 0.0


def test_depth_labels_range_and_determinism():
    cfg, scene = desk_scene(seed=5, frames=1)
    cam, bins = cfg.rig()[2], cfg.bins()
    pts = scene.frames[0].points
    l1, c1 = project_depth_labels(pts, cam, cfg.feat_h, cfg.feat_w, cfg.stride, bins)
    l2, c2 = project_depth_labels(pts, cam, cfg.feat_h, cfg.feat_w, cfg.stride, bins)
    assert np.array_equal(l1, l2) and c1 == c2
    assert 0.0 <= c1 <= 1.0
    assert l1.min() >= -1 and l1.max() < bins.k


def test_depth_label_coverage_monotone_in_stride():
    for seed in range(10):
        cfg, scene = desk_scene(seed=seed, frames=1)
        pts = scene.frames[0].points
        for cam in cfg.rig():
            _, c8 = project_depth_labels(pts, cam, 8, 22, 8, cfg.bins())
            _, c16 = project_depth_labels(pts, cam, 4, 11, 16, cfg.bins())
            assert c16 >= c8


# ---------------------------------------------------------------- stage tagging


def test_run_stage_tags_package_errors():
    def boom():
        raise ShapeError("axis 0 off")

    with pytest.raises(StageError, match=r"\[stage crf\] axis 0 off") as err:
        run_stage("crf", boom)
    assert err.value.stage == "crf"


def test_run_stage_passes_results_and_foreign_errors():
    assert run_stage("pool", lambda x: x + 1, 2) == 3
    with pytest.raises(ValueError):
        run_stage("pool", lambda: (_ for _ in ()).throw(ValueError("plain")))


def test_run_stage_does_not_rewrap():
    def inner():
        raise StageError("depth", "already tagged")

    with pytest.raises(StageError, match=r"\[stage depth\]"):
        run_stage("crf", inner)


# ---------------------------------------------------------------- run_pipeline


def test_pipeline_shapes_match_config_arithmetic():
    cfg, scene = desk_scene(seed=1, frames=3)
    bundle = init_bundle(cfg, 7)
    result = run_pipeline(scene, cfg, bundle)
    assert isinstance(result, PipelineResult)
    assert result.heatmap.values.shape == (cfg.classes, 32, 32)
    assert len(result.depth) == 6
    assert all(vol.probs.shape == (8, 8, 22) for vol in result.depth)
    assert result.bev.data.shape == (32, 32, 32)


def test_pipeline_deterministic_across_runs_and_threads():
    cfg, scene = desk_scene(seed=2, frames=3)
    bundle = init_bundle(cfg, 7)
    base = run_pipeline(scene, cfg, bundle, threads=1)
    for threads in (1, 2, 4):
        again = run_pipeline(scene, cfg, bundle, threads=threads)
        assert again.detections == base.detections
        assert np.array_equal(again.heatmap.values, base.heatmap.values)
        assert np.array_equal(again.bev.data, base.bev.data)
        for va, vb in zip(again.depth, base.depth):
            assert np.array_equal(va.probs, vb.probs)


def test_pipeline_desk_golden_pinned_across_threads():
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "desk.cfg"))
    assert cfg.seed == 0
    scene, bundle = gen_scene(cfg), init_bundle(cfg, 7)
    for threads in (1, 2):
        result = run_pipeline(scene, cfg, bundle, threads=threads)
        assert tensor_digest(result.bev.data) == GOLDEN_DESK_BEV, f"threads={threads}"
        assert tensor_digest(result.heatmap.values) == GOLDEN_DESK_HEATMAP, f"threads={threads}"


def test_pipeline_desk_camera_stages_pinned():
    """The per-camera stages before pooling, wired as run_pipeline wires them."""
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "desk.cfg"))
    scene, bundle = gen_scene(cfg), init_bundle(cfg, 7)
    bspecs, dspec = backbone_specs(bundle), depth_head_spec(bundle)
    bg = background_image(cfg.image_h, cfg.image_w).astype(np.float64)
    outputs = {stage: [] for stage in GOLDEN_DESK_CAMERA_STAGES}
    for image in scene.frames[0].images:
        feats = toy_backbone(image.astype(np.float64) - bg, cfg.stride, bspecs)
        logits = conv2d(feats[None], dspec)[0]
        vol = modulate(logits, image.astype(np.float64) / 255.0, cfg.bins(), cfg.crf_iters)
        for stage, arr in zip(outputs, (feats, logits, vol.probs, lift(feats, vol))):
            outputs[stage].append(arr)
    assert len(outputs["backbone"]) == 6
    for stage, arrs in outputs.items():
        assert tensor_digest(np.stack(arrs)) == GOLDEN_DESK_CAMERA_STAGES[stage], stage


def test_pipeline_empty_scene_zero_detections():
    cfg = SceneConfig(objects_min=0, objects_max=0, frames=3)
    result = run_pipeline(gen_scene(cfg), cfg, init_bundle(cfg, 7))
    assert result.detections == []


def test_pipeline_single_frame_degenerate_fusion():
    cfg = SceneConfig(frames=1, seed=3)
    result = run_pipeline(gen_scene(cfg), cfg, init_bundle(cfg, 7))
    assert result.bev.data.shape == (32, 32, 32)


def test_pipeline_crf_iterations_change_values_not_shapes():
    cfg0 = SceneConfig(seed=4, frames=2, crf_iters=0)
    cfg5 = SceneConfig(seed=4, frames=2, crf_iters=5)
    scene = gen_scene(cfg0)  # crf iters do not affect generation
    r0 = run_pipeline(scene, cfg0, init_bundle(cfg0, 7))
    r5 = run_pipeline(scene, cfg5, init_bundle(cfg5, 7))
    assert r0.heatmap.values.shape == r5.heatmap.values.shape
    assert r0.bev.data.shape == r5.bev.data.shape
    assert len(r0.depth) == len(r5.depth) == cfg0.camera_count
    for v0, v5 in zip(r0.depth, r5.depth):
        assert v0.probs.shape == v5.probs.shape
        assert np.abs(v5.probs - v0.probs).max() > 0.1  # measured 0.375-0.876 per camera
    assert np.abs(r5.bev.data - r0.bev.data).max() > 1e-3  # measured 0.0145


def test_pipeline_zero_threshold_emits_capped_detections():
    cfg = SceneConfig(seed=5, frames=2, threshold=0.0)
    result = run_pipeline(gen_scene(cfg), cfg, init_bundle(cfg, 7))
    assert len(result.detections) == cfg.top_n


def test_pipeline_rejects_scene_config_mismatch():
    cfg, scene = desk_scene(seed=1, frames=3)
    wrong_frames = SceneConfig(frames=4)
    with pytest.raises(ShapeError, match="frames"):
        run_pipeline(scene, wrong_frames, init_bundle(wrong_frames, 7))
    wrong_dims = SceneConfig(frames=3, image_h=128)
    with pytest.raises(ShapeError, match="rasters"):
        run_pipeline(scene, wrong_dims, init_bundle(wrong_dims, 7))


def test_pipeline_rejects_tampered_bundle_before_running():
    cfg, scene = desk_scene(seed=1, frames=3)
    bundle = init_bundle(cfg, 7)
    bundle.tensors["depth_head.w"] = np.zeros((8, 32, 3, 3), np.float32)
    with pytest.raises(FormatError, match="depth_head.w"):
        run_pipeline(scene, cfg, bundle)


def test_pipeline_rejects_bad_thread_count():
    cfg, scene = desk_scene(seed=1, frames=3)
    with pytest.raises(ConfigError, match="threads"):
        run_pipeline(scene, cfg, init_bundle(cfg, 7), threads=0)


# ---------------------------------------------------------------- artifacts


def test_artifacts_detections_file_parses(tmp_path):
    cfg = SceneConfig(seed=5, frames=2, threshold=0.0)
    result = run_pipeline(gen_scene(cfg), cfg, init_bundle(cfg, 7))
    paths = write_artifacts(result, tmp_path / "out")
    assert paths == [str(tmp_path / "out" / "detections.txt")]
    text = (tmp_path / "out" / "detections.txt").read_text()
    assert len(parse_detections(text)) == len(result.detections)


def test_artifacts_optional_dumps(tmp_path):
    cfg, scene = desk_scene(seed=1, frames=2)
    result = run_pipeline(scene, cfg, init_bundle(cfg, 7))
    paths = write_artifacts(result, tmp_path / "out", dump_depth=True, dump_heatmap=True)
    assert len(paths) == 1 + 6 + 1
    depth_img = load_ppm(tmp_path / "out" / "depth_cam0.ppm")
    assert depth_img.shape == (8, 22, 3)
    heat_img = load_ppm(tmp_path / "out" / "heatmap.ppm")
    assert heat_img.shape == (32, 32, 3)


def test_artifact_bytes_deterministic(tmp_path):
    cfg, scene = desk_scene(seed=2, frames=2)
    bundle = init_bundle(cfg, 7)
    for tag in ("a", "b"):
        result = run_pipeline(scene, cfg, bundle, threads=2 if tag == "b" else 1)
        write_artifacts(result, tmp_path / tag, dump_depth=True, dump_heatmap=True)
    for name in ["detections.txt", "heatmap.ppm"] + [f"depth_cam{i}.ppm" for i in range(6)]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
