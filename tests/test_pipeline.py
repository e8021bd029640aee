"""End-to-end pipeline tests: backbone, depth labels, orchestration, artifacts."""

import dataclasses
import hashlib
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevnext.config import SceneConfig, load_config
from bevnext.depth_crf import modulate
from bevnext.errors import (
    ConfigError,
    FormatError,
    ShapeError,
    StageError,
)
from bevnext.kernels import conv2d
from bevnext import pipeline, res2fusion, view_transform
from bevnext.object_decoder import DETECTION_DTYPE, format_detections, lift_references, parse_detections, regress
from bevnext.pipeline import (
    PipelineResult,
    run_pipeline,
    run_stage,
    tensor_digest,
    toy_backbone,
    write_artifacts,
)
from bevnext.ppm import load_ppm
from bevnext.res2fusion import fuse
from bevnext.scene import background_image, gen_scene
from bevnext.view_transform import lift, pool
from bevnext.weights import WeightBundle, backbone_specs, depth_head_spec, init_bundle
from factories import cam_to_ego, no_stage, project_depth_labels, refined_patches, traced_transient, zero_bundle

DESK = SceneConfig()
DESK_BUNDLE = init_bundle(DESK, 7)
DESK_1024 = dataclasses.replace(DESK, threshold=0.0, top_n=1024)  # every cell proposes; same weight shapes

# Pinned on the first verified run of the seeded desk backbone; any change
# to weights init, conv arithmetic, or input scaling must show up here.
GOLDEN_BACKBONE_8 = "f5ac2203f147d0becb02f89a142b3b52ab1dd4f02606d883c9df00c3d3d8b895"
GOLDEN_BACKBONE_16 = "f32137463c9506d3617493f481adce1f286273244dc9111cd43c35c753571d3d"

# configs/desk.cfg (scene seed 0) with init_bundle(cfg, 7): digests of the
# fused BEV and the heatmap, pinned before pool moved from np.add.at to
# per-channel np.bincount. Any change to the numerics of any stage up to the
# heatmap must show up here. Re-pinned when the CRF moved from a metric
# compat with an additive kernel pair to Potts with one bilateral kernel
# (were 97815573... and ee4e24e4...). Re-pinned for an init stream shift:
# the decoder's learned query is one [1, C] row where it was a [49, C]
# table, so init_bundle draws 48*C fewer values before depth_head.* and
# res2fusion.* (were 3b690be4... and 61a7302f...). Re-pinned when the pool
# plan dropped frustum points outside the height band [Z_MIN, Z_MAX]; the
# values from before the band are the *_OPEN_BAND digests below.
GOLDEN_DESK_BEV = "4268733ecfafeb6d70740694fb02cc2280ef67a5aacba550492763398a12a8dd"
GOLDEN_DESK_HEATMAP = "af873617d2216052b83f1de3d53e2395d84a1be438e3b034974f37322e6c429e"

# The same digests with the band opened to (-inf, inf): the values pinned
# for the dense [C, H', W', K] lift and its gather in pool, kept to show
# that lifting and pooling only the plan's entries changes no bit.
GOLDEN_DESK_BEV_OPEN_BAND = "6c03300fe4cf2cf5eb3706b21aba6b10fb7b4c59170c4aa0563f655983c7cb53"
GOLDEN_DESK_HEATMAP_OPEN_BAND = "c8eaec574b763fa8cb9c8966beb069c4593b220c6299aab76ed05f5f5679c335"
GOLDEN_FULL_BEV_OPEN_BAND = "e9259e904fe0d143df59ac0d6ad6fcf2b2981c11f39cecfea134c17710c7832e"

# Same config, scene and weights, frame 0: digests of the six cameras'
# stage outputs stacked in camera order, pinned before conv2d copied its tap
# windows and the CRF cached its spatial kernel. When the mean-field
# messages became one OpenBLAS GEMM, the float64 CRF probabilities were
# re-pinned (einsum-message digest: 01e6382e...), and so was lift: one of
# its 270336 float32 values moved by one ulp (was ee1a354a...). Backbone
# and depth kept their bits through that change and conv2d's move to GEMMs.
# crf and lift were re-pinned again for the Potts CRF with one bilateral
# kernel (were 11aab317... and e45dea3d...). depth, crf and lift were
# re-pinned for the init stream shift above (were 206874f1..., 0c1c1318...
# and f8397f2c...); the backbone's weights sort before decoder.* and keep
# their bits. lift's digest is of its output along every (pixel, bin)
# offset, as the [C, H', W', K] tensor it used to write whole.
GOLDEN_DESK_CAMERA_STAGES = {
    "backbone": "9b2b0be1848d444c654c53c372d5ec0be681fa7baffab16830b97006812f8e2f",
    "depth": "a3aec40cfc93a13e08cf3f71a7735633b3f8625c63af31d7f9f24fe54af966d2",
    "crf": "5d9820af19e8f1f826b87e4932c2defa60da2dd30a9bd6e969c2d92e5a4cd0b7",
    "lift": "b424cfd727c74bd53326e09d1588ddd86a0cd9be0aefb974c6ebb08a03a8169d",
}

# Same config, scene and weights with decoder.threshold = 0.0 and
# decoder.top_n = 1024, so every BEV cell proposes: digests of the refined
# ROI patches and flags out of spatial_cross_attention, and sha256 of the
# formatted detections, pinned before the decoder was batched over ROIs.
# The refined patches are no longer an output of any stage: the digest is
# taken of factories.refined_patches, each ROI's 7x7 window of the fused
# grid plus its float32 residual where refined, which regress pools.
# Re-pinned for the Potts CRF (were dc1716fe..., 6798d7ff... and 3b3a7149...),
# then for the init stream shift above (were f8bca05f..., c1656e9f... and
# 9a70dfed...; the flags follow the proposals' score order), then for the
# height band (were 91e2b4f6..., 1adc23f9... and 518d90ae...).
GOLDEN_DESK_DECODER = {
    "patches": "4cf759da5e7974cef44cd6b864a3686cd18501b7544245e1752f152870a5409d",
    "flags": "8705343cc6fb9ef32fb36558ae5903f770730fdc0872e4c5651f5c34e25aedf6",
    "detections": "b27d7222a4c6622a3c0c74893b9c69d52fe95dc19cc6e2dc66f619550ca61229",
}

# configs/full.cfg (scene seed 0) with init_bundle(cfg, 7), decoder.threshold
# = 0.0 and decoder.top_n = 64, run at threads=2: digests of the fused BEV
# and the heatmap, and sha256 of the formatted detections. The only tier-1
# test that runs full.cfg through run_pipeline. Re-pinned for the Potts CRF
# (were aa1b8ffd..., 72ec52fe... and fffe7240...), then for the init stream
# shift above (were c9f54ddd..., 187a02f5... and ade899ea...), then for the
# height band (were e9259e90..., 79f2bae9... and d05d76a0...).
GOLDEN_FULL = {
    "bev": "20639d28ba43d19910482ec72f021fed5a1c0163aca59f34c5a46861a55aac48",
    "heatmap": "7180b357a8267d56f7a8916503c72ec3f184811171817b5d4a04697db85f99ec",
    "detections": "176d40166a66e8940ebb9cafea507c4eca3c587c33a702f1545b2139838dcbf9",
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


def test_backbone_stride16_mean_bit_identical_to_mean_oracle(monkeypatch):
    """The 2x2 mean against .astype(float64).mean(axis=(3, 5)), down to the sign of zero.

    The third conv is stubbed to return a random signed full-scale stride-8
    map ([1, 64, 32, 88], with -0.0 entries and an all -0.0 window), so the
    mean is the only arithmetic between it and the output.
    """
    rng = np.random.default_rng(16)
    x = (rng.standard_normal((1, 64, 32, 88)) * 10.0 ** rng.integers(-3, 4, (1, 64, 32, 88))).astype(np.float32)
    x[rng.random(x.shape) < 0.1] = -0.0
    x[..., :2, :2] = -0.0
    convs = iter([np.zeros((1, 1, 1, 1), np.float32)] * 2 + [x])
    monkeypatch.setattr(pipeline, "conv2d", lambda inp, spec: next(convs))
    want = x.reshape(1, 64, 16, 2, 44, 2).astype(np.float64).mean(axis=(3, 5)).astype(np.float32)[0]
    got = toy_backbone(np.zeros((256, 704, 3)), 16, backbone_specs(DESK_BUNDLE))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


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
    assert all(depth.shape == (8, 8, 22) and depth.dtype == np.float64 for depth in result.depth)
    assert result.bev.data.shape == (32, 32, 32)


def test_pipeline_deterministic_across_runs_and_threads():
    cfg, scene = desk_scene(seed=2, frames=3)
    bundle = init_bundle(cfg, 7)
    base = run_pipeline(scene, cfg, bundle, threads=1)
    for threads in (1, 2, 4):
        again = run_pipeline(scene, cfg, bundle, threads=threads)
        assert again.detections.dtype == base.detections.dtype == DETECTION_DTYPE
        assert again.detections.tobytes() == base.detections.tobytes()
        assert np.array_equal(again.heatmap.values, base.heatmap.values)
        assert np.array_equal(again.bev.data, base.bev.data)
        for da, db in zip(again.depth, base.depth):
            assert np.array_equal(da, db)


def test_pipeline_desk_golden_pinned_across_threads():
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "desk.cfg"))
    assert cfg.seed == 0
    scene, bundle = gen_scene(cfg), init_bundle(cfg, 7)
    for threads in (1, 2):
        result = run_pipeline(scene, cfg, bundle, threads=threads)
        assert tensor_digest(result.bev.data) == GOLDEN_DESK_BEV, f"threads={threads}"
        assert tensor_digest(result.heatmap.values) == GOLDEN_DESK_HEATMAP, f"threads={threads}"


def test_open_band_keeps_the_dense_lift_and_pool_bits(monkeypatch):
    """With the height band opened to (-inf, inf), desk.cfg's BEV and heatmap and full.cfg's BEV
    keep the digests of the dense [C, H', W', K] lift and pool, so only the band moved the numerics."""
    monkeypatch.setattr(view_transform, "Z_MIN", -np.inf)
    monkeypatch.setattr(view_transform, "Z_MAX", np.inf)
    desk = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "desk.cfg"))
    result = run_pipeline(gen_scene(desk), desk, init_bundle(desk, 7))
    assert tensor_digest(result.bev.data) == GOLDEN_DESK_BEV_OPEN_BAND
    assert tensor_digest(result.heatmap.values) == GOLDEN_DESK_HEATMAP_OPEN_BAND
    full = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "full.cfg"))
    result = run_pipeline(gen_scene(full), full, init_bundle(full, 7), threads=2)
    assert tensor_digest(result.bev.data) == GOLDEN_FULL_BEV_OPEN_BAND


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
        depth = modulate(logits, image.astype(np.float64) / 255.0, cfg.crf_iters)
        lifted = lift(feats, depth, np.arange(depth.size)).reshape(len(feats), *depth.shape[1:], len(depth))
        for stage, arr in zip(outputs, (feats, logits, depth, lifted)):
            outputs[stage].append(arr)
    assert len(outputs["backbone"]) == 6
    for stage, arrs in outputs.items():
        assert tensor_digest(np.stack(arrs)) == GOLDEN_DESK_CAMERA_STAGES[stage], stage


def test_pipeline_desk_decoder_pinned_across_threads(monkeypatch):
    """The second stage on 1024 real proposals, as run_pipeline wires it."""
    desk = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "desk.cfg"))
    cfg = dataclasses.replace(desk, threshold=0.0, top_n=1024)
    scene, bundle = gen_scene(cfg), init_bundle(cfg, 7)
    refine = pipeline.spatial_cross_attention
    outputs = []

    def recording(bev, props, *args, **kwargs):
        outputs.append((bev, props, *refine(bev, props, *args, **kwargs)))
        return outputs[-1][2:]

    monkeypatch.setattr(pipeline, "spatial_cross_attention", recording)
    for threads in (1, 2):
        outputs.clear()
        result = run_pipeline(scene, cfg, bundle, threads=threads)
        ((bev, props, residual, flags),) = outputs
        assert len(result.detections) == 1024
        text = format_detections(result.detections)
        patches = refined_patches(bev, props, residual, flags)
        assert tensor_digest(patches) == GOLDEN_DESK_DECODER["patches"], f"threads={threads}"
        assert tensor_digest(flags) == GOLDEN_DESK_DECODER["flags"], f"threads={threads}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == GOLDEN_DESK_DECODER["detections"], f"threads={threads}"


def test_pipeline_full_golden_pinned():
    """full.cfg at its own scale: multi-block convs, a 128x128 pool plan,
    59 depth bins and 64 proposals through the whole decoder."""
    full = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "full.cfg"))
    cfg = dataclasses.replace(full, threshold=0.0, top_n=64)
    assert cfg.seed == 0
    result = run_pipeline(gen_scene(cfg), cfg, init_bundle(cfg, 7), threads=2)
    assert len(result.detections) == 64
    assert tensor_digest(result.bev.data) == GOLDEN_FULL["bev"]
    assert tensor_digest(result.heatmap.values) == GOLDEN_FULL["heatmap"]
    text = format_detections(result.detections)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_FULL["detections"]


def test_pipeline_overflowing_weights_stop_at_crf():
    """Huge weights overflow the depth logits; modulate refuses them before its softmax makes NaN."""
    cfg = SceneConfig(frames=1)
    big = {name: arr * np.float32(1e20) for name, arr in init_bundle(cfg, 7).tensors.items()}
    with np.errstate(all="ignore"), pytest.raises(StageError, match=r"\[stage crf\] modulate: non-finite depth logit"):
        run_pipeline(gen_scene(cfg), cfg, WeightBundle(big))


def test_pipeline_empty_scene_zero_detections():
    cfg = SceneConfig(objects_min=0, objects_max=0, frames=3)
    result = run_pipeline(gen_scene(cfg), cfg, init_bundle(cfg, 7))
    assert result.detections.shape == (0,) and result.detections.dtype == DETECTION_DTYPE


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
    bg = background_image(cfg0.image_h, cfg0.image_w)
    moved = 0
    for ci, (d0, d5, image) in enumerate(zip(r0.depth, r5.depth, scene.frames[-1].images)):
        assert d0.shape == d5.shape
        if np.array_equal(image, bg):  # cameras 1 and 2 see no object: no depth evidence to spread
            assert np.array_equal(d5, d0), f"camera {ci}"
        else:
            assert np.abs(d5 - d0).max() > 1e-4, f"camera {ci}"  # measured 8.4e-4 to 0.022
            moved += 1
    assert moved == 4
    assert np.abs(r5.bev.data - r0.bev.data).max() > 2e-5  # measured 2.5e-4


def test_pipeline_zero_threshold_emits_capped_detections():
    cfg = SceneConfig(seed=5, frames=2, threshold=0.0)
    result = run_pipeline(gen_scene(cfg), cfg, init_bundle(cfg, 7))
    assert len(result.detections) == cfg.top_n


def test_pipeline_rejects_scene_config_mismatch(monkeypatch):
    """A scene whose frame count, camera count or raster dims differ from the config's is refused before any stage."""
    _, scene = desk_scene(seed=1, frames=3)
    monkeypatch.setattr(pipeline, "run_stage", no_stage)
    for wrong, cause in (
        (SceneConfig(frames=4), "scene has 3 frames, config expects 4"),
        (SceneConfig(frames=3, camera_count=5), "scene has 6 cameras, config expects 5"),
        (SceneConfig(frames=3, image_h=128), "scene rasters are 64x176, config expects 128x176"),
    ):
        with pytest.raises(ShapeError, match=cause):
            run_pipeline(scene, wrong, init_bundle(wrong, 7))


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


def test_pool_overlaps_the_next_frames_camera_passes_but_not_their_lift(monkeypatch):
    """Frame t + 1's passes run during pool t; each lifted camera stays put until pool asks for the next."""
    cfg, scene = desk_scene(seed=2, frames=3)
    bundle = init_bundle(cfg, 7)
    reference = run_pipeline(scene, cfg, bundle, threads=1)
    events, lock = [], threading.Lock()

    def logged(name, fn):
        def wrapped(*args, **kwargs):
            with lock:
                events.append(name)
            return fn(*args, **kwargs)
        return wrapped

    def slow_pool(cameras, index):
        def watched():
            for camera in cameras:
                before = camera.copy()
                yield camera
                with lock:  # pool has read this camera and asks for the next
                    events.append("camera kept" if np.array_equal(camera, before) else "camera overwritten")
            time.sleep(0.2)  # long enough for the other worker to start the next frame

        grid = pool(watched(), index)
        with lock:
            events.append("pool end")
        return grid

    monkeypatch.setattr(pipeline, "pool", slow_pool)
    monkeypatch.setattr(pipeline, "lift", logged("lift", pipeline.lift))
    monkeypatch.setattr(pipeline, "toy_backbone", logged("backbone", pipeline.toy_backbone))
    result = run_pipeline(scene, cfg, bundle, threads=2)
    assert np.array_equal(result.bev.data, reference.bev.data)
    assert events.count("camera kept") == 3 * 6 and "camera overwritten" not in events
    ends = [i for i, e in enumerate(events) if e == "pool end"]
    assert len(ends) == 3
    for t, end in enumerate(ends[:2]):  # the last frame has no next frame
        assert events[:end].count("backbone") > 6 * (t + 1), f"no pass of frame {t + 1} ran during pool {t}"
        assert events[:end].count("lift") == 6 * (t + 1), f"frame {t + 1} lifted during pool {t}"


def test_pool_failure_surfaces_tagged_without_hanging(monkeypatch):
    """Pool runs inside fuse's frame stream; its failure at frame 3 keeps the pool tag, not fusion's."""
    cfg, scene = desk_scene(seed=2, frames=6)
    calls = []

    def failing_pool(stack, index):
        calls.append(len(calls))
        if len(calls) == 4:  # frame 3
            raise ShapeError("injected pool failure")
        return pool(stack, index)

    monkeypatch.setattr(pipeline, "pool", failing_pool)
    outcome = []

    def run():
        try:
            run_pipeline(scene, cfg, init_bundle(cfg, 7), threads=2)
        except Exception as exc:
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "run_pipeline hung after a failed pool"
    assert len(outcome) == 1 and isinstance(outcome[0], StageError)
    assert outcome[0].stage == "pool" and "injected pool failure" in str(outcome[0])
    assert len(calls) == 4


@pytest.mark.parametrize("threads", [2, 3])
def test_lift_and_pool_run_on_the_calling_thread(monkeypatch, threads):
    """Workers run camera passes only; the stack is lifted into and pooled on one thread."""
    seen, lock = {"lift": [], "pool": [], "toy_backbone": []}, threading.Lock()

    def spied(name, fn):
        def wrapped(*args, **kwargs):
            with lock:
                seen[name].append(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapped

    for name in seen:
        monkeypatch.setattr(pipeline, name, spied(name, getattr(pipeline, name)))
    cfg, scene = desk_scene(seed=4, frames=3)
    run_pipeline(scene, cfg, init_bundle(cfg, 7), threads=threads)
    caller = threading.get_ident()
    assert len(seen["lift"]) == 3 * 6 and len(seen["pool"]) == 3
    assert set(seen["lift"]) == set(seen["pool"]) == {caller}
    assert caller not in seen["toy_backbone"]  # the passes ran on the pool


def test_camera_pass_failure_during_pool_surfaces_tagged_without_hanging(monkeypatch):
    """A pass of frame 2 raises while frame 1 pools: StageError "crf"; frame 2's pool stops at that pass."""
    cfg, scene = desk_scene(seed=2, frames=4)
    crf_calls, pools, pooled, lock = [], [], [], threading.Lock()

    def failing_modulate(*args):
        with lock:
            crf_calls.append(None)
            fail = len(crf_calls) == 2 * 6 + 3  # a pass of frame 2 (six cameras a frame)
        if fail:
            raise ShapeError("injected crf failure")
        return modulate(*args)

    def slow_pool(cameras, index):
        pools.append(None)
        time.sleep(0.2)  # frame t + 1's passes, and so frame 2's failing one, run meanwhile
        grid = pool(cameras, index)
        pooled.append(None)
        return grid

    monkeypatch.setattr(pipeline, "modulate", failing_modulate)
    monkeypatch.setattr(pipeline, "pool", slow_pool)
    outcome = []

    def run():
        try:
            run_pipeline(scene, cfg, init_bundle(cfg, 7), threads=2)
        except Exception as exc:
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "run_pipeline hung after a failed camera pass"
    assert len(outcome) == 1 and isinstance(outcome[0], StageError)
    assert outcome[0].stage == "crf" and "injected crf failure" in str(outcome[0])
    assert len(pools) == 3 and len(pooled) == 2  # frames 0 and 1 pooled; frame 2's pool stopped at its failed pass


def test_overlapped_pool_under_stress_keeps_every_bit():
    """More workers than cores and a 1 us switch interval: the shared stack stays exact."""
    cfg, scene = desk_scene(seed=3, frames=4)
    bundle = init_bundle(cfg, 7)
    reference = run_pipeline(scene, cfg, bundle, threads=1)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: results.extend(run_pipeline(scene, cfg, bundle, threads=t) for t in (3, 5)),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive() and len(results) == 2
    for result in results:
        assert np.array_equal(result.bev.data, reference.bev.data)
        assert np.array_equal(result.heatmap.values, reference.heatmap.values)


def test_no_lift_of_a_desk_run_allocates_a_camera_tensor(monkeypatch):
    """desk.cfg at threads=1, tracemalloc: with one-channel blocks, no lift's traced peak reaches one
    float32 [C, H', W', K] camera tensor (180 KB); each writes only its float32 [C, E_n] plan entries
    (at most 91 KB). One fuse, one pool per frame: each older window is reduced once its last frame
    is pooled, and the newest after the last."""
    peaks, configs, pools, reduced = [], [], [], []

    def lift_spy(features, depth, source):
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = lift(features, depth, source)
        peaks.append((tracemalloc.get_traced_memory()[1] - before, out.nbytes))
        return out

    def pool_spy(cameras, index):
        pools.append(None)
        return pool(cameras, index)

    def fuse_spy(frames, config):
        configs.append(config)
        return fuse(frames, config)

    def conv_spy(x, spec):
        for i, reduce in enumerate(configs[-1].reduce_specs):
            if spec is reduce:
                reduced.append((i, len(pools)))
        return conv2d(x, spec)

    monkeypatch.setattr(view_transform, "_LIFT_BLOCK_BYTES", 1)
    monkeypatch.setattr(pipeline, "lift", lift_spy)
    monkeypatch.setattr(pipeline, "pool", pool_spy)
    monkeypatch.setattr(pipeline, "fuse", fuse_spy)
    monkeypatch.setattr(res2fusion, "conv2d", conv_spy)
    slot_bytes = 4 * DESK.channels * DESK.feat_h * DESK.feat_w * DESK.depth_bins
    tracemalloc.start()
    try:
        run_pipeline(gen_scene(DESK), DESK, DESK_BUNDLE)
    finally:
        tracemalloc.stop()
    assert len(peaks) == DESK.frames * DESK.camera_count and len(configs) == 1
    assert max(out for _, out in peaks) == 4 * DESK.channels * 708  # cameras 0 and 3 keep 708 entries
    assert max(peak for peak, _ in peaks) < slot_bytes
    assert reduced == [(2, 3), (1, 6), (0, 9)]


def test_desk_run_allocates_nothing_the_size_of_the_lifted_stack(monkeypatch):
    """tracemalloc: whenever pool asks for a camera, no camera tensor is live and no NumPy buffer nears the stack."""
    live = []

    def pool_spy(cameras, index):
        def watched():
            for camera in cameras:
                snap = tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
                )
                live.append([trace.size for trace in snap.traces])
                yield camera

        return pool(watched(), index)

    monkeypatch.setattr(pipeline, "pool", pool_spy)
    slot_bytes = 4 * DESK.channels * DESK.feat_h * DESK.feat_w * DESK.depth_bins
    stack_bytes = DESK.camera_count * slot_bytes  # 1.08 MB
    tracemalloc.start()
    try:
        run_pipeline(gen_scene(DESK), DESK, DESK_BUNDLE)
    finally:
        tracemalloc.stop()
    assert len(live) == DESK.frames * DESK.camera_count
    assert not any(slot_bytes in sizes for sizes in live)
    assert max(max(sizes) for sizes in live) < stack_bytes // 2  # the largest, 0.27 MB, is the float64 background image


def test_decoder_stages_allocate_no_patch_set(monkeypatch):
    """tracemalloc on desk.cfg's 1024 real proposals, from lift_references until regress returns:
    the traced peak stays under 6 MiB, less than one float32 [N, C, 7, 7] patch set of all
    proposals (6.125 MiB), so no such array is ever allocated. Cutting the patches out and
    refining a copy of them peaked at 15.3 MB; the decoder now peaks at 4.6 MB, inside
    spatial_cross_attention."""
    peaks = []

    def lift_traced(*args):
        tracemalloc.start()
        return lift_references(*args)

    def regress_traced(*args):
        dets = regress(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return dets

    monkeypatch.setattr(pipeline, "lift_references", lift_traced)
    monkeypatch.setattr(pipeline, "regress", regress_traced)
    try:
        assert len(run_pipeline(gen_scene(DESK_1024), DESK_1024, DESK_BUNDLE).detections) == 1024
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1 and peaks[0] < 6 * 2**20


def test_desk_decoder_run_holds_at_most_two_patch_sets():
    """tracemalloc: a desk run at 1024 proposals peaks below three patch sets (6.4 MB each). It
    used to peak with the unrefined and refined sets, and before that with a float64 copy beside
    both; now it holds none (test_decoder_stages_allocate_no_patch_set)."""
    scene = gen_scene(DESK_1024)
    patch_set = 4 * 1024 * DESK_1024.channels * 7 * 7
    assert traced_transient(run_pipeline, scene, DESK_1024, DESK_BUNDLE) < 3 * patch_set


@st.composite
def desk_sized_configs(draw):
    """Valid SceneConfigs no larger than desk.cfg, drawn within every key's bounds."""
    return SceneConfig(
        seed=draw(st.integers(0, 1000)),
        frames=draw(st.integers(1, 3)),
        camera_count=draw(st.integers(1, 3)),
        image_h=8 * draw(st.integers(1, 8)),
        image_w=8 * draw(st.integers(1, 22)),
        depth_bins=draw(st.integers(2, 8)),
        bev_grid=2 * draw(st.integers(4, 16)),
        channels=draw(st.integers(4, 32)),
        window=draw(st.integers(1, 4)),
        crf_iters=draw(st.integers(0, 3)),
        top_n=draw(st.integers(1, 64)),
        threshold=draw(st.floats(0.0, 1.0, exclude_max=True)),
        heights=tuple(draw(st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=4))),
        points=draw(st.integers(1, 4)),
    )


@settings(max_examples=25, derandomize=True, deadline=None)
@given(desk_sized_configs())
def test_pipeline_runs_or_refuses_any_desk_sized_config(cfg):
    """Every valid desk-sized config runs end to end, or stops with ConfigError/ShapeError."""
    try:
        result = run_pipeline(gen_scene(cfg), cfg, init_bundle(cfg, 7))
    except (ConfigError, ShapeError):
        return
    assert result.bev.data.shape == (cfg.channels, cfg.bev_grid, cfg.bev_grid)
    assert len(result.detections) <= cfg.top_n


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
