"""End-to-end pipeline tests: backbone, depth labels, orchestration, artifacts."""

import dataclasses
import hashlib
import os
import sys
import threading
import time
import tracemalloc
import weakref

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
from bevnext import pipeline
from bevnext.object_decoder import format_detections, parse_detections
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
# windows and the CRF cached its spatial kernel. When the mean-field
# messages became one OpenBLAS GEMM, the float64 CRF probabilities were
# re-pinned (einsum-message digest: 01e6382e...), and so was lift: one of
# its 270336 float32 values moved by one ulp (was ee1a354a...). Backbone
# and depth kept their bits through that change and conv2d's move to GEMMs.
GOLDEN_DESK_CAMERA_STAGES = {
    "backbone": "9b2b0be1848d444c654c53c372d5ec0be681fa7baffab16830b97006812f8e2f",
    "depth": "206874f1fe58c746d6a564f2bb548b0eba6bd10c4d26e553421368286adbb86d",
    "crf": "11aab3172ce4c80c3a302e40f4a7a7a17dfac482626efe312fd4a0b67b3b5657",
    "lift": "e45dea3de91ba58c4573a7a6c7b8afb9c77f344eed731764783905d94cd69fdd",
}

# Same config, scene and weights with decoder.threshold = 0.0 and
# decoder.top_n = 1024, so every BEV cell proposes: digests of the refined
# ROI patches and flags out of spatial_cross_attention, and sha256 of the
# formatted detections, pinned before the decoder was batched over ROIs.
GOLDEN_DESK_DECODER = {
    "patches": "dc1716fef206b5702ea5f4f4cb11b8658e11a02969f8ab9064940b667d2b561b",
    "flags": "6798d7ffa7b45e06d1d979298c1aced7a40700e49b005e041547de0841f5c194",
    "detections": "3b3a714913d1fe643d6b8988dc9af503488a9ea0e7f1436cf492c42304df4433",
}

# configs/full.cfg (scene seed 0) with init_bundle(cfg, 7), decoder.threshold
# = 0.0 and decoder.top_n = 64, run at threads=2: digests of the fused BEV
# and the heatmap, and sha256 of the formatted detections. The only tier-1
# test that runs full.cfg through run_pipeline.
GOLDEN_FULL = {
    "bev": "aa1b8ffd4d651de79bdec7c07d4b4e35ba3a251609944e9c4a32fbf240990e0b",
    "heatmap": "72ec52feefee2a288b9e97b33d3b564139417cf5def4ac89a0355e15b8255621",
    "detections": "fffe72402231b732b54b0f8b0e77c7395c1bb15da7615ac5682bccae4e0718c6",
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


def test_pipeline_desk_decoder_pinned_across_threads(monkeypatch):
    """The second stage on 1024 real proposals, as run_pipeline wires it."""
    desk = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "desk.cfg"))
    cfg = dataclasses.replace(desk, threshold=0.0, top_n=1024)
    scene, bundle = gen_scene(cfg), init_bundle(cfg, 7)
    refine = pipeline.spatial_cross_attention
    outputs = []

    def recording(*args, **kwargs):
        outputs.append(refine(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(pipeline, "spatial_cross_attention", recording)
    for threads in (1, 2):
        outputs.clear()
        result = run_pipeline(scene, cfg, bundle, threads=threads)
        ((refined, flags),) = outputs
        assert len(result.detections) == 1024
        text = format_detections(result.detections)
        assert tensor_digest(refined.patches) == GOLDEN_DESK_DECODER["patches"], f"threads={threads}"
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
    """Huge weights overflow the CRF softmax into NaN; the depth volume refuses it."""
    cfg = SceneConfig(frames=1)
    big = {name: arr * np.float32(1e20) for name, arr in init_bundle(cfg, 7).tensors.items()}
    with np.errstate(all="ignore"), pytest.raises(StageError, match=r"\[stage crf\] DepthVolume"):
        run_pipeline(gen_scene(cfg), cfg, WeightBundle(big))


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

    def slow_pool(cameras, index, spec):
        def watched():
            for camera in cameras:
                before = camera.copy()
                yield camera
                with lock:  # pool has read this camera and asks for the next
                    events.append("camera kept" if np.array_equal(camera, before) else "camera overwritten")
            time.sleep(0.2)  # long enough for the other worker to start the next frame

        grid = pool(watched(), index, spec)
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
    cfg, scene = desk_scene(seed=2, frames=6)
    calls = []

    def failing_pool(stack, index, spec):
        calls.append(len(calls))
        if len(calls) == 4:  # frame 3
            raise ShapeError("injected pool failure")
        return pool(stack, index, spec)

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

    def slow_pool(cameras, index, spec):
        pools.append(None)
        time.sleep(0.2)  # frame t + 1's passes, and so frame 2's failing one, run meanwhile
        grid = pool(cameras, index, spec)
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


@pytest.mark.parametrize("threads", [1, 2])
def test_lifted_stack_is_freed_before_fusion(monkeypatch, threads):
    """desk.cfg: by the time fuse runs, no reference to the one lift slot is left."""
    slots, freed = [], []

    def lift_spy(features, depth, out=None):
        slots.append(weakref.ref(out))
        return lift(features, depth, out)

    def fuse_spy(stack, config):
        freed.append([ref() is None for ref in slots])
        return fuse(stack, config)

    monkeypatch.setattr(pipeline, "lift", lift_spy)
    monkeypatch.setattr(pipeline, "fuse", fuse_spy)
    run_pipeline(gen_scene(DESK), DESK, DESK_BUNDLE, threads=threads)
    assert len(slots) == DESK.frames * DESK.camera_count
    assert freed == [[True] * len(slots)]


@pytest.mark.parametrize("threads", [1, 2])
def test_every_lift_in_a_run_gets_the_same_slot(monkeypatch, threads):
    """desk.cfg: all 54 lifts write into one [C, H', W', K] array that is no view of a larger one."""
    outs = []

    def lift_spy(features, depth, out=None):
        outs.append(out)
        return lift(features, depth, out)

    monkeypatch.setattr(pipeline, "lift", lift_spy)
    run_pipeline(gen_scene(DESK), DESK, DESK_BUNDLE, threads=threads)
    assert len(outs) == DESK.frames * DESK.camera_count
    assert all(out is outs[0] for out in outs)
    assert outs[0].shape == (DESK.channels, DESK.feat_h, DESK.feat_w, DESK.depth_bins)
    assert outs[0].base is None


def test_desk_run_allocates_nothing_the_size_of_the_lifted_stack(monkeypatch):
    """tracemalloc: whenever pool asks for a camera, the one slot is live and no NumPy buffer nears the stack."""
    live = []

    def pool_spy(cameras, index, spec):
        def watched():
            for camera in cameras:
                snap = tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
                )
                live.append([trace.size for trace in snap.traces])
                yield camera

        return pool(watched(), index, spec)

    monkeypatch.setattr(pipeline, "pool", pool_spy)
    slot_bytes = 4 * DESK.channels * DESK.feat_h * DESK.feat_w * DESK.depth_bins
    stack_bytes = DESK.camera_count * slot_bytes  # 1.08 MB
    tracemalloc.start()
    try:
        run_pipeline(gen_scene(DESK), DESK, DESK_BUNDLE)
    finally:
        tracemalloc.stop()
    assert len(live) == DESK.frames * DESK.camera_count
    assert all(slot_bytes in sizes for sizes in live)
    assert max(max(sizes) for sizes in live) < stack_bytes // 2  # the largest, 0.27 MB, is the float64 background image


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
