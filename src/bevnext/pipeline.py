"""End-to-end orchestration: images to detections, deterministically.

Per frame, every camera runs backbone -> depth logits -> CRF-refined
depth -> frustum lift; the lifted features pool into one BEV grid per
frame. ``fuse`` reads the frame grids as a stream, oldest first, and the
decoder turns the fused grid into detections. Camera passes (backbone,
depth head, CRF) are the only work of the thread pool (one per run, for
``threads > 1``), queued one frame ahead: each time fuse asks for the
next frame, the thread that called ``run_pipeline`` pools frame t while
the pool runs frame t + 1's passes. Pool reads frame t from a generator
that takes each camera's result in camera order and lifts it into one
preallocated [C, H', W', K] slot, and reads each camera before it asks
for the next, so no stack of all cameras' lifted features exists; fuse
copies each grid into its window buffer and reduces each window as soon
as its last frame is pooled, so no list of all frames' grids exists
either. At ``threads = 1`` the same loop
runs each pass in place when its result is taken. Only the calling
thread touches the slot, which keeps outputs bit-identical for any
thread count and puts every long-lived array (the slot, the grids,
pool's and fuse's buffers) on one heap; workers allocate only per-pass
temporaries. The slot lives only while frames are pooled, so the newest
window's reduction and the decoder run without it.
Failures inside a stage re-raise as ``StageError`` tagged with the stage
name.

The backbone consumes the background-subtracted raster. With zero
conv biases an object-free frame therefore produces exactly zero
features, an all-zero BEV, and a heatmap pinned at sigmoid(bias) below
the proposal threshold: background-only scenes decode to zero
detections structurally.
"""

from __future__ import annotations

import functools
import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .config import SceneConfig
from .depth_crf import map_labeling, modulate
from .errors import BevnextError, ConfigError, ShapeError, StageError
from .kernels import ConvSpec, conv2d
from .object_decoder import (
    Heatmap,
    compute_heatmap,
    depth_embedding,
    format_detections,
    lift_references,
    regress,
    select_centers,
    spatial_cross_attention,
)
from .ppm import save_ppm
from .res2fusion import fuse, post_fuse
from .scene import SyntheticScene, background_image
from .view_transform import (
    BevGrid,
    build_frustum,
    lift,
    pool,
    precompute_pool_index,
)
from .weights import (
    WeightBundle,
    attn_spec,
    backbone_specs,
    depth_head_spec,
    depth_mlp_spec,
    fusion_config,
    heatmap_spec,
    post_specs,
    regression_heads,
    validate_bundle,
)

def run_stage(stage: str, fn: Callable, *args, **kwargs):
    """Run one stage; package-level failures re-raise tagged with the stage."""
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except BevnextError as exc:
        raise StageError(stage, str(exc)) from exc


def tensor_digest(arr: np.ndarray) -> str:
    """Stable content digest: sha256 over dtype, shape, and raw bytes."""
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def toy_backbone(image: np.ndarray, stride: int, specs: Sequence[ConvSpec]) -> np.ndarray:
    """Fixed 3-layer strided conv stack over an [H, W, 3] raster.

    Input values are scaled by 1/255 (a raw uint8 raster or a signed
    background-subtracted float raster both work). Three stride-2 convs
    reach 1/8 scale with relu between them; stride 16 appends a 2x2 mean
    pool. Output is [C, H/stride, W/stride] float32.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ShapeError(f"toy_backbone: image must be [H, W, 3], got {img.shape}")
    h, w = img.shape[:2]
    if stride not in (8, 16):
        raise ShapeError(f"toy_backbone: stride must be 8 or 16, got {stride}")
    if h % stride or w % stride:
        raise ShapeError(
            f"toy_backbone: image dims {h}x{w} not divisible by stride {stride}"
        )
    if len(specs) != 3:
        raise ShapeError(f"toy_backbone: expected 3 conv specs, got {len(specs)}")
    x = (img / 255.0).transpose(2, 0, 1).astype(np.float32)[None]
    for i, spec in enumerate(specs):
        x = conv2d(x, spec)
        if i < 2:
            x = np.maximum(x, 0.0)
    if stride == 16:  # 2x2 mean with the bits of mean(axis=(3, 5)): +0.0, then raster order
        n, c, hh, ww = x.shape
        v = x.reshape(n, c, hh // 2, 2, ww // 2, 2)
        acc = np.zeros((n, c, hh // 2, ww // 2))  # so an all -0.0 window gives +0.0, as mean does
        for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            acc += v[..., dy, :, dx]
        x = (acc / 4).astype(np.float32)
    return x[0]


def _check_scene(scene: SyntheticScene, cfg: SceneConfig) -> None:
    """Scene artifacts must match the config's dimensional contract."""
    if scene.k != cfg.frames:
        raise ShapeError(f"scene has {scene.k} frames, config expects {cfg.frames}")
    if scene.n_cameras != cfg.camera_count:
        raise ShapeError(
            f"scene has {scene.n_cameras} cameras, config expects {cfg.camera_count}"
        )
    if scene.image_h != cfg.image_h or scene.image_w != cfg.image_w:
        raise ShapeError(
            f"scene rasters are {scene.image_h}x{scene.image_w}, "
            f"config expects {cfg.image_h}x{cfg.image_w}"
        )


@dataclass
class PipelineResult:
    """The detections (regress's checked [N] DETECTION_DTYPE array) and the tensors the dumps are made from."""

    detections: np.ndarray
    heatmap: Heatmap
    depth: Tuple[np.ndarray, ...]  # current-frame [K, H', W'] depth probabilities, one per camera
    bev: BevGrid  # fused decoder input


def run_pipeline(
    scene: SyntheticScene,
    cfg: SceneConfig,
    bundle: WeightBundle,
    threads: int = 1,
) -> PipelineResult:
    """Run the full detector on a scene; bit-identical for any ``threads``."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    _check_scene(scene, cfg)
    validate_bundle(bundle, cfg)
    bins, spec, rig = cfg.bins(), cfg.bev(), cfg.rig()
    bspecs = backbone_specs(bundle)
    dspec = depth_head_spec(bundle)
    fcfg = fusion_config(bundle, cfg)
    down, merge = post_specs(bundle)
    hspec = heatmap_spec(bundle)
    attn = attn_spec(bundle, cfg)
    dmlp = depth_mlp_spec(bundle)
    heads = regression_heads(bundle)
    query = bundle["decoder.query"]

    frusta = [run_stage("lift", build_frustum, cam, cfg.feat_h, cfg.feat_w, cfg.stride, bins) for cam in rig]
    index = run_stage("pool", precompute_pool_index, frusta, spec)
    bg = background_image(cfg.image_h, cfg.image_w).astype(np.float64)

    current: list = []  # the newest frame's (feats, depth) per camera, for the decoder

    def camera_pass(image: np.ndarray):
        # One float64 image per conversion, with the bits of astype(float64) then the op.
        feats = run_stage("backbone", toy_backbone, np.subtract(image, bg), cfg.stride, bspecs)
        logits = run_stage("depth", lambda: conv2d(feats[None], dspec)[0])
        depth = run_stage("crf", modulate, logits, np.divide(image, 255.0), bins, cfg.crf_iters)
        return feats, depth

    def start(t: int) -> list:
        """Frame t's passes as calls giving (feats, depth): queued on the pool, or run when called."""
        images = scene.frames[t].images if t < scene.k else ()
        if ex is None:
            return [functools.partial(camera_pass, image) for image in images]
        return [ex.submit(camera_pass, image).result for image in images]

    def lifted(passes: list, slot: np.ndarray):
        """The frame's cameras for pool: each pass result, lifted into the one slot in camera order."""
        current.clear()
        for result in passes:
            current.append(result())
            yield run_stage("lift", lift, *current[-1], slot)

    def frames():
        """Each frame's BEV grid, oldest first, pooled while the pool runs the next frame's passes.

        The slot is this generator's own, so it is freed when fuse has taken
        the last frame and the stream ends, before the newest window is reduced.
        """
        slot = np.empty((bspecs[-1].out_channels, cfg.feat_h, cfg.feat_w, bins.k), dtype=np.float32)
        ahead = start(0)
        for t in range(scene.k):
            passes, ahead = ahead, start(t + 1)
            yield run_stage("pool", pool, lifted(passes, slot), index)

    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as ex:
        fused = run_stage("fusion", fuse, frames(), fcfg)
    bev = run_stage("fusion", post_fuse, fused, down, merge)

    heat = run_stage("decoder", compute_heatmap, bev, hspec)
    props = run_stage("decoder", select_centers, heat, cfg.threshold, cfg.top_n)
    refs = run_stage(
        "decoder", lift_references, props["center"], spec, cfg.heights, rig, cfg.image_h, cfg.image_w
    )
    feats_now = np.stack([feats for feats, _ in current], axis=0)
    depth_now = tuple(depth for _, depth in current)
    emb = run_stage("decoder", lambda: np.stack([depth_embedding(d, dmlp) for d in depth_now], axis=0))
    residual, refined = run_stage(
        "decoder", spatial_cross_attention, bev, props, query, refs, feats_now, attn, cfg.stride, emb
    )
    dets = run_stage("decoder", regress, bev, props, residual, refined, heads, spec)
    return PipelineResult(dets, heat, depth_now, bev)


def write_artifacts(
    result: PipelineResult,
    out_dir,
    dump_depth: bool = False,
    dump_heatmap: bool = False,
) -> List[str]:
    """Write detections.txt and optional PPM dumps; returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    det_path = os.path.join(out_dir, "detections.txt")
    with open(det_path, "w", encoding="utf-8") as fh:
        fh.write(format_detections(result.detections))
    written.append(det_path)
    if dump_depth:
        for ci, depth in enumerate(result.depth):
            labels = map_labeling(depth)
            gray = ((labels * 255) // max(len(depth) - 1, 1)).astype(np.uint8)
            img = np.repeat(gray[:, :, None], 3, axis=2)
            path = os.path.join(out_dir, f"depth_cam{ci}.ppm")
            save_ppm(path, img)
            written.append(path)
    if dump_heatmap:
        best = result.heatmap.values.max(axis=0)
        gray = np.floor(best * 255.0).astype(np.uint8)
        img = np.repeat(gray[:, :, None], 3, axis=2)
        path = os.path.join(out_dir, "heatmap.ppm")
        save_ppm(path, img)
        written.append(path)
    return written
