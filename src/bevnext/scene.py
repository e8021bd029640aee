"""Synthetic surround-view scenes: flat-shaded boxes on a gradient sky.

A scene is a short clip of frames. Each frame holds one rendered RGB
raster per camera, the ground-truth boxes at that instant, and a sparse
set of 3D surface points standing in for a range sensor. Objects move
with constant velocity; positions at frame t are computed as
center + velocity * (t * FRAME_DT), so inter-frame motion equals
velocity times the frame interval exactly.

Rendering is a vectorized ray / oriented-box intersection with a depth
buffer, using only elementwise numpy ops, so output rasters are
byte-identical across runs and platforms. Each camera's per-pixel ray
directions are built once per scene. Each box is intersected only
inside the screen rectangle of its 8 projected corners, widened by one
pixel; a box that straddles the camera plane or holds the camera falls
back to the whole image, and a box wholly behind the camera or off
screen is skipped. Pixels see the same arithmetic as a whole-image
pass, so the bytes do not depend on the clipping.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import bvnx, ppm
from .config import _SCHEMA, FRAME_DT, SceneConfig, parse_config, parse_rows
from .errors import ConfigError, FormatError, ShapeError
from .kernels import SplitMix64
from .view_transform import CameraModel

# Flat-shaded fill colors, indexed by class modulo the palette size.
PALETTE = (
    (204, 64, 64),
    (64, 160, 224),
    (232, 200, 72),
    (144, 96, 208),
    (88, 192, 120),
    (230, 120, 40),
)

GROUND_POINTS = 60
OBJECT_POINTS = 40
PLACEMENT_MARGIN = 0.8  # objects spawn within this fraction of the extent
DRIFT_MARGIN = 0.9  # moving objects must stay within this fraction
MIN_PLACEMENT_RADIUS = 1.5
MAX_SPEED = 0.5  # m/s per axis

_SIZE_RANGES = ((0.5, 1.2), (0.4, 0.9), (0.5, 1.2))  # l, w, h
_CORNER_SIGNS = np.array([(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])


@dataclass(frozen=True)
class GroundTruthBox:
    """One object at one instant: pose, size, and planar velocity."""

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

    def __post_init__(self):
        for name in ("x", "y", "z", "l", "w", "h", "yaw", "vx", "vy"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ShapeError(f"GroundTruthBox: {name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "cls", int(self.cls))
        if self.l <= 0 or self.w <= 0 or self.h <= 0:
            raise ShapeError("GroundTruthBox: size must be strictly positive")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def size(self) -> np.ndarray:
        return np.array([self.l, self.w, self.h])


@dataclass(frozen=True)
class SceneFrame:
    """All per-instant data: one raster per camera, boxes, and points."""

    images: Tuple[np.ndarray, ...]
    boxes: Tuple[GroundTruthBox, ...]
    points: np.ndarray  # [P, 3] float32 ego-frame surface points

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        object.__setattr__(self, "boxes", tuple(self.boxes))
        pts = np.asarray(self.points, dtype=np.float32)
        object.__setattr__(self, "points", pts)
        if not self.images:
            raise ShapeError("SceneFrame: at least one camera image required")
        first = self.images[0].shape
        for img in self.images:
            if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
                raise ShapeError("SceneFrame: images must be [H, W, 3] uint8")
            if img.shape != first:
                raise ShapeError(f"SceneFrame: mixed image dims {img.shape} vs {first}")
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ShapeError(f"SceneFrame: points must be [P, 3], got {pts.shape}")


@dataclass(frozen=True)
class SyntheticScene:
    """A chronological clip of frames sharing one camera rig."""

    frames: Tuple[SceneFrame, ...]

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if not self.frames:
            raise ShapeError("SyntheticScene: at least one frame required")
        first = self.frames[0]
        for frame in self.frames:
            if len(frame.images) != len(first.images):
                raise ShapeError("SyntheticScene: camera count varies across frames")
            if frame.images[0].shape != first.images[0].shape:
                raise ShapeError("SyntheticScene: image dims vary across frames")

    @property
    def k(self) -> int:
        return len(self.frames)

    @property
    def n_cameras(self) -> int:
        return len(self.frames[0].images)

    @property
    def image_h(self) -> int:
        return self.frames[0].images[0].shape[0]

    @property
    def image_w(self) -> int:
        return self.frames[0].images[0].shape[1]


def box_center_at(center, velocity, frame: int) -> np.ndarray:
    """Constant-velocity position at frame index ``frame``."""
    c = np.asarray(center, dtype=np.float64).copy()
    v = np.asarray(velocity, dtype=np.float64)
    c[:2] = c[:2] + v * (frame * FRAME_DT)
    return c


def background_image(height: int, width: int) -> np.ndarray:
    """Gradient backdrop, identical for every camera and frame."""
    ys = (np.arange(height) * 255) // max(height - 1, 1)
    xs = (np.arange(width) * 255) // max(width - 1, 1)
    img = np.empty((height, width, 3), dtype=np.uint8)
    img[:, :, 0] = ys[:, None]
    img[:, :, 1] = xs[None, :]
    img[:, :, 2] = 96
    return img


def _yaw_matrix(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _slab_interval(origin: float, direction: np.ndarray, half: float):
    """Entry/exit ray parameters for one +-half slab; handles parallel rays."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-half - origin) / direction
        t2 = (half - origin) / direction
    near = np.minimum(t1, t2)
    far = np.maximum(t1, t2)
    parallel = direction == 0.0
    if parallel.any():
        inside = abs(origin) <= half
        near = np.where(parallel, -np.inf if inside else np.inf, near)
        far = np.where(parallel, np.inf if inside else -np.inf, far)
    return near, far


def _ray_directions(camera: CameraModel, image_h: int, image_w: int, out=None) -> np.ndarray:
    """Ego-frame ray direction of every pixel center, [H, W, 3] float64.

    Written into ``out`` when it is given. The camera-frame direction has
    unit z, so the ray parameter of a hit equals its camera-frame depth.
    """
    us = (np.arange(image_w) + 0.5 - camera.cx) / camera.fx
    vs = (np.arange(image_h) + 0.5 - camera.cy) / camera.fy
    dirs_cam = np.empty((image_h, image_w, 3), dtype=np.float64)
    dirs_cam[:, :, 0] = us[None, :]
    dirs_cam[:, :, 1] = vs[:, None]
    dirs_cam[:, :, 2] = 1.0
    return np.einsum("hwj,ij->hwi", dirs_cam, camera.rotation, out=out)


def _screen_rect(camera: CameraModel, box: GroundTruthBox, image_h: int, image_w: int):
    """Pixel rows/columns ``(r0, r1, c0, c1)`` a box can cover, or None.

    A convex box wholly in front of the camera projects inside the hull
    of its 8 projected corners, so every pixel center it covers lies in
    their bounding rectangle; one extra pixel on each side absorbs
    rounding. A box with every corner at depth <= 0 is skipped: its hits
    would have ``t_enter <= 0``, well short of the hit test's 1e-9. A box
    with any corner at depth <= 1e-6 straddles the camera plane or holds
    the camera, so its projection is unbounded and the whole image is
    searched.
    """
    corners = (_CORNER_SIGNS * (box.size / 2.0)) @ _yaw_matrix(box.yaw).T + box.center
    uv, depth = camera.project(corners)
    if (depth <= 0.0).all():
        return None
    if (depth <= 1e-6).any():
        return 0, image_h, 0, image_w
    lo, hi = np.floor(uv.min(axis=0)) - 1, np.ceil(uv.max(axis=0)) + 2
    c0, r0 = (max(int(v), 0) for v in lo)
    c1, r1 = int(min(hi[0], image_w)), int(min(hi[1], image_h))
    if r0 >= r1 or c0 >= c1:
        return None
    return r0, r1, c0, c1


def _render(
    camera: CameraModel, dirs_ego: np.ndarray, boxes: Sequence[GroundTruthBox]
) -> np.ndarray:
    """Render boxes through precomputed ``_ray_directions`` of ``camera``."""
    image_h, image_w = dirs_ego.shape[:2]
    image = background_image(image_h, image_w)
    depth = np.full((image_h, image_w), np.inf)
    for box in boxes:
        rect = _screen_rect(camera, box, image_h, image_w)
        if rect is None:
            continue
        r0, r1, c0, c1 = rect
        rot = _yaw_matrix(box.yaw)
        origin_box = rot.T @ (camera.translation - box.center)
        dirs_box = np.einsum("ij,hwj->hwi", rot.T, dirs_ego[r0:r1, c0:c1])
        t_enter = np.full((r1 - r0, c1 - c0), -np.inf)
        t_exit = np.full((r1 - r0, c1 - c0), np.inf)
        for axis in range(3):
            near, far = _slab_interval(
                origin_box[axis], dirs_box[:, :, axis], box.size[axis] / 2.0
            )
            t_enter = np.maximum(t_enter, near)
            t_exit = np.minimum(t_exit, far)
        depth_rect = depth[r0:r1, c0:c1]
        hit = (t_enter <= t_exit) & (t_enter > 1e-9)
        closer = hit & (t_enter < depth_rect)
        depth_rect[closer] = t_enter[closer]
        image[r0:r1, c0:c1][closer] = PALETTE[box.cls % len(PALETTE)]
    return image


def _sample_objects(cfg: SceneConfig, rng: SplitMix64) -> List[GroundTruthBox]:
    """Frame-0 boxes: on-ground objects inside the placement ring.

    Draw order per object is fixed (class, size, polar position, yaw,
    velocity), so the stream consumed from ``rng`` is reproducible. Any
    velocity component that would drift the center past DRIFT_MARGIN of
    the extent by the last frame is flipped toward the center.
    """
    count = rng.randint(cfg.objects_min, cfg.objects_max)
    r_max = PLACEMENT_MARGIN * cfg.bev_extent
    r_min = min(MIN_PLACEMENT_RADIUS, 0.5 * r_max)
    duration = (cfg.frames - 1) * FRAME_DT
    boxes = []
    for _ in range(count):
        cls = rng.randint(0, cfg.classes - 1)
        size = [lo + (hi - lo) * rng.uniform() for lo, hi in _SIZE_RANGES]
        radius = r_min + (r_max - r_min) * rng.uniform()
        angle = 2.0 * math.pi * rng.uniform()
        center = [radius * math.cos(angle), radius * math.sin(angle), size[2] / 2.0]
        yaw = -math.pi + 2.0 * math.pi * rng.uniform()
        vel = [MAX_SPEED * (2.0 * rng.uniform() - 1.0) for _ in range(2)]
        for axis in range(2):
            if abs(center[axis] + vel[axis] * duration) > DRIFT_MARGIN * cfg.bev_extent:
                vel[axis] = -vel[axis]
        boxes.append(
            GroundTruthBox(
                cls, center[0], center[1], center[2],
                size[0], size[1], size[2], yaw, vel[0], vel[1],
            )
        )
    return boxes


def _sample_surface_offsets(box: GroundTruthBox, rng: SplitMix64) -> np.ndarray:
    """Box-frame surface points: one random face per point, uniform on it."""
    half = box.size / 2.0
    offs = np.empty((OBJECT_POINTS, 3), dtype=np.float64)
    for p in range(OBJECT_POINTS):
        face = rng.randint(0, 5)
        axis, sign = face // 2, 1.0 if face % 2 == 0 else -1.0
        coords = [(2.0 * rng.uniform() - 1.0) * half[a] for a in range(3)]
        coords[axis] = sign * half[axis]
        offs[p] = coords
    return offs


def gen_scene(cfg: SceneConfig) -> SyntheticScene:
    """Deterministic scene from the config seed.

    Objects, their surface-point offsets, and the ground points are
    sampled once; every frame re-renders the same objects at their
    constant-velocity positions, so identical configs yield
    byte-identical scenes. Rendering runs camera by camera through one
    ray-direction buffer, so only one camera's directions exist at a time.
    """
    rng = SplitMix64(cfg.seed)
    base_boxes = _sample_objects(cfg, rng)
    offsets = [_sample_surface_offsets(box, rng) for box in base_boxes]
    ground = np.empty((GROUND_POINTS, 3), dtype=np.float64)
    reach = PLACEMENT_MARGIN * cfg.bev_extent
    for p in range(GROUND_POINTS):
        ground[p] = ((2.0 * rng.uniform() - 1.0) * reach, (2.0 * rng.uniform() - 1.0) * reach, 0.0)
    boxes, points = [], []
    for t in range(cfg.frames):
        boxes_t = []
        clouds = []
        for box, offs in zip(base_boxes, offsets):
            center_t = box_center_at(box.center, (box.vx, box.vy), t)
            moved = GroundTruthBox(
                box.cls, center_t[0], center_t[1], center_t[2],
                box.l, box.w, box.h, box.yaw, box.vx, box.vy,
            )
            boxes_t.append(moved)
            rot = _yaw_matrix(box.yaw)
            clouds.append(np.einsum("pj,ij->pi", offs, rot) + center_t)
        clouds.append(ground)
        boxes.append(tuple(boxes_t))
        points.append(np.concatenate(clouds, axis=0).astype(np.float32))
    images = [[] for _ in range(cfg.frames)]
    dirs = np.empty((cfg.image_h, cfg.image_w, 3))  # one buffer, rewritten per camera
    for cam in cfg.rig():
        _ray_directions(cam, cfg.image_h, cfg.image_w, dirs)
        for t in range(cfg.frames):
            images[t].append(_render(cam, dirs, boxes[t]))
    return SyntheticScene(tuple(SceneFrame(*frame) for frame in zip(images, boxes, points)))


def format_boxes(boxes: Sequence[GroundTruthBox]) -> str:
    """One line per box: cls x y z l w h yaw vx vy (floats via repr)."""
    lines = ["# cls x y z l w h yaw vx vy"]
    for b in boxes:
        vals = (b.x, b.y, b.z, b.l, b.w, b.h, b.yaw, b.vx, b.vy)
        lines.append(str(b.cls) + " " + " ".join(repr(v) for v in vals))
    return "".join(line + "\n" for line in lines)


def parse_boxes(text: str) -> List[GroundTruthBox]:
    """Inverse of format_boxes; skips blank lines and # comments."""
    boxes = []
    for lineno, row in parse_rows(text, 10, "box"):
        try:
            boxes.append(GroundTruthBox(*row))
        except ShapeError as exc:
            raise FormatError(f"box line {lineno}: {exc}") from exc
    return boxes


# scene.txt keys, in the order save_scene writes them.
_META_KEYS = ("scene.frames", "camera.count", "camera.image_h", "camera.image_w")


def _frame_dir(base, t: int) -> str:
    return f"{base}/frame_{t:03d}"


def save_scene(scene: SyntheticScene, out_dir) -> None:
    """Write a scene directory: scene.txt plus one subdirectory per frame.

    frame_<ttt>/ holds cam_<i>.ppm rasters, boxes.txt ground truth, and
    points.bvnx surface points. Layout and bytes depend only on the
    scene, so equal scenes serialize identically.
    """
    os.makedirs(out_dir, exist_ok=True)
    values = (scene.k, scene.n_cameras, scene.image_h, scene.image_w)
    meta = "".join(f"{key} = {value}\n" for key, value in zip(_META_KEYS, values))
    with open(os.path.join(out_dir, "scene.txt"), "w", encoding="utf-8") as fh:
        fh.write(meta)
    for t, frame in enumerate(scene.frames):
        fdir = _frame_dir(out_dir, t)
        os.makedirs(fdir, exist_ok=True)
        for ci, img in enumerate(frame.images):
            ppm.save_ppm(f"{fdir}/cam_{ci}.ppm", img)
        with open(f"{fdir}/boxes.txt", "w", encoding="utf-8") as fh:
            fh.write(format_boxes(frame.boxes))
        bvnx.save_tensor(f"{fdir}/points.bvnx", frame.points)


def load_scene(scene_dir) -> SyntheticScene:
    """Read back a directory written by save_scene."""
    meta_path = os.path.join(scene_dir, "scene.txt")
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta_text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read scene metadata {meta_path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"scene metadata {meta_path} is not UTF-8 text: {exc}") from exc
    try:
        meta = parse_config(meta_text, {key: _SCHEMA[key] for key in _META_KEYS}, meta_path)
    except ConfigError as exc:
        raise FormatError(str(exc)) from exc
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise FormatError(f"{meta_path}: missing metadata key(s) {', '.join(missing)}")
    for key in _META_KEYS:
        if meta[key] < 1:
            raise FormatError(f"{meta_path}: {key} must be >= 1, got {meta[key]}")
    k, n_cam, image_h, image_w = (meta[key] for key in _META_KEYS)
    frames = []
    for t in range(k):
        fdir = _frame_dir(scene_dir, t)
        images = []
        for ci in range(n_cam):
            path = f"{fdir}/cam_{ci}.ppm"
            try:
                img = ppm.load_ppm(path)
            except OSError as exc:
                raise FormatError(f"missing scene raster {path}: {exc}") from exc
            if img.shape != (image_h, image_w, 3):
                raise FormatError(
                    f"{path}: raster dims {img.shape[:2]} != metadata {image_h}x{image_w}"
                )
            images.append(img)
        try:
            with open(f"{fdir}/boxes.txt", "r", encoding="utf-8") as fh:
                boxes = parse_boxes(fh.read())
        except OSError as exc:
            raise FormatError(f"missing box list in {fdir}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"box list {fdir}/boxes.txt is not UTF-8 text: {exc}") from exc
        except FormatError as exc:
            raise FormatError(f"{fdir}/boxes.txt: {exc}") from exc
        try:
            points = bvnx.load_tensor(f"{fdir}/points.bvnx")
        except OSError as exc:
            raise FormatError(f"missing point cloud in {fdir}: {exc}") from exc
        if points.ndim != 2 or points.shape[1] != 3:
            raise FormatError(f"{fdir}/points.bvnx: points must be [P, 3], got {points.shape}")
        frames.append(SceneFrame(tuple(images), tuple(boxes), points))
    return SyntheticScene(tuple(frames))
