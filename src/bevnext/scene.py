"""Synthetic surround-view scenes: flat-shaded boxes on a gradient sky.

A scene is a short clip of frames. Each frame holds one rendered RGB
raster per camera, the ground-truth boxes at that instant (an [N]
``BOX_DTYPE`` array), and a sparse set of 3D surface points standing in
for a range sensor. Objects move with constant velocity: frame t's boxes
are frame 0's with x += vx * (t * FRAME_DT) and likewise y, so
inter-frame motion equals velocity times the frame interval exactly.

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

import numpy as np

from . import bvnx, ppm
from .config import _SCHEMA, BOX_DTYPE, FRAME_DT, SceneConfig, parse_config, parse_rows
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


@dataclass(frozen=True, eq=False)  # == is identity: a field-wise == would compare arrays
class SceneFrame:
    """All per-instant data: one raster per camera, boxes, and points."""

    images: tuple[np.ndarray, ...]
    boxes: np.ndarray  # [N] BOX_DTYPE, taken as given: a cast would read a float [N, 10] as 10N boxes
    points: np.ndarray  # [P, 3] float32 ego-frame surface points

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        boxes = self.boxes
        if not isinstance(boxes, np.ndarray) or boxes.dtype != BOX_DTYPE or boxes.ndim != 1:
            got = f"{boxes.shape} {boxes.dtype}" if isinstance(boxes, np.ndarray) else type(boxes).__name__
            raise ShapeError(f"SceneFrame: boxes must be an [N] BOX_DTYPE array, got {got}")
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


@dataclass(frozen=True, eq=False)  # == is identity: a field-wise == would compare arrays
class SyntheticScene:
    """A chronological clip of frames sharing one camera rig."""

    frames: tuple[SceneFrame, ...]

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


def background_image(height: int, width: int) -> np.ndarray:
    """Gradient backdrop, identical for every camera and frame."""
    ys = (np.arange(height) * 255) // max(height - 1, 1)
    xs = (np.arange(width) * 255) // max(width - 1, 1)
    img = np.empty((height, width, 3), dtype=np.uint8)
    img[:, :, 0] = ys[:, None]
    img[:, :, 1] = xs[None, :]
    img[:, :, 2] = 96
    return img


def _center_size(box) -> tuple[np.ndarray, np.ndarray]:
    """A BOX_DTYPE record's centre (x, y, z) and size (l, w, h), [3] float64 each."""
    return np.array([box["x"], box["y"], box["z"]]), np.array([box["l"], box["w"], box["h"]])


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


def _screen_rect(camera: CameraModel, box, image_h: int, image_w: int):
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
    center, size = _center_size(box)
    corners = (_CORNER_SIGNS * (size / 2.0)) @ _yaw_matrix(box["yaw"]).T + center
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


def _render(camera: CameraModel, dirs_ego: np.ndarray, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(image, depth) of [N] BOX_DTYPE boxes through precomputed ``_ray_directions`` of ``camera``.

    depth is each pixel's camera-frame depth to its nearest box hit, or inf: finite where image is painted.
    """
    image_h, image_w = dirs_ego.shape[:2]
    image = background_image(image_h, image_w)
    depth = np.full((image_h, image_w), np.inf)
    for box in boxes:
        rect = _screen_rect(camera, box, image_h, image_w)
        if rect is None:
            continue
        r0, r1, c0, c1 = rect
        center, size = _center_size(box)
        rot = _yaw_matrix(box["yaw"])
        origin_box = rot.T @ (camera.translation - center)
        dirs_box = np.einsum("ij,hwj->hwi", rot.T, dirs_ego[r0:r1, c0:c1])
        t_enter = np.full((r1 - r0, c1 - c0), -np.inf)
        t_exit = np.full((r1 - r0, c1 - c0), np.inf)
        for axis in range(3):
            near, far = _slab_interval(origin_box[axis], dirs_box[:, :, axis], size[axis] / 2.0)
            t_enter = np.maximum(t_enter, near)
            t_exit = np.minimum(t_exit, far)
        depth_rect = depth[r0:r1, c0:c1]
        hit = (t_enter <= t_exit) & (t_enter > 1e-9)
        closer = hit & (t_enter < depth_rect)
        depth_rect[closer] = t_enter[closer]
        image[r0:r1, c0:c1][closer] = PALETTE[box["cls"] % len(PALETTE)]
    return image, depth


def _sample_objects(cfg: SceneConfig, rng: SplitMix64) -> np.ndarray:
    """Frame-0 boxes, [N] BOX_DTYPE: on-ground objects inside the placement ring.

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
        boxes.append((cls, *center, *size, yaw, *vel))
    return np.array(boxes, BOX_DTYPE)


def _sample_surface_offsets(box, rng: SplitMix64) -> np.ndarray:
    """Box-frame surface points of a BOX_DTYPE record: one random face per point, uniform on it."""
    half = _center_size(box)[1] / 2.0
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
    # each box's surface points about its centre, in the ego frame: yaw does not change over the clip
    offsets = [np.einsum("pj,ij->pi", _sample_surface_offsets(b, rng), _yaw_matrix(b["yaw"])) for b in base_boxes]
    ground = np.empty((GROUND_POINTS, 3), dtype=np.float64)
    reach = PLACEMENT_MARGIN * cfg.bev_extent
    for p in range(GROUND_POINTS):
        ground[p] = ((2.0 * rng.uniform() - 1.0) * reach, (2.0 * rng.uniform() - 1.0) * reach, 0.0)
    boxes, points = [], []
    for t in range(cfg.frames):
        moved = base_boxes.copy()
        moved["x"] += moved["vx"] * (t * FRAME_DT)
        moved["y"] += moved["vy"] * (t * FRAME_DT)
        boxes.append(moved)
        clouds = [offs + _center_size(box)[0] for box, offs in zip(moved, offsets)]
        points.append(np.concatenate(clouds + [ground], axis=0).astype(np.float32))
    images = [[] for _ in range(cfg.frames)]
    dirs = np.empty((cfg.image_h, cfg.image_w, 3))  # one buffer, rewritten per camera
    for cam in cfg.rig():
        _ray_directions(cam, cfg.image_h, cfg.image_w, dirs)
        for t in range(cfg.frames):
            images[t].append(_render(cam, dirs, boxes[t])[0])
    return SyntheticScene(tuple(SceneFrame(*frame) for frame in zip(images, boxes, points)))


def format_boxes(boxes: np.ndarray) -> str:
    """A header naming the BOX_DTYPE fields, then one line per box with its floats via repr."""
    line = "%d" + " %r" * 9 + "\n"
    return "# " + " ".join(BOX_DTYPE.names) + "\n" + "".join(line % row for row in boxes.tolist())


def parse_boxes(text: str) -> np.ndarray:
    """Inverse of format_boxes: the [N] BOX_DTYPE array; skips blank lines and # comments.

    A non-finite value or a size <= 0 is a FormatError naming the line and the field.
    """
    rows = []
    for lineno, row in parse_rows(text, len(BOX_DTYPE), "box"):
        bad = [f"{n} must be finite, got {v}" for n, v in zip(BOX_DTYPE.names[1:], row[1:]) if not math.isfinite(v)]
        bad += [f"size must be strictly positive, got {n} = {v}" for n, v in zip("lwh", row[4:7]) if v <= 0]
        if bad:
            raise FormatError(f"box line {lineno}: {bad[0]}")
        rows.append(row)
    return np.array(rows, BOX_DTYPE)


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
        frames.append(SceneFrame(tuple(images), boxes, points))
    return SyntheticScene(tuple(frames))
