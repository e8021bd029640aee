"""Flat key = value configuration with dotted section keys.

One ``SceneConfig`` drives scene generation, weight creation, and the
full pipeline, so every cross-module dimension (stride, bins, grid,
channels, frames) is derived from a single validated source. Unknown or
duplicate keys and inconsistent dimensions are rejected up front with a
``ConfigError`` (CLI exit code 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .depth_crf import MAX_ITERS, DepthBins
from .errors import ConfigError
from .view_transform import BevSpec, CameraModel, CameraRig

FRAME_DT = 0.5  # seconds between frames (2 Hz capture)
STRIDES = (8, 16)


@dataclass(frozen=True)
class SceneConfig:
    """Every tunable of the synthetic pipeline, with desk-scale defaults."""

    seed: int = 0
    frames: int = 9
    objects_min: int = 1
    objects_max: int = 4
    camera_count: int = 6
    image_h: int = 64
    image_w: int = 176
    stride: int = 0  # 0 = auto: 8 for images up to 256 rows, else 16
    focal: float = 60.0
    radius: float = 0.5
    camera_height: float = 0.9
    depth_bins: int = 8
    depth_min: float = 1.0
    depth_max: float = 9.0
    bev_grid: int = 32
    bev_extent: float = 8.0
    channels: int = 32
    window: int = 3
    crf_iters: int = 5
    threshold: float = 0.1
    top_n: int = 16
    classes: int = 2
    heights: tuple = (-1.0, 0.0, 1.0, 2.0)
    points: int = 2

    def __post_init__(self):
        object.__setattr__(self, "heights", tuple(float(h) for h in self.heights))
        for key, (attr, convert) in _SCHEMA.items():
            if convert in (_parse_float, _parse_floats):
                value = getattr(self, attr)
                for v in value if convert is _parse_floats else (value,):
                    if not math.isfinite(v):
                        raise ConfigError(f"{key}: expected a finite number, got '{v}'")
        if self.stride == 0:
            object.__setattr__(self, "stride", 8 if self.image_h <= 256 else 16)
        checks = [
            (self.seed >= 0, "scene.seed must be >= 0"),
            (self.frames >= 1, "scene.frames must be >= 1"),
            (self.objects_min >= 0, "scene.objects.min must be >= 0"),
            (self.objects_max >= self.objects_min, "scene.objects.max must be >= scene.objects.min"),
            (self.camera_count >= 1, "camera.count must be >= 1"),
            (self.stride in STRIDES, f"camera.stride must be one of {STRIDES}"),
            (self.focal > 0, "camera.focal must be > 0"),
            (self.radius >= 0, "camera.radius must be >= 0"),
            (self.depth_bins >= 2, "depth.bins must be >= 2"),
            (self.depth_min > 0, "depth.min must be > 0"),
            (self.depth_max > self.depth_min, "depth.max must exceed depth.min"),
            (self.bev_grid >= 8, "bev.grid must be >= 8"),
            (self.bev_grid % 2 == 0, "bev.grid must be even"),
            (self.bev_extent > 0, "bev.extent must be > 0"),
            (self.channels >= 1, "features.channels must be >= 1"),
            (self.window >= 1, "fusion.window must be >= 1"),
            (0 <= self.crf_iters <= MAX_ITERS, f"crf.iters must be in [0, {MAX_ITERS}]"),
            (0.0 <= self.threshold < 1.0, "decoder.threshold must be in [0, 1)"),
            (self.top_n >= 1, "decoder.top_n must be >= 1"),
            (self.classes >= 1, "decoder.classes must be >= 1"),
            (len(self.heights) >= 1, "decoder.heights needs at least one value"),
            (self.points >= 1, "decoder.points must be >= 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        if self.image_h % self.stride or self.image_w % self.stride:
            raise ConfigError(
                f"image dims {self.image_h}x{self.image_w} must be divisible by stride {self.stride}"
            )
        if self.image_h < self.stride or self.image_w < self.stride:
            raise ConfigError("image dims must be at least one stride cell")

    @property
    def feat_h(self) -> int:
        return self.image_h // self.stride

    @property
    def feat_w(self) -> int:
        return self.image_w // self.stride

    @property
    def groups(self) -> int:
        """Temporal group count: ceil(frames / window)."""
        return -(-self.frames // self.window)

    def bins(self) -> DepthBins:
        return DepthBins.uniform(self.depth_bins, self.depth_min, self.depth_max)

    def bev(self) -> BevSpec:
        return BevSpec.square(self.bev_grid, self.bev_extent)

    def rig(self) -> CameraRig:
        """Outward-facing surround rig: cameras evenly spaced on a circle.

        Camera c points along ego yaw angle 2*pi*c/count; camera axes map
        to ego as x -> horizontal right, y -> straight down, z -> the yaw
        direction, giving a right-handed rotation with determinant +1.
        """
        cams = []
        for c in range(self.camera_count):
            phi = 2.0 * math.pi * c / self.camera_count
            right = (math.sin(phi), -math.cos(phi), 0.0)
            down = (0.0, 0.0, -1.0)
            forward = (math.cos(phi), math.sin(phi), 0.0)
            rotation = np.stack(
                [np.array(right), np.array(down), np.array(forward)], axis=1
            )
            translation = np.array(
                [self.radius * math.cos(phi), self.radius * math.sin(phi), self.camera_height]
            )
            cams.append(
                CameraModel(
                    fx=self.focal,
                    fy=self.focal,
                    cx=self.image_w / 2.0,
                    cy=self.image_h / 2.0,
                    rotation=rotation,
                    translation=translation,
                )
            )
        return CameraRig(tuple(cams))


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got '{value}'") from exc


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got '{value}'") from exc


def _parse_floats(key: str, value: str) -> tuple:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected comma-separated numbers, got '{value}'")
    return tuple(_parse_float(key, p) for p in parts)


_SCHEMA = {
    "scene.seed": ("seed", _parse_int),
    "scene.frames": ("frames", _parse_int),
    "scene.objects.min": ("objects_min", _parse_int),
    "scene.objects.max": ("objects_max", _parse_int),
    "camera.count": ("camera_count", _parse_int),
    "camera.image_h": ("image_h", _parse_int),
    "camera.image_w": ("image_w", _parse_int),
    "camera.stride": ("stride", _parse_int),
    "camera.focal": ("focal", _parse_float),
    "camera.radius": ("radius", _parse_float),
    "camera.height": ("camera_height", _parse_float),
    "depth.bins": ("depth_bins", _parse_int),
    "depth.min": ("depth_min", _parse_float),
    "depth.max": ("depth_max", _parse_float),
    "bev.grid": ("bev_grid", _parse_int),
    "bev.extent": ("bev_extent", _parse_float),
    "features.channels": ("channels", _parse_int),
    "fusion.window": ("window", _parse_int),
    "crf.iters": ("crf_iters", _parse_int),
    "decoder.threshold": ("threshold", _parse_float),
    "decoder.top_n": ("top_n", _parse_int),
    "decoder.classes": ("classes", _parse_int),
    "decoder.heights": ("heights", _parse_floats),
    "decoder.points": ("points", _parse_int),
}


def parse_config(text: str) -> dict:
    """Parse ``key = value`` lines into a raw string map.

    Blank lines are skipped; ``#`` starts a comment anywhere on a line.
    Duplicate keys are an error (silent last-wins hides typos).
    """
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got '{stripped}'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"config line {lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"config line {lineno}: duplicate key '{key}'")
        raw[key] = value
    return raw


def build_config(raw: dict) -> SceneConfig:
    """Validate a raw key map against the schema and build a SceneConfig."""
    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        attr, convert = _SCHEMA[key]
        kwargs[attr] = convert(key, value)
    return SceneConfig(**kwargs)


def load_config(path) -> SceneConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    return build_config(parse_config(text))
