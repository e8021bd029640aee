"""Flat key = value configuration with dotted section keys.

One ``SceneConfig`` drives scene generation, weight creation, and the
full pipeline, so every cross-module dimension (stride, bins, grid,
channels, frames) is derived from a single validated source. Unknown or
duplicate keys and inconsistent dimensions are rejected up front with a
``ConfigError`` (CLI exit code 2). A scene directory's ``scene.txt`` is
read by the same ``parse_config``; ``parse_rows`` reads ``boxes.txt`` and ``detections.txt``,
whose rows are ``BOX_DTYPE`` records (a detection adds a score).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from .depth_crf import DepthBins
from .errors import ConfigError, FormatError
from .view_transform import BevSpec, CameraModel

FRAME_DT = 0.5  # seconds between frames (2 Hz capture)
STRIDES = (8, 16)
MAX_ITERS = 64  # most mean-field steps crf.iters may ask for


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
    stride: int = 8
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
        return BevSpec(self.bev_grid, self.bev_extent)

    def rig(self) -> Tuple[CameraModel, ...]:
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
        return tuple(cams)


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


def parse_config(text: str, schema: dict = _SCHEMA, where: str = "config") -> dict:
    """Parse ``key = value`` lines into typed values by key.

    Blank lines are skipped; ``#`` starts a comment anywhere on a line.
    Each line must hold one ``schema`` key, not seen before (silent
    last-wins hides typos), and a value its converter accepts. Every
    error names ``where`` and the line.
    """
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        at = f"{where} line {lineno}"
        key, eq, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not eq:
            raise ConfigError(f"{at}: expected 'key = value', got '{stripped}'")
        if not key or not value:
            raise ConfigError(f"{at}: empty key or value")
        if key not in schema:
            raise ConfigError(f"{at}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{at}: duplicate key '{key}'")
        try:
            values[key] = schema[key][1](key, value)
        except ConfigError as exc:
            raise ConfigError(f"{at}: {exc}") from None
    return values


# One box: class, centre and size (metres), yaw (radians) and planar velocity (m/s)
BOX_DTYPE = np.dtype([("cls", np.int64)] + [(n, np.float64) for n in "x y z l w h yaw vx vy".split()])


def parse_rows(text: str, columns: int, what: str) -> Iterator[tuple]:
    """(line number, (class id, float, ...)) per ``class value ...`` line; blanks and # comments are skipped.

    Other than ``columns`` columns, a value that does not parse, or a class id that int64 cannot
    hold is a ``FormatError`` naming ``what`` and the line.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cols = stripped.split()
        if len(cols) != columns:
            raise FormatError(f"{what} line {lineno} has {len(cols)} columns, expected {columns}")
        try:
            row = (int(cols[0]), *map(float, cols[1:]))
        except ValueError as exc:
            raise FormatError(f"{what} line {lineno}: {exc}") from exc
        if not -(2**63) <= row[0] < 2**63:
            raise FormatError(f"{what} line {lineno}: class id {row[0]} does not fit in int64")
        yield lineno, row


def build_config(values: dict) -> SceneConfig:
    """Build a SceneConfig from ``parse_config`` values."""
    return SceneConfig(**{_SCHEMA[key][0]: value for key, value in values.items()})


def load_config(path) -> SceneConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    values = parse_config(text, where=str(path))
    try:
        return build_config(values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
