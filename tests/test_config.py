"""Config parsing, validation, and the derived rig/bins/grid helpers."""

import dataclasses
import math
import os

import numpy as np
import pytest

from bevnext.config import (
    FRAME_DT,
    SceneConfig,
    build_config,
    load_config,
    parse_config,
)
from bevnext.errors import ConfigError
from factories import cam_to_ego, format_config


# ---------------------------------------------------------------- parsing


def test_parse_basic_lines():
    values = parse_config("scene.seed = 1\n camera.focal=2.5 \n")
    assert values == {"scene.seed": 1, "camera.focal": 2.5}


def test_parse_skips_blanks_and_comments():
    values = parse_config("# full comment\n\nscene.seed = 1  # trailing\n   \n")
    assert values == {"scene.seed": 1}


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="config line 2: duplicate key 'scene.seed'"):
        parse_config("scene.seed = 1\nscene.seed = 2\n")


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match="config line 1: expected 'key = value'"):
        parse_config("just words\n")


def test_parse_rejects_empty_value():
    with pytest.raises(ConfigError, match="config line 1: empty key or value"):
        parse_config("scene.seed =\n")


@pytest.mark.parametrize(
    "line, cause",
    [
        ("camera.count 6", "expected 'key = value', got 'camera.count 6'"),
        ("= 6", "empty key or value"),
        ("camera.count = # six", "empty key or value"),
        ("camera.cuont = 6", "unknown key 'camera.cuont'"),
        ("scene.seed = 2", "duplicate key 'scene.seed'"),
        ("camera.count = six", "camera.count: expected an integer, got 'six'"),
        ("camera.focal = wide", "camera.focal: expected a number, got 'wide'"),
    ],
)
def test_load_config_names_file_and_line_of_every_line_error(tmp_path, line, cause):
    path = tmp_path / "bad.cfg"
    path.write_text(f"scene.seed = 1\n\n{line}\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path} line 3: {cause}"


@pytest.mark.parametrize(
    "line, cause",
    [
        ("bev.grid = 33", "bev.grid must be even"),
        ("camera.focal = inf", "camera.focal: expected a finite number, got 'inf'"),
        ("camera.image_h = 100", "image dims 100x176 must be divisible by stride 8"),
    ],
)
def test_load_config_names_file_of_every_value_error(tmp_path, line, cause):
    path = tmp_path / "bad.cfg"
    path.write_text(f"scene.seed = 1\n{line}\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: {cause}"


# ---------------------------------------------------------------- building


def test_empty_text_gives_desk_defaults():
    cfg = build_config(parse_config(""))
    assert cfg == SceneConfig()
    assert cfg.stride == 8
    assert (cfg.feat_h, cfg.feat_w) == (8, 22)


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="bogus.key"):
        build_config(parse_config("bogus.key = 1"))


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="scene.frames"):
        build_config(parse_config("scene.frames = many"))
    with pytest.raises(ConfigError, match="camera.focal"):
        build_config(parse_config("camera.focal = wide"))


def test_heights_parse_as_float_list():
    cfg = build_config(parse_config("decoder.heights = -1.5, 0.0,2"))
    assert cfg.heights == (-1.5, 0.0, 2.0)


@pytest.mark.parametrize(
    "key,value,match",
    [
        ("scene.objects.min", "5", "objects.max"),  # min above default max
        ("bev.grid", "33", "even"),
        ("bev.grid", "6", ">= 8"),
        ("decoder.threshold", "1.0", r"\[0, 1\)"),
        ("camera.stride", "12", "stride"),
        ("camera.stride", "0", r"camera.stride must be one of \(8, 16\)"),
        ("camera.stride", "4", r"camera.stride must be one of \(8, 16\)"),  # divides 64x176: only this rule refuses it
        ("camera.image_w", "100", "divisible"),
        ("depth.min", "0", "> 0"),
        ("depth.max", "0.5", "exceed"),
        ("fusion.cascade_input", "other", "cascade_input"),
        ("decoder.heights", ",", "comma-separated"),
        ("crf.iters", "65", r"crf.iters must be in \[0, 64\]"),
        ("crf.iters", "-1", r"crf.iters must be in \[0, 64\]"),
        ("camera.count", "0", "camera.count must be >= 1"),
        ("scene.frames", "0", "scene.frames must be >= 1"),
        ("fusion.window", "0", "fusion.window must be >= 1"),
        ("decoder.threshold", "-0.1", r"decoder.threshold must be in \[0, 1\)"),
        ("decoder.top_n", "0", "decoder.top_n must be >= 1"),
        ("bev.extent", "inf", "bev.extent: expected a finite number"),
        ("camera.focal", "-inf", "camera.focal: expected a finite number"),
        ("camera.height", "nan", "camera.height: expected a finite number"),
        ("depth.max", "Infinity", "depth.max: expected a finite number"),
        ("decoder.heights", "0.0,nan,1.0", "decoder.heights: expected a finite number"),
    ],
)
def test_validation_rejects(key, value, match):
    with pytest.raises(ConfigError, match=match):
        build_config(parse_config(f"{key} = {value}"))


FLOAT_FIELDS = [
    ("focal", "camera.focal"),
    ("radius", "camera.radius"),
    ("camera_height", "camera.height"),
    ("depth_min", "depth.min"),
    ("depth_max", "depth.max"),
    ("bev_extent", "bev.extent"),
    ("threshold", "decoder.threshold"),
    ("heights", "decoder.heights"),
]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("attr,key", FLOAT_FIELDS)
def test_constructor_and_replace_reject_non_finite(attr, key, bad):
    value = (0.0, bad) if attr == "heights" else bad
    with pytest.raises(ConfigError, match=f"{key}: expected a finite number"):
        SceneConfig(**{attr: value})
    with pytest.raises(ConfigError, match=f"{key}: expected a finite number"):
        dataclasses.replace(SceneConfig(), **{attr: value})


def test_constructor_refuses_empty_heights():
    """The parser refuses an empty list first; the constructor refuses one too."""
    with pytest.raises(ConfigError, match="decoder.heights needs at least one value"):
        SceneConfig(heights=())


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_load_config_round_trip(tmp_path):
    cfg = SceneConfig(seed=9, frames=4, heights=(-0.5, 1.25), crf_iters=2)
    path = tmp_path / "c.cfg"
    path.write_text(format_config(cfg))
    assert load_config(path) == cfg


def test_format_config_emits_every_schema_key():
    text = format_config(SceneConfig())
    values = parse_config(text)
    assert build_config(values) == SceneConfig()
    assert len(values) == 24


# ---------------------------------------------------------------- derived helpers


def test_bins_and_bev_derivation():
    cfg = SceneConfig()
    bins = cfg.bins()
    assert bins.k == 8
    assert bins.centers[0] == 1.0 and bins.centers[-1] == 8.0
    bev = cfg.bev()
    assert bev.g == 32 and bev.extent == 8.0
    assert bev.cell_size == pytest.approx(0.5)


def test_groups_is_ceil_frames_over_window():
    assert SceneConfig(frames=9, window=3).groups == 3
    assert SceneConfig(frames=8, window=3).groups == 3
    assert SceneConfig(frames=1, window=3).groups == 1


def test_frame_interval_is_half_second():
    assert FRAME_DT == 0.5


# ---------------------------------------------------------------- rig geometry


def test_rig_camera_count_and_intrinsics():
    cfg = SceneConfig()
    rig = cfg.rig()
    assert len(rig) == cfg.camera_count
    for cam in rig:
        assert cam.fx == cam.fy == cfg.focal
        assert cam.cx == cfg.image_w / 2 and cam.cy == cfg.image_h / 2


def test_rig_camera_zero_axes():
    """Camera 0 looks along ego +x with image-down mapping to ego -z."""
    cam = SceneConfig().rig()[0]
    origin = cam_to_ego(cam, np.zeros((1, 3)))[0]
    assert np.allclose(origin, (0.5, 0.0, 0.9))
    forward = cam_to_ego(cam, np.array([[0.0, 0.0, 1.0]]))[0] - origin
    assert np.allclose(forward, (1.0, 0.0, 0.0))
    down = cam_to_ego(cam, np.array([[0.0, 1.0, 0.0]]))[0] - origin
    assert np.allclose(down, (0.0, 0.0, -1.0))


def test_rig_cameras_sit_on_circle_facing_outward():
    cfg = SceneConfig(camera_count=6, radius=0.5)
    for ci, cam in enumerate(cfg.rig()):
        phi = 2 * math.pi * ci / 6
        assert np.allclose(
            cam.translation, (0.5 * math.cos(phi), 0.5 * math.sin(phi), cfg.camera_height)
        )
        forward = cam.rotation[:, 2]
        assert np.allclose(forward, (math.cos(phi), math.sin(phi), 0.0))
        assert np.linalg.det(cam.rotation) == pytest.approx(1.0)


def test_rig_on_axis_point_projects_to_principal_point():
    cfg = SceneConfig()
    cam = cfg.rig()[0]
    uv, depth = cam.project(np.array([[5.0, 0.0, cfg.camera_height]]))
    assert np.allclose(uv[0], (cfg.image_w / 2, cfg.image_h / 2))
    assert depth[0] == pytest.approx(5.0 - cfg.radius)


# ---------------------------------------------------------------- shipped presets


def test_shipped_desk_preset_matches_defaults():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    assert load_config(os.path.join(root, "configs", "desk.cfg")) == SceneConfig()


def test_shipped_full_preset_validates():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = load_config(os.path.join(root, "configs", "full.cfg"))
    assert (cfg.depth_bins, cfg.bev_grid, cfg.bev_extent) == (59, 128, 51.2)
    assert (cfg.stride, cfg.feat_h, cfg.feat_w) == (16, 16, 44)
