"""Weight bundle tests: shape contract, seeded init, persistence, builders."""

import functools
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bevnext import pipeline
from bevnext.config import SceneConfig, load_config
from bevnext.errors import FormatError
from bevnext.kernels import conv2d
from bevnext.weights import (
    HEATMAP_BIAS,
    WeightBundle,
    attn_spec,
    backbone_specs,
    depth_head_spec,
    depth_mlp_spec,
    expected_shapes,
    fusion_config,
    heatmap_spec,
    init_bundle,
    load_weights,
    post_specs,
    regression_heads,
    save_weights,
    validate_bundle,
)
from factories import zero_bundle

DESK = SceneConfig()
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PRESETS = {preset: load_config(CONFIGS / f"{preset}.cfg") for preset in ("desk", "full")}


@functools.lru_cache(maxsize=None)
def preset_bundle(preset: str):
    return init_bundle(PRESETS[preset], 7)


# ---------------------------------------------------------------- shape contract


def test_expected_shapes_desk_counts():
    shapes = expected_shapes(DESK)
    # conv pairs: 3 backbone + depth head + 3 reduces + 2 cascades + final
    # + post down/merge + heatmap = 13; plus the query row and 12 linear pairs
    assert len(shapes) == 13 * 2 + 1 + 12 * 2
    assert shapes["backbone.conv1.w"] == (8, 3, 3, 3)
    assert shapes["depth_head.w"] == (8, 32, 1, 1)
    assert shapes["res2fusion.reduce.0.w"] == (32, 96, 1, 1)
    assert shapes["res2fusion.cascade.2.w"] == (32, 32, 3, 3)
    assert shapes["res2fusion.final.w"] == (32, 96, 1, 1)
    assert shapes["decoder.query"] == (1, 32)
    assert shapes["decoder.attn.offset.w"] == (4 * 2 * 2, 32)
    assert shapes["decoder.attn.weight.w"] == (4 * 2, 32)
    assert shapes["decoder.depth_mlp.0.w"] == (32, 8)
    assert shapes["decoder.head.size.w"] == (3, 32)


def test_expected_shapes_track_config():
    cfg = SceneConfig(frames=4, window=4, channels=16, classes=5, heights=(0.0,), points=3)
    shapes = expected_shapes(cfg)
    assert cfg.groups == 1
    assert "res2fusion.cascade.1.w" not in shapes
    assert shapes["res2fusion.reduce.0.w"] == (16, 64, 1, 1)
    assert shapes["res2fusion.final.w"] == (16, 16, 1, 1)
    assert shapes["decoder.heatmap.w"] == (5, 16, 3, 3)
    assert shapes["decoder.attn.offset.w"] == (6, 16)


# ---------------------------------------------------------------- initialization


def test_init_bundle_deterministic_per_seed():
    a, b = init_bundle(DESK, 7), init_bundle(DESK, 7)
    assert a.tensors.keys() == b.tensors.keys()
    for name in a.tensors:
        assert np.array_equal(a[name], b[name])
    c = init_bundle(DESK, 8)
    assert any(not np.array_equal(a[n], c[n]) for n in a.tensors if n.endswith(".w"))


def test_init_bundle_biases_zero_except_heatmap():
    bundle = init_bundle(DESK, 7)
    for name, arr in bundle.tensors.items():
        if name == "decoder.heatmap.b":
            assert np.all(arr == np.float32(HEATMAP_BIAS))
        elif name.endswith(".b"):
            assert np.all(arr == 0.0), name
        else:
            assert np.any(arr != 0.0), name


def test_zero_bundle_is_all_zero_and_valid():
    bundle = zero_bundle(DESK)
    validate_bundle(bundle, DESK)
    assert all(np.all(arr == 0.0) for arr in bundle.tensors.values())


# ---------------------------------------------------------------- persistence


def test_save_load_round_trip_bit_exact(tmp_path):
    bundle = init_bundle(DESK, 7)
    path = tmp_path / "w.bvnx"
    save_weights(bundle, path)
    back = load_weights(path, DESK)
    assert back.tensors.keys() == bundle.tensors.keys()
    for name in bundle.tensors:
        assert back[name].dtype == np.float32
        assert np.array_equal(back[name], bundle[name])


def test_load_rejects_unknown_name_listing_expected(tmp_path):
    bundle = init_bundle(DESK, 7)
    bundle.tensors["bogus.w"] = np.zeros((1,), np.float32)
    path = tmp_path / "w.bvnx"
    save_weights(bundle, path)
    with pytest.raises(FormatError) as err:
        load_weights(path, DESK)
    assert "bogus.w" in str(err.value)
    assert "backbone.conv1.w" in str(err.value)  # expected names are listed


def test_load_rejects_missing_key_by_dotted_path(tmp_path):
    bundle = init_bundle(DESK, 7)
    del bundle.tensors["decoder.head.yaw.b"]
    path = tmp_path / "w.bvnx"
    save_weights(bundle, path)
    with pytest.raises(FormatError, match="decoder.head.yaw.b"):
        load_weights(path, DESK)


def _no_stage(stage, fn, *args, **kwargs):
    raise AssertionError(f"stage {stage} ran on a bundle that validate_bundle refuses")


@pytest.mark.parametrize(
    "preset,name", [(preset, name) for preset, cfg in PRESETS.items() for name in sorted(expected_shapes(cfg))]
)
def test_load_rejects_shape_mismatch_by_name(tmp_path, monkeypatch, preset, name):
    """Any one tensor with axis 0 grown by 1 is refused by name: on load, and by run_pipeline before any stage."""
    cfg = PRESETS[preset]
    tensors = dict(preset_bundle(preset).tensors)
    shape = tensors[name].shape
    tensors[name] = np.zeros((shape[0] + 1,) + shape[1:], np.float32)
    bundle = WeightBundle(tensors)
    save_weights(bundle, tmp_path / "w.bvnx")
    refusal = re.escape(f"weight '{name}' has shape")
    with pytest.raises(FormatError, match=refusal):
        load_weights(tmp_path / "w.bvnx", cfg)
    monkeypatch.setattr(pipeline, "run_stage", _no_stage)
    # the config's dimensions and no frames: run_pipeline must refuse the bundle before it reads any
    scene = SimpleNamespace(k=cfg.frames, n_cameras=cfg.camera_count, image_h=cfg.image_h, image_w=cfg.image_w)
    with pytest.raises(FormatError, match=refusal):
        pipeline.run_pipeline(scene, cfg, bundle)


def test_load_rejects_corrupt_magic_at_offset_zero(tmp_path):
    path = tmp_path / "w.bvnx"
    path.write_bytes(b"XXXX" + bytes(64))
    with pytest.raises(FormatError, match="offset 0"):
        load_weights(path, DESK)


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "w.bvnx"
    save_weights(init_bundle(DESK, 7), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError, match="truncated"):
        load_weights(path, DESK)


def test_load_missing_file_is_format_error(tmp_path):
    with pytest.raises(FormatError, match="cannot read"):
        load_weights(tmp_path / "absent.bvnx", DESK)


def _header_offsets(bundle, size: int) -> list:
    """Offsets of the bundle header and of every record's name and tensor header."""
    offsets, off = list(range(10)), 10  # magic, version, count
    for name in sorted(bundle.tensors):
        shape = bundle[name].shape
        head = 2 + len(name.encode()) + 8 + 4 * len(shape)  # name length, name, magic, version, rank, dims
        offsets += range(off, off + head)
        off += head + 4 * bundle[name].size
    assert off == size
    return offsets


def test_load_fuzzed_bundle_loads_or_raises_format_error(tmp_path):
    """Byte flips in headers and anywhere, and truncations, of a desk bundle."""
    bundle = init_bundle(DESK, 7)
    path = tmp_path / "w.bvnx"
    save_weights(bundle, path)
    data = path.read_bytes()
    rng = np.random.default_rng(0)
    cases = []
    for offsets in (_header_offsets(bundle, len(data)), range(len(data))):
        for _ in range(200):
            damaged = bytearray(data)
            damaged[offsets[int(rng.integers(len(offsets)))]] ^= int(rng.integers(1, 256))
            cases.append(bytes(damaged))
    cases += [data[: int(rng.integers(0, len(data)))] for _ in range(200)]
    outcomes = {"loaded": 0, "rejected": 0}
    for damaged in cases:
        path.write_bytes(damaged)
        try:
            load_weights(path, DESK)
            outcomes["loaded"] += 1
        except FormatError:
            outcomes["rejected"] += 1
    assert outcomes["loaded"] > 0 and outcomes["rejected"] > 200


# ---------------------------------------------------------------- builders


def keeps_size(spec):
    """Every shipped conv pads by k // 2 (1x1 convs by 0, 3x3 convs by 1)."""
    return spec.padding == spec.kernel_size // 2


def conv_shape(spec):
    return spec.in_channels, spec.out_channels, spec.kernel_size, spec.stride


def test_backbone_specs_chain_and_stride():
    specs = backbone_specs(init_bundle(DESK, 7))
    chain = [(s.in_channels, s.out_channels) for s in specs]
    assert chain == [(3, 8), (8, 16), (16, 32)]
    assert all(s.stride == 2 and s.kernel_size == 3 and keeps_size(s) for s in specs)


def test_depth_head_maps_channels_to_bins():
    spec = depth_head_spec(init_bundle(DESK, 7))
    assert (spec.in_channels, spec.out_channels, spec.kernel_size) == (32, 8, 1)
    assert spec.stride == 1 and keeps_size(spec)


def test_fusion_config_matches_group_arithmetic():
    """Per preset: g 1x1 reduces w*C -> C, g - 1 padded 3x3 cascades C -> C, a 1x1 final g*C -> C."""
    for preset, cfg in PRESETS.items():
        fc = fusion_config(preset_bundle(preset), cfg)
        c = cfg.channels
        assert fc.groups == cfg.groups == 3
        assert fc.window == cfg.window == 3
        assert len(fc.cascade_specs) == fc.groups - 1
        assert all(conv_shape(s) == (3 * c, c, 1, 1) for s in fc.reduce_specs)
        assert all(conv_shape(s) == (c, c, 3, 1) for s in fc.cascade_specs)
        assert conv_shape(fc.final_spec) == (fc.groups * c, c, 1, 1)
        convs = fc.reduce_specs + fc.cascade_specs + (fc.final_spec,)
        assert all(keeps_size(s) for s in convs)


def test_post_and_heatmap_specs():
    """Per preset: a 3x3 stride-2 down C -> C, a 1x1 merge 2C -> C and a size-keeping 3x3 heatmap C -> classes."""
    for preset, cfg in PRESETS.items():
        bundle, c = preset_bundle(preset), cfg.channels
        down, merge = post_specs(bundle)
        assert conv_shape(down) == (c, c, 3, 2)
        assert conv_shape(merge) == (2 * c, c, 1, 1)
        hm = heatmap_spec(bundle)
        assert conv_shape(hm) == (c, cfg.classes, 3, 1)
        assert all(keeps_size(s) for s in (down, merge, hm))


def test_attn_and_mlp_builders():
    """Per preset: the attention projections' rows, the head widths on the trunk, and MLP layers that chain."""
    for preset, cfg in PRESETS.items():
        bundle, c = preset_bundle(preset), cfg.channels
        attn = attn_spec(bundle, cfg)
        j, p = len(cfg.heights), cfg.points
        assert (attn.n_ref, attn.n_points) == (j, p) and j >= 1 and p >= 1
        assert attn.channels == c
        assert attn.w_offset.shape == (j * p * 2, c) and attn.b_offset.shape == (j * p * 2,)
        assert attn.w_weight.shape == (j * p, c) and attn.b_weight.shape == (j * p,)
        assert attn.w_value.shape == attn.w_out.shape == (c, c)
        assert attn.b_value.shape == attn.b_out.shape == (c,)
        mlp = depth_mlp_spec(bundle)
        assert mlp.in_width == cfg.depth_bins and mlp.out_width == c
        assert mlp.activations == ["relu", "identity"]
        heads = regression_heads(bundle)
        assert heads.shared.activations == ["relu"]
        assert heads.shared.in_width == heads.shared.out_width == c
        widths = {name: getattr(heads, name).out_width for name in ("offset", "z", "size", "yaw", "vel")}
        assert widths == {"offset": 2, "z": 1, "size": 3, "yaw": 2, "vel": 2}
        for name in widths:
            assert getattr(heads, name).in_width == heads.shared.out_width
            assert getattr(heads, name).activations == ["identity"]
        for spec in [mlp] + [getattr(heads, name) for name in ("shared",) + tuple(widths)]:
            assert len(spec.weights) == len(spec.biases) == len(spec.activations)
            for i, (w, b) in enumerate(zip(spec.weights, spec.biases)):
                assert w.ndim == 2 and b.shape == (w.shape[0],)
                assert i == 0 or w.shape[1] == spec.weights[i - 1].shape[0]


def test_zero_weights_feed_a_zero_conv_chain():
    specs = backbone_specs(zero_bundle(DESK))
    x = np.ones((1, 3, 16, 16), np.float32)
    for spec in specs:
        x = conv2d(x, spec)
    assert np.all(x == 0.0)
