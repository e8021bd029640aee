"""Named weight bundles: shapes derived from config, persisted as bundles.

Every learnable tensor has a dotted name; ``expected_shapes`` derives the
complete name -> shape map from a ``SceneConfig``, and ``validate_bundle``
checks a bundle against it on load and before the pipeline runs, so any
config/weights mismatch is caught before a stage does. That map is the
only place a layer's shape is stated and that check the only place it is
checked: the spec builders read channel counts and kernel sizes off the
validated tensors, and the spec types take them as they are. Initialization draws weights in sorted-name order
from one seeded stream; all biases start at zero except the detection
heatmap bias, which starts negative so that all-zero features score
below the proposal threshold (an empty scene yields no detections by
construction, not by accident).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from . import bvnx
from .config import SceneConfig
from .errors import FormatError
from .kernels import ConvSpec, MlpSpec, SplitMix64, init_weights
from .object_decoder import AttnSpec, RegressionHeads
from .res2fusion import FusionConfig

HEATMAP_BIAS = -2.5  # sigmoid(-2.5) ~ 0.076, below the 0.1 proposal threshold


@dataclass
class WeightBundle:
    """Map from dotted tensor name to float32 array."""

    tensors: Dict[str, np.ndarray]

    def __post_init__(self):
        self.tensors = {
            name: np.asarray(arr, dtype=np.float32) for name, arr in self.tensors.items()
        }

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]


def expected_shapes(cfg: SceneConfig) -> Dict[str, Tuple[int, ...]]:
    """Complete name -> shape contract for one config."""
    c, k = cfg.channels, cfg.depth_bins
    g, w = cfg.groups, cfg.window
    j, p = len(cfg.heights), cfg.points
    shapes: Dict[str, Tuple[int, ...]] = {}

    def conv(prefix: str, cin: int, cout: int, ksize: int) -> None:
        shapes[prefix + ".w"] = (cout, cin, ksize, ksize)
        shapes[prefix + ".b"] = (cout,)

    def linear(prefix: str, fan_in: int, fan_out: int) -> None:
        shapes[prefix + ".w"] = (fan_out, fan_in)
        shapes[prefix + ".b"] = (fan_out,)

    conv("backbone.conv1", 3, 8, 3)
    conv("backbone.conv2", 8, 16, 3)
    conv("backbone.conv3", 16, c, 3)
    conv("depth_head", c, k, 1)
    for i in range(g):
        conv(f"res2fusion.reduce.{i}", w * c, c, 1)
    for i in range(1, g):
        conv(f"res2fusion.cascade.{i}", c, c, 3)
    conv("res2fusion.final", g * c, c, 1)
    conv("res2fusion.post.down", c, c, 3)
    conv("res2fusion.post.merge", 2 * c, c, 1)
    conv("decoder.heatmap", c, cfg.classes, 3)
    shapes["decoder.query"] = (1, c)
    linear("decoder.attn.offset", c, j * p * 2)
    linear("decoder.attn.weight", c, j * p)
    linear("decoder.attn.value", c, c)
    linear("decoder.attn.out", c, c)
    linear("decoder.depth_mlp.0", k, c)
    linear("decoder.depth_mlp.1", c, c)
    linear("decoder.head.shared", c, c)
    linear("decoder.head.offset", c, 2)
    linear("decoder.head.z", c, 1)
    linear("decoder.head.size", c, 3)
    linear("decoder.head.yaw", c, 2)
    linear("decoder.head.vel", c, 2)
    return shapes


def _fan_in(shape: Tuple[int, ...]) -> int:
    if len(shape) == 4:
        return shape[1] * shape[2] * shape[3]
    return shape[1]


def init_bundle(cfg: SceneConfig, seed: int) -> WeightBundle:
    """Seeded weights in sorted-name order; biases zero except the heatmap's."""
    rng = SplitMix64(seed)
    tensors: Dict[str, np.ndarray] = {}
    for name, shape in sorted(expected_shapes(cfg).items()):
        if name.endswith(".b"):
            tensors[name] = np.zeros(shape, dtype=np.float32)
        else:
            tensors[name] = init_weights(shape, _fan_in(shape), rng)
    tensors["decoder.heatmap.b"] = np.full(
        tensors["decoder.heatmap.b"].shape, HEATMAP_BIAS, dtype=np.float32
    )
    return WeightBundle(tensors)


def validate_bundle(bundle: WeightBundle, cfg: SceneConfig) -> None:
    """Check the bundle holds exactly the expected names at exact shapes."""
    expected = expected_shapes(cfg)
    unknown = sorted(set(bundle.tensors) - set(expected))
    if unknown:
        raise FormatError(
            f"unknown weight names {unknown}; expected names: {sorted(expected)}"
        )
    missing = sorted(set(expected) - set(bundle.tensors))
    if missing:
        raise FormatError(f"weight bundle missing keys: {missing}")
    for name in sorted(expected):
        got = tuple(bundle.tensors[name].shape)
        if got != expected[name]:
            raise FormatError(
                f"weight '{name}' has shape {got}, config requires {expected[name]}"
            )


def save_weights(bundle: WeightBundle, path) -> None:
    bvnx.save_bundle(path, bundle.tensors)


def load_weights(path, cfg: SceneConfig) -> WeightBundle:
    """Load and fully validate a weight bundle against the config."""
    try:
        tensors = bvnx.load_bundle(path)
    except OSError as exc:
        raise FormatError(f"cannot read weights {path}: {exc}") from exc
    bundle = WeightBundle(tensors)
    validate_bundle(bundle, cfg)
    return bundle


def _conv(bundle: WeightBundle, name: str, stride: int = 1) -> ConvSpec:
    """Spec of the named conv, shaped by its tensors; every shipped conv pads by k // 2."""
    weight = bundle[name + ".w"]
    return ConvSpec(weight, bundle[name + ".b"], stride, weight.shape[2] // 2)


def backbone_specs(bundle: WeightBundle) -> List[ConvSpec]:
    """Three stride-2 3x3 convs: 3 -> 8 -> 16 -> C channels (1/8 scale)."""
    return [_conv(bundle, f"backbone.conv{i}", stride=2) for i in (1, 2, 3)]


def depth_head_spec(bundle: WeightBundle) -> ConvSpec:
    return _conv(bundle, "depth_head")


def fusion_config(bundle: WeightBundle, cfg: SceneConfig) -> FusionConfig:
    reduces = [_conv(bundle, f"res2fusion.reduce.{i}") for i in range(cfg.groups)]
    cascades = [_conv(bundle, f"res2fusion.cascade.{i}") for i in range(1, cfg.groups)]
    final = _conv(bundle, "res2fusion.final")
    return FusionConfig(cfg.frames, cfg.window, tuple(reduces), tuple(cascades), final)


def post_specs(bundle: WeightBundle) -> Tuple[ConvSpec, ConvSpec]:
    return _conv(bundle, "res2fusion.post.down", stride=2), _conv(bundle, "res2fusion.post.merge")


def heatmap_spec(bundle: WeightBundle) -> ConvSpec:
    return _conv(bundle, "decoder.heatmap")


def attn_spec(bundle: WeightBundle, cfg: SceneConfig) -> AttnSpec:
    return AttnSpec(
        n_ref=len(cfg.heights),
        n_points=cfg.points,
        w_offset=bundle["decoder.attn.offset.w"],
        b_offset=bundle["decoder.attn.offset.b"],
        w_weight=bundle["decoder.attn.weight.w"],
        b_weight=bundle["decoder.attn.weight.b"],
        w_value=bundle["decoder.attn.value.w"],
        b_value=bundle["decoder.attn.value.b"],
        w_out=bundle["decoder.attn.out.w"],
        b_out=bundle["decoder.attn.out.b"],
    )


def depth_mlp_spec(bundle: WeightBundle) -> MlpSpec:
    return MlpSpec(
        weights=[bundle["decoder.depth_mlp.0.w"], bundle["decoder.depth_mlp.1.w"]],
        biases=[bundle["decoder.depth_mlp.0.b"], bundle["decoder.depth_mlp.1.b"]],
        activations=["relu", "identity"],
    )


def regression_heads(bundle: WeightBundle) -> RegressionHeads:
    def head(prefix: str, activation: str) -> MlpSpec:
        return MlpSpec(
            weights=[bundle[prefix + ".w"]],
            biases=[bundle[prefix + ".b"]],
            activations=[activation],
        )

    return RegressionHeads(
        shared=head("decoder.head.shared", "relu"),
        offset=head("decoder.head.offset", "identity"),
        z=head("decoder.head.z", "identity"),
        size=head("decoder.head.size", "identity"),
        yaw=head("decoder.head.yaw", "identity"),
        vel=head("decoder.head.vel", "identity"),
    )
