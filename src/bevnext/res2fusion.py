"""Temporal BEV aggregation via windowed grouping and a multi-scale conv cascade.

The k most recent BEV frames are cut into g = ceil(k / w) windows of w
frames each (group 0 = the newest window, group g-1 = the oldest, zero
padded on its old side when w does not divide k). Each window is channel
concatenated and reduced by a 1x1 conv; the reduced groups then pass
through a 3x3 cascade that runs oldest to newest, feeding each group the
convolved output of its older neighbor, so older evidence reaches the
output through progressively more 3x3 stages and a correspondingly wider
receptive field. The newest group skips the cascade entirely. Everything
is a pure function of BEV tensors and kernel weights: no ego poses are
read and no frame warping happens anywhere.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ShapeError
from .kernels import ConvSpec, conv2d
from .view_transform import BevGrid

@dataclass(frozen=True)
class FusionStack:
    """Chronological BEV frames; index k-1 is the current frame."""

    grids: Tuple[BevGrid, ...]

    def __post_init__(self):
        object.__setattr__(self, "grids", tuple(self.grids))
        if not self.grids:
            raise ShapeError("FusionStack: at least one frame required")
        first = self.grids[0].data.shape
        for grid in self.grids[1:]:
            if grid.data.shape != first:
                raise ShapeError(
                    f"FusionStack: mixed frame dims {grid.data.shape} vs {first}"
                )

    @property
    def k(self) -> int:
        return len(self.grids)

    @property
    def channels(self) -> int:
        return self.grids[0].channels

    @property
    def g(self) -> int:
        return self.grids[0].g


@dataclass(frozen=True)
class FusionConfig:
    """Window size plus the per-group reduce, cascade, and final kernels.

    reduce_specs[i] is the 1x1 conv for group i (i = 0 newest); there are
    g - 1 cascade specs, cascade_specs[i - 1] serving group i >= 1 (the
    newest group is a passthrough).
    """

    window: int
    reduce_specs: Tuple[ConvSpec, ...]
    cascade_specs: Tuple[ConvSpec, ...]
    final_spec: ConvSpec

    def __post_init__(self):
        object.__setattr__(self, "reduce_specs", tuple(self.reduce_specs))
        object.__setattr__(self, "cascade_specs", tuple(self.cascade_specs))
        if self.window < 1:
            raise ShapeError(f"FusionConfig: window must be >= 1, got {self.window}")
        g = len(self.reduce_specs)
        if g < 1:
            raise ShapeError("FusionConfig: at least one reduce spec required")
        if len(self.cascade_specs) != g - 1:
            raise ShapeError(
                f"FusionConfig: need {g - 1} cascade specs for {g} groups, got {len(self.cascade_specs)}"
            )
        c_mid = self.reduce_specs[0].out_channels
        for i, spec in enumerate(self.reduce_specs):
            if spec.kernel_size != 1 or spec.stride != 1:
                raise ShapeError(f"FusionConfig: reduce spec {i} must be a 1x1 stride-1 conv")
            if spec.out_channels != c_mid:
                raise ShapeError("FusionConfig: reduce specs must share out_channels")
            if spec.in_channels != self.reduce_specs[0].in_channels:
                raise ShapeError("FusionConfig: reduce specs must share in_channels")
        for i, spec in enumerate(self.cascade_specs):
            if spec.kernel_size != 3 or spec.stride != 1 or spec.padding != 1:
                raise ShapeError(f"FusionConfig: cascade spec {i} must be a padded 3x3 stride-1 conv")
            if spec.in_channels != c_mid or spec.out_channels != c_mid:
                raise ShapeError(f"FusionConfig: cascade spec {i} must map {c_mid} -> {c_mid} channels")
        if self.final_spec.kernel_size != 1 or self.final_spec.stride != 1:
            raise ShapeError("FusionConfig: final spec must be a 1x1 stride-1 conv")
        if self.final_spec.in_channels != g * c_mid:
            raise ShapeError(
                f"FusionConfig: final spec expects {self.final_spec.in_channels} input channels, "
                f"concat provides {g * c_mid}"
            )

    @property
    def groups(self) -> int:
        return len(self.reduce_specs)


def _conv(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    return conv2d(x[None], spec)[0]


def partition(stack: FusionStack, window: int) -> List[np.ndarray]:
    """Cut the stack into ceil(k / w) channel-concatenated windows.

    Group 0 holds the w newest frames ending at the current one; the
    oldest group is zero padded on its old side up to width w. Within a
    group, channels run in chronological order (oldest frame first).
    """
    if window < 1:
        raise ShapeError(f"partition: window must be >= 1, got {window}")
    return [_group(stack, window, i) for i in range(-(-stack.k // window))]


def _group(stack: FusionStack, window: int, i: int) -> np.ndarray:
    """Window i of `partition`: frames k - (i + 1) * w .. k - i * w - 1, zeros before frame 0."""
    end = stack.k - i * window
    parts = [stack.grids[j].data for j in range(max(end - window, 0), end)]
    pad = np.zeros(((window - len(parts)) * stack.channels, stack.g, stack.g), dtype=np.float32)
    return np.concatenate([pad] + parts)


def reduce_groups(groups: Sequence[np.ndarray], specs: Sequence[ConvSpec]) -> List[np.ndarray]:
    """Apply each group's 1x1 reduction independently."""
    if len(groups) != len(specs):
        raise ShapeError(f"reduce_groups: {len(groups)} groups but {len(specs)} specs")
    return [_conv(grp, spec) for grp, spec in zip(groups, specs)]


def multiscale_cascade(bprime: Sequence[np.ndarray], specs: Sequence[ConvSpec]) -> List[np.ndarray]:
    """Run the 3x3 cascade from the oldest group toward the newest.

    The oldest group is convolved alone; each later group i >= 1 adds the
    convolved output of its older neighbor before its own 3x3 conv; group
    0 passes through untouched. Inherently sequential in the group index.
    """
    g = len(bprime)
    if len(specs) != g - 1:
        raise ShapeError(f"multiscale_cascade: need {g - 1} specs for {g} groups, got {len(specs)}")
    out: List[np.ndarray] = [None] * g  # type: ignore[list-item]
    out[0] = np.asarray(bprime[0], dtype=np.float32)
    if g == 1:
        return out
    out[g - 1] = _conv(bprime[g - 1], specs[g - 2])
    for i in range(g - 2, 0, -1):
        out[i] = _conv(bprime[i] + out[i + 1], specs[i - 1])
    return out


def fuse(stack: FusionStack, config: FusionConfig) -> BevGrid:
    """Fuse the whole stack into one BEV grid.

    Exactly partition -> reduce_groups -> multiscale_cascade -> concat
    (oldest group first) -> final 1x1, with no extra arithmetic, so the
    composed pipeline and this entry point are bit-identical. Each window
    is concatenated and reduced in turn, so only one window's
    concatenation exists at a time.
    """
    n_groups = -(-stack.k // config.window)
    if n_groups != config.groups:
        raise ShapeError(
            f"fuse: stack of {stack.k} frames with window {config.window} makes {n_groups} groups, "
            f"config has {config.groups}"
        )
    expect_in = config.window * stack.channels
    if config.reduce_specs[0].in_channels != expect_in:
        raise ShapeError(
            f"fuse: reduce specs expect {config.reduce_specs[0].in_channels} channels, "
            f"window * stack channels is {expect_in}"
        )
    bp = [_conv(_group(stack, config.window, i), spec) for i, spec in enumerate(config.reduce_specs)]
    cat = np.concatenate(list(reversed(multiscale_cascade(bp, config.cascade_specs))), axis=0)
    return BevGrid(_conv(cat, config.final_spec))


def post_fuse(grid: BevGrid, down_spec: ConvSpec, merge_spec: ConvSpec) -> BevGrid:
    """One strided-conv + upsample-concat block run after fusion.

    A stride-2 3x3 conv halves the grid, nearest-neighbor upsampling
    doubles it back, and a 1x1 merge mixes [original; upsampled] channels.
    Grid size is preserved; the grid side must be even.
    """
    if grid.g % 2:
        raise ShapeError(f"post_fuse: grid side {grid.g} must be even")
    if down_spec.stride != 2 or down_spec.kernel_size != 3:
        raise ShapeError("post_fuse: down_spec must be a stride-2 3x3 conv")
    if merge_spec.kernel_size != 1 or merge_spec.stride != 1:
        raise ShapeError("post_fuse: merge_spec must be a 1x1 stride-1 conv")
    if merge_spec.in_channels != grid.channels + down_spec.out_channels:
        raise ShapeError(
            f"post_fuse: merge_spec expects {merge_spec.in_channels} channels, "
            f"concat provides {grid.channels + down_spec.out_channels}"
        )
    down = _conv(grid.data, down_spec)
    up = np.repeat(np.repeat(down, 2, axis=1), 2, axis=2)
    cat = np.concatenate([grid.data, up], axis=0)
    return BevGrid(_conv(cat, merge_spec))
