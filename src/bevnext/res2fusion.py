"""Temporal BEV aggregation via windowed grouping and a multi-scale conv cascade.

The k most recent BEV frames are cut into g = ceil(k / w) windows of w
frames each (group 0 = the newest window, group g-1 = the oldest, zero
padded on its old side when w does not divide k). Each window is channel
concatenated and reduced by a 1x1 conv; the reduced groups then pass
through a 3x3 cascade that runs oldest to newest, feeding each group the
convolved output of its older neighbor, so older evidence reaches the
output through progressively more 3x3 stages and a correspondingly wider
receptive field. The newest group skips the cascade entirely. Since the
cascade runs in frame order, ``fuse`` reads the frames as a stream,
oldest first, into one window buffer and finishes each older window as
soon as its last frame arrives, so no frame is held past its window.
Everything is a pure function of BEV tensors and kernel weights: no ego
poses are read and no frame warping happens anywhere.
"""

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from .errors import ShapeError
from .kernels import ConvSpec, conv2d
from .view_transform import BevGrid

@dataclass(frozen=True)
class FusionConfig:
    """Frame count and window size plus the per-group reduce, cascade, and final kernels.

    reduce_specs[i] is the 1x1 conv for group i (i = 0 newest); there are
    g = ceil(frames / window) of them and g - 1 cascade specs,
    cascade_specs[i - 1] serving group i >= 1 (the newest group is a
    passthrough). The kernels' shapes come from ``weights.expected_shapes``
    and are checked once, by ``validate_bundle``; only the counts that
    ``fuse`` indexes by are checked here.
    """

    frames: int
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
        if self.frames < 1 or -(-self.frames // self.window) != g:
            raise ShapeError(
                f"FusionConfig: {self.frames} frames with window {self.window} make "
                f"{-(-self.frames // self.window)} groups, got {g} reduce specs"
            )
        if len(self.cascade_specs) != g - 1:
            raise ShapeError(
                f"FusionConfig: need {g - 1} cascade specs for {g} groups, got {len(self.cascade_specs)}"
            )

    @property
    def groups(self) -> int:
        return len(self.reduce_specs)


def _conv(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    return conv2d(x[None], spec)[0]


def fuse(frames: Iterable[BevGrid], config: FusionConfig) -> BevGrid:
    """Fuse a stream of ``config.frames`` BEV frames, oldest first, into one grid.

    The k frames are cut into g = ceil(k / w) windows counted from the
    newest frame; window i (0 = newest) channel-concatenates its w frames,
    oldest first, the oldest window zero padded on its old side. Window i
    is reduced by reduce_specs[i]. The oldest reduced window goes through
    its 3x3 cascade conv alone, each later window i >= 1 adds its older
    neighbor's cascade output before cascade_specs[i - 1], and window 0
    passes through. The outputs are concatenated oldest first and mixed
    by the final 1x1 conv, with no other arithmetic. A stream of any other
    length than k is refused. Each frame is copied into its slot of one
    [w * C, G, G] window buffer as it arrives and is not kept; each older
    window is reduced and run through its cascade step as soon as its
    last frame is in, and the newest window once the stream has ended. So
    only the window buffer, the cascade outputs so far and one reduced
    group are live at a time.
    """
    k, w = config.frames, config.window
    pad = config.groups * w - k  # zero frames before frame 0 in the oldest window
    outs, buf, n = [], None, 0  # n: frames read so far
    for grid in frames:  # not enumerate, whose reused result tuple would keep the last frame alive
        if n == k:
            raise ShapeError(f"fuse: more than {k} frames in the stream for {config.groups} groups of window {w}")
        if buf is None:
            shape, c = grid.data.shape, grid.data.shape[0]
            if config.reduce_specs[0].in_channels != w * c:
                raise ShapeError(
                    f"fuse: reduce specs expect {config.reduce_specs[0].in_channels} channels, "
                    f"window * frame channels is {w * c}"
                )
            buf = np.zeros((w * c,) + shape[1:], dtype=np.float32)  # the oldest window's pad stays zero
        elif grid.data.shape != shape:
            raise ShapeError(f"fuse: mixed frame dims {grid.data.shape} vs {shape}")
        slot = (n + pad) % w
        buf[slot * c : (slot + 1) * c] = grid.data
        del grid  # only the window buffer's copy is kept
        n += 1
        i, rest = divmod(k - n, w)  # rest == 0: the frame just read is the newest of group i
        if i and not rest:
            x = _conv(buf, config.reduce_specs[i])
            if outs:  # the older neighbor's cascade output
                x += outs[-1]
            outs.append(_conv(x, config.cascade_specs[i - 1]))
            del x  # not kept while the next frames are read
    if n < k:
        raise ShapeError(f"fuse: the stream ended after {n} of {k} frames")
    outs.append(_conv(buf, config.reduce_specs[0]))  # the newest group passes through
    del buf
    cat = np.concatenate(outs)
    del outs  # the final conv runs beside cat alone
    return BevGrid(_conv(cat, config.final_spec))


def post_fuse(grid: BevGrid, down_spec: ConvSpec, merge_spec: ConvSpec) -> BevGrid:
    """One strided-conv + upsample-concat block run after fusion.

    A stride-2 3x3 conv halves the grid, nearest-neighbor upsampling
    doubles it back, and a 1x1 merge mixes [original; upsampled] channels.
    Grid size is preserved; the grid side must be even.
    """
    if grid.g % 2:
        raise ShapeError(f"post_fuse: grid side {grid.g} must be even")
    down = _conv(grid.data, down_spec)
    up = np.repeat(np.repeat(down, 2, axis=1), 2, axis=2)
    cat = np.concatenate([grid.data, up], axis=0)
    return BevGrid(_conv(cat, merge_spec))
