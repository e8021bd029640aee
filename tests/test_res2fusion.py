"""Temporal fusion tests: literal cascade oracle, impulse-response probes."""

import math

import numpy as np
import pytest

from bevnext.errors import ShapeError
from bevnext.kernels import ConvSpec, SplitMix64, conv2d
from bevnext.res2fusion import (
    FusionConfig,
    FusionStack,
    fuse,
    multiscale_cascade,
    partition,
    post_fuse,
    reduce_groups,
)
from bevnext.view_transform import BevGrid
from factories import conv_spec, traced_transient


# ---------------------------------------------------------------- oracles


def naive_conv(x, weight, bias, stride=1, padding=None):
    """Literal quadruple-loop convolution on a [C, H, W] array."""
    out_c, in_c, k, _ = weight.shape
    if padding is None:
        padding = k // 2
    xp = np.pad(x.astype(np.float64), ((0, 0), (padding, padding), (padding, padding)))
    h = (x.shape[1] + 2 * padding - k) // stride + 1
    w = (x.shape[2] + 2 * padding - k) // stride + 1
    out = np.zeros((out_c, h, w))
    for o in range(out_c):
        for i in range(in_c):
            for r in range(h):
                for c in range(w):
                    for ky in range(k):
                        for kx in range(k):
                            out[o, r, c] += weight[o, i, ky, kx] * xp[i, r * stride + ky, c * stride + kx]
    return (out + bias[:, None, None]).astype(np.float32)


def naive_cascade(bprime, specs):
    """Literal oldest-to-newest cascade with the naive conv."""
    g = len(bprime)
    out = [None] * g
    out[0] = bprime[0]
    if g == 1:
        return out
    out[g - 1] = naive_conv(bprime[g - 1], specs[g - 2].weight, specs[g - 2].bias)
    for i in range(g - 2, 0, -1):
        out[i] = naive_conv(bprime[i] + out[i + 1], specs[i - 1].weight, specs[i - 1].bias)
    return out


def identity_conv1(channels):
    w = np.eye(channels, dtype=np.float32).reshape(channels, channels, 1, 1)
    return ConvSpec(w, np.zeros(channels, np.float32), 1, 0)


def zero_conv(in_c, out_c, k):
    return ConvSpec(np.zeros((out_c, in_c, k, k), np.float32), np.zeros(out_c, np.float32), 1, k // 2)


def positive_conv(in_c, out_c, k, rng):
    w = rng.uniform_array((out_c, in_c, k, k), 0.1, 1.0)
    return ConvSpec(w, np.zeros(out_c, np.float32), 1, k // 2)


def const_stack(values, c=2, g=6):
    """One grid per value, every channel filled with that value."""
    return FusionStack(tuple(BevGrid(np.full((c, g, g), v, np.float32)) for v in values))


def random_stack(rng, k, c=3, g=8):
    return FusionStack(tuple(BevGrid(rng.uniform_array((c, g, g), -1, 1)) for _ in range(k)))


def chebyshev_ball(center, radius, size):
    mask = np.zeros((size, size), dtype=bool)
    r0, c0 = center
    for r in range(size):
        for c in range(size):
            mask[r, c] = max(abs(r - r0), abs(c - c0)) <= radius
    return mask


# ---------------------------------------------------------------- partition


def test_partition_nine_frames_window_three():
    stack = const_stack(range(1, 10))
    groups = partition(stack, 3)
    assert len(groups) == 3
    # group 0 = three most recent frames in chronological order
    np.testing.assert_array_equal(groups[0][0::2, 0, 0], [7, 8, 9])
    np.testing.assert_array_equal(groups[1][0::2, 0, 0], [4, 5, 6])
    np.testing.assert_array_equal(groups[2][0::2, 0, 0], [1, 2, 3])


def test_partition_pads_oldest_group():
    stack = const_stack(range(1, 9))  # k=8, frames 1..8
    groups = partition(stack, 3)
    assert len(groups) == 3
    np.testing.assert_array_equal(groups[2][0::2, 0, 0], [0, 1, 2])  # zero pad on old side
    assert not groups[2][:2].any()


def test_partition_single_frame():
    stack = const_stack([5.0])
    groups = partition(stack, 1)
    assert len(groups) == 1
    np.testing.assert_array_equal(groups[0], stack.grids[0].data)


def test_group_count_law():
    for k in range(1, 17):
        for w in range(1, k + 1):
            stack = const_stack([1.0] * k, c=1, g=6)
            groups = partition(stack, w)
            g = len(groups)
            assert g == math.ceil(k / w), (k, w)
            pad_slots = g * w - k
            # padded channel blocks are all-zero and sit at the front of the oldest group
            oldest = groups[-1]
            for slot in range(w):
                block = oldest[slot : slot + 1]
                if slot < pad_slots:
                    assert not block.any(), (k, w, slot)
                else:
                    assert block.all(), (k, w, slot)
            for grp in groups[:-1]:
                assert grp.all(), (k, w)


# ---------------------------------------------------------------- reduce


def test_reduce_identity_kernels():
    rng = SplitMix64(3)
    stack = random_stack(rng, 4, c=2)
    groups = partition(stack, 1)
    out = reduce_groups(groups, [identity_conv1(2)] * 4)
    for got, grp in zip(out, groups):
        np.testing.assert_array_equal(got, grp)


def test_reduce_zero_kernels():
    rng = SplitMix64(5)
    stack = random_stack(rng, 4, c=2)
    groups = partition(stack, 2)
    out = reduce_groups(groups, [zero_conv(4, 3, 1)] * 2)
    for got in out:
        assert got.shape == (3, 8, 8)
        assert not got.any()


def test_reduce_matches_conv_oracle():
    rng = SplitMix64(7)
    stack = random_stack(rng, 4, c=2, g=5)
    groups = partition(stack, 2)
    specs = [conv_spec(4, 3, 1, rng) for _ in range(2)]
    out = reduce_groups(groups, specs)
    for got, grp, spec in zip(out, groups, specs):
        ref = naive_conv(grp, spec.weight, spec.bias, padding=0)
        np.testing.assert_allclose(got, ref, atol=1e-6, rtol=0)


def test_reduce_spec_count_mismatch():
    stack = const_stack([1.0, 2.0], c=1)
    groups = partition(stack, 1)
    with pytest.raises(ShapeError, match="group"):
        reduce_groups(groups, [identity_conv1(1)])


# ---------------------------------------------------------------- cascade


def test_cascade_single_group_passthrough():
    rng = SplitMix64(9)
    b = [rng.uniform_array((2, 6, 6), -1, 1)]
    out = multiscale_cascade(b, [])
    np.testing.assert_array_equal(out[0], b[0])


def test_cascade_zero_kernels_collapse():
    rng = SplitMix64(11)
    b = [rng.uniform_array((2, 6, 6), -1, 1) for _ in range(3)]
    out = multiscale_cascade(b, [zero_conv(2, 2, 3)] * 2)
    assert not out[2].any()
    assert not out[1].any()
    np.testing.assert_array_equal(out[0], b[0])


def test_cascade_impulse_support_growth():
    rng = SplitMix64(13)
    size, center = 9, (4, 4)
    impulse = np.zeros((1, size, size), np.float32)
    impulse[0, center[0], center[1]] = 1.0
    b = [np.zeros((1, size, size), np.float32), np.zeros((1, size, size), np.float32), impulse]
    specs = [positive_conv(1, 1, 3, rng) for _ in range(2)]
    out = multiscale_cascade(b, specs)
    np.testing.assert_array_equal(out[2][0] != 0, chebyshev_ball(center, 1, size))
    np.testing.assert_array_equal(out[1][0] != 0, chebyshev_ball(center, 2, size))
    assert not out[0].any()  # passthrough group never sees the cascade


def test_cascade_radius_tracks_stage_count():
    rng = SplitMix64(15)
    size, center = 11, (5, 5)
    for g in (2, 3, 4):
        impulse = np.zeros((1, size, size), np.float32)
        impulse[0, center[0], center[1]] = 1.0
        b = [np.zeros((1, size, size), np.float32) for _ in range(g - 1)] + [impulse]
        specs = [positive_conv(1, 1, 3, rng) for _ in range(g - 1)]
        out = multiscale_cascade(b, specs)
        for i in range(1, g):
            expect = chebyshev_ball(center, g - i, size)
            np.testing.assert_array_equal(out[i][0] != 0, expect, err_msg=f"g={g} i={i}")


def test_cascade_matches_literal_oracle():
    rng = SplitMix64(17)
    b = [rng.uniform_array((2, 5, 5), -1, 1) for _ in range(4)]
    specs = [conv_spec(2, 2, 3, rng) for _ in range(3)]
    out = multiscale_cascade(b, specs)
    ref = naive_cascade(b, specs)
    for i in range(4):
        np.testing.assert_allclose(out[i], ref[i], atol=1e-6, rtol=0, err_msg=f"group {i}")


# ---------------------------------------------------------------- fuse


def _random_config(rng, k, w, c, c_mid, c_out):
    g = math.ceil(k / w)
    return FusionConfig(
        window=w,
        reduce_specs=tuple(conv_spec(w * c, c_mid, 1, rng) for _ in range(g)),
        cascade_specs=tuple(conv_spec(c_mid, c_mid, 3, rng) for _ in range(g - 1)),
        final_spec=conv_spec(g * c_mid, c_out, 1, rng),
    )


def test_fuse_single_frame_identity_kernels():
    rng = SplitMix64(21)
    stack = random_stack(rng, 1, c=3)
    config = FusionConfig(
        window=1,
        reduce_specs=(identity_conv1(3),),
        cascade_specs=(),
        final_spec=identity_conv1(3),
    )
    out = fuse(stack, config)
    np.testing.assert_array_equal(out.data, stack.grids[0].data)


def test_fuse_zero_final_kernel():
    rng = SplitMix64(23)
    stack = random_stack(rng, 2, c=2)
    config = FusionConfig(
        window=1,
        reduce_specs=(identity_conv1(2), identity_conv1(2)),
        cascade_specs=(positive_conv(2, 2, 3, rng),),
        final_spec=zero_conv(4, 3, 1),
    )
    out = fuse(stack, config)
    assert out.data.shape == (3, 8, 8)
    assert not out.data.any()


def test_fuse_equals_composed_stages():
    rng = SplitMix64(25)
    stack = random_stack(rng, 5, c=3, g=8)
    config = _random_config(SplitMix64(26), 5, 2, 3, 4, 5)
    out = fuse(stack, config)
    groups = partition(stack, config.window)
    bp = reduce_groups(groups, config.reduce_specs)
    bpp = multiscale_cascade(bp, config.cascade_specs)
    cat = np.concatenate(list(reversed(bpp)), axis=0)
    ref = conv2d(cat[None], config.final_spec)[0]
    np.testing.assert_array_equal(out.data, ref)


def test_fuse_holds_less_than_the_three_concatenated_groups():
    """full.cfg fusion: nine 64-channel 128x128 grids, window 3.

    fuse allocates less than the three channel-concatenated windows
    alone would take, so it never holds them all at once.
    """
    rng = SplitMix64(43)
    stack = random_stack(rng, 9, c=64, g=128)
    config = _random_config(SplitMix64(44), 9, 3, 64, 64, 64)
    groups_bytes = 3 * (3 * 64) * 128 * 128 * 4
    assert traced_transient(fuse, stack, config) < groups_bytes


def test_fuse_writes_its_cascade_in_place():
    """full.cfg fusion: fuse peaks under 28 MiB above its input.

    Holding the reduced groups, the cascade outputs and their
    concatenation at once took 33.6 MB. Reducing every group, then
    writing each cascade output into its slot of the final conv's input
    while dropping each reduced group once used, peaks at 27.9 MB: one
    concatenated window, the reduced groups and conv2d's buffers.
    """
    rng = SplitMix64(43)
    stack = random_stack(rng, 9, c=64, g=128)
    config = _random_config(SplitMix64(44), 9, 3, 64, 64, 64)
    assert traced_transient(fuse, stack, config) < 28 * 2**20


def test_fuse_concat_order_oldest_first():
    rng = SplitMix64(27)
    stack = random_stack(rng, 2, c=2)
    # final kernel reads only the first c_mid channels (the oldest group)
    c_mid = 2
    w_final = np.zeros((c_mid, 2 * c_mid, 1, 1), np.float32)
    w_final[:, :c_mid, 0, 0] = np.eye(c_mid)
    config = FusionConfig(
        window=1,
        reduce_specs=(identity_conv1(2), identity_conv1(2)),
        cascade_specs=(positive_conv(2, 2, 3, rng),),
        final_spec=ConvSpec(w_final, np.zeros(c_mid, np.float32), 1, 0),
    )
    out = fuse(stack, config)
    oldest_conv = conv2d(stack.grids[0].data[None], config.cascade_specs[0])[0]
    np.testing.assert_array_equal(out.data, oldest_conv)


def test_fuse_is_deterministic():
    rng = SplitMix64(29)
    stack = random_stack(rng, 4, c=2)
    config = _random_config(SplitMix64(30), 4, 3, 2, 3, 4)
    a = fuse(stack, config)
    b = fuse(stack, config)
    np.testing.assert_array_equal(a.data, b.data)


def test_fuse_rejects_channel_mismatch():
    rng = SplitMix64(31)
    stack = random_stack(rng, 4, c=3)  # w*c = 6, config expects 4
    config = _random_config(SplitMix64(32), 4, 2, 2, 3, 4)
    with pytest.raises(ShapeError, match="channel"):
        fuse(stack, config)


def test_fuse_rejects_group_count_mismatch():
    rng = SplitMix64(33)
    stack = random_stack(rng, 6, c=2)  # ceil(6/2) = 3 groups, config built for 2
    config = _random_config(SplitMix64(34), 4, 2, 2, 3, 4)
    with pytest.raises(ShapeError, match="group"):
        fuse(stack, config)


def test_config_validates_cascade_count():
    rng = SplitMix64(35)
    with pytest.raises(ShapeError, match="cascade"):
        FusionConfig(
            window=1,
            reduce_specs=(identity_conv1(2), identity_conv1(2)),
            cascade_specs=(),
            final_spec=conv_spec(4, 2, 1, rng),
        )


# ---------------------------------------------------------------- post fuse


def test_post_fuse_keeps_grid_size():
    rng = SplitMix64(37)
    grid = BevGrid(rng.uniform_array((3, 8, 8), -1, 1))
    down = conv_spec(3, 2, 3, rng, stride=2)
    merge = conv_spec(5, 4, 1, rng)
    out = post_fuse(grid, down, merge)
    assert out.data.shape == (4, 8, 8)


def test_post_fuse_merge_can_select_input():
    rng = SplitMix64(39)
    grid = BevGrid(rng.uniform_array((3, 8, 8), -1, 1))
    down = conv_spec(3, 2, 3, rng, stride=2)
    w = np.zeros((3, 5, 1, 1), np.float32)
    w[:, :3, 0, 0] = np.eye(3)
    merge = ConvSpec(w, np.zeros(3, np.float32), 1, 0)
    out = post_fuse(grid, down, merge)
    np.testing.assert_array_equal(out.data, grid.data)


def test_post_fuse_rejects_odd_grid():
    rng = SplitMix64(41)
    grid = BevGrid(np.zeros((2, 9, 9), np.float32))
    with pytest.raises(ShapeError, match="even"):
        post_fuse(grid, conv_spec(2, 2, 3, rng, stride=2), conv_spec(4, 2, 1, rng))


# ---------------------------------------------------------------- stack


def test_stack_rejects_mixed_dims():
    with pytest.raises(ShapeError, match="dims"):
        FusionStack((BevGrid(np.zeros((2, 8, 8), np.float32)), BevGrid(np.zeros((2, 6, 6), np.float32))))


def test_stack_properties():
    stack = const_stack([1.0, 2.0, 3.0], c=4, g=8)
    assert stack.k == 3
    assert stack.channels == 4
    assert stack.g == 8
