"""Unit tests for the numeric primitives, each checked against a naive oracle."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevnext import kernels
from bevnext.kernels import (
    ConvSpec,
    MlpSpec,
    SplitMix64,
    bilinear_sample,
    conv2d,
    init_weights,
    mlp_forward,
    softmax,
)
from factories import mlp_spec, traced_transient, zero_mlp


# ---------------------------------------------------------------- oracles


def naive_conv2d(x, spec):
    """Literal quadruple-loop convolution in float64."""
    n, c, h, w = x.shape
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((n, spec.out_channels, ho, wo), dtype=np.float64)
    for b in range(n):
        for o in range(spec.out_channels):
            for oy in range(ho):
                for ox in range(wo):
                    acc = float(spec.bias[o])
                    for i in range(c):
                        for ky in range(k):
                            for kx in range(k):
                                acc += float(spec.weight[o, i, ky, kx]) * xp[b, i, oy * s + ky, ox * s + kx]
                    out[b, o, oy, ox] = acc
    return out


def sequential_conv2d(x, spec):
    """Float64 reference convolution, one input channel at a time.

    For each tap in (ky, kx) order a float64 zero takes w[o, i, ky, kx] * x[i]
    for i = 0..C-1 in order; that tap sum is added into the accumulator,
    then the bias, then one cast to float32.
    """
    n, c, h, w = x.shape
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
    wt = spec.weight.astype(np.float64)
    acc = np.zeros((n, spec.out_channels, ho, wo), dtype=np.float64)
    for ky in range(k):
        for kx in range(k):
            win = xp[:, :, ky : ky + (ho - 1) * s + 1 : s, kx : kx + (wo - 1) * s + 1 : s]
            tap = np.zeros_like(acc)
            for i in range(c):
                tap += wt[None, :, i, ky, kx, None, None] * win[:, None, i]
            acc += tap
    acc += spec.bias.astype(np.float64)[:, None, None]
    return acc.astype(np.float32)


def gemm_conv2d(x, spec, channel_order=None, bias_first=False):
    """conv2d's GEMM order, built independently of its block copies.

    Per image, output rows go in blocks of as many rows as fit
    ``kernels._CONV_BLOCK_BYTES`` of float64 column buffer (at least one).
    Each block's column matrix has one row per (channel, ky, kx), channels
    in order (or in ``channel_order``), gathered by index arithmetic.
    ``np.matmul`` multiplies the weight matrix, its columns in the same
    order, by it; the bias is added to the product and the sum cast to
    float32 once. ``bias_first`` instead makes the bias the first term of
    the GEMM (a leading ones row), which sums it in another order.
    """
    n, c, h, w = x.shape
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
    taps = [(i, ky, kx) for i in (range(c) if channel_order is None else channel_order)
            for ky in range(k) for kx in range(k)]
    wmat = np.array([[float(spec.weight[o, i, ky, kx]) for i, ky, kx in taps]
                     for o in range(spec.out_channels)])
    bias = spec.bias.astype(np.float64)[:, None]
    if bias_first:
        wmat = np.concatenate([bias, wmat], axis=1)
    rows = max(1, min(ho, kernels._CONV_BLOCK_BYTES // (8 * c * k * k * wo)))
    out = np.empty((n, spec.out_channels, ho, wo), dtype=np.float32)
    for b in range(n):
        for r0 in range(0, ho, rows):
            oy, ox = np.meshgrid(np.arange(r0, min(r0 + rows, ho)), np.arange(wo), indexing="ij")
            col = [xp[b, i, oy * s + ky, ox * s + kx].reshape(-1) for i, ky, kx in taps]
            if bias_first:
                col.insert(0, np.ones(oy.size))
            acc = np.matmul(wmat, np.stack(col))
            if not bias_first:
                acc += bias
            out[b, :, r0 : r0 + oy.shape[0]] = acc.reshape(spec.out_channels, -1, wo)
    return out


def naive_mlp(x, spec):
    """Direct matrix-multiply oracle in float64."""
    y = x.astype(np.float64)
    for w, b, act in zip(spec.weights, spec.biases, spec.activations):
        y = y @ w.astype(np.float64).T + b.astype(np.float64)
        if act == "relu":
            y = np.maximum(y, 0.0)
    return y


def naive_bilinear(fmap, x, y):
    """4-neighbor interpolation formula for a single in-bounds point."""
    c, h, w = fmap.shape
    x0, y0 = int(math.floor(x)), int(math.floor(y))
    x0 = min(max(x0, 0), w - 2) if w > 1 else 0
    y0 = min(max(y0, 0), h - 2) if h > 1 else 0
    fx, fy = x - x0, y - y0
    f = fmap.astype(np.float64)
    return (
        f[:, y0, x0] * (1 - fx) * (1 - fy)
        + f[:, y0, min(x0 + 1, w - 1)] * fx * (1 - fy)
        + f[:, min(y0 + 1, h - 1), x0] * (1 - fx) * fy
        + f[:, min(y0 + 1, h - 1), min(x0 + 1, w - 1)] * fx * fy
    )


def reference_splitmix(seed):
    """Independent splitmix64 re-implementation (oracle for the RNG)."""
    mask = (1 << 64) - 1
    state = seed & mask

    def step():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    return step


# ---------------------------------------------------------------- conv2d


def _rand_conv(rng, cin, cout, k, stride=1, padding=0):
    fan = cin * k * k
    return ConvSpec(
        init_weights((cout, cin, k, k), fan, rng),
        init_weights((cout,), fan, rng),
        stride,
        padding,
    )


def test_conv_identity_kernel():
    x = SplitMix64(1).uniform_array((1, 3, 5, 5), -1, 1)
    w = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
    spec = ConvSpec(w, np.zeros(3, np.float32), 1, 0)
    np.testing.assert_array_equal(conv2d(x, spec), x)


def test_conv_sum_of_ones():
    x = np.ones((1, 1, 3, 3), np.float32)
    spec = ConvSpec(np.ones((1, 1, 3, 3), np.float32), np.zeros(1, np.float32), 1, 0)
    out = conv2d(x, spec)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 9.0


def test_conv_matches_naive_oracle_random():
    rng = SplitMix64(1234)
    x = rng.uniform_array((2, 4, 8, 8), -1, 1)
    spec = _rand_conv(rng, 4, 3, 3, stride=1, padding=1)
    np.testing.assert_allclose(conv2d(x, spec), naive_conv2d(x, spec), atol=1e-6, rtol=0)


def test_conv_oracle_agreement_50_instances():
    rng = SplitMix64(77)
    for trial in range(50):
        k = 3 if rng.next_u64() % 2 else 1
        s = 2 if rng.next_u64() % 2 else 1
        cin = rng.randint(1, 4)
        cout = rng.randint(1, 4)
        h = rng.randint(k, 7)
        w = rng.randint(k, 7)
        p = rng.randint(0, 1)
        x = rng.uniform_array((1, cin, h, w), -2, 2)
        spec = _rand_conv(rng, cin, cout, k, stride=s, padding=p)
        np.testing.assert_allclose(conv2d(x, spec), naive_conv2d(x, spec), atol=1e-6, rtol=0, err_msg=f"trial {trial}")


def _order_sensitive_conv(seed, n, cin, cout, k, stride, padding, h, w):
    """Input and spec on which a reordered channel sum or bias shows.

    Weights are +-1 and inputs O(1), except that at each pixel every channel
    pair (m, m + cin // 2) holds 1e10 in both channels with probability one
    half. The two weights of a pair have opposite signs, so the pair cancels
    within each output's sum, but the O(1) terms added while the partial
    sum is large lose low bits, and which bits they lose depends on the
    order. At 1e10 a lost bit is coarse enough to show even when the GEMM
    splits the sum over SIMD lanes.
    """
    rng = np.random.default_rng(seed)
    sign = rng.choice(np.array([-1.0, 1.0], dtype=np.float32), size=(cout, cin, k, k))
    x = rng.uniform(-1.0, 1.0, (n, cin, h, w)).astype(np.float32)
    half = cin // 2
    if half:
        sign[:, half : 2 * half] = -sign[:, :half]
        pair = rng.random((n, half, h, w)) < 0.5
        x[:, :half][pair] = 1e10
        x[:, half : 2 * half][pair] = 1e10
    bias = rng.uniform(-1.0, 1.0, cout).astype(np.float32)
    return x, ConvSpec(sign, bias, stride, padding)


# (cin, cout, k, stride, padding): stride/kernel/padding corners first, then
# every shipped layer's channels (desk C=32, K=8; full C=64, K=59; window 3,
# 3 fusion groups, 2 classes).
CONV_BIT_CASES = [
    (5, 4, 1, 1, 0),
    (5, 4, 1, 2, 0),
    (5, 4, 1, 1, 1),
    (6, 3, 3, 1, 0),
    (6, 3, 3, 2, 0),
    (6, 3, 3, 1, 1),
    (6, 3, 3, 2, 1),
    (3, 8, 3, 2, 1),  # backbone.conv1
    (8, 16, 3, 2, 1),  # backbone.conv2
    (16, 32, 3, 2, 1),  # backbone.conv3 (desk)
    (16, 64, 3, 2, 1),  # backbone.conv3 (full)
    (32, 8, 1, 1, 0),  # depth_head (desk)
    (64, 59, 1, 1, 0),  # depth_head (full)
    (96, 32, 1, 1, 0),  # res2fusion reduce / final (desk)
    (192, 64, 1, 1, 0),  # res2fusion reduce / final (full)
    (32, 32, 3, 1, 1),  # res2fusion cascade (desk)
    (64, 64, 3, 1, 1),  # res2fusion cascade (full)
    (32, 32, 3, 2, 1),  # res2fusion.post.down (desk)
    (64, 64, 3, 2, 1),  # res2fusion.post.down (full)
    (64, 32, 1, 1, 0),  # res2fusion.post.merge (desk)
    (128, 64, 1, 1, 0),  # res2fusion.post.merge (full)
    (32, 2, 3, 1, 1),  # decoder.heatmap (desk)
    (64, 2, 3, 1, 1),  # decoder.heatmap (full)
]


# One-pixel outputs, where the channel axis is the only one left to sum.
ONE_PIXEL_CASES = [
    (16, 8, 1, 1, 0, 1, 1),
    (40, 8, 1, 2, 0, 2, 1),
    (192, 1, 1, 1, 0, 1, 1),
    (7, 3, 3, 2, 0, 3, 4),
    (40, 1, 3, 1, 0, 3, 3),
]


def _rows_of_blocks(blocks, cin, k, stride, wo):
    """Input height whose output spans `blocks` row blocks of conv2d, the last one partial."""
    rows = kernels._CONV_BLOCK_BYTES // (8 * cin * k * k * wo)
    return ((blocks - 1) * rows + 3) * stride


# Outputs taller than one row block: the first two at the half-height block
# each test also runs, the last at the shipped block size too.
MULTI_BLOCK_CASES = [
    (192, 64, 1, 1, 0, 21, 9),
    (64, 64, 3, 2, 1, 62, 17),
    (16, 8, 3, 1, 1, _rows_of_blocks(3, 16, 3, 1, 40), 40),
]

# Padding at block edges. A stride-2 3x3 conv with odd h: its first block
# starts in the top padding and its last block ends in the bottom padding,
# three blocks at the shipped size and two at the half-height size. And one
# output row read from a single input row between two padding rows.
PADDING_CASES = [
    (16, 8, 3, 2, 1, _rows_of_blocks(3, 16, 3, 2, 20) + 1, 40),
    (6, 3, 3, 2, 1, 1, 9),
]

CONV_ORDER_CASES = (
    [case + (6, 9) for case in CONV_BIT_CASES] + ONE_PIXEL_CASES + MULTI_BLOCK_CASES + PADDING_CASES
)


def _out_dims(k, stride, padding, h, w):
    return (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1


@pytest.mark.parametrize("cin,cout,k,stride,padding,h,w", CONV_ORDER_CASES)
def test_conv_bit_identical_to_sequential_channel_sum(monkeypatch, cin, cout, k, stride, padding, h, w):
    """conv2d is bit-identical to the GEMM-order oracle, which sums the
    channels fed to one np.matmul in sequence, (channel, ky, kx).

    It is checked at the shipped block size and at blocks of about half
    the output rows. On this data, reversing the channel sequence or
    making the bias the GEMM's first term changes the bits.
    """
    seed = cin * 1000 + cout * 10 + k + stride + h
    x, spec = _order_sensitive_conv(seed, 2, cin, cout, k, stride, padding, h, w)
    ho, wo = _out_dims(k, stride, padding, h, w)
    for rows in (None, ho // 2 + 1):
        if rows is not None:
            monkeypatch.setattr(kernels, "_CONV_BLOCK_BYTES", 8 * cin * k * k * wo * rows)
        expected = gemm_conv2d(x, spec)
        np.testing.assert_array_equal(conv2d(x, spec), expected, err_msg=f"block rows {rows}")
    reversed_sum = gemm_conv2d(x, spec, channel_order=range(cin - 1, -1, -1))
    assert not np.array_equal(reversed_sum, expected), "data cannot detect a reordered channel sequence"
    assert not np.array_equal(gemm_conv2d(x, spec, bias_first=True), expected), "data cannot detect the bias order"


@pytest.mark.parametrize("cin,cout,k,stride,padding,h,w", CONV_ORDER_CASES)
def test_conv_within_one_ulp_of_sequential_reference(cin, cout, k, stride, padding, h, w):
    """On benign data the GEMM order changes at most the last float32 bit."""
    rng = SplitMix64(cin * 1000 + cout * 10 + k + stride + h)
    x = rng.uniform_array((2, cin, h, w), -1, 1)
    spec = _rand_conv(rng, cin, cout, k, stride=stride, padding=padding)
    np.testing.assert_array_max_ulp(conv2d(x, spec), sequential_conv2d(x, spec), maxulp=1)


@pytest.mark.parametrize("k,padding", [(1, 0), (3, 1)])
def test_conv_builds_no_padded_float64_copy_of_its_input(k, padding):
    """A fusion-sized conv allocates less than half the float64 size of its input."""
    rng = SplitMix64(41)
    x = rng.uniform_array((1, 192, 128, 128), -1, 1)
    spec = _rand_conv(rng, 192, 16, k, padding=padding)
    assert traced_transient(conv2d, x, spec) < x.size * 8 // 2


def test_conv_empty_batch_and_channels():
    spec = ConvSpec(np.ones((2, 3, 3, 3), np.float32), np.zeros(2, np.float32), 1, 1)
    assert conv2d(np.zeros((0, 3, 4, 4), np.float32), spec).shape == (0, 2, 4, 4)
    bias_only = ConvSpec(np.ones((2, 0, 1, 1), np.float32), np.array([1.5, -2.0], np.float32), 1, 0)
    out = conv2d(np.zeros((1, 0, 4, 4), np.float32), bias_only)
    np.testing.assert_array_equal(out, np.broadcast_to(bias_only.bias[None, :, None, None], (1, 2, 4, 4)))


# ---------------------------------------------------------------- mlp


def test_mlp_zero_map():
    spec = zero_mlp([3, 4, 2])
    x = SplitMix64(2).uniform_array((5, 3), -1, 1)
    np.testing.assert_array_equal(mlp_forward(x, spec), np.zeros((5, 2), np.float32))


def test_mlp_identity_layer():
    spec = MlpSpec([np.eye(4, dtype=np.float32)], [np.zeros(4, np.float32)], ["identity"])
    x = SplitMix64(3).uniform_array((6, 4), -1, 1)
    np.testing.assert_array_equal(mlp_forward(x, spec), x)


def test_mlp_spec_requires_weights_biases_and_activations():
    """An MlpSpec without its layers fails where it is built, not later in mlp_forward."""
    with pytest.raises(TypeError, match="weights"):
        MlpSpec()
    with pytest.raises(TypeError, match="activations"):
        MlpSpec([np.eye(4, dtype=np.float32)], [np.zeros(4, np.float32)])


def test_mlp_matches_naive_oracle():
    rng = SplitMix64(99)
    spec = mlp_spec([5, 8, 3], rng)
    x = rng.uniform_array((10, 5), -2, 2)
    np.testing.assert_allclose(mlp_forward(x, spec), naive_mlp(x, spec), atol=1e-6, rtol=0)


# ---------------------------------------------------------------- softmax


def test_softmax_uniform():
    np.testing.assert_array_equal(softmax(np.zeros(4)), np.full(4, 0.25))


def test_softmax_stability_no_overflow():
    out = softmax(np.array([1000.0, 0.0]))
    assert abs(out[0] - 1.0) < 1e-30
    assert out[1] < 1e-30
    assert np.isfinite(out).all()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=16),
    st.floats(min_value=-100, max_value=100),
)
def test_softmax_shift_invariance_and_normalization(vals, shift):
    v = np.array(vals)
    a = softmax(v)
    b = softmax(v + shift)
    assert abs(a.sum() - 1.0) < 1e-6
    assert (a > 0).all()
    np.testing.assert_allclose(a, b, atol=1e-7, rtol=0)


# ---------------------------------------------------------------- bilinear


def test_bilinear_integer_coordinate_exact():
    fmap = SplitMix64(4).uniform_array((2, 5, 7), -1, 1)
    vals, valid = bilinear_sample(fmap, [(2.0, 3.0)])
    assert valid[0]
    np.testing.assert_array_equal(vals[0], fmap[:, 3, 2])


def test_bilinear_midpoint_average():
    fmap = np.array([[[1.0, 3.0]]], dtype=np.float32)
    vals, valid = bilinear_sample(fmap, [(0.5, 0.0)])
    assert valid[0]
    assert vals[0, 0] == 2.0


def test_bilinear_out_of_bounds_zero_invalid():
    fmap = np.ones((1, 4, 4), np.float32)
    vals, valid = bilinear_sample(fmap, [(-0.1, 1.0), (1.0, 3.5), (3.0, 3.0)])
    assert not valid[0] and not valid[1] and valid[2]
    np.testing.assert_array_equal(vals[0], [0.0])
    np.testing.assert_array_equal(vals[1], [0.0])


def test_bilinear_matches_4neighbor_oracle():
    rng = SplitMix64(314)
    fmap = rng.uniform_array((3, 6, 9), -2, 2)
    pts = [(rng.uniform() * 8.0, rng.uniform() * 5.0) for _ in range(100)]
    vals, valid = bilinear_sample(fmap, pts)
    assert valid.all()
    for i, (x, y) in enumerate(pts):
        np.testing.assert_allclose(vals[i], naive_bilinear(fmap, x, y), atol=1e-6, rtol=0)


def test_bilinear_reads_a_float64_map_in_place():
    """tracemalloc: sampling a float64 map copies none of it; a float32 map is widened once, with the same bits."""
    fmap = SplitMix64(316).uniform_array((32, 64, 64), -2, 2)
    wide = fmap.astype(np.float64)
    pts = [(1.25, 2.5), (60.0, 3.75)]
    assert traced_transient(bilinear_sample, wide, pts) < wide.nbytes // 8
    for got, want in zip(bilinear_sample(wide, pts), bilinear_sample(fmap, pts)):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- rng / init


def test_splitmix_matches_reference_stream():
    for seed in (0, 42, 0xDEADBEEF):
        ref = reference_splitmix(seed)
        rng = SplitMix64(seed)
        for _ in range(100):
            assert rng.next_u64() == ref()


def scalar_uniform_array(rng, shape, low=0.0, high=1.0):
    """``uniform_array`` as one ``uniform`` call per element, in stream order."""
    n = int(np.prod(shape)) if shape else 1
    vals = np.array([rng.uniform() for _ in range(n)], dtype=np.float64)
    return (low + (high - low) * vals).reshape(shape).astype(np.float32)


@pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF, 2**63, 2**64 - 1])
@pytest.mark.parametrize("shape", [(), (0,), (1,), (7,), (3, 4, 3, 3), 5])
def test_uniform_array_matches_scalar_stream(seed, shape):
    vec, ref = SplitMix64(seed), SplitMix64(seed)
    assert vec.next_u64() == ref.next_u64()  # start mid-stream
    got = vec.uniform_array(shape, -0.3, 0.7)
    want = scalar_uniform_array(ref, shape, -0.3, 0.7)
    assert got.dtype == np.float32 and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    assert vec.state == ref.state
    assert vec.next_u64() == ref.next_u64()


def test_init_deterministic_across_instances():
    a = init_weights((3, 4, 3, 3), 36, SplitMix64(42))
    b = init_weights((3, 4, 3, 3), 36, SplitMix64(42))
    assert a.dtype == np.float32
    np.testing.assert_array_equal(a, b)


def test_init_bound_fan_in_100():
    vals = init_weights((1000,), 100, SplitMix64(7))
    assert np.abs(vals).max() <= 0.1


def test_init_empirical_mean_near_zero():
    vals = init_weights((100_000,), 100, SplitMix64(2024))
    assert abs(float(vals.mean())) < 0.01


# ---------------------------------------------------------------- purity


def test_ops_pure_and_thread_safe():
    rng = SplitMix64(11)
    x = rng.uniform_array((1, 4, 6, 6), -1, 1)
    spec = _rand_conv(rng, 4, 4, 3, padding=1)
    base = conv2d(x, spec)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: conv2d(x, spec), range(16)))
    for r in results:
        np.testing.assert_array_equal(r, base)
