"""View-transform tests: projection round-trip oracle, naive and sequential scatter pooling."""

import dataclasses
import math

import numpy as np
import pytest

from bevnext.depth_crf import DepthBins, DepthVolume
from bevnext.errors import ShapeError
from bevnext.kernels import SplitMix64, softmax
from bevnext import view_transform
from bevnext.view_transform import (
    BevGrid,
    BevSpec,
    CameraModel,
    CameraRig,
    FrustumGrid,
    build_frustum,
    lift,
    pool,
    precompute_pool_index,
)
from factories import cam_to_ego, traced_transient


# ---------------------------------------------------------------- oracles


def random_rotation(rng):
    """Orthonormal 3x3 with det +1 from a seeded random matrix."""
    a = rng.uniform_array((3, 3), -1, 1).astype(np.float64)
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_camera(rng):
    fx, fy = rng.uniform_array((2,), 50, 200)
    cx, cy = rng.uniform_array((2,), 20, 60)
    return CameraModel(
        fx=float(fx),
        fy=float(fy),
        cx=float(cx),
        cy=float(cy),
        rotation=random_rotation(rng),
        translation=rng.uniform_array((3,), -2, 2).astype(np.float64),
    )


def naive_cell(x, y, spec):
    """Direct floor arithmetic; None when outside the extent."""
    ix = math.floor((x + spec.extent) / spec.cell_size)
    iy = math.floor((y + spec.extent) / spec.cell_size)
    if 0 <= ix < spec.g and 0 <= iy < spec.g:
        return iy * spec.g + ix
    return None


def naive_splat(frusta, feat_stack, spec):
    """Scatter-add every frustum point into its BEV cell, one at a time."""
    c = feat_stack.shape[1]
    out = np.zeros((c, spec.g, spec.g))
    for frustum, feats in zip(frusta, feat_stack):
        h, w, k, _ = frustum.points.shape
        for r in range(h):
            for col in range(w):
                for d in range(k):
                    x, y = frustum.points[r, col, d, 0], frustum.points[r, col, d, 1]
                    cell = naive_cell(x, y, spec)
                    if cell is not None:
                        out[:, cell // spec.g, cell % spec.g] += feats[:, r, col, d].astype(np.float64)
    return out.astype(np.float32)


def entry_sources(index, w):
    """Fancy index of every plan entry's [C] vector in an [N, C, H', W', K] stack."""
    pix = index.entry_pixel.astype(np.int64)
    return (index.entry_camera.astype(np.int64), slice(None), pix // w, pix % w, index.entry_bin.astype(np.int64))


def scatter_oracle(frusta, frustum_features, spec):
    """Sequential float64 scatter with `np.add.at`, straight from the frusta.

    It never reads a plan: cameras go in ascending index, each camera's
    points in (pixel, bin) order, and `np.add.at` adds in index order. So
    every cell sums its entries in (camera, pixel, bin) order, the
    accumulation `pool` must reproduce bit for bit.
    """
    f = np.asarray(frustum_features, dtype=np.float32)
    if f.ndim == 4:
        f = f[None]
    c = f.shape[1]
    acc = np.zeros((spec.n_cells, c), dtype=np.float64)
    for frustum in sorted(frusta, key=lambda fr: fr.camera):
        x, y = frustum.points[..., 0].reshape(-1), frustum.points[..., 1].reshape(-1)
        ix = np.floor((x + spec.extent) / spec.cell_size).astype(np.int64)
        iy = np.floor((y + spec.extent) / spec.cell_size).astype(np.int64)
        ok = (ix >= 0) & (ix < spec.g) & (iy >= 0) & (iy < spec.g)
        vals = f[frustum.camera].reshape(c, -1).T.astype(np.float64)
        np.add.at(acc, (iy * spec.g + ix)[ok], vals[ok])
    return acc.T.reshape(c, spec.g, spec.g).astype(np.float32)


def _uniform_depth(k, h, w):
    return DepthVolume(np.full((k, h, w), 1.0 / k))


# ---------------------------------------------------------------- camera model


def test_camera_rejects_bad_rotation():
    with pytest.raises(ShapeError, match="orthonormal"):
        CameraModel(100, 100, 32, 32, np.eye(3) * 1.5, np.zeros(3))


def test_camera_rejects_nonpositive_focal():
    with pytest.raises(ShapeError, match="focal"):
        CameraModel(0.0, 100, 32, 32, np.eye(3), np.zeros(3))


def test_rig_requires_cameras():
    with pytest.raises(ShapeError, match="camera"):
        CameraRig(())


def test_project_inverts_cam_to_ego():
    rng = SplitMix64(11)
    cam = random_camera(rng)
    p_cam = np.array([[0.3, -0.2, 4.0]])
    p_ego = cam_to_ego(cam, p_cam)
    uv, depth = cam.project(p_ego)
    np.testing.assert_allclose(depth, [4.0], atol=1e-9)
    np.testing.assert_allclose(uv[0, 0], cam.fx * 0.3 / 4.0 + cam.cx, atol=1e-9)
    np.testing.assert_allclose(uv[0, 1], cam.fy * -0.2 / 4.0 + cam.cy, atol=1e-9)


# ---------------------------------------------------------------- frustum


def test_frustum_principal_point_on_optical_axis():
    cam = CameraModel(100, 100, 12.0, 12.0, np.eye(3), np.zeros(3))
    bins = DepthBins(np.array([2.0, 5.0]), 2.0, 5.0)
    frustum = build_frustum(cam, 3, 3, 8, bins)
    # pixel (row 1, col 1) has center (12, 12) = principal point
    np.testing.assert_allclose(frustum.points[1, 1, 1], [0.0, 0.0, 5.0], atol=1e-12)
    np.testing.assert_allclose(frustum.points[1, 1, 0], [0.0, 0.0, 2.0], atol=1e-12)


def test_frustum_depth_scales_offsets_linearly():
    cam = CameraModel(80, 120, 30.0, 20.0, np.eye(3), np.zeros(3))
    bins = DepthBins(np.array([2.0, 4.0]), 2.0, 4.0)
    frustum = build_frustum(cam, 4, 6, 8, bins)
    near = frustum.points[:, :, 0, :2]
    far = frustum.points[:, :, 1, :2]
    np.testing.assert_allclose(far, 2.0 * near, atol=1e-12)


def test_frustum_points_recede_along_ray():
    rng = SplitMix64(13)
    cam = random_camera(rng)
    frustum = build_frustum(cam, 3, 4, 8, DepthBins.uniform(5, 1.0, 9.0))
    center = cam_to_ego(cam, np.zeros((1, 3)))[0]
    dist = np.linalg.norm(frustum.points - center, axis=-1)
    assert (np.diff(dist, axis=-1) > 0).all()


def test_frustum_roundtrip_recovers_pixels_and_depth():
    rng = SplitMix64(17)
    for trial in range(10):
        cam = random_camera(rng)
        h, w, stride = 4, 5, 8
        bins = DepthBins.uniform(6, 1.0, 7.0)
        frustum = build_frustum(cam, h, w, stride, bins)
        pts = frustum.points.reshape(-1, 3)
        uv, depth = cam.project(pts)
        rows, cols, ds = np.unravel_index(np.arange(pts.shape[0]), (h, w, bins.k))
        np.testing.assert_allclose(uv[:, 0], (cols + 0.5) * stride, atol=1e-5, err_msg=f"trial {trial} u")
        np.testing.assert_allclose(uv[:, 1], (rows + 0.5) * stride, atol=1e-5, err_msg=f"trial {trial} v")
        np.testing.assert_allclose(depth, bins.centers[ds], atol=1e-5, err_msg=f"trial {trial} depth")


# ---------------------------------------------------------------- lift


def test_lift_one_hot_depth_selects_slice():
    rng = SplitMix64(19)
    feats = rng.uniform_array((2, 3, 4), -1, 1)
    probs = np.zeros((5, 3, 4))
    probs[3] = 1.0
    out = lift(feats, DepthVolume(probs))
    np.testing.assert_array_equal(out[:, :, :, 3], feats)
    assert out.shape == (2, 3, 4, 5)
    out[:, :, :, 3] = 0
    assert not out.any()


def test_lift_uniform_depth_divides_by_k():
    feats = np.full((2, 2, 2), 8.0, dtype=np.float32)
    out = lift(feats, _uniform_depth(4, 2, 2))
    np.testing.assert_allclose(out, 2.0, atol=1e-7)


def test_lift_sums_back_to_features():
    rng = SplitMix64(23)
    feats = rng.uniform_array((3, 4, 5), -2, 2)
    probs = softmax(rng.uniform_array((6, 4, 5), -1, 1), axis=0)
    out = lift(feats, DepthVolume(probs))
    np.testing.assert_allclose(out.sum(axis=3), feats, atol=1e-6, rtol=0)


def test_lift_rejects_dim_mismatch():
    with pytest.raises(ShapeError, match="depth"):
        lift(np.zeros((2, 3, 4), np.float32), _uniform_depth(4, 3, 5))


def test_lift_into_a_stack_slot_keeps_every_bit():
    rng = SplitMix64(29)
    feats = rng.uniform_array((3, 4, 5), -2, 2)
    depth = DepthVolume(softmax(rng.uniform_array((6, 4, 5), -1, 1), axis=0))
    stack = np.full((2, 3, 4, 5, 6), np.nan, dtype=np.float32)
    slot = stack[1]
    assert lift(feats, depth, slot) is slot
    np.testing.assert_array_equal(slot, lift(feats, depth))
    assert np.isnan(stack[0]).all()
    for bad in (np.empty((3, 4, 5, 5), np.float32), np.empty((3, 4, 5, 6), np.float64)):
        with pytest.raises(ShapeError, match="out must be"):
            lift(feats, depth, bad)


@pytest.mark.parametrize("channels_per_block", [None, 2])
def test_lift_keeps_the_einsum_bits_down_to_the_sign_of_zero(monkeypatch, channels_per_block):
    """lift's float32 bits equal the whole-tensor einsum's, compared as uint32.

    assert_array_equal counts -0.0 equal to +0.0; the uint32 views do not.
    Negative features meet exactly-zero probabilities here, where einsum
    writes +0.0 and a plain np.multiply writes -0.0. Checked with one
    channel block and with blocks of two channels.
    """
    c, h, w, k = 5, 4, 6, 7
    if channels_per_block is not None:
        monkeypatch.setattr(view_transform, "_LIFT_BLOCK_BYTES", 8 * h * w * k * channels_per_block)
    rng = SplitMix64(31)
    feats = rng.uniform_array((c, h, w), -2, 2)
    feats[:, :, :3] = -np.abs(feats[:, :, :3]) - np.float32(0.5)
    probs = softmax(rng.uniform_array((k, h, w), -1, 1), axis=0)
    hot = (np.arange(h)[:, None] + np.arange(3)[None, :]) % k  # one-hot bins in the first 3 columns
    probs[:, :, :3] = np.arange(k)[:, None, None] == hot
    depth = DepthVolume(probs)
    expected = np.einsum("chw,khw->chwk", feats.astype(np.float64), probs).astype(np.float32)
    multiplied = np.multiply(feats.astype(np.float64)[..., None], probs.transpose(1, 2, 0)).astype(np.float32)
    assert not np.array_equal(multiplied.view(np.uint32), expected.view(np.uint32)), "data cannot detect -0.0"
    np.testing.assert_array_equal(lift(feats, depth).view(np.uint32), expected.view(np.uint32))
    slot = np.full((c, h, w, k), np.nan, dtype=np.float32)
    np.testing.assert_array_equal(lift(feats, depth, slot).view(np.uint32), expected.view(np.uint32))


def test_lift_builds_no_float64_product_of_a_full_camera():
    """full.cfg camera: lift allocates under a quarter of the float64 [C, H', W', K] product."""
    c, h, w, k = 64, 16, 44, 59
    rng = SplitMix64(37)
    feats = rng.uniform_array((c, h, w), -1, 1)
    depth = DepthVolume(softmax(rng.uniform_array((k, h, w), -1, 1), axis=0))
    out = np.empty((c, h, w, k), dtype=np.float32)
    assert traced_transient(lift, feats, depth, out) < c * h * w * k * 8 // 4


# ---------------------------------------------------------------- pool index


def _point_frustum(points, camera=0):
    """FrustumGrid wrapping an explicit [H, W, K, 3] point array."""
    return FrustumGrid(camera, np.asarray(points, dtype=np.float64))


def test_index_single_point_cell_arithmetic():
    spec = BevSpec(8, 1.0, 4.0)
    frustum = _point_frustum([[[[0.1, 0.1, 1.0]]]])
    index = precompute_pool_index(frustum, spec)
    assert index.entry_count == 1
    assert index.entry_cell.tolist() == [naive_cell(0.1, 0.1, spec)] == [4 * 8 + 4]


def test_index_excludes_out_of_bounds():
    spec = BevSpec(8, 1.0, 4.0)
    frustum = _point_frustum([[[[5.0, 0.0, 1.0]]]])  # x = L + 1
    index = precompute_pool_index(frustum, spec)
    assert index.entry_count == 0


def test_index_partitions_in_bounds_points():
    rng = SplitMix64(29)
    spec = BevSpec(8, 1.0, 4.0)
    pts = rng.uniform_array((3, 4, 5, 3), -6, 6).astype(np.float64)
    frustum = _point_frustum(pts)
    index = precompute_pool_index(frustum, spec)
    naive = [naive_cell(pts[r, c, d, 0], pts[r, c, d, 1], spec) for r in range(3) for c in range(4) for d in range(5)]
    expected = [cell for cell in naive if cell is not None]
    assert index.entry_count == len(expected)
    assert index.entry_cell.tolist() == expected


def test_index_in_frustum_order():
    rng = SplitMix64(31)
    spec = BevSpec(8, 1.0, 4.0)
    frusta = [
        _point_frustum(rng.uniform_array((2, 3, 2, 3), -3, 3).astype(np.float64), camera=i) for i in range(2)
    ]
    index = precompute_pool_index(frusta[::-1], spec)
    keys = np.stack([index.entry_camera, index.entry_pixel, index.entry_bin])
    order = np.lexsort(keys[::-1])
    np.testing.assert_array_equal(order, np.arange(index.entry_count))
    assert index.entry_camera[0] == 0 and index.entry_camera[-1] == 1


def test_index_rejects_cells_outside_the_grid():
    spec = BevSpec(8, 1.0, 4.0)
    index = precompute_pool_index(_point_frustum([[[[0.1, 0.1, 1.0]]]]), spec)
    with pytest.raises(ShapeError, match="cell outside"):
        dataclasses.replace(index, entry_cell=np.array([64], dtype=np.uint32))


# ---------------------------------------------------------------- pool


def _in_bounds_setup(rng, n_cam=1):
    """Cameras whose whole frustum lands inside the grid."""
    spec = BevSpec(16, 1.0, 8.0)
    bins = DepthBins.uniform(4, 1.0, 5.0)
    h, w, stride = 4, 6, 8
    frusta = []
    for i in range(n_cam):
        cam = CameraModel(100, 100, w * stride / 2, h * stride / 2, np.eye(3), np.zeros(3))
        frusta.append(build_frustum(cam, h, w, stride, bins, camera=i))
    return spec, bins, frusta, (h, w)


def test_pool_all_ones_conserves_mass():
    rng = SplitMix64(41)
    spec, bins, frusta, (h, w) = _in_bounds_setup(rng)
    feats = np.ones((3, h, w), dtype=np.float32)
    lifted = lift(feats, _uniform_depth(bins.k, h, w))
    index = precompute_pool_index(frusta, spec)
    assert index.entry_count == h * w * bins.k  # everything in bounds
    grid = pool(lifted, index, spec)
    per_channel = grid.data.sum(axis=(1, 2))
    np.testing.assert_allclose(per_channel, h * w, rtol=1e-4)


def test_pool_empty_cells_are_zero():
    spec = BevSpec(8, 1.0, 4.0)
    frustum = _point_frustum([[[[0.1, 0.1, 1.0]]]])
    index = precompute_pool_index(frustum, spec)
    grid = pool(np.ones((2, 1, 1, 1), np.float32), index, spec)
    assert grid.data[:, 4, 4].tolist() == [1.0, 1.0]
    total = grid.data.sum()
    assert total == 2.0  # every other cell exactly zero


def test_pool_matches_naive_scatter_many_seeds():
    for seed in range(50):
        rng = SplitMix64(1000 + seed)
        spec = BevSpec(8, 1.0, 4.0)
        h, w, k, c = 2, 3, 3, 2
        frusta = [
            _point_frustum(rng.uniform_array((h, w, k, 3), -5, 5).astype(np.float64), camera=i) for i in range(2)
        ]
        feat_stack = np.stack(
            [
                lift(rng.uniform_array((c, h, w), -1, 1), DepthVolume(softmax(rng.uniform_array((k, h, w), -1, 1), axis=0)))
                for i in range(2)
            ]
        )
        index = precompute_pool_index(frusta, spec)
        grid = pool(feat_stack, index, spec)
        ref = naive_splat(frusta, feat_stack, spec)
        np.testing.assert_allclose(grid.data, ref, atol=1e-6, rtol=0, err_msg=f"seed {seed}")


def test_pool_conservation_random_instances():
    for seed in range(10):
        rng = SplitMix64(2000 + seed)
        spec = BevSpec(8, 1.0, 4.0)
        h, w, k, c = 3, 4, 4, 3
        pts = rng.uniform_array((h, w, k, 3), -5, 5).astype(np.float64)
        frustum = _point_frustum(pts)
        lifted = lift(
            rng.uniform_array((c, h, w), 0.5, 2.0),
            DepthVolume(softmax(rng.uniform_array((k, h, w), -1, 1), axis=0)),
        )
        index = precompute_pool_index(frustum, spec)
        grid = pool(lifted, index, spec)
        mask = np.zeros((h, w, k), dtype=bool)
        for r in range(h):
            for col in range(w):
                for d in range(k):
                    mask[r, col, d] = naive_cell(pts[r, col, d, 0], pts[r, col, d, 1], spec) is not None
        expected = (lifted.astype(np.float64) * mask[None]).sum(axis=(1, 2, 3))
        np.testing.assert_allclose(grid.data.sum(axis=(1, 2)), expected, rtol=1e-5)


def test_pool_bit_deterministic_across_runs():
    rng = SplitMix64(43)
    spec = BevSpec(8, 1.0, 4.0)
    pts = rng.uniform_array((3, 3, 2, 3), -5, 5).astype(np.float64)
    frustum = _point_frustum(pts)
    feats = rng.uniform_array((4, 3, 3, 2), -1, 1)
    index = precompute_pool_index(frustum, spec)
    a = pool(feats, index, spec)
    b = pool(feats.copy(), precompute_pool_index(_point_frustum(pts.copy()), spec), spec)
    np.testing.assert_array_equal(a.data, b.data)


def _cancelling_stack(rng, index, shape):
    """Seeded float32 stack whose pooled sums depend on the order of addition.

    Entry values have mixed signs and magnitudes from 1e-8 to 1e8. In each
    cell the second half of the entries negates the first half, so the cell
    sum cancels down to float64 rounding residue: a sum in any other order
    leaves a different residue, which survives the rounding to float32.
    """
    c, w = shape[1], shape[3]
    m = index.entry_count
    sign = np.where(rng.uniform_array((c, m), -1, 1) < 0, -1.0, 1.0)
    vals = (sign * 10.0 ** rng.uniform_array((c, m), -8, 8).astype(np.float64)).astype(np.float32)
    cells = index.entry_cell.astype(np.int64)
    by_cell = np.argsort(cells, kind="stable")  # each cell's entries, in plan order
    sizes = np.bincount(cells)
    rank = np.arange(m) - (np.cumsum(sizes) - sizes)[cells[by_cell]]
    half = sizes[cells[by_cell]] // 2
    second = (rank >= half) & (rank < 2 * half)
    vals[:, by_cell[second]] = -vals[:, by_cell[np.nonzero(second)[0] - half[second]]]
    stack = rng.uniform_array(shape, -1, 1)
    stack[entry_sources(index, w)] = vals.T
    return stack


def _overlapping_frusta(rng, h, w, k):
    """Three cameras over [-5, 2]^2: cells with x or y above 2 m stay empty."""
    return [
        _point_frustum(rng.uniform_array((h, w, k, 3), -5, 2).astype(np.float64), camera=i) for i in range(3)
    ]


def test_pool_bit_identical_to_sequential_scatter():
    spec = BevSpec(8, 1.0, 4.0)
    h, w, k, c = 4, 5, 8, 4
    for seed in range(4):
        rng = SplitMix64(3000 + seed)
        frusta = _overlapping_frusta(rng, h, w, k)
        index = precompute_pool_index(frusta, spec)
        cells = index.entry_cell.astype(np.int64)
        sizes = np.bincount(cells, minlength=spec.n_cells)
        assert (sizes == 0).any() and sizes.max() >= 8
        assert len(set(zip(cells.tolist(), index.entry_camera.tolist()))) > np.count_nonzero(sizes)
        stack = _cancelling_stack(rng, index, (3, c, h, w, k))

        expected = scatter_oracle(frusta, stack, spec)
        np.testing.assert_array_equal(pool(stack, index, spec).data, expected, err_msg=f"seed {seed}")
        assert not expected[:, 7, 7].any()  # an empty cell pools to exactly zero

        # the data detects reordering: the same entries summed back to front differ
        vals = stack[entry_sources(index, w)]
        backwards = np.stack(
            [np.bincount(cells[::-1], vals[::-1, ch].astype(np.float64), spec.n_cells) for ch in range(c)]
        )
        assert not np.array_equal(backwards.astype(np.float32).reshape(expected.shape), expected)

        # rank-4 input: a single camera with its own plan
        single = precompute_pool_index(frusta[0], spec)
        lone = _cancelling_stack(rng, single, (1, c, h, w, k))[0]
        np.testing.assert_array_equal(pool(lone, single, spec).data, scatter_oracle(frusta[:1], lone, spec))


def test_pool_bits_do_not_depend_on_the_order_frusta_come_in():
    spec = BevSpec(8, 1.0, 4.0)
    h, w, k, c = 4, 5, 8, 4
    for seed in range(4):
        frusta = _overlapping_frusta(SplitMix64(3100 + seed), h, w, k)
        ascending = precompute_pool_index(frusta, spec)
        descending = precompute_pool_index(frusta[::-1], spec)
        for field in ("entry_cell", "entry_camera", "entry_pixel", "entry_bin"):
            np.testing.assert_array_equal(getattr(descending, field), getattr(ascending, field))
        stack = _cancelling_stack(SplitMix64(3200 + seed), ascending, (3, c, h, w, k))
        np.testing.assert_array_equal(
            pool(stack, descending, spec).data, pool(stack, ascending, spec).data, err_msg=f"seed {seed}"
        )


def test_pool_rejects_entries_outside_its_dims():
    spec = BevSpec(8, 1.0, 4.0)
    index = precompute_pool_index(_point_frustum([[[[0.1, 0.1, 1.0]]]]), spec)
    for field in ("entry_camera", "entry_pixel", "entry_bin"):
        bad = dataclasses.replace(index, **{field: np.array([1], dtype=np.uint32)})
        with pytest.raises(ShapeError, match="outside"):
            pool(np.ones((2, 1, 1, 1), np.float32), bad, spec)


def test_pool_rejects_stale_index():
    spec = BevSpec(8, 1.0, 4.0)
    frustum = _point_frustum([[[[0.1, 0.1, 1.0]]]])
    index = precompute_pool_index(frustum, spec)
    with pytest.raises(ShapeError, match="index"):
        pool(np.ones((2, 2, 2, 2), np.float32), index, spec)


def test_pool_reads_each_camera_before_asking_for_the_next():
    """A generator that reuses one buffer, and fills it with NaN once pool moves on, pools to the array's bits."""
    spec = BevSpec(8, 1.0, 4.0)
    h, w, k, c = 4, 5, 8, 4
    for seed in range(2):
        rng = SplitMix64(3300 + seed)
        frusta = _overlapping_frusta(rng, h, w, k)
        index = precompute_pool_index(frusta, spec)
        stack = _cancelling_stack(rng, index, (3, c, h, w, k))

        def scribbling():
            buf = np.empty((c, h, w, k), np.float32)
            for camera in stack:
                buf[...] = camera
                yield buf
                buf[...] = np.nan

        grid = pool(scribbling(), index, spec)
        np.testing.assert_array_equal(grid.data.view(np.uint32), pool(stack, index, spec).data.view(np.uint32))
        np.testing.assert_array_equal(grid.data, scatter_oracle(frusta, stack, spec))


def test_pool_rejects_cameras_that_do_not_match_the_index():
    spec = BevSpec(8, 1.0, 4.0)
    h, w, k, c = 2, 3, 4, 2
    frusta = _overlapping_frusta(SplitMix64(3400), h, w, k)
    index = precompute_pool_index(frusta, spec)
    cams = [np.ones((c, h, w, k), np.float32) for _ in range(3)]
    for bad in (
        cams[:2],  # too few
        cams + cams[:1],  # too many
        iter([]),
        cams[:2] + [np.ones((c, h, w, k + 1), np.float32)],
        cams[:2] + [np.ones((c + 1, h, w, k), np.float32)],
        cams[:2] + [np.ones((h, w, k), np.float32)],
    ):
        with pytest.raises(ShapeError, match="stale index"):
            pool(iter(bad), index, spec)
    with pytest.raises(ShapeError, match="stale index"):
        pool(iter(cams), index, BevSpec(16, 0.5, 4.0))
    np.testing.assert_array_equal(pool(iter(cams), index, spec).data, pool(np.stack(cams), index, spec).data)


def test_index_rejects_entries_out_of_camera_order():
    spec = BevSpec(8, 1.0, 4.0)
    index = precompute_pool_index([_point_frustum([[[[0.1, 0.1, 1.0]]]], camera=i) for i in range(2)], spec)
    with pytest.raises(ShapeError, match="ascending camera"):
        dataclasses.replace(index, entry_camera=np.array([1, 0], dtype=np.uint32))


def test_overlapping_cameras_accumulate():
    spec = BevSpec(8, 1.0, 4.0)
    frusta = [_point_frustum([[[[0.1, 0.1, 1.0]]]], camera=i) for i in range(2)]
    index = precompute_pool_index(frusta, spec)
    feats = np.ones((2, 1, 1, 1, 1), np.float32)
    grid = pool(feats, index, spec)
    assert grid.data[0, 4, 4] == 2.0


# ---------------------------------------------------------------- specs


def test_bevspec_ties_grid_and_extent():
    spec = BevSpec(32, 0.5, 8.0)
    assert spec.g * spec.cell_size == 2 * spec.extent
    with pytest.raises(ShapeError, match="extent"):
        BevSpec(32, 0.5, 9.0)
    with pytest.raises(ShapeError, match="grid"):
        BevSpec(4, 1.0, 2.0)


def test_bevgrid_validates_shape():
    BevGrid(np.zeros((2, 8, 8), np.float32))
    with pytest.raises(ShapeError, match="square"):
        BevGrid(np.zeros((2, 8, 9), np.float32))
