"""CRF module tests: naive message-passing oracle, hand energies, smoothing trend, depth-evidence gates."""

import dataclasses
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bevnext import depth_crf
from bevnext.config import SceneConfig, load_config
from bevnext.depth_crf import (
    MAX_ITERS,
    DepthBins,
    map_labeling,
    mean_field_step,
    modulate,
    pairwise_affinity,
    patch_colors,
    unary_from_probs,
)
from bevnext.errors import ShapeError
from bevnext.kernels import SplitMix64, softmax
from bevnext.pipeline import tensor_digest
from bevnext.scene import gen_scene
from factories import crf_energy, render_depth, traced_transient


# ---------------------------------------------------------------- oracles


def naive_mean_field_step(q, unary, coupling):
    """Literal O(N^2 K^2) message passing with the Potts compat, one synchronous step."""
    k, h, w = q.shape
    n = h * w
    qf = q.reshape(k, n)
    uf = unary.reshape(k, n)
    out = np.zeros((k, n))
    for i in range(n):
        for a in range(k):
            msg = 0.0
            for j in range(n):
                if j == i:
                    continue
                for b in range(k):
                    msg += coupling[i, j] * (0.0 if a == b else 1.0) * qf[b, j]
            out[a, i] = math.exp(-uf[a, i] - msg)
    out /= out.sum(axis=0, keepdims=True)
    return out.reshape(k, h, w)


def rebuilt_affinity(colors):
    """`pairwise_affinity` with nothing cached or built in place: the color
    kernel (theta 0.1) over the [n, n, 3] einsum of channel differences,
    times the spatial kernel (theta 3.0 cells), then the diagonal zeroed."""
    h, w, _ = colors.shape
    n = h * w
    flat = colors.reshape(n, 3)
    rows, cols = np.divmod(np.arange(n), w)
    diff = flat[:, None, :] - flat[None, :, :]
    col_d2 = np.einsum("ijc,ijc->ij", diff, diff)
    dr = rows[:, None] - rows[None, :]
    dc = cols[:, None] - cols[None, :]
    pos_d2 = (dr * dr + dc * dc).astype(np.float64)
    a = np.exp(-col_d2 / (2.0 * 0.1 * 0.1)) * np.exp(-pos_d2 / (2.0 * 3.0 * 3.0))
    np.fill_diagonal(a, 0.0)
    return a


def textbook_potts_step(q, unary, coupling):
    """The Potts mean-field step as written, softmax(-U - A (1 - Q)), with
    the per-cell sum of the coupling left in the messages."""
    k, h, w = q.shape
    n = h * w
    messages = coupling @ (1.0 - q.reshape(k, n).T)
    return softmax(-unary.reshape(k, n).T - messages, axis=1).T.reshape(k, h, w)


def naive_patch_colors(image, stride):
    h, w, _ = image.shape
    out = np.zeros((h // stride, w // stride, 3))
    for r in range(h // stride):
        for c in range(w // stride):
            out[r, c] = image[r * stride : (r + 1) * stride, c * stride : (c + 1) * stride].mean(axis=(0, 1))
    return out


def mean_patch_colors(image, stride):
    """`patch_colors` as it was before it summed patches with one ordered reduce."""
    h, w, _ = image.shape
    return np.asarray(image, dtype=np.float64).reshape(h // stride, stride, w // stride, stride, 3).mean(axis=(1, 3))


def rebuilt_spatial_term(height, width):
    """`_spatial_term` as it was before it built d^2 in place from float64 outer differences."""
    rows, cols = np.divmod(np.arange(height * width), width)
    dr = rows[:, None] - rows[None, :]
    dc = cols[:, None] - cols[None, :]
    pos_d2 = (dr * dr + dc * dc).astype(np.float64)
    return np.exp(-pos_d2 / (2.0 * 3.0 * 3.0))


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


@functools.lru_cache(maxsize=None)
def frame0(preset, seed):
    """(config, frame 0) of configs/<preset>.cfg at the given scene seed.

    The scene is generated with one frame: frame 0 of any longer clip of
    the same seed renders the same boxes at the same places.
    """
    cfg = dataclasses.replace(load_config(os.path.join(CONFIGS, f"{preset}.cfg")), seed=seed, frames=1)
    return cfg, gen_scene(cfg).frames[0]


def depth_label_errors(preset, seeds, flip, iters):
    """|MAP bin - true bin| over every labelled feature cell of frame 0's cameras.

    A cell's true bin is the bin center nearest the depth of the box hit at
    its center pixel (``factories.render_depth``); cells that see no box
    are unlabelled and get zero logits. Labelled cells get logits
    3 * one-hot of their label, with a share ``flip`` of the labels
    replaced by another bin drawn from a generator seeded by the scene
    seed, so every ``iters`` sees the same flips.
    """
    errors = []
    for seed in seeds:
        cfg, frame = frame0(preset, seed)
        bins, s = cfg.bins(), cfg.stride
        rng = np.random.default_rng(seed)
        for cam, image in zip(cfg.rig(), frame.images):
            depth = render_depth(cam, frame.boxes, cfg.image_h, cfg.image_w)[s // 2 :: s, s // 2 :: s]
            hit = np.isfinite(depth)
            truth = np.abs(depth[hit][:, None] - bins.centers).argmin(axis=1)
            given = truth.copy()
            flipped = rng.random(truth.size) < flip
            given[flipped] = (truth[flipped] + rng.integers(1, bins.k, flipped.sum())) % bins.k
            logits = np.zeros((bins.k,) + depth.shape)
            rows, cols = np.nonzero(hit)
            logits[given, rows, cols] = 3.0
            out = modulate(logits, np.divide(image, 255.0), bins, iters)
            errors.append(np.abs(map_labeling(out)[hit] - truth))
    return np.concatenate(errors)


REPAIR_SEEDS = {"desk": range(6), "full": range(2)}


def two_region_image(h, w):
    """Left half black, right half white."""
    img = np.zeros((h, w, 3))
    img[:, w // 2 :] = 1.0
    return img


def region_spread(probs, cols):
    """Mean pairwise L1 distance between distributions of the given columns."""
    k = probs.shape[0]
    flat = probs[:, :, cols].reshape(k, -1).T
    n = flat.shape[0]
    total = 0.0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += np.abs(flat[i] - flat[j]).sum()
            pairs += 1
    return total / pairs


# ---------------------------------------------------------------- bins


def test_bins_uniform_centers_start_at_d_min():
    bins = DepthBins.uniform(8, 1.0, 9.0)
    np.testing.assert_array_equal(bins.centers, np.arange(1.0, 9.0))


def test_bins_reject_unsorted():
    with pytest.raises(ShapeError, match="strictly increasing"):
        DepthBins(np.array([2.0, 1.0]), 1.0, 2.0)


def test_bins_reject_non_finite():
    for centers, d_min, d_max in (([1.0, np.inf], 0.0, np.inf), ([1.0, 2.0], np.nan, 2.0), ([1.0, 2.0], 1.0, np.nan)):
        with pytest.raises(ShapeError, match="must be finite"):
            DepthBins(np.array(centers), d_min, d_max)


@pytest.mark.parametrize(
    "pixels",
    [
        [(np.nan, np.nan)],
        [(0.5, 0.5), (np.nan, 0.5)],
        [(np.inf, 0.0)],
        [(np.inf, 0.0), (np.nan, 1.0)],
    ],
    ids=["nan", "nan-beside-valid", "inf", "inf-beside-nan"],
)
def test_modulate_refuses_non_finite_logits(pixels):
    """softmax would turn these into NaN distributions; modulate refuses them before it runs."""
    logits = np.array(pixels, dtype=np.float64).T.reshape(2, 1, len(pixels))
    for iters in (0, 5):
        with pytest.raises(ShapeError, match="non-finite depth logit"):
            modulate(logits, np.zeros((4, 4 * len(pixels), 3)), DepthBins.uniform(2, 1.0, 3.0), iters)


# ---------------------------------------------------------------- patch colors


def test_patch_colors_constant_image():
    img = np.full((8, 8, 3), 0.5)
    pc = patch_colors(img, 4)
    np.testing.assert_array_equal(pc, np.full((2, 2, 3), 0.5))


def test_patch_colors_mean_of_2x2():
    img = np.zeros((2, 2, 3))
    img[1, :, :] = 1.0
    pc = patch_colors(img, 2)
    assert pc.dtype == np.float64
    np.testing.assert_array_equal(pc, np.full((1, 1, 3), 0.5))


def test_patch_colors_matches_loop_oracle():
    rng = SplitMix64(21)
    img = rng.uniform_array((16, 16, 3)).astype(np.float64)
    pc = patch_colors(img, 4)
    np.testing.assert_allclose(pc, naive_patch_colors(img, 4), atol=1e-7, rtol=0)


def test_patch_colors_bit_identical_to_mean_oracle_on_camera_images():
    """Every camera of two frames, desk (stride 8) and full (stride 16), scene seed 3."""
    full = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "full.cfg"))
    for cfg in (SceneConfig(seed=3, frames=2), dataclasses.replace(full, seed=3, frames=2)):
        for frame in gen_scene(cfg).frames:
            for ci, image in enumerate(frame.images):
                img = np.divide(image, 255.0)  # as the pipeline passes it to modulate
                got, want = patch_colors(img, cfg.stride), mean_patch_colors(img, cfg.stride)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), f"stride {cfg.stride} cam {ci}"


@pytest.mark.parametrize("stride", [8, 16])
def test_patch_colors_bit_identical_to_mean_oracle_on_signed_data(stride):
    """Signed values with -0.0 entries and an all -0.0 patch, compared down to the sign of zero."""
    rng = np.random.default_rng(stride)
    img = rng.standard_normal((4 * stride, 6 * stride, 3)) * 10.0 ** rng.integers(-3, 4, (4 * stride, 6 * stride, 3))
    img[rng.random(img.shape) < 0.2] = -0.0
    img[:stride, :stride] = -0.0
    got, want = patch_colors(img, stride), mean_patch_colors(img, stride)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_patch_colors_rejects_nondivisible():
    with pytest.raises(ShapeError, match="crop"):
        patch_colors(np.zeros((7, 8, 3)), 4)


# ---------------------------------------------------------------- affinity


# Closed forms of the two factors of the bilateral kernel, exp(-d2 / (2 theta^2)).
def _appearance(d2):
    return math.exp(-d2 / (2.0 * 0.1**2))


def _spatial(d2):
    return math.exp(-d2 / (2.0 * 3.0**2))


def test_affinity_identical_colors_unit():
    # equal colors: the color factor is exactly 1.0, leaving the spatial one
    coupling = pairwise_affinity(np.full((1, 2, 3), 0.3))
    np.testing.assert_allclose(coupling[0, 1], _spatial(1.0), rtol=1e-15)
    assert coupling[0, 1] == coupling[1, 0]


def test_affinity_analytic_point():
    d = 0.1 * math.sqrt(2.0)  # squared color distance = 2 theta^2
    coupling = pairwise_affinity(np.array([[[0.0, 0.0, 0.0], [d, 0.0, 0.0]]]))
    np.testing.assert_allclose(coupling[0, 1], math.exp(-1.0) * _spatial(1.0), rtol=1e-12)


def test_affinity_appearance_kernel_closed_form():
    colors = SplitMix64(77).uniform_array((2, 3, 3)).astype(np.float64)
    coupling = pairwise_affinity(colors)
    flat = colors.reshape(6, 3)
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            ri, ci = divmod(i, 3)
            rj, cj = divmod(j, 3)
            want = _appearance(float(((flat[i] - flat[j]) ** 2).sum()))
            want *= _spatial((ri - rj) ** 2 + (ci - cj) ** 2)
            np.testing.assert_allclose(coupling[i, j], want, rtol=1e-12, err_msg=f"{i} {j}")


@pytest.mark.parametrize("h,w", [(8, 22), (16, 44)])
def test_affinity_bit_identical_to_einsum_difference_tensor(h, w):
    """Three 2-D squared channel differences summed (c0 + c2) + c1 keep the
    bits of the [n, n, 3] einsum form; summing them left to right would not."""
    colors = SplitMix64(h * w).uniform_array((h, w, 3)).astype(np.float64)
    np.testing.assert_array_equal(pairwise_affinity(colors), rebuilt_affinity(colors))
    flat = colors.reshape(h * w, 3)
    diff = flat[:, None, :] - flat[None, :, :]
    d0, d1, d2 = (diff[:, :, ch] for ch in range(3))
    left_to_right = (d0 * d0 + d1 * d1) + d2 * d2
    assert not np.array_equal(left_to_right, np.einsum("ijc,ijc->ij", diff, diff))


def test_affinity_rejects_non_rgb_colors():
    with pytest.raises(ShapeError, match="colors must be"):
        pairwise_affinity(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError, match="colors must be"):
        pairwise_affinity(np.zeros((6, 3)))


def test_affinity_zero_diagonal_symmetric_and_owned():
    pc = SplitMix64(75).uniform_array((3, 4, 3)).astype(np.float64)
    coupling = pairwise_affinity(pc)
    assert coupling.shape == (12, 12) and coupling.dtype == np.float64
    assert not np.diagonal(coupling).any()  # no cell couples to itself
    assert (coupling[~np.eye(12, dtype=bool)] > 0).all()
    np.testing.assert_array_equal(coupling, coupling.T)
    # a fresh C-contiguous array per call, not a view of a cached term
    assert coupling.flags.owndata and coupling.flags.c_contiguous and coupling.flags.writeable
    again = pairwise_affinity(pc)
    assert not np.shares_memory(coupling, again)
    np.testing.assert_array_equal(coupling, again)


def test_affinity_spatial_kernel_decays_with_distance():
    # a constant image leaves the color factor at 1.0 everywhere
    coupling = pairwise_affinity(np.full((1, 3, 3), 0.5))
    np.testing.assert_allclose(coupling[0, 1], _spatial(1.0), rtol=1e-12)
    np.testing.assert_allclose(coupling[0, 2], _spatial(4.0), rtol=1e-12)
    assert coupling[0, 1] > coupling[0, 2] > 0


def test_affinity_cached_spatial_term_bit_identical_to_rebuilt():
    rng = SplitMix64(71)
    grids = [(8, 22), (4, 11), (5, 7)]
    colors = {g: rng.uniform_array(g + (3,)).astype(np.float64) for g in grids}
    depth_crf._spatial_term.cache_clear()
    for _ in range(2):  # the first round misses the cache, the second hits it
        for g in grids:  # interleaved grid sizes
            got = pairwise_affinity(colors[g])
            np.testing.assert_array_equal(got, rebuilt_affinity(colors[g]), err_msg=f"{g}")
    info = depth_crf._spatial_term.cache_info()
    assert info.misses == len(grids) and info.hits > 0  # one spatial term per grid


def test_affinity_cached_spatial_term_is_read_only():
    term = depth_crf._spatial_term(3, 4)
    with pytest.raises(ValueError):
        term[0, 1] = 1.0
    before = term.copy()
    coupling = pairwise_affinity(np.full((3, 4, 3), 0.5))
    coupling[:] = 2.0  # the returned coupling is the caller's own array
    np.testing.assert_array_equal(depth_crf._spatial_term(3, 4), before)


@pytest.mark.parametrize("grid", [(8, 22), (16, 44), (3, 5), (1, 7)])
def test_spatial_term_bit_identical_to_integer_oracle(grid):
    got = depth_crf._spatial_term.__wrapped__(*grid)  # uncached
    want = rebuilt_spatial_term(*grid)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_spatial_term_builds_no_more_than_two_temporaries():
    """full.cfg grid (16x44): below 3x the 4 MB output, against ~19 MB of [n, n] int64 temporaries before."""
    n = 16 * 44
    assert traced_transient(depth_crf._spatial_term.__wrapped__, 16, 44) < 3 * n * n * 8


def test_affinity_identical_across_concurrent_callers():
    pc = SplitMix64(73).uniform_array((6, 13, 3)).astype(np.float64)
    depth_crf._spatial_term.cache_clear()
    with ThreadPoolExecutor(max_workers=4) as ex:
        mats = list(ex.map(lambda _: pairwise_affinity(pc), range(4)))
    expected = rebuilt_affinity(pc)
    for m in mats:
        np.testing.assert_array_equal(m, expected)


# ---------------------------------------------------------------- energy


def _two_pixel_instance():
    """N=2, K=2, unit coupling."""
    aff = np.array([[0.0, 1.0], [1.0, 0.0]])
    unary = np.array([[0.0, 1.0], [1.0, 0.0]]).reshape(2, 1, 2)  # [K, H=1, W=2]
    return unary, aff


def test_energy_hand_computed_cases():
    unary, aff = _two_pixel_instance()
    assert crf_energy(np.array([0, 1]), unary, aff) == 2.0
    assert crf_energy(np.array([0, 0]), unary, aff) == 1.0


def test_energy_zero_pairwise_reduces_to_unary():
    unary, _ = _two_pixel_instance()
    aff0 = np.zeros((2, 2))
    assert crf_energy(np.array([1, 0]), unary, aff0) == 2.0  # unaries only


def test_energy_label_out_of_range():
    unary, aff = _two_pixel_instance()
    with pytest.raises(ShapeError, match="label"):
        crf_energy(np.array([0, 2]), unary, aff)


# ---------------------------------------------------------------- mean field


def test_step_zero_coupling_is_unary_softmax():
    rng = SplitMix64(31)
    k, h, w = 3, 2, 2
    unary = rng.uniform_array((k, h, w), 0, 2).astype(np.float64)
    aff = np.zeros((h * w, h * w))
    q_any = softmax(rng.uniform_array((k, h, w), -1, 1), axis=0)
    out = mean_field_step(q_any, unary, aff)
    np.testing.assert_allclose(out, softmax(-unary, axis=0), atol=1e-12, rtol=0)


def test_step_symmetric_two_pixels():
    unary = np.array([[0.4, 0.4], [0.9, 0.9]]).reshape(2, 1, 2)
    aff = np.array([[0.0, 1.0], [1.0, 0.0]])
    q = np.full((2, 1, 2), 0.5)
    out = mean_field_step(q, unary, aff)
    np.testing.assert_array_equal(out[:, 0, 0], out[:, 0, 1])


def test_step_matches_naive_oracle():
    rng = SplitMix64(47)
    k, h, w = 3, 1, 3
    logits = rng.uniform_array((k, h, w), -1, 1)
    q0 = softmax(logits, axis=0)
    unary = unary_from_probs(q0)
    pc = rng.uniform_array((h, w, 3)).astype(np.float64)
    aff = pairwise_affinity(pc)
    out = mean_field_step(q0, unary, aff)
    ref = naive_mean_field_step(q0, unary, aff)
    np.testing.assert_allclose(out, ref, atol=1e-10, rtol=0)


def test_step_oracle_agreement_many_sizes():
    rng = SplitMix64(53)
    for trial in range(10):
        k = rng.randint(2, 5)
        h = rng.randint(1, 4)
        w = rng.randint(1, 4)
        q0 = softmax(rng.uniform_array((k, h, w), -2, 2), axis=0)
        unary = unary_from_probs(q0)
        pc = rng.uniform_array((h, w, 3)).astype(np.float64)
        aff = pairwise_affinity(pc)
        out = mean_field_step(q0, unary, aff)
        ref = naive_mean_field_step(q0, unary, aff)
        np.testing.assert_allclose(out, ref, atol=1e-10, rtol=0, err_msg=f"trial {trial}")


def _seeded_step_inputs(k, h, w, seed):
    rng = SplitMix64(seed)
    colors = rng.uniform_array((h, w, 3)).astype(np.float64)
    q = softmax(rng.uniform_array((k, h, w), -3.0, 3.0).astype(np.float64), axis=0)
    return q, unary_from_probs(q), pairwise_affinity(colors)


# One seeded step at desk (8x22, K=8) and full (16x44, K=59) scale, pinned
# with the messages as one float64 OpenBLAS GEMM (`coupling @ Q`). The
# metric-compat step with the additive kernel pair that came before gave
# 764a5fa6... and 6961b1b3...
@pytest.mark.parametrize(
    "k,h,w,seed,digest",
    [
        (8, 8, 22, 3, "ee7fa6091e4bb2987e84095f0f24275d65f3c16ed1f676187f81f1d98e06e7c1"),
        (59, 16, 44, 4, "8bbb8fdaf0c0ec654abe7439c5cf7f86fd0f0720343631d5bb2fd7c71195d209"),
    ],
)
def test_step_digest_pinned(k, h, w, seed, digest):
    out = mean_field_step(*_seeded_step_inputs(k, h, w, seed))
    assert tensor_digest(out) == digest


@pytest.mark.parametrize("k,h,w,seed", [(8, 8, 22, 3), (59, 16, 44, 4)])
def test_step_matches_textbook_potts_form_within_1e_12(k, h, w, seed):
    """Dropping the per-cell coupling sum, which cancels in the softmax,
    moves no probability by more than 1e-12."""
    q, unary, aff = _seeded_step_inputs(k, h, w, seed)
    out = mean_field_step(q, unary, aff)
    np.testing.assert_allclose(out, textbook_potts_step(q, unary, aff), rtol=0, atol=1e-12)


def test_step_normalization_invariant():
    rng = SplitMix64(61)
    for _ in range(5):
        k, h, w = 4, 3, 5
        q = softmax(rng.uniform_array((k, h, w), -3, 3), axis=0)
        unary = unary_from_probs(q)
        pc = rng.uniform_array((h, w, 3)).astype(np.float64)
        aff = pairwise_affinity(pc)
        for _ in range(3):
            q = mean_field_step(q, unary, aff)
            sums = q.sum(axis=0)
            assert np.abs(sums - 1.0).max() <= 1e-6
            assert (q >= 0).all()


# ---------------------------------------------------------------- modulate


def test_modulate_t0_is_softmax_exactly():
    rng = SplitMix64(71)
    logits = rng.uniform_array((4, 2, 3), -2, 2)
    img = rng.uniform_array((4, 6, 3)).astype(np.float64)
    out = modulate(logits, img, DepthBins.uniform(4, 1.0, 5.0), 0)
    np.testing.assert_array_equal(out, softmax(logits, axis=0))


def test_modulate_zero_weights_decouples():
    # modulate's refinement loop with a zero coupling: 5 steps keep softmax(logits)
    rng = SplitMix64(73)
    logits = rng.uniform_array((4, 2, 3), -2, 2)
    probs = softmax(logits, axis=0)
    unary = unary_from_probs(probs)
    for _ in range(5):
        probs = mean_field_step(probs, unary, np.zeros((6, 6)))
    np.testing.assert_allclose(probs, softmax(logits, axis=0), atol=1e-9, rtol=0)


@pytest.mark.parametrize("iters", [-1, MAX_ITERS + 1])
def test_modulate_rejects_iters_out_of_range(iters):
    logits = np.zeros((4, 2, 3))
    with pytest.raises(ShapeError, match=r"iters must be in \[0, 64\]"):
        modulate(logits, np.zeros((4, 6, 3)), DepthBins.uniform(4, 1.0, 5.0), iters)


def test_modulate_permutation_symmetry():
    # The end cells of a 1x3 row mirror each other under the kernel; with
    # identical colors and logits they stay identical through refinement.
    rng = SplitMix64(79)
    k, h, w = 3, 1, 3
    logits = rng.uniform_array((k, h, w), -1, 1)
    logits[:, 0, 2] = logits[:, 0, 0]
    img = rng.uniform_array((h, w, 3)).astype(np.float64)
    img[0, 2] = img[0, 0]
    out = modulate(logits, img, DepthBins.uniform(k, 1.0, 4.0), 3)
    np.testing.assert_array_equal(out[:, 0, 0], out[:, 0, 2])
    assert not np.array_equal(out[:, 0, 0], out[:, 0, 1])


def test_modulate_two_region_energy_not_increased():
    # One dissenting pixel in the left region is pulled toward its neighbors.
    h, w = 4, 8
    img = two_region_image(h, w)
    bins = DepthBins.uniform(4, 1.0, 5.0)
    logits = np.zeros((4, h, w), dtype=np.float32)
    logits[1] = 3.0
    logits[:, 1, 1] = [3.0, 0.0, 0.0, 0.0]  # lone pixel favoring bin 0
    out0 = modulate(logits, img, bins, 0)
    out5 = modulate(logits, img, bins, 5)
    aff = pairwise_affinity(patch_colors(img, 1))
    unary = unary_from_probs(softmax(logits, axis=0))
    left = [r * w + c for r in range(h) for c in range(w // 2)]

    def intra_left_pair_energy(probs):
        lab = map_labeling(probs).reshape(-1)
        total = 0.0
        for i in left:
            for j in left:
                if i != j:
                    total += aff[i, j] * (lab[i] != lab[j])
        return total

    assert intra_left_pair_energy(out5) <= intra_left_pair_energy(out0)
    assert map_labeling(out5)[1, 1] == 1  # dissenter joins the region


def test_two_region_spread_shrinks_over_20_seeds():
    h, w = 6, 12
    img = two_region_image(h, w)
    bins = DepthBins.uniform(4, 1.0, 5.0)
    left_cols = list(range(w // 2))
    right_cols = list(range(w // 2, w))
    for seed in range(20):
        logits = SplitMix64(1000 + seed).uniform_array((4, h, w), -1.5, 1.5)
        out0 = modulate(logits, img, bins, 0)
        out5 = modulate(logits, img, bins, 5)
        assert region_spread(out5, left_cols) <= region_spread(out0, left_cols), f"seed {seed} left"
        assert region_spread(out5, right_cols) <= region_spread(out0, right_cols), f"seed {seed} right"


@pytest.mark.parametrize("preset", ["desk", "full"])
def test_modulate_keeps_depth_uniform_without_evidence(preset):
    """Zero logits on every camera of frame 0, scene seed 0: crf.iters steps invent no depth."""
    cfg, frame = frame0(preset, 0)
    bins = cfg.bins()
    for ci, image in enumerate(frame.images):
        out = modulate(np.zeros((bins.k, cfg.feat_h, cfg.feat_w)), np.divide(image, 255.0), bins, cfg.crf_iters)
        assert np.abs(out - 1.0 / bins.k).max() <= 1e-12, f"camera {ci}"


@pytest.mark.parametrize("preset", ["desk", "full"])
def test_modulate_repairs_flipped_depth_labels(preset):
    """With 30% of the rendered depth labels flipped, crf.iters steps lower the mean bin error."""
    cfg, _ = frame0(preset, 0)
    before = depth_label_errors(preset, REPAIR_SEEDS[preset], 0.3, 0).mean()
    after = depth_label_errors(preset, REPAIR_SEEDS[preset], 0.3, cfg.crf_iters).mean()
    assert after < before, f"mean bin error {before:.3f} -> {after:.3f}"


@pytest.mark.parametrize("preset", ["desk", "full"])
def test_modulate_keeps_clean_depth_labels_within_one_bin(preset):
    """Correct labels survive crf.iters steps: every labelled cell ends within one bin of its label.

    Not exact bins: a full.cfg bin is 1 m, and a cell whose center pixel
    sits near a box edge can move to its neighbours' bin.
    """
    cfg, _ = frame0(preset, 0)
    errors = depth_label_errors(preset, REPAIR_SEEDS[preset], 0.0, cfg.crf_iters)
    assert errors.size > 0
    assert errors.max() <= 1, f"{(errors > 1).sum()} of {errors.size} cells off by more than one bin"


def test_modulate_shape_mismatch():
    with pytest.raises(ShapeError, match="bin axis"):
        modulate(np.zeros((3, 2, 2), np.float32), np.zeros((4, 4, 3)), DepthBins.uniform(4, 1.0, 5.0), 5)


# ---------------------------------------------------------------- labeling


def test_map_labeling_one_hot():
    probs = np.zeros((3, 2, 2))
    probs[2] = 1.0
    np.testing.assert_array_equal(map_labeling(probs), np.full((2, 2), 2))


def test_map_labeling_uniform_breaks_low():
    probs = np.full((4, 2, 3), 0.25)
    np.testing.assert_array_equal(map_labeling(probs), np.zeros((2, 3), dtype=np.int64))


def test_map_labeling_matches_scan_oracle():
    rng = SplitMix64(83)
    probs = softmax(rng.uniform_array((5, 4, 4), -2, 2), axis=0)
    got = map_labeling(probs)
    k, h, w = probs.shape
    for r in range(h):
        for c in range(w):
            best, best_v = 0, probs[0, r, c]
            for a in range(1, k):
                if probs[a, r, c] > best_v:
                    best, best_v = a, probs[a, r, c]
            assert got[r, c] == best
