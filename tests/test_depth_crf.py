"""CRF module tests: naive message-passing oracle, hand energies, smoothing trend."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bevnext import depth_crf
from bevnext.depth_crf import (
    MAX_ITERS,
    DepthBins,
    DepthVolume,
    build_compat,
    crf_energy,
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


# ---------------------------------------------------------------- oracles


def naive_mean_field_step(q, unary, coupling, compat):
    """Literal O(N^2 K^2) message passing, one synchronous step."""
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
                    msg += coupling[i, j] * compat[a, b] * qf[b, j]
            out[a, i] = math.exp(-uf[a, i] - msg)
    out /= out.sum(axis=0, keepdims=True)
    return out.reshape(k, h, w)


def rebuilt_affinity(colors):
    """`pairwise_affinity` as it was before the spatial term was cached:
    both shipped kernels (appearance 1.0 / 0.1, spatial 0.3 / 3.0) rebuilt
    on each call and added to a zero matrix in that order, then the
    diagonal zeroed."""
    h, w, _ = colors.shape
    n = h * w
    flat = colors.reshape(n, 3)
    rows, cols = np.divmod(np.arange(n), w)
    diff = flat[:, None, :] - flat[None, :, :]
    col_d2 = np.einsum("ijc,ijc->ij", diff, diff)
    dr = rows[:, None] - rows[None, :]
    dc = cols[:, None] - cols[None, :]
    pos_d2 = (dr * dr + dc * dc).astype(np.float64)
    a = np.zeros((n, n), dtype=np.float64)
    a += 1.0 * np.exp(-col_d2 / (2.0 * 0.1 * 0.1))
    a += 0.3 * np.exp(-pos_d2 / (2.0 * 3.0 * 3.0))
    np.fill_diagonal(a, 0.0)
    return a


def naive_patch_colors(image, stride):
    h, w, _ = image.shape
    out = np.zeros((h // stride, w // stride, 3))
    for r in range(h // stride):
        for c in range(w // stride):
            out[r, c] = image[r * stride : (r + 1) * stride, c * stride : (c + 1) * stride].mean(axis=(0, 1))
    return out


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


# ---------------------------------------------------------------- bins / compat


def test_compat_two_bins():
    bins = DepthBins(np.array([1.0, 2.0]), 1.0, 2.0)
    np.testing.assert_array_equal(build_compat(bins), [[0.0, 1.0], [1.0, 0.0]])


def test_compat_uniform_spacing():
    bins = DepthBins.uniform(8, 1.0, 9.0)
    np.testing.assert_array_equal(bins.centers, np.arange(1.0, 9.0))
    compat = build_compat(bins)
    idx = np.arange(8)
    np.testing.assert_allclose(compat, np.abs(idx[:, None] - idx[None, :]) * 1.0)


def test_compat_direct_subtraction():
    bins = DepthBins(np.array([1.0, 1.5, 4.0]), 1.0, 4.0)
    np.testing.assert_array_equal(build_compat(bins)[0], [0.0, 0.5, 3.0])


def test_bins_reject_unsorted():
    with pytest.raises(ShapeError, match="strictly increasing"):
        DepthBins(np.array([2.0, 1.0]), 1.0, 2.0)


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


def test_patch_colors_rejects_nondivisible():
    with pytest.raises(ShapeError, match="crop"):
        patch_colors(np.zeros((7, 8, 3)), 4)


# ---------------------------------------------------------------- affinity


# Closed forms of the two shipped kernels, w * exp(-d2 / (2 theta^2)).
def _appearance(d2):
    return 1.0 * math.exp(-d2 / (2.0 * 0.1**2))


def _spatial(d2):
    return 0.3 * math.exp(-d2 / (2.0 * 3.0**2))


def test_affinity_identical_colors_unit():
    # equal colors: the appearance kernel is exactly its weight, 1.0
    coupling = pairwise_affinity(np.full((1, 2, 3), 0.3))
    np.testing.assert_allclose(coupling[0, 1], 1.0 + _spatial(1.0), rtol=1e-15)
    assert coupling[0, 1] == coupling[1, 0]


def test_affinity_analytic_point():
    d = 0.1 * math.sqrt(2.0)  # squared color distance = 2 theta^2
    coupling = pairwise_affinity(np.array([[[0.0, 0.0, 0.0], [d, 0.0, 0.0]]]))
    np.testing.assert_allclose(coupling[0, 1], math.exp(-1.0) + _spatial(1.0), rtol=1e-12)


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
            want += _spatial((ri - rj) ** 2 + (ci - cj) ** 2)
            np.testing.assert_allclose(coupling[i, j], want, rtol=1e-12, err_msg=f"{i} {j}")


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
    # a constant image leaves the appearance kernel at its weight everywhere
    coupling = pairwise_affinity(np.full((1, 3, 3), 0.5)) - 1.0
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
    """N=2, K=2, unit coupling, bin centers 1 m apart."""
    bins = DepthBins(np.array([1.0, 2.0]), 1.0, 2.0)
    compat = build_compat(bins)
    aff = np.array([[0.0, 1.0], [1.0, 0.0]])
    unary = np.array([[0.0, 1.0], [1.0, 0.0]]).reshape(2, 1, 2)  # [K, H=1, W=2]
    return unary, aff, compat


def test_energy_hand_computed_cases():
    unary, aff, compat = _two_pixel_instance()
    assert crf_energy(np.array([0, 1]), unary, aff, compat) == 2.0
    assert crf_energy(np.array([0, 0]), unary, aff, compat) == 1.0


def test_energy_zero_pairwise_reduces_to_unary():
    unary, _, compat = _two_pixel_instance()
    aff0 = np.zeros((2, 2))
    assert crf_energy(np.array([1, 0]), unary, aff0, compat) == 2.0  # unaries only


def test_energy_label_out_of_range():
    unary, aff, compat = _two_pixel_instance()
    with pytest.raises(ShapeError, match="label"):
        crf_energy(np.array([0, 2]), unary, aff, compat)


# ---------------------------------------------------------------- mean field


def test_step_zero_coupling_is_unary_softmax():
    rng = SplitMix64(31)
    k, h, w = 3, 2, 2
    unary = rng.uniform_array((k, h, w), 0, 2).astype(np.float64)
    aff = np.zeros((h * w, h * w))
    compat = build_compat(DepthBins.uniform(k, 1.0, 4.0))
    q_any = DepthVolume(softmax(rng.uniform_array((k, h, w), -1, 1), axis=0))
    out = mean_field_step(q_any, unary, aff, compat)
    np.testing.assert_allclose(out.probs, softmax(-unary, axis=0), atol=1e-12, rtol=0)


def test_step_symmetric_two_pixels():
    unary = np.array([[0.4, 0.4], [0.9, 0.9]]).reshape(2, 1, 2)
    aff = np.array([[0.0, 1.0], [1.0, 0.0]])
    compat = build_compat(DepthBins(np.array([1.0, 2.0]), 1.0, 2.0))
    q = DepthVolume(np.full((2, 1, 2), 0.5))
    out = mean_field_step(q, unary, aff, compat)
    np.testing.assert_array_equal(out.probs[:, 0, 0], out.probs[:, 0, 1])


def test_step_matches_naive_oracle():
    rng = SplitMix64(47)
    k, h, w = 3, 1, 3
    logits = rng.uniform_array((k, h, w), -1, 1)
    q0 = softmax(logits, axis=0)
    unary = unary_from_probs(q0)
    pc = rng.uniform_array((h, w, 3)).astype(np.float64)
    aff = pairwise_affinity(pc)
    compat = build_compat(DepthBins.uniform(k, 1.0, 4.0))
    out = mean_field_step(DepthVolume(q0), unary, aff, compat)
    ref = naive_mean_field_step(q0, unary, aff, compat)
    np.testing.assert_allclose(out.probs, ref, atol=1e-10, rtol=0)


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
        compat = build_compat(DepthBins.uniform(k, 1.0, 1.0 + k))
        out = mean_field_step(DepthVolume(q0), unary, aff, compat)
        ref = naive_mean_field_step(q0, unary, aff, compat)
        np.testing.assert_allclose(out.probs, ref, atol=1e-10, rtol=0, err_msg=f"trial {trial}")


# One seeded step at desk (8x22, K=8) and full (16x44, K=59) scale, pinned
# before conv2d and pairwise_affinity were reworked. The message einsum sums
# over j with einsum's vectorised dot kernel because `expected` is
# Fortran-ordered; a C-ordered operand or `@` changes these bits.
@pytest.mark.parametrize(
    "k,h,w,seed,digest",
    [
        (8, 8, 22, 3, "0e280df8acad662f3cfc319302bb8e19660dfa4337ae57c3c98b61047dae309f"),
        (59, 16, 44, 4, "0b6e78aaa8c5d6ab145075f32ac08d87072c7dfef402a921538959d31d99db6b"),
    ],
)
def test_step_digest_pinned(k, h, w, seed, digest):
    rng = SplitMix64(seed)
    colors = rng.uniform_array((h, w, 3)).astype(np.float64)
    q = DepthVolume(softmax(rng.uniform_array((k, h, w), -3.0, 3.0).astype(np.float64), axis=0))
    aff = pairwise_affinity(colors)
    compat = build_compat(DepthBins.uniform(k, 1.0, 1.0 + k))
    out = mean_field_step(q, unary_from_probs(q.probs), aff, compat)
    assert tensor_digest(out.probs) == digest


def test_step_normalization_invariant():
    rng = SplitMix64(61)
    for _ in range(5):
        k, h, w = 4, 3, 5
        q = softmax(rng.uniform_array((k, h, w), -3, 3), axis=0)
        unary = unary_from_probs(q)
        pc = rng.uniform_array((h, w, 3)).astype(np.float64)
        aff = pairwise_affinity(pc)
        compat = build_compat(DepthBins.uniform(k, 1.0, 5.0))
        vol = DepthVolume(q)
        for _ in range(3):
            vol = mean_field_step(vol, unary, aff, compat)
            sums = vol.probs.sum(axis=0)
            assert np.abs(sums - 1.0).max() <= 1e-6
            assert (vol.probs >= 0).all()


# ---------------------------------------------------------------- modulate


def test_modulate_t0_is_softmax_exactly():
    rng = SplitMix64(71)
    logits = rng.uniform_array((4, 2, 3), -2, 2)
    img = rng.uniform_array((4, 6, 3)).astype(np.float64)
    out = modulate(logits, img, DepthBins.uniform(4, 1.0, 5.0), 0)
    np.testing.assert_array_equal(out.probs, softmax(logits, axis=0))


def test_modulate_zero_weights_decouples():
    # modulate's refinement loop with a zero coupling: 5 steps keep softmax(logits)
    rng = SplitMix64(73)
    logits = rng.uniform_array((4, 2, 3), -2, 2)
    compat = build_compat(DepthBins.uniform(4, 1.0, 5.0))
    vol = DepthVolume(softmax(logits, axis=0))
    unary = unary_from_probs(vol.probs)
    for _ in range(5):
        vol = mean_field_step(vol, unary, np.zeros((6, 6)), compat)
    np.testing.assert_allclose(vol.probs, softmax(logits, axis=0), atol=1e-9, rtol=0)


@pytest.mark.parametrize("iters", [-1, MAX_ITERS + 1])
def test_modulate_rejects_iters_out_of_range(iters):
    logits = np.zeros((4, 2, 3))
    with pytest.raises(ShapeError, match=r"iters must be in \[0, 64\]"):
        modulate(logits, np.zeros((4, 6, 3)), DepthBins.uniform(4, 1.0, 5.0), iters)


def test_modulate_permutation_symmetry():
    # The end cells of a 1x3 row mirror each other under both kernels; with
    # identical colors and logits they stay identical through refinement.
    rng = SplitMix64(79)
    k, h, w = 3, 1, 3
    logits = rng.uniform_array((k, h, w), -1, 1)
    logits[:, 0, 2] = logits[:, 0, 0]
    img = rng.uniform_array((h, w, 3)).astype(np.float64)
    img[0, 2] = img[0, 0]
    out = modulate(logits, img, DepthBins.uniform(k, 1.0, 4.0), 3)
    np.testing.assert_array_equal(out.probs[:, 0, 0], out.probs[:, 0, 2])
    assert not np.array_equal(out.probs[:, 0, 0], out.probs[:, 0, 1])


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
    compat = build_compat(bins)
    unary = unary_from_probs(softmax(logits, axis=0))
    left = [r * w + c for r in range(h) for c in range(w // 2)]

    def intra_left_pair_energy(vol):
        lab = map_labeling(vol).reshape(-1)
        total = 0.0
        for i in left:
            for j in left:
                if i != j:
                    total += aff[i, j] * compat[lab[i], lab[j]]
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
        assert region_spread(out5.probs, left_cols) <= region_spread(out0.probs, left_cols), f"seed {seed} left"
        assert region_spread(out5.probs, right_cols) <= region_spread(out0.probs, right_cols), f"seed {seed} right"


def test_modulate_shape_mismatch():
    with pytest.raises(ShapeError, match="bin axis"):
        modulate(np.zeros((3, 2, 2), np.float32), np.zeros((4, 4, 3)), DepthBins.uniform(4, 1.0, 5.0), 5)


# ---------------------------------------------------------------- labeling


def test_map_labeling_one_hot():
    probs = np.zeros((3, 2, 2))
    probs[2] = 1.0
    np.testing.assert_array_equal(map_labeling(DepthVolume(probs)), np.full((2, 2), 2))


def test_map_labeling_uniform_breaks_low():
    probs = np.full((4, 2, 3), 0.25)
    np.testing.assert_array_equal(map_labeling(DepthVolume(probs)), np.zeros((2, 3), dtype=np.int64))


def test_map_labeling_matches_scan_oracle():
    rng = SplitMix64(83)
    probs = softmax(rng.uniform_array((5, 4, 4), -2, 2), axis=0)
    vol = DepthVolume(probs)
    got = map_labeling(vol)
    k, h, w = probs.shape
    for r in range(h):
        for c in range(w):
            best, best_v = 0, probs[0, r, c]
            for a in range(1, k):
                if probs[a, r, c] > best_v:
                    best, best_v = a, probs[a, r, c]
            assert got[r, c] == best
