"""Acceptance checks for the full pipeline, one test per criterion.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single PASS line with the measured numbers; a failing criterion
surfaces as an ordinary assertion failure. Oracles here are written
independently of the library code paths they check (literal Python loops,
hand-computed constants, subprocess byte comparison).
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

from bevnext.depth_crf import (
    DepthBins,
    DepthVolume,
    build_compat,
    crf_energy,
    mean_field_step,
    modulate,
    pairwise_affinity,
    unary_from_probs,
)
from bevnext.config import SceneConfig
from bevnext.kernels import SplitMix64, softmax
from bevnext.object_decoder import (
    CenterProposal,
    Heatmap,
    depth_embedding,
    expand_roi,
    lift_references,
    select_centers,
    spatial_cross_attention,
)
from bevnext.res2fusion import FusionConfig, FusionStack, fuse, partition
from bevnext.view_transform import (
    BevGrid,
    BevSpec,
    CameraModel,
    build_frustum,
    lift,
    pool,
    precompute_pool_index,
)
from factories import attn_spec, cam_to_ego, conv_spec, project_depth_labels, zero_mlp

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _report(num: int, detail: str) -> None:
    print(f"PASS: criterion {num}: {detail}")


def _random_rotation(rng: SplitMix64) -> np.ndarray:
    """Proper rotation from the QR factor of a random matrix."""
    m = rng.uniform_array((3, 3), -1.0, 1.0).astype(np.float64)
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))[None, :]
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def _random_camera(rng: SplitMix64) -> CameraModel:
    return CameraModel(
        fx=float(rng.uniform_array((), 40.0, 120.0)),
        fy=float(rng.uniform_array((), 40.0, 120.0)),
        cx=float(rng.uniform_array((), 20.0, 60.0)),
        cy=float(rng.uniform_array((), 20.0, 60.0)),
        rotation=_random_rotation(rng),
        translation=rng.uniform_array(3, -2.0, 2.0).astype(np.float64),
    )


# ------------------------------------------------------------ criterion 1


def test_criterion_01_zero_coupling_leaves_distributions():
    """With a zero pairwise coupling, 5 mean-field steps change nothing."""
    k, h, w = 6, 4, 5
    compat = build_compat(DepthBins.uniform(k, 1.0, 7.0))
    coupling = np.zeros((h * w, h * w))
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = SplitMix64(seed)
        logits = rng.uniform_array((k, h, w), -3.0, 3.0).astype(np.float64)
        out = DepthVolume(softmax(logits, axis=0))
        unary = unary_from_probs(out.probs)
        for _ in range(5):
            out = mean_field_step(out, unary, coupling, compat)
        worst = max(worst, float(np.abs(out.probs - softmax(logits, axis=0)).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, f"max deviation {worst:.3e} exceeds 1e-9"
    assert elapsed < 5.0, f"runtime {elapsed:.2f} s exceeds 5 s"
    _report(1, f"100/100 pairs within 1e-9 (worst {worst:.3e}), {elapsed:.2f} s")


# ------------------------------------------------------------ criterion 2


def _naive_mean_field_step(q: np.ndarray, unary: np.ndarray, amat: np.ndarray, compat: np.ndarray) -> np.ndarray:
    """Literal quadruple-loop message passing over ordered pixel pairs."""
    k, h, w = q.shape
    n = h * w
    qf = q.reshape(k, n).T.tolist()
    un = unary.reshape(k, n).T.tolist()
    a = amat.tolist()
    cm = compat.tolist()
    out = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        logits = []
        for lab in range(k):
            msg = 0.0
            for j in range(n):
                if j == i:
                    continue
                s = 0.0
                for b in range(k):
                    s += cm[lab][b] * qf[j][b]
                msg += a[i][j] * s
            logits.append(-(un[i][lab] + msg))
        mx = max(logits)
        exps = [math.exp(v - mx) for v in logits]
        tot = sum(exps)
        out[i] = [e / tot for e in exps]
    return out.T.reshape(k, h, w)


def test_criterion_02_mean_field_matches_naive_oracle():
    """The vectorized update equals a literal O(N^2 K^2) loop within 1e-10."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = SplitMix64(500 + seed)
        if seed < 5:
            h, w, k = 8, 8, 8  # exercise the N = 64, K = 8 bound
        else:
            h, w, k = rng.randint(1, 8), rng.randint(1, 8), rng.randint(2, 8)
        bins = DepthBins.uniform(k, 1.0, 1.0 + k)
        colors = rng.uniform_array((h, w, 3), 0.0, 1.0).astype(np.float64)
        affinity = pairwise_affinity(colors)
        compat = build_compat(bins)
        probs = softmax(rng.uniform_array((k, h, w), -2.0, 2.0).astype(np.float64), axis=0)
        unary = unary_from_probs(probs)
        fast = mean_field_step(DepthVolume(probs), unary, affinity, compat)
        slow = _naive_mean_field_step(probs, unary, affinity, compat)
        worst = max(worst, float(np.abs(fast.probs - slow).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"max deviation {worst:.3e} exceeds 1e-10"
    assert elapsed < 10.0, f"runtime {elapsed:.2f} s exceeds 10 s"
    _report(2, f"50/50 instances within 1e-10 (worst {worst:.3e}), {elapsed:.2f} s")


# ------------------------------------------------------------ criterion 3


def test_criterion_03_hand_computed_energy():
    """Two pixels, two bins, unit coupling: energies are exactly 2.0 and 1.0."""
    bins = DepthBins(np.array([1.0, 2.0]), 1.0, 2.0)
    affinity = np.array([[0.0, 1.0], [1.0, 0.0]])
    compat = build_compat(bins)
    # unary[label][pixel]: pixel 0 prefers bin 0, pixel 1 prefers bin 1
    unary = np.array([[0.0, 1.0], [1.0, 0.0]])
    e_split = crf_energy(np.array([0, 1]), unary, affinity, compat)
    e_agree = crf_energy(np.array([0, 0]), unary, affinity, compat)
    assert e_split == 2.0, f"split assignment energy {e_split} != 2.0"
    assert e_agree == 1.0, f"agreeing assignment energy {e_agree} != 1.0"
    _report(3, "E(bin0, bin1) = 2.0 and E(bin0, bin0) = 1.0 exactly")


# ------------------------------------------------------------ criterion 4


def _region_spread(probs: np.ndarray, columns: slice) -> float:
    """Mean pairwise L1 distance between the region's pixel distributions."""
    region = probs[:, :, columns].reshape(probs.shape[0], -1).T
    n = region.shape[0]
    total = 0.0
    for i in range(n):
        total += float(np.abs(region[i + 1 :] - region[i]).sum())
    pairs = n * (n - 1) // 2
    return total / pairs if pairs else 0.0


def test_criterion_04_two_region_spread_non_increasing():
    """Pixels sharing a region color agree more after refinement, 20/20 seeds."""
    k, h, w = 5, 6, 8
    bins = DepthBins.uniform(k, 1.0, 6.0)
    passed = 0
    for seed in range(20):
        rng = SplitMix64(1000 + seed)
        left = rng.uniform_array(3, 0.0, 0.35).astype(np.float64)
        right = rng.uniform_array(3, 0.65, 1.0).astype(np.float64)
        image = np.empty((h, w, 3), dtype=np.float64)
        image[:, : w // 2] = left
        image[:, w // 2 :] = right
        logits = rng.uniform_array((k, h, w), -2.0, 2.0).astype(np.float64)
        before = modulate(logits, image, bins, 0)
        after = modulate(logits, image, bins, 5)
        ok = True
        for region in (slice(0, w // 2), slice(w // 2, w)):
            if _region_spread(after.probs, region) > _region_spread(before.probs, region) + 1e-12:
                ok = False
        passed += int(ok)
    assert passed == 20, f"spread shrank in only {passed}/20 cases"
    _report(4, "intra-region spread non-increasing in 20/20 seeded images")


# ------------------------------------------------------------ criterion 5


def test_criterion_05_pooling_conserves_mass():
    """Pooled grid mass equals in-bounds lifted mass; index pool equals naive scatter."""
    spec = BevSpec.square(8, 4.0)
    feat_h, feat_w, k, c, stride = 3, 5, 4, 3, 8
    bins = DepthBins.uniform(k, 1.0, 9.0)
    worst_rel = 0.0
    worst_abs = 0.0
    for seed in range(50):
        rng = SplitMix64(2000 + seed)
        n_cams = rng.randint(1, 4)
        cams = [_random_camera(rng) for _ in range(n_cams)]
        frusta = [build_frustum(cam, feat_h, feat_w, stride, bins, ci) for ci, cam in enumerate(cams)]
        lifted = []
        for ci in range(n_cams):
            feats = rng.uniform_array((c, feat_h, feat_w), 0.5, 1.5)
            probs = softmax(rng.uniform_array((k, feat_h, feat_w), -1.0, 1.0).astype(np.float64), axis=0)
            lifted.append(lift(feats, DepthVolume(probs)))
        stack = np.stack(lifted)
        index = precompute_pool_index(frusta, spec)
        pooled = pool(stack, index, spec)

        # in-bounds mass straight from the frustum geometry
        mass = np.zeros(c, dtype=np.float64)
        for ci, fr in enumerate(frusta):
            ix = np.floor((fr.points[..., 0] + spec.extent) / spec.cell_size).astype(np.int64)
            iy = np.floor((fr.points[..., 1] + spec.extent) / spec.cell_size).astype(np.int64)
            ok = (ix >= 0) & (ix < spec.g) & (iy >= 0) & (iy < spec.g)
            mass += lifted[ci].astype(np.float64)[:, ok].sum(axis=1)
        pooled_mass = pooled.data.astype(np.float64).sum(axis=(1, 2))
        rel = float(np.max(np.abs(pooled_mass - mass) / np.maximum(np.abs(mass), 1e-9)))
        worst_rel = max(worst_rel, rel)

        # naive scatter oracle: one cell update per in-bounds frustum point
        acc = np.zeros((c, spec.g, spec.g), dtype=np.float64)
        for ci, fr in enumerate(frusta):
            src = lifted[ci].astype(np.float64)
            for row in range(feat_h):
                for col in range(feat_w):
                    for d in range(k):
                        x, y, _ = fr.points[row, col, d]
                        ix = math.floor((x + spec.extent) / spec.cell_size)
                        iy = math.floor((y + spec.extent) / spec.cell_size)
                        if 0 <= ix < spec.g and 0 <= iy < spec.g:
                            acc[:, iy, ix] += src[:, row, col, d]
        worst_abs = max(worst_abs, float(np.abs(acc.astype(np.float32) - pooled.data).max()))
    assert worst_rel <= 1e-5, f"mass mismatch {worst_rel:.3e} exceeds 1e-5 relative"
    assert worst_abs <= 1e-6, f"naive scatter mismatch {worst_abs:.3e} exceeds 1e-6"
    _report(5, f"50 rigs: mass within {worst_rel:.3e} relative, scatter within {worst_abs:.3e}")


# ------------------------------------------------------------ criterion 6


def test_criterion_06_projection_round_trip():
    """Frustum points project back to their pixel centers and bin depths; ROI reference points re-lift."""
    feat_h, feat_w, k, stride = 10, 20, 5, 4
    bins = DepthBins.uniform(k, 1.0, 11.0)
    total = 0
    worst = 0.0
    for seed in range(10):
        rng = SplitMix64(3000 + seed)
        cam = _random_camera(rng)
        fr = build_frustum(cam, feat_h, feat_w, stride, bins)
        uv, depth = cam.project(fr.points.reshape(-1, 3))
        exp_u = np.tile((np.arange(feat_w) + 0.5) * stride, (feat_h, 1))[:, :, None]
        exp_v = np.tile((np.arange(feat_h) + 0.5) * stride, (feat_w, 1)).T[:, :, None]
        exp_uv = np.stack(
            np.broadcast_arrays(
                np.broadcast_to(exp_u, (feat_h, feat_w, k)),
                np.broadcast_to(exp_v, (feat_h, feat_w, k)),
            ),
            axis=-1,
        ).reshape(-1, 2)
        exp_d = np.broadcast_to(bins.centers, (feat_h, feat_w, k)).reshape(-1)
        worst = max(worst, float(np.abs(uv - exp_uv).max()), float(np.abs(depth - exp_d).max()))
        total += uv.shape[0]
    assert total == 10_000
    assert worst <= 1e-5, f"round-trip error {worst:.3e} exceeds 1e-5"

    cfg = SceneConfig()
    rig, spec = cfg.rig(), cfg.bev()
    rng = SplitMix64(77)
    cells = np.stack(
        [[rng.randint(0, cfg.bev_grid - 1), rng.randint(0, cfg.bev_grid - 1)] for _ in range(40)]
    )
    refs = lift_references(cells, spec, cfg.heights, rig, cfg.image_h, cfg.image_w)
    n, j = refs.n, refs.n_heights
    relift_worst = 0.0
    checked = 0
    for ci, cam in enumerate(rig):
        flat = refs.points.reshape(-1, 3)
        depth = cam.ego_to_cam(flat)[:, 2].reshape(n, j)
        for i in range(n):
            for hj in range(j):
                if not refs.valid[i, ci, hj]:
                    continue
                u, v = refs.uv[i, ci, hj]
                d = depth[i, hj]
                cam_pt = np.array([(u - cam.cx) / cam.fx * d, (v - cam.cy) / cam.fy * d, d])
                ego = cam_to_ego(cam, cam_pt[None])[0]
                relift_worst = max(relift_worst, float(np.abs(ego - refs.points[i, hj]).max()))
                checked += 1
    assert checked > 0, "no valid reference projections to check"
    assert relift_worst <= 1e-5, f"re-lift error {relift_worst:.3e} exceeds 1e-5"
    _report(
        6,
        f"10^4 frustum points within {worst:.3e}; {checked} reference re-lifts within {relift_worst:.3e}",
    )


# ------------------------------------------------------------ criterion 7


def _constant_stack(k: int) -> FusionStack:
    """Frame t holds the constant t + 1, so window contents are identifiable."""
    return FusionStack(
        tuple(BevGrid(np.full((1, 8, 8), float(t + 1), np.float32)) for t in range(k))
    )


def _impulse_radius(grid: BevGrid) -> int:
    support = np.abs(grid.data).max(axis=0) > 0
    ys, xs = np.nonzero(support)
    assert ys.size, "impulse vanished entirely"
    cy = cx = grid.g // 2
    return int(max(np.abs(ys - cy).max(), np.abs(xs - cx).max()))


def test_criterion_07_fusion_group_structure():
    """Group counts follow ceil(k / w); impulse radii equal each group's cascade depth."""
    for k in range(1, 17):
        stack = _constant_stack(k)
        for w in range(1, k + 1):
            groups = partition(stack, w)
            g = -(-k // w)
            assert len(groups) == g, f"k={k}, w={w}: {len(groups)} groups != {g}"
            padded = 0
            for i, grp in enumerate(groups):
                end = k - i * w
                for b in range(w):
                    frame = end - w + b
                    expect = 0.0 if frame < 0 else float(frame + 1)
                    assert np.all(grp[b] == expect), f"k={k}, w={w}: group {i} slot {b} wrong"
                    if frame < 0:
                        padded += 1
                        assert i == g - 1, "zero padding outside the oldest group"
            assert padded == g * w - k
    nine = partition(_constant_stack(9), 3)
    assert len(nine) == 3 and all(np.all(grp != 0.0) for grp in nine), "k=9, w=3 must have no padding"

    # impulse response: group j's farthest influence is Chebyshev radius j,
    # one cell per padded 3x3 stage on its deepest cascade path
    c, gdim = 2, 16
    for g in (1, 3, 5):
        rng = SplitMix64(4000 + g)
        window = 3 if g == 3 else 1
        k = g * window
        reduces = tuple(conv_spec(window * c, c, 1, rng, zero_bias=True) for _ in range(g))
        cascades = tuple(conv_spec(c, c, 3, rng, zero_bias=True) for _ in range(g - 1))
        final = conv_spec(g * c, c, 1, rng, zero_bias=True)
        config = FusionConfig(window, reduces, cascades, final)
        for j in range(g):
            frames = [np.zeros((c, gdim, gdim), np.float32) for _ in range(k)]
            frames[k - 1 - j * window][0, gdim // 2, gdim // 2] = 1.0  # newest frame of window j
            fused = fuse(FusionStack(tuple(BevGrid(f) for f in frames)), config)
            radius = _impulse_radius(fused)
            assert radius == j, f"g={g}, group {j}: impulse radius {radius} != {j}"
    _report(7, "group counts match ceil(k/w) for k <= 16; impulse radii equal cascade depth")


# ------------------------------------------------------------ criterion 8


def test_criterion_08_zero_embedding_is_identity():
    """A zero depth-embedding MLP leaves attention output bit-identical."""
    cfg = SceneConfig()
    rig, spec = cfg.rig(), cfg.bev()
    c = 8
    refined_any = 0
    for seed in range(20):
        rng = SplitMix64(6000 + seed)
        n = rng.randint(1, 4)
        proposals = [
            CenterProposal(rng.randint(0, cfg.bev_grid - 1), rng.randint(0, cfg.bev_grid - 1), 0, 0.5)
            for _ in range(n)
        ]
        bev = BevGrid(rng.uniform_array((c, cfg.bev_grid, cfg.bev_grid), -1.0, 1.0))
        queries = rng.uniform_array((49, c), -1.0, 1.0)
        roi = expand_roi(bev, proposals, queries)
        refs = lift_references(roi.centers, spec, cfg.heights, rig, cfg.image_h, cfg.image_w)
        feats = rng.uniform_array((len(rig), c, cfg.feat_h, cfg.feat_w), -1.0, 1.0)
        attn = attn_spec(c, len(cfg.heights), cfg.points, rng)
        zero_emb_mlp = zero_mlp([cfg.depth_bins, c])
        vols = [
            DepthVolume(
                softmax(
                    rng.uniform_array((cfg.depth_bins, cfg.feat_h, cfg.feat_w), -1.0, 1.0).astype(np.float64),
                    axis=0,
                ),
            )
            for ci in range(len(rig))
        ]
        emb = np.stack([depth_embedding(v, zero_emb_mlp) for v in vols])
        with_emb, flags_a = spatial_cross_attention(roi, refs, feats, attn, cfg.stride, emb)
        without, flags_b = spatial_cross_attention(roi, refs, feats, attn, cfg.stride, None)
        assert with_emb.patches.tobytes() == without.patches.tobytes(), f"seed {seed}: outputs differ"
        assert np.array_equal(flags_a, flags_b)
        refined_any += int(flags_a.sum())
    assert refined_any > 0, "no ROI was ever refined; the check would be vacuous"
    _report(8, f"20/20 instances bit-identical ({refined_any} refined ROIs exercised)")


# ------------------------------------------------------------ criterion 9


def test_criterion_09_threshold_semantics():
    """Exactly tau is excluded, tau + 1e-6 included; raising tau never adds cells."""
    values = np.full((1, 8, 8), 0.05)
    values[0, 2, 3] = 0.1
    values[0, 4, 5] = 0.1 + 1e-6
    chosen = select_centers(Heatmap(values), 0.1)
    assert [(p.x, p.y) for p in chosen] == [(5, 4)], "strict threshold boundary violated"

    for seed in range(30):
        rng = SplitMix64(7000 + seed)
        heat = Heatmap(rng.uniform_array((2, 8, 8), 0.01, 0.99).astype(np.float64))
        taus = sorted(float(rng.uniform_array((), 0.0, 0.99)) for _ in range(3))
        sets = [
            {(p.x, p.y, p.cls, p.score) for p in select_centers(heat, tau)} for tau in taus
        ]
        assert sets[2] <= sets[1] <= sets[0], f"seed {seed}: raising tau added proposals"
        capped_lo = {(p.x, p.y) for p in select_centers(heat, taus[0], top_n=5)}
        capped_hi = {(p.x, p.y) for p in select_centers(heat, taus[2], top_n=5)}
        assert capped_hi <= capped_lo or len(capped_hi) == 5
    _report(9, "boundary at tau exact; monotone restriction held for 30 random heatmaps")


# ------------------------------------------------------------ criterion 10


def test_criterion_10_coverage_monotone_in_stride():
    """Coarser feature cells can only raise the labeled-cell fraction, 50/50 scenes."""
    cfg = SceneConfig()
    cam = cfg.rig()[0]
    bins = cfg.bins()
    passed = 0
    for seed in range(50):
        rng = SplitMix64(8000 + seed)
        n_pts = rng.randint(30, 120)
        pts = np.stack(
            [
                rng.uniform_array(n_pts, 1.5, 8.0),
                rng.uniform_array(n_pts, -3.0, 3.0),
                rng.uniform_array(n_pts, 0.0, 1.8),
            ],
            axis=1,
        ).astype(np.float64)
        _, cov8 = project_depth_labels(pts, cam, 8, 22, 8, bins)
        _, cov16 = project_depth_labels(pts, cam, 4, 11, 16, bins)
        passed += int(cov16 >= cov8)
    assert passed == 50, f"coverage rose with stride in only {passed}/50 scenes"
    _report(10, "stride-16 coverage >= stride-8 coverage in 50/50 random scenes")


# ------------------------------------------------------------ criterion 11


def test_criterion_11_cli_determinism_within_budget(tmp_path):
    """Three desk-config runs across thread counts emit byte-identical detections in < 60 s."""

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "bevnext", *args],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    t0 = time.perf_counter()
    cfg = os.path.join(REPO_ROOT, "configs", "desk.cfg")
    scene = tmp_path / "scene"
    weights = tmp_path / "weights.bvnx"
    cli("generate", "--config", cfg, "--out", str(scene))
    cli("init-weights", "--config", cfg, "--out", str(weights))
    outputs = []
    for threads in (1, 2, 4):
        out_dir = tmp_path / f"run_t{threads}"
        cli(
            "run", "--config", cfg, "--weights", str(weights), "--scene", str(scene),
            "--out", str(out_dir), "--threads", str(threads), "--dump-heatmap",
        )
        outputs.append(
            (
                (out_dir / "detections.txt").read_bytes(),
                (out_dir / "heatmap.ppm").read_bytes(),
            )
        )
    elapsed = time.perf_counter() - t0
    assert outputs[0] == outputs[1] == outputs[2], "artifacts differ across runs/threads"
    assert elapsed < 60.0, f"runtime {elapsed:.1f} s exceeds 60 s"
    _report(11, f"3 runs over threads 1/2/4 byte-identical, {elapsed:.1f} s total")
