"""Command-line entry points.

Subcommands: ``generate`` renders a synthetic scene directory,
``init-weights`` writes a seeded weight bundle, ``run`` executes the
full pipeline over a scene, and ``crf-demo`` shows the
depth-distribution sharpening on a two-region image. Stage and
end-to-end timings come from the benchmark in ``perfbench/``. Exit
codes: 0 success, 2 configuration or file format problems, 3 runtime
shape or stage failures.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

import numpy as np

from .config import load_config
from .depth_crf import CrfParams, DepthBins, map_labeling, modulate
from .errors import ConfigError, FormatError, ShapeError, StageError
from .kernels import SplitMix64
from .pipeline import run_pipeline, write_artifacts
from .ppm import save_ppm
from .scene import gen_scene, load_scene, save_scene
from .weights import init_bundle, load_weights, save_weights

DEFAULT_WEIGHT_SEED = 7


def _cmd_generate(args) -> int:
    cfg = load_config(args.config)
    scene = gen_scene(cfg)
    save_scene(scene, args.out)
    print(f"wrote {scene.k} frames x {scene.n_cameras} cameras to {args.out}")
    return 0


def _cmd_init_weights(args) -> int:
    cfg = load_config(args.config)
    bundle = init_bundle(cfg, args.seed)
    save_weights(bundle, args.out)
    print(f"wrote {len(bundle.tensors)} tensors to {args.out}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    scene = load_scene(args.scene)
    bundle = load_weights(args.weights, cfg)
    start = time.perf_counter()
    result = run_pipeline(scene, cfg, bundle, threads=args.threads)
    elapsed = time.perf_counter() - start
    paths = write_artifacts(result, args.out, args.dump_depth, args.dump_heatmap)
    print(f"{len(result.detections)} detections in {elapsed:.2f} s -> {paths[0]}")
    for path in paths[1:]:
        print(f"dumped {path}")
    return 0


def _two_region_image(height: int, width: int) -> np.ndarray:
    img = np.zeros((height, width, 3), dtype=np.uint8)
    img[:, : width // 2] = (51, 51, 204)
    img[:, width // 2 :] = (230, 153, 26)
    return img


def _region_spread(probs: np.ndarray, columns: slice) -> float:
    """Mean pairwise L1 distance between the region's pixel distributions."""
    region = probs[:, :, columns].reshape(probs.shape[0], -1).T
    n = region.shape[0]
    total = 0.0
    for i in range(n):
        total += np.abs(region[i + 1 :] - region[i]).sum()
    pairs = n * (n - 1) // 2
    return total / pairs if pairs else 0.0


def _cmd_crf_demo(args) -> int:
    h, w = args.height, args.width
    if h < 2 or w < 2 or w % 2:
        raise ConfigError("crf-demo needs height >= 2 and even width >= 2")
    rng = SplitMix64(args.seed)
    image = _two_region_image(h, w)
    k = args.bins
    logits = rng.uniform_array((k, h, w), -2.0, 2.0).astype(np.float64)
    bins = DepthBins.uniform(k, 1.0, 1.0 + k)
    before = modulate(logits, image / 255.0, bins, CrfParams.default(iters=0))
    after = modulate(logits, image / 255.0, bins, CrfParams.default(iters=args.iters))
    left, right = slice(0, w // 2), slice(w // 2, w)
    for name, region in (("left", left), ("right", right)):
        s0 = _region_spread(before.probs, region)
        s1 = _region_spread(after.probs, region)
        print(f"region {name}: spread T=0 {s0:.6f} -> T={args.iters} {s1:.6f}")
    changed = int((map_labeling(before) != map_labeling(after)).sum())
    print(f"map labels changed: {changed} of {h * w}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for tag, vol in (("before", before), ("after", after)):
            gray = ((map_labeling(vol) * 255) // (k - 1)).astype(np.uint8)
            save_ppm(f"{args.out}/crf_{tag}.ppm", np.repeat(gray[:, :, None], 3, axis=2))
            print(f"dumped {args.out}/crf_{tag}.ppm")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bevnext",
        description="Deterministic multi-camera 3D detection on synthetic scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="render a synthetic scene directory")
    gen.add_argument("--config", required=True, help="key = value config file")
    gen.add_argument("--out", required=True, help="output scene directory")
    gen.set_defaults(func=_cmd_generate)

    init = sub.add_parser("init-weights", help="write a seeded weight bundle")
    init.add_argument("--config", required=True)
    init.add_argument("--out", required=True, help="output .bvnx bundle path")
    init.add_argument("--seed", type=int, default=DEFAULT_WEIGHT_SEED)
    init.set_defaults(func=_cmd_init_weights)

    run = sub.add_parser("run", help="run the full pipeline on a scene")
    run.add_argument("--config", required=True)
    run.add_argument("--weights", required=True)
    run.add_argument("--scene", required=True, help="directory from 'generate'")
    run.add_argument("--out", required=True, help="output artifact directory")
    run.add_argument("--dump-depth", action="store_true", help="write per-camera depth argmax PPMs")
    run.add_argument("--dump-heatmap", action="store_true", help="write the BEV heatmap PPM")
    run.add_argument("--threads", type=int, default=1, help="camera-pass worker threads")
    run.set_defaults(func=_cmd_run)

    demo = sub.add_parser("crf-demo", help="two-region depth sharpening demo")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--iters", type=int, default=5)
    demo.add_argument("--height", type=int, default=8)
    demo.add_argument("--width", type=int, default=16)
    demo.add_argument("--bins", type=int, default=6)
    demo.add_argument("--out", default=None, help="optional PPM dump directory")
    demo.set_defaults(func=_cmd_crf_demo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ShapeError, StageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
