"""Command-line entry points.

Three subcommands: ``generate`` renders a synthetic scene directory,
``init-weights`` writes a seeded weight bundle, and ``run`` executes
the full pipeline over a scene. Stage and end-to-end timings come from
the benchmark in ``perfbench/``. Exit codes: 0 success, 2 configuration
or file format problems, 3 runtime shape or stage failures.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .config import load_config
from .errors import ConfigError, FormatError, ShapeError, StageError
from .pipeline import run_pipeline, write_artifacts
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
