"""The three benchmark workloads, driven through bevnext's public API.

Each run: set up (generate, save and reload the scene(s) and the weights,
several times, taking the config's object counts in turn), warm up
(every distinct op input once at threads=1; the output digests of
these runs are the references), then a closed loop of
timed ops, one at a time, for the requested number of seconds. Every op
is checked: it must not raise, its BEV and heatmap must be finite, its
detections text must round-trip through ``parse_detections``, and its
output digest must equal the warm-up digest of the same input.

The program only ever sees generated scenes and weights; every seed is
derived from the workload seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from bevnext.config import SceneConfig, load_config
from bevnext.errors import BevnextError
from bevnext.object_decoder import format_detections, parse_detections
from bevnext.pipeline import run_pipeline, tensor_digest, write_artifacts
from bevnext.scene import SyntheticScene, gen_scene, load_scene, save_scene
from bevnext.weights import init_bundle, load_weights, save_weights

from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent

# name -> (unit, better); the order is the report order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "outputs_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: str  # relative to the repository root
    overrides: Tuple[Tuple[str, object], ...]  # SceneConfig fields replaced after loading
    threads: int
    scenes: int  # scenes kept as op inputs (clip) or as the stream (1)
    stream_steps: int  # > 0: ops slide a window one frame at a time over one long scene
    setup_reps: int  # timed set-ups, each of a scene with its own seed; the first `scenes` are kept
    artifacts: bool  # the op also writes detections.txt through write_artifacts
    min_ops: int  # timed ops run even if --seconds has already passed


# Input counts are kept small because every input also runs once as a
# warm-up; a full-scale op takes about 13 s, so one input is enough.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("desk-clip", "configs/desk.cfg", (), threads=1, scenes=8,
                 stream_steps=0, setup_reps=8, artifacts=True, min_ops=3),
        Workload("desk-stream", "configs/desk.cfg", (("threshold", 0.0), ("top_n", 1024)),
                 threads=1, scenes=1, stream_steps=8, setup_reps=4, artifacts=False, min_ops=3),
        Workload("full-clip", "configs/full.cfg", (), threads=2, scenes=1,
                 stream_steps=0, setup_reps=3, artifacts=True, min_ops=1),
    )
}


def derive_seed(seed: int, *tags) -> int:
    """Stable 31-bit seed for one input of one workload run."""
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


@dataclasses.dataclass
class OpInput:
    scene: SyntheticScene
    out_dir: str
    reference: Optional[str] = None  # digest of the threads=1 warm-up op


@dataclasses.dataclass
class RunResult:
    workload: str
    attempted: int
    failed: int
    correct: bool
    digest: str
    metrics: Dict[str, float]
    errors: List[str]
    absent: List[str]


def load_workload_config(wl: Workload) -> SceneConfig:
    return dataclasses.replace(load_config(ROOT / wl.config), **dict(wl.overrides))


def _scene_digest(scene: SyntheticScene) -> str:
    h = hashlib.sha256()
    for frame in scene.frames:
        for img in frame.images:
            h.update(tensor_digest(img).encode())
        h.update(tensor_digest(frame.points).encode())
    return h.hexdigest()


def object_counts(cfg: SceneConfig) -> List[int]:
    """The config's object counts, nearest the middle of its range first.

    Rendering a scene costs time in proportion to its objects, so the
    set-up repetitions take these counts in turn rather than the ones the
    seeds would draw: set-up work is then the same whatever the seed.
    """
    lo, hi = cfg.objects_min, cfg.objects_max
    return sorted(range(lo, hi + 1), key=lambda k: (abs(2 * k - lo - hi), k))


def setup(wl: Workload, cfg: SceneConfig, seed: int, work: Path, tracer: Optional[Tracer]):
    """Generate, save and reload scenes and weights; returns (scenes, bundle, times, errors)."""
    frames = cfg.frames + max(wl.stream_steps - 1, 0)
    counts = object_counts(cfg)
    weight_seed = derive_seed(seed, wl.name, "weights")
    weight_path = work / "weights.bvnx"
    scenes: List[SyntheticScene] = []
    times, errors = [], []
    bundle = None
    for rep in range(wl.setup_reps):
        count = counts[rep % len(counts)]
        scene_cfg = dataclasses.replace(
            cfg, seed=derive_seed(seed, wl.name, rep), frames=frames, objects_min=count, objects_max=count
        )
        scene_dir = work / f"scene_{rep}"
        with tracer.root("bench.setup", f"setup-{rep}") if tracer else nullcontext():
            t0 = time.perf_counter()
            generated = gen_scene(scene_cfg)
            save_scene(generated, scene_dir)
            loaded = load_scene(scene_dir)
            save_weights(init_bundle(cfg, weight_seed), weight_path)
            bundle = load_weights(weight_path, cfg)
            times.append(time.perf_counter() - t0)
        shutil.rmtree(scene_dir)
        if _scene_digest(loaded) != _scene_digest(generated):
            errors.append(f"set-up {rep}: the reloaded scene differs from the generated one")
        if rep < wl.scenes:
            scenes.append(loaded)
    return scenes, bundle, times, errors


def make_inputs(wl: Workload, cfg: SceneConfig, scenes: List[SyntheticScene], work: Path) -> List[OpInput]:
    if wl.stream_steps:
        frames = scenes[0].frames
        windows = [SyntheticScene(frames[t : t + cfg.frames]) for t in range(wl.stream_steps)]
    else:
        windows = scenes
    return [OpInput(scene, str(work / f"out_{i}")) for i, scene in enumerate(windows)]


def run_op(wl: Workload, inp: OpInput, cfg: SceneConfig, bundle, threads: int):
    """One op; returns (latency_s, digest, error). Checks run after the clock stops."""
    t0 = time.perf_counter()
    try:
        result = run_pipeline(inp.scene, cfg, bundle, threads=threads)
        if wl.artifacts:
            write_artifacts(result, inp.out_dir)
    except Exception:  # the loop must go on; the failure is counted and reported
        return time.perf_counter() - t0, None, traceback.format_exc(limit=3)
    latency = time.perf_counter() - t0
    digest, error = check_output(wl, inp, result)
    return latency, digest, error


def check_output(wl: Workload, inp: OpInput, result) -> Tuple[Optional[str], Optional[str]]:
    if not (np.isfinite(result.bev.data).all() and np.isfinite(result.heatmap.values).all()):
        return None, "non-finite BEV or heatmap"
    if wl.artifacts:
        with open(os.path.join(inp.out_dir, "detections.txt"), encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = format_detections(result.detections)
    try:
        parsed = parse_detections(text)
    except BevnextError as exc:
        return None, f"detections do not parse: {exc}"
    if len(parsed) != len(result.detections) or format_detections(parsed) != text:
        return None, "detections do not round-trip through parse_detections"
    h = hashlib.sha256()
    for part in (tensor_digest(result.bev.data), tensor_digest(result.heatmap.values), text):
        h.update(part.encode())
    digest = h.hexdigest()
    if inp.reference is not None and digest != inp.reference:
        return digest, "output digest differs from the threads=1 warm-up"
    return digest, None


def run_workload(
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    cfg: Optional[SceneConfig] = None,
) -> RunResult:
    """Set up, warm up and run the timed loop; returns metrics and the op tally."""
    cfg = cfg or load_workload_config(wl)
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(sys.modules[__name__])
    try:
        scenes, bundle, setup_times, errors = setup(wl, cfg, seed, work, tracer)
        inputs = make_inputs(wl, cfg, scenes, work)
        if tracer:
            tracer.uninstall()
        for inp in inputs:
            _, inp.reference, error = run_op(wl, inp, cfg, bundle, threads=1)
            if error:
                errors.append(f"warm-up: {error}")
        latencies: Dict[bool, List[float]] = {False: [], True: []}
        attempted = failed = 0
        t_start = time.perf_counter()
        while (
            attempted < wl.min_ops
            or time.perf_counter() - t_start < seconds
            or (trace and attempted % 2)
        ):
            inp = inputs[attempted % len(inputs)]
            traced = trace and attempted % 2 == 1
            if traced:
                tracer.install(sys.modules[__name__])
            try:
                with tracer.root("bench.op", f"op-{attempted}") if traced else nullcontext():
                    latency, _, error = run_op(wl, inp, cfg, bundle, wl.threads)
            finally:
                if traced:
                    tracer.uninstall()
            attempted += 1
            latencies[traced].append(latency)
            if error or inp.reference is None:
                failed += 1
                errors.append(f"op {attempted - 1}: {error or 'no warm-up reference'}")
        wall = time.perf_counter() - t_start
    finally:
        if tracer:
            tracer.uninstall()
    digest = hashlib.sha256("".join(str(i.reference) for i in inputs).encode()).hexdigest()
    if trace:
        overhead = 100.0 * (statistics.median(latencies[True]) / statistics.median(latencies[False]) - 1.0)
        metrics = layer_metrics(tracer, wl.threads, overhead)
        trace_path = work.parent / f"trace-{wl.name}-seed{seed}.jsonl"
        tracer.write_jsonl(trace_path, {"workload": wl.name, "seed": seed, "metrics": metrics})
        absent = list(tracer.absent)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": 1000.0 * statistics.median(latencies[False]),
            "outputs_per_s": attempted / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        absent = []
    return RunResult(
        workload=wl.name,
        attempted=attempted,
        failed=failed,
        correct=failed == 0 and not errors,
        digest=digest,
        metrics=metrics,
        errors=errors,
        absent=absent,
    )
