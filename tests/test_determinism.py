"""Determinism gate: stage digests across --threads and OPENBLAS_NUM_THREADS.

conv2d and the CRF messages are float64 OpenBLAS GEMMs, whose thread count
is fixed when NumPy loads. Each OPENBLAS_NUM_THREADS value therefore gets
its own process, which runs the desk pipeline at every --threads value and
prints the digest of every stage. All of them must agree.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs", "desk.cfg")
THREADS = (1, 2, 3, 4)

# Runs desk.cfg at decoder.threshold 0 for each --threads value. Camera
# stage outputs are recorded as the pipeline calls them and hashed as a
# sorted set of tensor digests, so the pool's scheduling order cannot show.
# Two full-scale kernels (the 16x44 K=59 mean-field step and a 64-channel
# 3x3 conv on the 128x128 BEV) are large enough for OpenBLAS to split
# across its threads.
CHILD = r"""
import dataclasses, hashlib, json, sys, threading
import numpy as np
from bevnext import pipeline
from bevnext.config import load_config
from bevnext.depth_crf import mean_field_step, pairwise_affinity, unary_from_probs
from bevnext.kernels import ConvSpec, SplitMix64, conv2d, softmax
from bevnext.object_decoder import format_detections
from bevnext.pipeline import tensor_digest
from bevnext.scene import gen_scene
from bevnext.weights import init_bundle

cfg = dataclasses.replace(load_config(sys.argv[1]), threshold=0.0)
scene, bundle = gen_scene(cfg), init_bundle(cfg, 7)
lock = threading.Lock()
seen = {}

def record(stage, fn, pick):
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        with lock:
            seen.setdefault(stage, []).append(tensor_digest(pick(args, out)))
        return out
    return wrapped

pipeline.toy_backbone = record("backbone", pipeline.toy_backbone, lambda a, out: out)
modulate = pipeline.modulate
pipeline.modulate = record("crf", record("depth", modulate, lambda a, out: a[0]), lambda a, out: out)
pipeline.lift = record("lift", pipeline.lift, lambda a, out: out)

report = {}
for threads in map(int, sys.argv[2:]):
    seen.clear()
    result = pipeline.run_pipeline(scene, cfg, bundle, threads=threads)
    digests = {stage: hashlib.sha256("".join(sorted(d)).encode()).hexdigest() for stage, d in seen.items()}
    digests["bev"] = tensor_digest(result.bev.data)
    digests["heatmap"] = tensor_digest(result.heatmap.values)
    digests["detections"] = hashlib.sha256(format_detections(result.detections).encode()).hexdigest()
    digests["count"] = sum(len(d) for d in seen.values())
    report[threads] = digests

rng = SplitMix64(4)
k, h, w = 59, 16, 44
q = softmax(rng.uniform_array((k, h, w), -3.0, 3.0).astype(np.float64), axis=0)
aff = pairwise_affinity(rng.uniform_array((h, w, 3)).astype(np.float64))
step = mean_field_step(q, unary_from_probs(q), aff)
spec = ConvSpec(rng.uniform_array((64, 64, 3, 3), -0.05, 0.05), rng.uniform_array((64,), -0.05, 0.05), 1, 1)
conv = conv2d(rng.uniform_array((1, 64, 128, 128), -1, 1), spec)
report["full"] = {"step": tensor_digest(step), "conv": tensor_digest(conv)}
print(json.dumps(report))
"""


def _run(blas_threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, CONFIG, *map(str, THREADS)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_stage_digests_identical_across_blas_and_pipeline_threads():
    runs = {blas: _run(blas) for blas in (1, 2, 4)}
    reference = runs[1][str(THREADS[0])]
    assert set(reference) == {"backbone", "depth", "crf", "lift", "bev", "heatmap", "detections", "count"}
    assert reference["count"] == 4 * 9 * 6  # four stages of 6 cameras over 9 frames
    for blas, report in runs.items():
        for threads in THREADS:
            assert report[str(threads)] == reference, f"OPENBLAS_NUM_THREADS={blas} --threads {threads}"
        assert report["full"] == runs[1]["full"], f"full-scale kernels at OPENBLAS_NUM_THREADS={blas}"
