"""Tests of the benchmark itself, at a tiny scene size.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bevnext.pipeline
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = tuple(workloads.WORKLOADS)
TINY = dict(
    image_h=32, image_w=64, camera_count=2, depth_bins=4, depth_max=5.0,
    bev_grid=8, bev_extent=4.0, channels=4, frames=4, crf_iters=2, objects_max=2,
)


def tiny(name):
    wl = workloads.WORKLOADS[name]
    wl = dataclasses.replace(
        wl,
        scenes=min(wl.scenes, 2),
        setup_reps=min(wl.setup_reps, 2),
        stream_steps=min(wl.stream_steps, 2),
        min_ops=2,
    )
    return wl, dataclasses.replace(workloads.load_workload_config(wl), **TINY)


def run(name, tmp_path, trace=False):
    wl, cfg = tiny(name)
    return workloads.run_workload(wl, seed=3, seconds=0, trace=trace, work=tmp_path / "w", cfg=cfg)


@pytest.mark.parametrize("name", NAMES)
def test_workload_completes_at_tiny_size(name, tmp_path):
    res = run(name, tmp_path)
    assert res.correct, res.errors
    assert res.failed == 0 and res.attempted >= 2
    assert list(res.metrics) == list(workloads.END_TO_END)
    assert all(v > 0 for v in res.metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer(name, tmp_path):
    res = run(name, tmp_path, trace=True)
    # traced and untraced ops alternate; each is checked against its warm-up digest
    assert res.correct, res.errors
    assert res.attempted >= 2 and res.attempted % 2 == 0
    assert res.absent == []
    assert list(res.metrics) == list(tracing.PER_LAYER)
    cells = TINY["bev_grid"] ** 2
    m = res.metrics
    assert m["object_decoder.proposals"] == (cells if name == "desk-stream" else 0)
    passes = TINY["frames"] * TINY["camera_count"]
    assert m["depth_crf.pairwise_affinity.calls"] == passes
    assert m["pipeline.camera_passes"] == passes
    assert m["depth_crf.mean_field_step.calls"] == passes * TINY["crf_iters"]
    assert m["view_transform.plan.calls"] == TINY["camera_count"] + 1
    assert 0 < m["view_transform.pool.kept_ratio"] <= 1
    assert m["kernels.conv2d.gflop"] > 0 and m["scene.gen_scene.ms"] > 0
    assert (tmp_path / f"trace-{name}-seed3.jsonl").is_file()


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_output_digest_bit_identical(name, tmp_path):
    wl, cfg = tiny(name)
    scenes, bundle, _, errors = workloads.setup(wl, cfg, 5, tmp_path, None)
    assert errors == []
    inp = workloads.make_inputs(wl, cfg, scenes, tmp_path)[0]
    _, plain, error = workloads.run_op(wl, inp, cfg, bundle, wl.threads)
    assert error is None
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        with tracer.root("bench.op", "op-0"):
            _, traced, error = workloads.run_op(wl, inp, cfg, bundle, wl.threads)
    finally:
        tracer.uninstall()
    assert error is None and traced == plain
    assert {s["name"] for s in tracer.spans} >= {"pipeline.run_pipeline", "depth_crf.modulate"}


def test_setup_takes_the_object_counts_in_turn(tmp_path):
    desk = workloads.load_workload_config(workloads.WORKLOADS["desk-clip"])
    full = workloads.load_workload_config(workloads.WORKLOADS["full-clip"])
    assert workloads.object_counts(desk) == [2, 3, 1, 4]
    assert workloads.object_counts(full) == [5, 4, 6, 3, 7, 2, 8]
    wl, cfg = tiny("desk-clip")  # objects 1-2
    scenes, _, _, errors = workloads.setup(wl, cfg, 5, tmp_path, None)
    assert errors == []
    assert [len(s.frames[0].boxes) for s in scenes] == [1, 2]


def test_every_wrapped_name_exists_and_uninstall_restores():
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        assert tracer.absent == []
        assert workloads.run_pipeline is not bevnext.pipeline.run_pipeline
    finally:
        tracer.uninstall()
    assert workloads.run_pipeline is bevnext.pipeline.run_pipeline
    assert bevnext.pipeline.modulate.__module__ == "bevnext.depth_crf"


def test_absent_binding_is_reported_not_fatal():
    extra = (
        ("bevnext.pipeline", "no_such_stage", "pipeline.no_such_stage", None),
        ("bevnext.no_such_module", "fn", "no_such_module.fn", None),
    )
    tracer = tracing.Tracer()
    tracer.install(workloads, program=tracing.PROGRAM_BINDINGS + extra)
    tracer.uninstall()
    assert tracer.absent == ["bevnext.pipeline.no_such_stage", "bevnext.no_such_module.fn"]
    metrics = tracing.layer_metrics(tracer, threads=1, overhead_pct=0.0)
    assert list(metrics) == list(tracing.PER_LAYER)
    assert set(metrics.values()) == {0.0}


def _corrupt_bev(result):
    result.bev.data[0, 0, 0] = np.nan


def _shift_bev(result):
    result.bev.data[0, 0, 0] += 1.0


def _raise(result):
    raise RuntimeError("injected failure")


@pytest.mark.parametrize("fault", [_corrupt_bev, _shift_bev, _raise])
def test_injected_bad_output_is_counted(fault, tmp_path, monkeypatch):
    wl, cfg = tiny("desk-clip")
    real = workloads.run_pipeline
    calls = []

    def faulty(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == wl.scenes + 1:  # the first timed op, after one warm-up per scene
            fault(result)
        return result

    monkeypatch.setattr(workloads, "run_pipeline", faulty)
    res = workloads.run_workload(wl, seed=3, seconds=0, trace=False, work=tmp_path, cfg=cfg)
    assert res.failed == 1 and not res.correct
    assert res.attempted == wl.min_ops


def test_malformed_detections_file_is_counted(tmp_path, monkeypatch):
    wl, cfg = tiny("full-clip")
    real = workloads.write_artifacts
    calls = []

    def faulty(result, out_dir, *args):
        paths = real(result, out_dir, *args)
        calls.append(1)
        if len(calls) > wl.scenes:
            with open(paths[0], "a", encoding="utf-8") as fh:
                fh.write("0 1.0 2.0\n")
        return paths

    monkeypatch.setattr(workloads, "write_artifacts", faulty)
    res = workloads.run_workload(wl, seed=3, seconds=0, trace=False, work=tmp_path, cfg=cfg)
    assert res.failed == res.attempted == wl.min_ops


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", workloads.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == [
            (name, unit, better) for name, (unit, better) in table.items()
        ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "desk-clip",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    child = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
