"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The tracer wraps public functions of the program at the binding their
caller uses (``bevnext.pipeline.modulate``, ``bevnext.depth_crf.
pairwise_affinity``, ...), so the program itself is never edited. Each
call becomes a span: name, start, duration and the id of its parent
span; self time (duration minus the part covered by child spans) is
derived at the end. A span opened on a thread with an empty stack, i.e.
a camera pass on a pool thread, takes as parent the innermost span open
on the thread that runs the op (``run_pipeline``).
Optional observers attach counts read from a call's arguments and
result (flops of a conv, proposals, valid reference projections).

Everything stays in memory until ``write_jsonl`` at the end of the run.
A binding that no longer exists is reported as absent, and the metrics
that depend on it read 0.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def _conv_flop(args, out) -> dict:
    spec = args[1]
    n, cout, ho, wo = out.shape
    return {"flop": 2 * n * cout * ho * wo * spec.in_channels * spec.kernel_size ** 2}


def _pool_plan(args, out) -> dict:
    h, w, k = out.feat_shape
    return {"entries": int(out.entry_count), "slots": int(out.n_cameras * h * w * k)}


def _nbytes(args, out) -> dict:
    return {"bytes": int(out.nbytes)}


def _heat_max(args, out) -> dict:
    return {"max": float(out.values.max())}


def _proposals(args, out) -> dict:
    return {"count": len(out)}


def _valid_refs(args, out) -> dict:
    return {"valid": int(out.valid.sum()), "attempted": int(out.valid.size)}


# (module, attribute, span name, observer). Wrapping the attribute of the
# calling module replaces exactly the binding its code looks up at call time.
PROGRAM_BINDINGS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("bevnext.pipeline", "toy_backbone", "pipeline.toy_backbone", None),
    ("bevnext.pipeline", "conv2d", "pipeline.conv2d", _conv_flop),
    ("bevnext.pipeline", "modulate", "depth_crf.modulate", None),
    ("bevnext.pipeline", "build_frustum", "view_transform.build_frustum", None),
    ("bevnext.pipeline", "precompute_pool_index", "view_transform.precompute_pool_index", _pool_plan),
    ("bevnext.pipeline", "lift", "view_transform.lift", _nbytes),
    ("bevnext.pipeline", "pool", "view_transform.pool", None),
    ("bevnext.pipeline", "fuse", "res2fusion.fuse", None),
    ("bevnext.pipeline", "post_fuse", "res2fusion.post_fuse", None),
    ("bevnext.pipeline", "compute_heatmap", "object_decoder.compute_heatmap", _heat_max),
    ("bevnext.pipeline", "select_centers", "object_decoder.select_centers", _proposals),
    ("bevnext.pipeline", "lift_references", "object_decoder.lift_references", _valid_refs),
    ("bevnext.pipeline", "depth_embedding", "object_decoder.depth_embedding", None),
    ("bevnext.pipeline", "spatial_cross_attention", "object_decoder.spatial_cross_attention", None),
    ("bevnext.pipeline", "regress", "object_decoder.regress", None),
    ("bevnext.pipeline", "validate_bundle", "weights.validate_bundle", None),
    ("bevnext.pipeline", "backbone_specs", "weights.backbone_specs", None),
    ("bevnext.pipeline", "depth_head_spec", "weights.depth_head_spec", None),
    ("bevnext.pipeline", "fusion_config", "weights.fusion_config", None),
    ("bevnext.pipeline", "post_specs", "weights.post_specs", None),
    ("bevnext.pipeline", "heatmap_spec", "weights.heatmap_spec", None),
    ("bevnext.pipeline", "attn_spec", "weights.attn_spec", None),
    ("bevnext.pipeline", "depth_mlp_spec", "weights.depth_mlp_spec", None),
    ("bevnext.pipeline", "regression_heads", "weights.regression_heads", None),
    ("bevnext.depth_crf", "pairwise_affinity", "depth_crf.pairwise_affinity", None),
    ("bevnext.depth_crf", "mean_field_step", "depth_crf.mean_field_step", None),
    ("bevnext.res2fusion", "conv2d", "res2fusion.conv2d", _conv_flop),
    ("bevnext.object_decoder", "conv2d", "object_decoder.conv2d", _conv_flop),
)

# The public functions the benchmark itself calls, wrapped in its own module.
BENCH_BINDINGS: Tuple[Tuple[str, str], ...] = (
    ("gen_scene", "scene.gen_scene"),
    ("save_scene", "scene.save_scene"),
    ("load_scene", "scene.load_scene"),
    ("init_bundle", "weights.init_bundle"),
    ("load_weights", "weights.load_weights"),
    ("run_pipeline", "pipeline.run_pipeline"),
    ("write_artifacts", "pipeline.write_artifacts"),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: List[dict] = []
        self.absent: List[str] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: Dict[int, int] = {}
        self._installed: List[Tuple[object, str, object]] = []
        self._group: Optional[str] = None
        self._op_stack: list = []
        self._t0 = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        else:  # a pool worker: the caller is the innermost open span of the op's thread
            parent = self._op_stack[-1]["id"] if self._op_stack else None
        with self._lock:
            span_id = next(self._ids)
            thread = self._threads.setdefault(threading.get_ident(), len(self._threads))
        rec = {"id": span_id, "parent": parent, "group": self._group, "thread": thread, "name": name}
        stack.append(rec)
        rec["_t0"] = time.perf_counter()
        return rec

    def _close(self, rec: dict) -> None:
        t1 = time.perf_counter()
        self._stack().pop()
        t0 = rec.pop("_t0")
        rec["start_ms"] = (t0 - self._t0) * 1000.0
        rec["ms"] = (t1 - t0) * 1000.0
        with self._lock:
            self.spans.append(rec)

    @contextmanager
    def root(self, name: str, group: str):
        """Span around one op or set-up repetition; every span inside joins its group."""
        self._group = group
        self._op_stack = self._stack()
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)
            self._op_stack = []
            self._group = None

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                rec.update(observe(args, out))
            return out

        return traced

    def _patch(self, module, attr: str, name: str, observe) -> None:
        if not hasattr(module, attr):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        orig = getattr(module, attr)
        self._installed.append((module, attr, orig))
        setattr(module, attr, self.wrap(name, orig, observe))

    def install(self, bench_module, program=PROGRAM_BINDINGS, bench=BENCH_BINDINGS) -> None:
        """Wrap every binding that exists; record the others as absent."""
        self.absent = []
        for mod_name, attr, name, observe in program:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._patch(module, attr, name, observe)
        for attr, name in bench:
            self._patch(bench_module, attr, name, None)

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._installed):
            setattr(module, attr, orig)
        self._installed.clear()

    def write_jsonl(self, path, summary: dict) -> None:
        with_self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in sorted(self.spans, key=lambda r: r["id"]):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
            fh.write(json.dumps({"summary": summary, "absent": self.absent}, sort_keys=True) + "\n")


# name -> (unit, better); the order is the report order.
PER_LAYER = {
    "scene.gen_scene.ms": ("ms", "lower"),
    "scene.save_scene.ms": ("ms", "lower"),
    "scene.load_scene.ms": ("ms", "lower"),
    "weights.init_bundle.ms": ("ms", "lower"),
    "weights.load_weights.ms": ("ms", "lower"),
    "weights.specs.ms": ("ms", "lower"),
    "kernels.conv2d.ms": ("ms", "lower"),
    "kernels.conv2d.calls": ("count", "lower"),
    "kernels.conv2d.gflop": ("gflop", "lower"),
    "kernels.conv2d.gflop_per_s": ("gflop/s", "higher"),
    "pipeline.toy_backbone.ms": ("ms", "lower"),
    "pipeline.depth_head.ms": ("ms", "lower"),
    "pipeline.camera_passes": ("count", "lower"),
    "pipeline.run_pipeline.self_ms": ("ms", "lower"),
    "pipeline.thread_busy_ratio": ("ratio", "higher"),
    "pipeline.write_artifacts.ms": ("ms", "lower"),
    "depth_crf.modulate.ms": ("ms", "lower"),
    "depth_crf.pairwise_affinity.ms": ("ms", "lower"),
    "depth_crf.pairwise_affinity.calls": ("count", "lower"),
    "depth_crf.mean_field_step.ms": ("ms", "lower"),
    "depth_crf.mean_field_step.calls": ("count", "lower"),
    "view_transform.lift.ms": ("ms", "lower"),
    "view_transform.lift.mb_out": ("MB", "lower"),
    "view_transform.pool.ms": ("ms", "lower"),
    "view_transform.pool.kept_ratio": ("ratio", "higher"),
    "view_transform.plan.ms": ("ms", "lower"),
    "view_transform.plan.calls": ("count", "lower"),
    "res2fusion.fuse.ms": ("ms", "lower"),
    "res2fusion.post_fuse.ms": ("ms", "lower"),
    "object_decoder.proposals": ("count", "higher"),
    "object_decoder.heatmap_max": ("score", "higher"),
    "object_decoder.compute_heatmap.ms": ("ms", "lower"),
    "object_decoder.spatial_cross_attention.ms": ("ms", "lower"),
    "object_decoder.spatial_cross_attention.ms_per_roi": ("ms", "lower"),
    "object_decoder.valid_ref_ratio": ("ratio", "higher"),
    "object_decoder.regress.ms": ("ms", "lower"),
    "object_decoder.depth_embedding.ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

_CONVS = ("pipeline.conv2d", "res2fusion.conv2d", "object_decoder.conv2d")
_SPECS = (
    "weights.validate_bundle", "weights.backbone_specs", "weights.depth_head_spec",
    "weights.fusion_config", "weights.post_specs", "weights.heatmap_spec",
    "weights.attn_spec", "weights.depth_mlp_spec", "weights.regression_heads",
)
_PLAN = ("view_transform.build_frustum", "view_transform.precompute_pool_index")
_CAMERA_STAGES = ("pipeline.toy_backbone", "depth_crf.modulate", "view_transform.lift")


def with_self_times(spans: List[dict]) -> List[dict]:
    """Set each span's self_ms: its duration minus the part its children cover.

    Children on pool threads overlap each other, so the covered part is
    the length of the union of the children's intervals.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start_ms"], s["start_ms"] + s["ms"]))
    for s in spans:
        covered, reach = 0.0, s["start_ms"]
        for start, end in sorted(children.get(s["id"], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        s["self_ms"] = s["ms"] - covered
    return spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _setup_profile(spans: Iterable[dict]) -> Dict[str, float]:
    self_ms = defaultdict(float)
    for s in spans:
        self_ms[s["name"]] += s["self_ms"]
    return {
        name: self_ms[name.rsplit(".", 1)[0]]
        for name in (
            "scene.gen_scene.ms", "scene.save_scene.ms", "scene.load_scene.ms",
            "weights.init_bundle.ms", "weights.load_weights.ms",
        )
    }


def _op_profile(spans: List[dict], threads: int) -> Dict[str, float]:
    by_id = {s["id"]: s for s in spans}
    self_ms, calls, obs = defaultdict(float), defaultdict(int), defaultdict(float)
    heat_max = 0.0
    for s in spans:
        self_ms[s["name"]] += s["self_ms"]
        calls[s["name"]] += 1
        for key in ("flop", "entries", "slots", "bytes", "count", "valid", "attempted"):
            if key in s:
                obs[s["name"] + "." + key] += s[key]
        if "max" in s:
            heat_max = max(heat_max, s["max"])

    def in_backbone(s: dict) -> bool:
        parent = by_id.get(s["parent"])
        return parent is not None and parent["name"] == "pipeline.toy_backbone"

    depth_head = [s for s in spans if s["name"] == "pipeline.conv2d" and not in_backbone(s)]
    camera = [s for s in spans if s["name"] in _CAMERA_STAGES] + depth_head
    loop = camera + [s for s in spans if s["name"] == "view_transform.pool"]
    loop_wall = (
        max(s["start_ms"] + s["ms"] for s in loop) - min(s["start_ms"] for s in camera)
        if camera else 0.0
    )
    conv_ms = sum(self_ms[n] for n in _CONVS)
    gflop = sum(obs[n + ".flop"] for n in _CONVS) / 1e9
    proposals = obs["object_decoder.select_centers.count"]
    sca_ms = self_ms["object_decoder.spatial_cross_attention"]
    frames = calls["view_transform.pool"] or 1
    return {
        "weights.specs.ms": sum(self_ms[n] for n in _SPECS),
        "kernels.conv2d.ms": conv_ms,
        "kernels.conv2d.calls": sum(calls[n] for n in _CONVS),
        "kernels.conv2d.gflop": gflop,
        "kernels.conv2d.gflop_per_s": _ratio(gflop, conv_ms / 1000.0),
        "pipeline.toy_backbone.ms": self_ms["pipeline.toy_backbone"],
        "pipeline.depth_head.ms": sum(s["ms"] for s in depth_head),
        "pipeline.camera_passes": calls["pipeline.toy_backbone"],
        "pipeline.run_pipeline.self_ms": self_ms["pipeline.run_pipeline"],
        "pipeline.thread_busy_ratio": _ratio(sum(s["ms"] for s in camera), threads * loop_wall),
        "pipeline.write_artifacts.ms": self_ms["pipeline.write_artifacts"],
        "depth_crf.modulate.ms": self_ms["depth_crf.modulate"],
        "depth_crf.pairwise_affinity.ms": self_ms["depth_crf.pairwise_affinity"],
        "depth_crf.pairwise_affinity.calls": calls["depth_crf.pairwise_affinity"],
        "depth_crf.mean_field_step.ms": self_ms["depth_crf.mean_field_step"],
        "depth_crf.mean_field_step.calls": calls["depth_crf.mean_field_step"],
        "view_transform.lift.ms": self_ms["view_transform.lift"],
        "view_transform.lift.mb_out": obs["view_transform.lift.bytes"] / 1e6 / frames,
        "view_transform.pool.ms": self_ms["view_transform.pool"],
        "view_transform.pool.kept_ratio": _ratio(
            obs["view_transform.precompute_pool_index.entries"],
            obs["view_transform.precompute_pool_index.slots"],
        ),
        "view_transform.plan.ms": sum(self_ms[n] for n in _PLAN),
        "view_transform.plan.calls": sum(calls[n] for n in _PLAN),
        "res2fusion.fuse.ms": self_ms["res2fusion.fuse"],
        "res2fusion.post_fuse.ms": self_ms["res2fusion.post_fuse"],
        "object_decoder.proposals": proposals,
        "object_decoder.heatmap_max": heat_max,
        "object_decoder.compute_heatmap.ms": self_ms["object_decoder.compute_heatmap"],
        "object_decoder.spatial_cross_attention.ms": sca_ms,
        "object_decoder.spatial_cross_attention.ms_per_roi": _ratio(sca_ms, proposals),
        "object_decoder.valid_ref_ratio": _ratio(
            obs["object_decoder.lift_references.valid"],
            obs["object_decoder.lift_references.attempted"],
        ),
        "object_decoder.regress.ms": self_ms["object_decoder.regress"],
        "object_decoder.depth_embedding.ms": self_ms["object_decoder.depth_embedding"],
    }


def layer_metrics(tracer: Tracer, threads: int, overhead_pct: float) -> Dict[str, float]:
    """Median over set-up repetitions and over traced ops of each per-layer metric."""
    groups: Dict[str, List[dict]] = defaultdict(list)
    for s in with_self_times(tracer.spans):
        if s["group"] is not None:
            groups[s["group"]].append(s)
    setups = [_setup_profile(v) for k, v in groups.items() if k.startswith("setup")]
    ops = [_op_profile(v, threads) for k, v in groups.items() if k.startswith("op")]
    out = {}
    for profiles in (setups, ops):
        for name in profiles[0] if profiles else ():
            out[name] = statistics.median(p[name] for p in profiles)
    out["trace.overhead_pct"] = overhead_pct
    return {name: float(out.get(name, 0.0)) for name in PER_LAYER}
