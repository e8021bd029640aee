"""CLI tests: subcommand behavior, artifacts, and exit-code mapping."""

import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from bevnext.bvnx import save_tensor
from bevnext.config import SceneConfig, load_config
from bevnext.object_decoder import parse_detections
from bevnext.ppm import load_ppm
from bevnext.scene import load_scene
from bevnext.weights import expected_shapes, load_weights, save_weights

FAST_CFG = "scene.seed = 3\nscene.frames = 2\nscene.objects.min = 1\nscene.objects.max = 2\n"


def cli(*args, cwd=None):
    """Run the CLI in a subprocess; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "bevnext", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def tree_bytes(root) -> dict:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Scene + weights generated once; read-only for all CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "fast.cfg"
    cfg_path.write_text(FAST_CFG)
    code, _, err = cli("generate", "--config", str(cfg_path), "--out", str(root / "scene"))
    assert code == 0, err
    code, _, err = cli("init-weights", "--config", str(cfg_path), "--out", str(root / "w.bvnx"))
    assert code == 0, err
    return root


# ---------------------------------------------------------------- generate


def test_generate_writes_expected_layout(workdir):
    scene_dir = workdir / "scene"
    assert (scene_dir / "scene.txt").exists()
    for t in range(2):
        fdir = scene_dir / f"frame_{t:03d}"
        assert sorted(p.name for p in fdir.iterdir()) == sorted(
            [f"cam_{i}.ppm" for i in range(6)] + ["boxes.txt", "points.bvnx"]
        )
    scene = load_scene(scene_dir)
    assert scene.k == 2 and scene.n_cameras == 6


def test_generate_is_byte_reproducible(workdir, tmp_path):
    cfg_path = workdir / "fast.cfg"
    code, _, _ = cli("generate", "--config", str(cfg_path), "--out", str(tmp_path / "again"))
    assert code == 0
    a = tree_bytes(workdir / "scene")
    b = tree_bytes(tmp_path / "again")
    assert a.keys() == b.keys()
    assert all(a[k] == b[k] for k in a)


# ---------------------------------------------------------------- init-weights


def test_init_weights_bundle_validates(workdir):
    cfg = SceneConfig(seed=3, frames=2, objects_min=1, objects_max=2)
    bundle = load_weights(workdir / "w.bvnx", cfg)
    assert set(bundle.tensors) == set(expected_shapes(cfg))


def test_init_weights_seed_changes_bytes(workdir, tmp_path):
    cfg_path = workdir / "fast.cfg"
    code, _, _ = cli(
        "init-weights", "--config", str(cfg_path), "--out", str(tmp_path / "w2.bvnx"),
        "--seed", "99",
    )
    assert code == 0
    assert (tmp_path / "w2.bvnx").read_bytes() != (workdir / "w.bvnx").read_bytes()


# ---------------------------------------------------------------- run


def test_run_writes_parsable_detections(workdir, tmp_path):
    code, out, err = cli(
        "run", "--config", str(workdir / "fast.cfg"), "--weights", str(workdir / "w.bvnx"),
        "--scene", str(workdir / "scene"), "--out", str(tmp_path / "run"),
    )
    assert code == 0, err
    assert "detections" in out
    parse_detections((tmp_path / "run" / "detections.txt").read_text())


def test_run_dump_flags_write_ppms(workdir, tmp_path):
    code, _, err = cli(
        "run", "--config", str(workdir / "fast.cfg"), "--weights", str(workdir / "w.bvnx"),
        "--scene", str(workdir / "scene"), "--out", str(tmp_path / "run"),
        "--dump-depth", "--dump-heatmap",
    )
    assert code == 0, err
    assert load_ppm(tmp_path / "run" / "depth_cam5.ppm").shape == (8, 22, 3)
    assert load_ppm(tmp_path / "run" / "heatmap.ppm").shape == (32, 32, 3)


def test_run_threads_do_not_change_artifacts(workdir, tmp_path):
    outs = []
    for tag, threads in (("t1", "1"), ("t2", "3")):
        code, _, err = cli(
            "run", "--config", str(workdir / "fast.cfg"), "--weights", str(workdir / "w.bvnx"),
            "--scene", str(workdir / "scene"), "--out", str(tmp_path / tag),
            "--threads", threads, "--dump-heatmap",
        )
        assert code == 0, err
        outs.append(tree_bytes(tmp_path / tag))
    assert outs[0] == outs[1]


def test_run_emitting_detections_is_byte_identical_across_threads(tmp_path):
    """desk.cfg with every cell above threshold, so the decoder's second stage runs."""
    desk = open(os.path.join(os.path.dirname(__file__), "..", "configs", "desk.cfg"), encoding="utf-8").read()
    assert "decoder.threshold = 0.1\n" in desk
    cfg_path = tmp_path / "desk.cfg"
    cfg_path.write_text(desk.replace("decoder.threshold = 0.1\n", "decoder.threshold = 0.0\n"))
    top_n = load_config(cfg_path).top_n
    code, _, err = cli("generate", "--config", str(cfg_path), "--out", str(tmp_path / "scene"))
    assert code == 0, err
    code, _, err = cli("init-weights", "--config", str(cfg_path), "--out", str(tmp_path / "w.bvnx"))
    assert code == 0, err
    texts = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"run_t{threads}"
        code, _, err = cli(
            "run", "--config", str(cfg_path), "--weights", str(tmp_path / "w.bvnx"),
            "--scene", str(tmp_path / "scene"), "--out", str(out_dir), "--threads", threads,
        )
        assert code == 0, err
        texts.append((out_dir / "detections.txt").read_bytes())
    assert texts[0] == texts[1]
    assert len(texts[0].splitlines()) == top_n
    assert len(parse_detections(texts[0].decode())) == top_n


# ---------------------------------------------------------------- demo


def test_crf_demo_reports_shrinking_spread(tmp_path):
    code, out, err = cli("crf-demo", "--seed", "1", "--out", str(tmp_path / "demo"))
    assert code == 0, err
    lines = [l for l in out.splitlines() if l.startswith("region")]
    assert len(lines) == 2
    for line in lines:
        before, after = line.split("spread")[1].split("->")
        assert float(after.split()[-1]) <= float(before.split()[-1])
    assert (tmp_path / "demo" / "crf_before.ppm").exists()
    assert (tmp_path / "demo" / "crf_after.ppm").exists()


@pytest.mark.parametrize("iters", ["65", "-1"])
def test_crf_demo_exit_3_on_iters_out_of_range(iters):
    code, _, err = cli("crf-demo", "--iters", iters)
    assert code == 3
    assert "iters" in err


# ---------------------------------------------------------------- exit codes


def test_exit_2_on_missing_config(tmp_path):
    code, _, err = cli("generate", "--config", str(tmp_path / "no.cfg"), "--out", str(tmp_path / "s"))
    assert code == 2
    assert "error:" in err


def test_exit_2_on_malformed_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    code, _, err = cli("generate", "--config", str(bad), "--out", str(tmp_path / "s"))
    assert code == 2
    assert "key = value" in err


def test_exit_2_on_unknown_config_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus.key = 1\n")
    code, _, err = cli("generate", "--config", str(bad), "--out", str(tmp_path / "s"))
    assert code == 2
    assert "bogus.key" in err


@pytest.mark.parametrize("line", ["camera.focal = inf", "decoder.heights = 0.0,nan"])
def test_exit_2_on_non_finite_config_number(workdir, tmp_path, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(FAST_CFG + line + "\n")
    code, _, err = cli(
        "run", "--config", str(bad), "--weights", str(workdir / "w.bvnx"),
        "--scene", str(workdir / "scene"), "--out", str(tmp_path / "run"),
    )
    assert code == 2
    assert line.split(" =")[0] + ": expected a finite number" in err


def test_exit_2_on_corrupt_weights(workdir, tmp_path):
    bad = tmp_path / "bad.bvnx"
    bad.write_bytes(b"XXXX" + bytes(32))
    code, _, err = cli(
        "run", "--config", str(workdir / "fast.cfg"), "--weights", str(bad),
        "--scene", str(workdir / "scene"), "--out", str(tmp_path / "r"),
    )
    assert code == 2
    assert "magic" in err


def test_exit_2_on_truncated_weights(workdir, tmp_path):
    bad = tmp_path / "bad.bvnx"
    data = (workdir / "w.bvnx").read_bytes()
    bad.write_bytes(data[: len(data) - 5])
    code, _, err = cli(
        "run", "--config", str(workdir / "fast.cfg"), "--weights", str(bad),
        "--scene", str(workdir / "scene"), "--out", str(tmp_path / "r"),
    )
    assert code == 2, err
    assert f"{bad}: truncated file at offset" in err and "Traceback" not in err


def test_exit_2_on_weights_with_overflowing_dims(workdir, tmp_path):
    bad = tmp_path / "bad.bvnx"
    dims = struct.pack("<4I", *(65536,) * 4)
    bad.write_bytes(b"BVNB" + struct.pack("<HIH", 1, 1, 1) + b"w" + b"BVNX" + struct.pack("<HH", 1, 4) + dims)
    code, _, err = cli(
        "run", "--config", str(workdir / "fast.cfg"), "--weights", str(bad),
        "--scene", str(workdir / "scene"), "--out", str(tmp_path / "r"),
    )
    assert code == 2, err
    assert "truncated" in err and "Traceback" not in err


@pytest.mark.parametrize("site", ["config", "scene.txt", "boxes.txt", "weights"])
def test_exit_2_on_non_utf8_input(workdir, tmp_path, site):
    cfg, weights, scene = workdir / "fast.cfg", workdir / "w.bvnx", tmp_path / "scene"
    shutil.copytree(workdir / "scene", scene)
    if site == "config":
        bad = cfg = tmp_path / "bad.cfg"
        bad.write_bytes(FAST_CFG.encode() + b"# caf\xe9\n")
    elif site == "weights":
        bad = weights = tmp_path / "bad.bvnx"
        data = bytearray((workdir / "w.bvnx").read_bytes())
        data[12] = 0xFF  # first byte of the first entry name: magic, version, count, name length
        bad.write_bytes(bytes(data))
    else:
        bad = scene / site if site == "scene.txt" else scene / "frame_001" / site
        bad.write_bytes(bad.read_bytes() + b"\xff\xfe\n")
    code, _, err = cli(
        "run", "--config", str(cfg), "--weights", str(weights),
        "--scene", str(scene), "--out", str(tmp_path / "r"),
    )
    assert code == 2, err
    assert str(bad) in err
    assert "UTF-8" in err
    assert "Traceback" not in err
    if site == "weights":
        assert "offset 12" in err


@pytest.mark.parametrize(
    "line, cause",
    [
        ("0 nan 0.0 0.4 1.0 1.0 0.8 0.0 0.0 0.0", "x must be finite"),
        ("0 0.0 inf 0.4 1.0 1.0 0.8 0.0 0.0 0.0", "y must be finite"),
        ("0 0.0 0.0 0.4 -1.0 1.0 0.8 0.0 0.0 0.0", "size must be strictly positive"),
    ],
)
def test_exit_2_on_rejected_scene_box(workdir, tmp_path, line, cause):
    scene = tmp_path / "scene"
    shutil.copytree(workdir / "scene", scene)
    bad = scene / "frame_001" / "boxes.txt"
    text = bad.read_text()
    bad.write_text(text + line + "\n")
    code, _, err = cli(
        "run", "--config", str(workdir / "fast.cfg"), "--weights", str(workdir / "w.bvnx"),
        "--scene", str(scene), "--out", str(tmp_path / "r"),
    )
    assert code == 2, err
    assert f"{bad}: box line {len(text.splitlines()) + 1}: GroundTruthBox: {cause}" in err
    assert "Traceback" not in err


def test_exit_2_on_missing_scene(workdir, tmp_path):
    code, _, err = cli(
        "run", "--config", str(workdir / "fast.cfg"), "--weights", str(workdir / "w.bvnx"),
        "--scene", str(tmp_path / "absent"), "--out", str(tmp_path / "r"),
    )
    assert code == 2
    assert "scene metadata" in err


def test_exit_2_on_raster_dims_that_disagree_with_scene_metadata(workdir, tmp_path):
    scene = tmp_path / "scene"
    shutil.copytree(workdir / "scene", scene)
    meta = scene / "scene.txt"
    meta.write_text(meta.read_text().replace("camera.image_h = 64", "camera.image_h = 8"))
    code, _, err = cli(
        "run", "--config", str(workdir / "fast.cfg"), "--weights", str(workdir / "w.bvnx"),
        "--scene", str(scene), "--out", str(tmp_path / "r"),
    )
    assert code == 2, err
    assert f"{scene}/frame_000/cam_0.ppm: raster dims (64, 176) != metadata 8x176" in err
    assert "Traceback" not in err


def test_exit_2_on_point_cloud_that_is_not_p_by_3(workdir, tmp_path):
    scene = tmp_path / "scene"
    shutil.copytree(workdir / "scene", scene)
    save_tensor(scene / "frame_001" / "points.bvnx", np.zeros((4, 2), dtype=np.float32))
    code, _, err = cli(
        "run", "--config", str(workdir / "fast.cfg"), "--weights", str(workdir / "w.bvnx"),
        "--scene", str(scene), "--out", str(tmp_path / "r"),
    )
    assert code == 2, err
    assert f"{scene}/frame_001/points.bvnx: points must be [P, 3], got (4, 2)" in err
    assert "Traceback" not in err


def test_exit_3_on_scene_config_shape_mismatch(workdir, tmp_path):
    other = tmp_path / "other.cfg"
    other.write_text(FAST_CFG + "camera.image_h = 128\n")
    code, _, err = cli(
        "run", "--config", str(other), "--weights", str(workdir / "w.bvnx"),
        "--scene", str(workdir / "scene"), "--out", str(tmp_path / "r"),
    )
    assert code == 3
    assert "rasters" in err


def test_run_floors_a_size_that_would_print_as_zero(workdir, tmp_path):
    """A size head that decodes 2e-9 m writes 1e-6 m, which detections.txt reads back, and exits 0."""
    cfg_path = tmp_path / "all.cfg"
    cfg_path.write_text(FAST_CFG + "decoder.threshold = 0.0\n")
    bundle = load_weights(workdir / "w.bvnx", load_config(cfg_path))
    bundle.tensors["decoder.head.size.b"][:] = -20.0  # exp(-20) is 2e-9
    save_weights(bundle, tmp_path / "tiny.bvnx")
    code, _, err = cli(
        "run", "--config", str(cfg_path), "--weights", str(tmp_path / "tiny.bvnx"),
        "--scene", str(workdir / "scene"), "--out", str(tmp_path / "r"),
    )
    assert code == 0, err
    dets = parse_detections((tmp_path / "r" / "detections.txt").read_text())
    assert len(dets) == load_config(cfg_path).top_n
    assert {(d.l, d.w, d.h) for d in dets} == {(1e-6, 1e-6, 1e-6)}


def test_exit_2_on_unknown_subcommand():
    code, _, _ = cli("frobnicate")
    assert code == 2
