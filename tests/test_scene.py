"""Scene generation tests: determinism, kinematics, rendering geometry, I/O."""

import dataclasses
import hashlib
import itertools
import os
import shutil
import tracemalloc

import numpy as np
import pytest

from bevnext.config import BOX_DTYPE, FRAME_DT, SceneConfig, load_config
from bevnext import scene as scene_module
from bevnext.errors import FormatError, ShapeError
from bevnext.object_decoder import DETECTION_DTYPE
from bevnext.scene import (
    GROUND_POINTS,
    OBJECT_POINTS,
    PALETTE,
    SceneFrame,
    _center_size,
    _ray_directions,
    _slab_interval,
    _yaw_matrix,
    background_image,
    format_boxes,
    gen_scene,
    load_scene,
    parse_boxes,
    save_scene,
)
from bevnext.view_transform import CameraModel
from factories import render_depth, render_view

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


# ---------------------------------------------------------------- helpers


def scene_digest(scene) -> bytes:
    """Concatenated raw bytes of every raster, box list, and point cloud."""
    parts = []
    for frame in scene.frames:
        for img in frame.images:
            parts.append(img.tobytes())
        parts.append(format_boxes(frame.boxes).encode())
        parts.append(frame.points.tobytes())
    return b"".join(parts)


def tree_bytes(root) -> dict:
    """Relative path -> file bytes for a whole directory tree."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


def tree_sha256(root) -> str:
    """sha256 over (relative path, length, bytes) of every file, paths sorted."""
    h = hashlib.sha256()
    tree = tree_bytes(root)
    for rel in sorted(tree):
        h.update(rel.encode() + b"\0" + len(tree[rel]).to_bytes(8, "little") + tree[rel])
    return h.hexdigest()


def boxes_of(*rows):
    """An [N] BOX_DTYPE array of (cls, x, y, z, l, w, h, yaw, vx, vy) rows."""
    return np.array(list(rows), BOX_DTYPE)


def yaw_rotate(yaw, p):
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([c * p[0] - s * p[1], s * p[0] + c * p[1], p[2]])


# ---------------------------------------------------------------- kinematics


def test_generated_boxes_obey_constant_velocity():
    scene = gen_scene(SceneConfig(seed=11, frames=5))
    base = scene.frames[0].boxes
    still = ["cls", "z", "l", "w", "h", "yaw", "vx", "vy"]
    assert len(base) > 0
    for t, frame in enumerate(scene.frames):
        for b0, bt in zip(base, frame.boxes):
            assert bt["x"] == b0["x"] + b0["vx"] * (t * FRAME_DT)
            assert bt["y"] == b0["y"] + b0["vy"] * (t * FRAME_DT)
            assert bt[still] == b0[still]


def test_box_centers_stay_inside_extent_every_frame():
    for seed in range(10):
        cfg = SceneConfig(seed=seed, frames=9, objects_min=2, objects_max=4)
        scene = gen_scene(cfg)
        for frame in scene.frames:
            assert (np.abs(frame.boxes["x"]) < cfg.bev_extent).all()
            assert (np.abs(frame.boxes["y"]) < cfg.bev_extent).all()


# ---------------------------------------------------------------- determinism


def test_same_seed_gives_byte_identical_scenes():
    cfg = SceneConfig(seed=7, frames=3)
    assert scene_digest(gen_scene(cfg)) == scene_digest(gen_scene(cfg))


def test_scenes_and_frames_compare_by_identity():
    """`==` on scenes and frames is identity and never compares their arrays (which would raise)."""
    cfg = SceneConfig(seed=7, frames=2)
    a, b = gen_scene(cfg), gen_scene(cfg)
    assert a == a and a.frames[0] == a.frames[0]
    assert a != b and a.frames[0] != b.frames[0]
    assert scene_digest(a) == scene_digest(b)  # equal contents, still two scenes


def test_different_seeds_differ():
    a = gen_scene(SceneConfig(seed=1, frames=2))
    b = gen_scene(SceneConfig(seed=2, frames=2))
    assert scene_digest(a) != scene_digest(b)


def test_saved_scene_bytes_are_reproducible(tmp_path):
    cfg = SceneConfig(seed=7, frames=2)
    save_scene(gen_scene(cfg), tmp_path / "a")
    save_scene(gen_scene(cfg), tmp_path / "b")
    a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    assert all(a[k] == b[k] for k in a)


# sha256 of the save_scene tree (see tree_sha256) for each preset and seed,
# recorded from the whole-image renderer before rectangle clipping.
SCENE_TREE_SHA256 = {
    ("desk", 0): "29b4a6ddb6f54d7fcfda07cbf7fe8332101468e96617cd4a6900d9f8e3ace896",
    ("desk", 1): "7d7ec1317c3c5af028a661acbad367035617a2aaf75b4c17e3ccc27941271abd",
    ("desk", 2): "e49cd789513ad5462dff6d56b2a6d34b042689cc7e4e586825894d3f1ee80841",
    ("desk", 3): "2627f21e2b15da8e06b5c8f2d408dbac8501895dae8237a69c88efd978324047",
    ("desk", 4): "2acaeb68df58e1956f76b9d597f62c4cee439a3a46f08344853d2a3ad34b8973",
    ("desk", 5): "d57585c345d01b9fc3a0d04e7be3a7a6f0518247f09fecbf81255ee677d36ac9",
    ("desk", 6): "9f1e63312d5f5a75ea7152487e609c5ba0492d620d8ffd63c68787112f639e45",
    ("desk", 7): "2a81148da9504ad6513a76d127eb5840515846dc86ed1582e1252419bcee68c9",
    ("desk", 8): "421f5528bcc9aae141a4e92123e5e89714d2055b5b33d4a02919ead2535adebb",
    ("desk", 9): "40aef33de4679dabe3d5b0f870b301419f8e45ebd5b87830254a45658217528d",
    ("full", 0): "a333d2df45109f1d3ca4b38cdab664d613c850789b18befee42e2efb5c5866ce",
    ("full", 1): "63deb7fecc9681542f0049a2f689a6ca0ae59e205d6c52ef4be4d453c8b78f57",
    ("full", 2): "cfc7b2f32059ddb2f7c4b701efd8a5b764768baadcc18819f56fcd8269d12e0d",
}


@pytest.mark.parametrize("preset, seed", sorted(SCENE_TREE_SHA256))
def test_saved_scene_tree_is_pinned(tmp_path, preset, seed):
    cfg = dataclasses.replace(load_config(os.path.join(CONFIGS, f"{preset}.cfg")), seed=seed)
    save_scene(gen_scene(cfg), tmp_path / "s")
    digest = tree_sha256(tmp_path / "s")
    shutil.rmtree(tmp_path / "s")  # a full scene is 29 MB; pytest keeps tmp dirs
    assert digest == SCENE_TREE_SHA256[(preset, seed)]


def test_gen_scene_holds_one_cameras_ray_directions_at_a_time(monkeypatch):
    """full.cfg: whenever a camera's ray directions are built, no other camera's are live.

    At each call, what tracemalloc sees beyond the views already rendered
    (boxes, points, the one direction buffer being rewritten) stays under
    two cameras' [H, W, 3] float64 directions, 8.7 MB. Building every
    camera's directions before rendering held five (21.6 MB) at the last
    call.
    """
    cfg = load_config(os.path.join(CONFIGS, "full.cfg"))
    view_bytes = cfg.image_h * cfg.image_w * 3
    ray_directions, render = scene_module._ray_directions, scene_module._render
    held, rendered = [], []

    def ray_directions_spy(camera, image_h, image_w, out=None):
        held.append(tracemalloc.get_traced_memory()[0] - baseline - len(rendered) * view_bytes)
        return ray_directions(camera, image_h, image_w, out)

    def render_spy(camera, dirs, boxes):
        rendered.append(None)
        return render(camera, dirs, boxes)

    monkeypatch.setattr(scene_module, "_ray_directions", ray_directions_spy)
    monkeypatch.setattr(scene_module, "_render", render_spy)
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        gen_scene(cfg)
    finally:
        tracemalloc.stop()
    assert len(held) == cfg.camera_count
    assert max(held) < 2 * 8 * view_bytes, held


# ---------------------------------------------------------------- empty scenes


def test_zero_object_scene_is_pure_background():
    cfg = SceneConfig(objects_min=0, objects_max=0, frames=2)
    scene = gen_scene(cfg)
    bg = background_image(cfg.image_h, cfg.image_w)
    for frame in scene.frames:
        assert frame.boxes.shape == (0,) and frame.boxes.dtype == BOX_DTYPE
        for img in frame.images:
            assert np.array_equal(img, bg)
        assert frame.points.shape == (GROUND_POINTS, 3)


def test_point_count_tracks_object_count():
    scene = gen_scene(SceneConfig(seed=3, objects_min=2, objects_max=2, frames=1))
    assert scene.frames[0].points.shape == (GROUND_POINTS + 2 * OBJECT_POINTS, 3)


# ---------------------------------------------------------------- rendering


def test_background_gradient_corners():
    bg = background_image(64, 176)
    assert bg[0, 0].tolist() == [0, 0, 96]
    assert bg[63, 0].tolist() == [255, 0, 96]
    assert bg[0, 175].tolist() == [0, 255, 96]


def test_render_box_ahead_hits_predicted_pixel():
    """A box straight ahead of camera 0 paints its color at the predicted pixel."""
    cfg = SceneConfig()
    cam = cfg.rig()[0]  # at (0.5, 0, 0.9) looking along +x
    img = render_view(cam, boxes_of((1, 4.0, 0.0, 0.4, 1.0, 1.0, 0.8, 0.0, 0.0, 0.0)), cfg.image_h, cfg.image_w)
    # front face at x=3.5: camera depth 3.0, center offset 0.5 down
    v = int(cfg.image_h / 2 + cfg.focal * 0.5 / 3.0)
    u = int(cfg.image_w / 2)
    assert img[v, u].tolist() == list(PALETTE[1])


def test_render_depth_buffer_prefers_nearer_box():
    cfg = SceneConfig()
    cam = cfg.rig()[0]
    far = (0, 6.0, 0.0, 0.4, 1.0, 2.0, 0.8, 0.0, 0.0, 0.0)
    near = (1, 3.0, 0.0, 0.4, 1.0, 2.0, 0.8, 0.0, 0.0, 0.0)
    u, v = int(cfg.image_w / 2), int(cfg.image_h / 2 + 4)
    img_far = render_view(cam, boxes_of(far), cfg.image_h, cfg.image_w)
    assert img_far[v, u].tolist() == list(PALETTE[0])
    for order in (boxes_of(far, near), boxes_of(near, far)):
        img = render_view(cam, order, cfg.image_h, cfg.image_w)
        assert img[v, u].tolist() == list(PALETTE[1])


def test_render_box_behind_camera_is_invisible():
    cfg = SceneConfig()
    cam = cfg.rig()[0]  # looks along +x, so -x is behind
    img = render_view(cam, boxes_of((0, -4.0, 0.0, 0.4, 1.0, 1.0, 0.8, 0.0, 0.0, 0.0)), cfg.image_h, cfg.image_w)
    assert np.array_equal(img, background_image(cfg.image_h, cfg.image_w))


def test_render_respects_yaw():
    """A long thin box rotated 90 degrees swaps its apparent width."""
    cfg = SceneConfig()
    cam = cfg.rig()[0]
    long_across = boxes_of((0, 4.0, 0.0, 0.4, 0.4, 3.0, 0.8, 0.0, 0.0, 0.0))
    long_along = boxes_of((0, 4.0, 0.0, 0.4, 0.4, 3.0, 0.8, np.pi / 2, 0.0, 0.0))
    bg = background_image(cfg.image_h, cfg.image_w)
    count_across = (render_view(cam, long_across, 64, 176) != bg).any(axis=2).sum()
    count_along = (render_view(cam, long_along, 64, 176) != bg).any(axis=2).sum()
    assert count_across > count_along > 0


def test_render_depth_hits_exactly_the_painted_pixels():
    """_render's two outputs agree: the finite pixels of its depth buffer are
    exactly the non-background pixels of its image, and every depth is > 0,
    on every camera of desk seeds 0-9, frame 0 (the image gen_scene kept)."""
    hits = 0
    for seed in range(10):
        cfg = SceneConfig(seed=seed, frames=1)
        frame = gen_scene(cfg).frames[0]
        bg = background_image(cfg.image_h, cfg.image_w)
        for ci, (cam, img) in enumerate(zip(cfg.rig(), frame.images)):
            depth = render_depth(cam, frame.boxes, cfg.image_h, cfg.image_w)
            hit = np.isfinite(depth)
            assert np.array_equal(hit, (img != bg).any(axis=2)), f"seed {seed} camera {ci}"
            assert (depth[hit] > 0).all()
            hits += int(hit.sum())
    assert hits > 0


def test_generated_objects_are_visible_somewhere():
    for seed in (0, 5, 9):
        cfg = SceneConfig(seed=seed, objects_min=1, objects_max=3, frames=1)
        scene = gen_scene(cfg)
        bg = background_image(cfg.image_h, cfg.image_w)
        touched = sum(
            int((img != bg).any()) for img in scene.frames[0].images
        )
        assert touched >= 1


# ---------------------------------------------------------------- clipped rendering


def full_image_render(camera, boxes, image_h, image_w):
    """Oracle: the renderer before rectangle clipping, every box over every pixel."""
    image = background_image(image_h, image_w).copy()
    if not len(boxes):
        return image
    us = (np.arange(image_w) + 0.5 - camera.cx) / camera.fx
    vs = (np.arange(image_h) + 0.5 - camera.cy) / camera.fy
    dirs_cam = np.empty((image_h, image_w, 3), dtype=np.float64)
    dirs_cam[:, :, 0] = us[None, :]
    dirs_cam[:, :, 1] = vs[:, None]
    dirs_cam[:, :, 2] = 1.0
    dirs_ego = np.einsum("hwj,ij->hwi", dirs_cam, camera.rotation)
    depth = np.full((image_h, image_w), np.inf)
    for box in boxes:
        center, size = _center_size(box)
        rot = _yaw_matrix(box["yaw"])
        origin_box = rot.T @ (camera.translation - center)
        dirs_box = np.einsum("ij,hwj->hwi", rot.T, dirs_ego)
        t_enter = np.full((image_h, image_w), -np.inf)
        t_exit = np.full((image_h, image_w), np.inf)
        for axis in range(3):
            near, far = _slab_interval(
                origin_box[axis], dirs_box[:, :, axis], size[axis] / 2.0
            )
            t_enter = np.maximum(t_enter, near)
            t_exit = np.minimum(t_exit, far)
        hit = (t_enter <= t_exit) & (t_enter > 1e-9)
        closer = hit & (t_enter < depth)
        depth[closer] = t_enter[closer]
        image[closer] = PALETTE[box["cls"] % len(PALETTE)]
    return image


DESK = SceneConfig()
# Camera 0 sits at (0.5, 0, 0.9) looking along +x: an ego point at depth
# d = x - 0.5 lands on column 88 - 60 y / d and row 32 - 60 (z - 0.9) / d.
CAM0 = DESK.rig()[0]


def ahead(cls, x, y, z, size=(1.0, 1.0, 1.0), yaw=0.0):
    return (cls, x, y, z, *size, yaw, 0.0, 0.0)


def painted(img):
    return (img != background_image(*img.shape[:2])).any(axis=2)


def pixel_ray_point(camera, row, col, depth):
    """Ego point at camera depth ``depth`` on the ray through a pixel center."""
    return camera.translation + depth * _ray_directions(camera, DESK.image_h, DESK.image_w)[row, col]


def box_corners(box):
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    center, size = _center_size(box)
    return np.array([yaw_rotate(box["yaw"], s * size / 2.0) for s in signs]) + center


# Pitched and yawed: each ray direction component sums three inexact
# products, where the desk rig's rotations of zeros, ones and one sine
# and cosine hide any change in summation order.
TILTED = CameraModel(
    61.3, 59.1, 87.4, 31.7,
    _yaw_matrix(0.3)
    @ np.array([[np.cos(0.2), 0.0, np.sin(0.2)], [0.0, 1.0, 0.0], [-np.sin(0.2), 0.0, np.cos(0.2)]])
    @ CAM0.rotation,
    CAM0.translation,
)

FAR = ahead(0, 6.0, 0.5, 0.4, (1.0, 2.0, 0.8))
NEAR = ahead(1, 3.0, -0.3, 0.4, (1.0, 1.0, 0.8))


def colors(img):
    return {tuple(int(v) for v in c) for c in img[painted(img)]}


# name -> (box rows, check that the oracle's image shows the case it names)
ORACLE_CASES = {
    # x from -1 to 2 around the camera's x = 0.5, off to the left
    "straddles_camera_plane": (
        [ahead(0, 0.5, 1.0, 0.9, (3.0, 0.5, 0.5))], lambda img: painted(img)[:, 0].any()),
    "camera_inside_box": (
        [ahead(0, 0.5, 0.0, 0.9, (2.0, 2.0, 2.0))], lambda img: not painted(img).any()),
    "camera_inside_box_before_box_ahead": (
        [ahead(0, 0.5, 0.0, 0.9, (2.0, 2.0, 2.0)), NEAR], lambda img: colors(img) == {PALETTE[1]}),
    "wholly_behind_camera": ([ahead(0, -4.0, 0.0, 0.4)], lambda img: not painted(img).any()),
    "wholly_off_screen": ([ahead(0, 4.0, 20.0, 0.4)], lambda img: not painted(img).any()),
    "cut_by_left_edge": (
        [ahead(0, 4.0, 4.4, 0.9)], lambda img: painted(img)[:, 0].any() and not painted(img)[:, -1].any()),
    "cut_by_right_edge": (
        [ahead(0, 4.0, -4.4, 0.9)], lambda img: painted(img)[:, -1].any() and not painted(img)[:, 0].any()),
    "cut_by_top_edge": (
        [ahead(0, 4.0, 0.0, 2.5)], lambda img: painted(img)[0].any() and not painted(img)[-1].any()),
    "cut_by_bottom_edge": (
        [ahead(0, 4.0, 0.0, -0.7)], lambda img: painted(img)[-1].any() and not painted(img)[0].any()),
    "sub_pixel_box_far_away": (
        [ahead(1, *pixel_ray_point(CAM0, 40, 120, 50.0), (0.01, 0.01, 0.01))],
        lambda img: painted(img).sum() == 1 and painted(img)[40, 120]),
    "overlapping_far_first": ([FAR, NEAR], lambda img: colors(img) == {PALETTE[0], PALETTE[1]}),
    "overlapping_near_first": ([NEAR, FAR], lambda img: colors(img) == {PALETTE[0], PALETTE[1]}),
    "zero_boxes": ([], lambda img: not painted(img).any()),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_clipped_render_matches_full_image_oracle(name):
    rows, check = ORACLE_CASES[name]
    boxes = boxes_of(*rows)
    expect = full_image_render(CAM0, boxes, DESK.image_h, DESK.image_w)
    assert check(expect)
    assert np.array_equal(render_view(CAM0, boxes, DESK.image_h, DESK.image_w), expect)


def test_clipped_render_matches_oracle_through_a_tilted_camera():
    cam = TILTED
    rng = np.random.default_rng(1)
    boxes = boxes_of(*(
        (
            int(rng.integers(0, 6)), *rng.uniform((-2.0, -6.0, -1.0), (9.0, 6.0, 2.5)),
            *rng.uniform(0.2, 2.5, 3), rng.uniform(-np.pi, np.pi), 0.0, 0.0,
        )
        for _ in range(40)
    ))
    expect = full_image_render(cam, boxes, DESK.image_h, DESK.image_w)
    assert painted(expect).mean() > 0.2
    assert np.array_equal(render_view(cam, boxes, DESK.image_h, DESK.image_w), expect)


def test_clipped_render_matches_oracle_at_corners_on_pixel_centers():
    """A box corner on a pixel center's ray: the slab test may hit that pixel
    although the projected corners leave its center outside by < 1e-9 px,
    and a last-bit change in the ray direction may flip the hit."""
    cams = (TILTED, *DESK.rig())
    rng = np.random.default_rng(0)
    grazing = 0
    for _ in range(300):
        cam = cams[int(rng.integers(0, len(cams)))]
        row, col = int(rng.integers(10, 54)), int(rng.integers(20, 156))
        corner = pixel_ray_point(cam, row, col, rng.uniform(2.0, 6.0))
        size, yaw = rng.uniform(0.3, 1.5, 3), rng.uniform(-np.pi, np.pi)
        sign = rng.choice([-1.0, 1.0], 3)
        center = corner - yaw_rotate(yaw, sign * size / 2.0)
        box = boxes_of((0, *center, *size, yaw, 0.0, 0.0))
        expect = full_image_render(cam, box, DESK.image_h, DESK.image_w)
        assert np.array_equal(render_view(cam, box, DESK.image_h, DESK.image_w), expect)
        uv, _ = cam.project(box_corners(box[0]))
        rows, cols = np.nonzero(painted(expect))
        centers = np.stack([cols + 0.5, rows + 0.5], axis=1)
        outside = np.maximum(uv.min(axis=0) - centers, centers - uv.max(axis=0)).max(initial=0.0)
        grazing += 0.0 < outside < 1e-9
    assert grazing > 0


# ---------------------------------------------------------------- surface points


def test_object_points_lie_on_box_surface():
    cfg = SceneConfig(seed=4, objects_min=2, objects_max=2, frames=2)
    scene = gen_scene(cfg)
    for frame in scene.frames:
        pts = frame.points
        object_pts = pts[: len(frame.boxes) * OBJECT_POINTS]
        for oi, box in enumerate(frame.boxes):
            chunk = object_pts[oi * OBJECT_POINTS : (oi + 1) * OBJECT_POINTS]
            center, size = _center_size(box)
            local = np.stack(
                [yaw_rotate(-box["yaw"], p - center) for p in chunk.astype(np.float64)]
            )
            half = size / 2
            assert (np.abs(local) <= half + 1e-5).all()
            on_face = np.isclose(np.abs(local), half, atol=1e-5).any(axis=1)
            assert on_face.all()


def test_ground_points_sit_on_ground_plane():
    scene = gen_scene(SceneConfig(seed=4, objects_min=0, objects_max=0, frames=1))
    assert np.all(scene.frames[0].points[:, 2] == 0.0)


def test_object_points_move_with_their_object():
    cfg = SceneConfig(seed=12, objects_min=1, objects_max=1, frames=3)
    scene = gen_scene(cfg)
    b0 = scene.frames[0].boxes[0]
    shift = np.array([b0["vx"] * FRAME_DT, b0["vy"] * FRAME_DT, 0.0], dtype=np.float64)
    p0 = scene.frames[0].points[:OBJECT_POINTS].astype(np.float64)
    p1 = scene.frames[1].points[:OBJECT_POINTS].astype(np.float64)
    assert np.allclose(p1 - p0, shift, atol=1e-6)


# ---------------------------------------------------------------- box text format


def test_box_text_round_trip_exact():
    """format_boxes -> parse_boxes gives back the same bytes: two hand-written boxes, and every box
    of every frame of desk seeds 0-9 and full seeds 0-1."""
    boxes = [
        boxes_of(
            (0, 1.25, -3.5, 0.4, 1.1, 0.8, 0.9, 0.7853981633974483, 0.25, -0.125),
            (2, -0.1, 0.2, 0.3, 0.5, 0.5, 0.5, -3.0, 0.0, 0.5),
        )
    ]
    for preset, seeds in (("desk", range(10)), ("full", range(2))):
        cfg = load_config(os.path.join(CONFIGS, f"{preset}.cfg"))
        boxes += [frame.boxes for seed in seeds for frame in gen_scene(dataclasses.replace(cfg, seed=seed)).frames]
    assert sum(map(len, boxes)) > 100
    for b in boxes:
        back = parse_boxes(format_boxes(b))
        assert back.dtype == BOX_DTYPE and back.tobytes() == b.tobytes()


def test_box_parse_rejects_bad_columns():
    with pytest.raises(FormatError, match="columns"):
        parse_boxes("0 1 2 3\n")


def test_box_parse_skips_comments_and_blanks():
    empty = parse_boxes("# header\n\n")
    assert empty.shape == (0,) and empty.dtype == BOX_DTYPE


def test_box_parse_refuses_a_class_id_int64_cannot_hold():
    text = "# cls x y z l w h yaw vx vy\n99999999999999999999 0 0 0.4 1 1 0.8 0 0 0\n"
    with pytest.raises(FormatError, match="box line 2: class id 99999999999999999999 does not fit in int64"):
        parse_boxes(text)


def test_box_parse_names_the_line_of_a_value_that_does_not_parse():
    with pytest.raises(FormatError, match="box line 2: could not convert string to float: 'x'"):
        parse_boxes("# cls x y z l w h yaw vx vy\n1 x 0 0.4 1 1 0.8 0 0 0\n")
    with pytest.raises(FormatError, match="box line 1: invalid literal for int"):
        parse_boxes("1.5 0 0 0.4 1 1 0.8 0 0 0\n")


BOX_FIELDS = ("x", "y", "z", "l", "w", "h", "yaw", "vx", "vy")


@pytest.mark.parametrize("field", BOX_FIELDS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_box_rejects_non_finite_field(field, value):
    vals = dict(zip(BOX_FIELDS, (0.0, 0.0, 0.4, 1.0, 1.0, 0.8, 0.0, 0.0, 0.0)))
    vals[field] = value
    with pytest.raises(FormatError, match=f"^box line 1: {field} must be finite, got {value}$"):
        parse_boxes("0 " + " ".join(map(repr, vals.values())) + "\n")


@pytest.mark.parametrize("field", ["l", "w", "h"])
@pytest.mark.parametrize("value", [0.0, -0.0, -1.5])
def test_box_parse_names_the_size_at_or_below_zero(field, value):
    vals = dict(zip(BOX_FIELDS, (0.0, 0.0, 0.4, 1.0, 1.0, 0.8, 0.0, 0.0, 0.0)))
    vals[field] = value
    with pytest.raises(FormatError, match=f"^box line 1: size must be strictly positive, got {field} = {value}$"):
        parse_boxes("0 " + " ".join(map(repr, vals.values())) + "\n")


@pytest.mark.parametrize(
    "boxes",
    [np.zeros((2, 10)), np.zeros(2, DETECTION_DTYPE), np.zeros((2, 1), BOX_DTYPE), np.zeros(2, BOX_DTYPE)[0], ()],
    ids=["float-2x10", "detection-dtype", "2-d", "record", "tuple"],
)
def test_scene_frame_refuses_all_but_a_1d_box_array(boxes):
    """SceneFrame takes its boxes as given: np.asarray(np.zeros((2, 10)), BOX_DTYPE) would be 20 boxes."""
    images, points = (background_image(4, 4),), np.zeros((1, 3), np.float32)
    assert len(SceneFrame(images, np.zeros(2, BOX_DTYPE), points).boxes) == 2
    with pytest.raises(ShapeError, match="SceneFrame: boxes must be an \\[N\\] BOX_DTYPE array"):
        SceneFrame(images, boxes, points)


@pytest.mark.parametrize(
    "line, cause",
    [
        ("1 nan 0 0.4 1 1 0.8 0 0 0", "x must be finite"),
        ("1 0 0 0.4 1 inf 0.8 0 0 0", "w must be finite"),
        ("1 0 0 0.4 nan 1 0.8 0 0 0", "l must be finite"),
        ("1 0 0 0.4 1 1 -0.8 0 0 0", "size must be strictly positive"),
    ],
)
def test_box_parse_reports_rejected_box_with_line_number(line, cause):
    with pytest.raises(FormatError, match=f"box line 3: .*{cause}"):
        parse_boxes("# cls x y z l w h yaw vx vy\n0 0 0 0.4 1 1 0.8 0 0 0\n" + line + "\n")


# ---------------------------------------------------------------- directory I/O


def test_save_load_round_trip_is_exact(tmp_path):
    cfg = SceneConfig(seed=2, frames=3, objects_min=1, objects_max=3)
    scene = gen_scene(cfg)
    save_scene(scene, tmp_path / "s")
    back = load_scene(tmp_path / "s")
    assert back.k == scene.k and back.n_cameras == scene.n_cameras
    for fa, fb in zip(scene.frames, back.frames):
        assert fb.boxes.dtype == BOX_DTYPE and fa.boxes.tobytes() == fb.boxes.tobytes()
        assert np.array_equal(fa.points, fb.points)
        for ia, ib in zip(fa.images, fb.images):
            assert np.array_equal(ia, ib)


def test_load_rejects_missing_metadata(tmp_path):
    with pytest.raises(FormatError, match="scene metadata"):
        load_scene(tmp_path / "nothing")


def test_load_rejects_missing_frame_files(tmp_path):
    cfg = SceneConfig(seed=2, frames=2)
    save_scene(gen_scene(cfg), tmp_path / "s")
    os.remove(tmp_path / "s" / "frame_001" / "cam_3.ppm")
    with pytest.raises(FormatError, match="cam_3"):
        load_scene(tmp_path / "s")


@pytest.mark.parametrize(
    "extra, cause",
    [
        ("nonsense", "line 5: expected 'key = value', got 'nonsense'"),
        ("camera.count = 6", "line 5: duplicate key 'camera.count'"),
        ("camera.focal = 60.0", "line 5: unknown key 'camera.focal'"),
    ],
)
def test_load_rejects_malformed_scene_metadata(tmp_path, extra, cause):
    save_scene(gen_scene(SceneConfig(seed=2, frames=1)), tmp_path / "s")
    meta = tmp_path / "s" / "scene.txt"
    meta.write_text(meta.read_text() + extra + "\n")
    with pytest.raises(FormatError) as info:
        load_scene(tmp_path / "s")
    assert str(info.value) == f"{meta} {cause}"


@pytest.mark.parametrize(
    "line, cause",
    [
        ("camera.count =", " line 2: empty key or value"),
        ("camera.count = six", " line 2: camera.count: expected an integer, got 'six'"),
        ("camera.count = 6.0", " line 2: camera.count: expected an integer, got '6.0'"),
        (None, ": missing metadata key(s) camera.count"),
        ("scene.frames = 0", ": scene.frames must be >= 1, got 0"),
        ("camera.count = 0", ": camera.count must be >= 1, got 0"),
        ("camera.count = -1", ": camera.count must be >= 1, got -1"),
        ("camera.image_h = -5", ": camera.image_h must be >= 1, got -5"),
    ],
)
def test_load_names_the_line_of_a_bad_scene_metadata_value(tmp_path, line, cause):
    save_scene(gen_scene(SceneConfig(seed=2, frames=1)), tmp_path / "s")
    meta = tmp_path / "s" / "scene.txt"
    lines = meta.read_text().splitlines()
    assert lines[1] == "camera.count = 6"
    key = "camera.count" if line is None else line.split(" =")[0]
    at = [text.split(" = ")[0] for text in lines].index(key)
    lines[at : at + 1] = [] if line is None else [line]
    meta.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as info:
        load_scene(tmp_path / "s")
    assert str(info.value) == f"{meta}{cause}"


def test_load_reads_scene_metadata_with_the_config_grammar(tmp_path):
    save_scene(gen_scene(SceneConfig(seed=2, frames=1)), tmp_path / "s")
    meta = tmp_path / "s" / "scene.txt"
    meta.write_text("# written by hand\n\n" + meta.read_text().replace("count = 6", "count = 6  # cameras"))
    assert load_scene(tmp_path / "s").n_cameras == 6


def test_load_names_the_box_file_of_a_rejected_box(tmp_path):
    save_scene(gen_scene(SceneConfig(seed=2, frames=2)), tmp_path / "s")
    boxes = tmp_path / "s" / "frame_001" / "boxes.txt"
    boxes.write_text(boxes.read_text() + "0 0 0 0.4 1 1 nan 0 0 0\n")
    with pytest.raises(FormatError, match="frame_001/boxes.txt: box line .*: .*h must be finite"):
        load_scene(tmp_path / "s")


def _fuzz_cases(tree, raster_len, rng):
    """(relative path, damaged bytes): byte flips and truncations per region."""
    header_len = len(tree["frame_000/cam_0.ppm"]) - raster_len
    regions = {
        "scene.txt": (0, None),
        "frame_000/boxes.txt": (0, None),
        "frame_000/points.bvnx": (0, None),
        "frame_001/cam_2.ppm": (0, header_len),  # header
        "frame_000/cam_5.ppm": (header_len, None),  # raster
    }
    for rel, (lo, hi) in regions.items():
        data = tree[rel]
        hi = len(data) if hi is None else hi
        for _ in range(10):
            flipped = bytearray(data)
            flipped[int(rng.integers(lo, hi))] ^= int(rng.integers(1, 256))
            yield rel, bytes(flipped)
        for _ in range(3):
            yield rel, data[: int(rng.integers(lo, hi))]


def test_load_scene_fuzzed_files_return_or_raise_named_errors(tmp_path):
    root = tmp_path / "s"
    cfg = SceneConfig(seed=2, frames=2)
    save_scene(gen_scene(cfg), root)
    tree = tree_bytes(root)
    outcomes = {"loaded": 0, "rejected": 0}
    raster_len = cfg.image_h * cfg.image_w * 3
    for rel, damaged in _fuzz_cases(tree, raster_len, np.random.default_rng(0)):
        (root / rel).write_bytes(damaged)
        try:
            load_scene(root)
            outcomes["loaded"] += 1
        except (FormatError, ShapeError):
            outcomes["rejected"] += 1
        finally:
            (root / rel).write_bytes(tree[rel])
    assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0
