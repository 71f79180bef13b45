"""Scene files, ray marching, rendering, and motion with collision clipping.

The ray marcher is validated against an independent closed-form oracle
that enumerates, for every grid cell, the parameter interval the ray
spends inside that cell's column and solves for the earliest surface
crossing analytically.  The production code marches incrementally cell
to cell; the oracle never does, so agreement is meaningful.
"""

import math

import numpy as np
import pytest

from stmrnav.errors import SceneParseError
from stmrnav.geometry import DOWNWARD_MOUNT, CameraIntrinsics, UavPose
from stmrnav.planner import Action
from stmrnav.world import (
    Scene,
    apply_action,
    cast_ray,
    march_rays,
    parse_episode,
    parse_scene,
    render,
)

K = CameraIntrinsics(fx=40.0, fy=40.0, cx=31.5, cy=23.5, width=64, height=48)

SCENE_TEXT = """\
stmr-scene v1
# two-by-three test plot
cell_size 5
legend 1 road
legend 2 building
legend 3 canopy
under_label 1

height 2 3
0 12 0
0 0 9
label 2 3
1 2 1
1 1 3
clearance 2 3
0 0 0
0 0 4
"""


def small_scene() -> Scene:
    return parse_scene(SCENE_TEXT)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

class TestParseScene:
    def test_round_trips_the_grids(self):
        scene = small_scene()
        assert scene.cell_size == 5.0
        assert scene.legend == {1: "road", 2: "building", 3: "canopy"}
        assert scene.nx == 3 and scene.ny == 2
        assert scene.extent == (15.0, 10.0)
        assert scene.height[0, 1] == 12.0
        assert scene.label[1, 2] == 3
        assert scene.clearance[1, 2] == 4.0
        assert scene.under_label == 1

    def test_label_name_falls_back_to_the_id(self):
        scene = small_scene()
        assert scene.label_name(2) == "building"
        assert scene.label_name(9) == "label 9"

    def test_missing_header(self):
        with pytest.raises(SceneParseError, match="header"):
            parse_scene("cell_size 5\n")

    def test_wrong_column_count_reports_line_and_field(self):
        bad = SCENE_TEXT.replace("0 12 0", "0 12")
        with pytest.raises(SceneParseError) as err:
            parse_scene(bad)
        assert err.value.field == "height"
        assert err.value.line is not None

    def test_unknown_label_id_cites_the_cell(self):
        bad = SCENE_TEXT.replace("1 1 3", "1 7 3")
        with pytest.raises(SceneParseError, match=r"label id 7 at cell \(1, 1\)"):
            parse_scene(bad)

    def test_clearance_must_stay_below_height(self):
        bad = SCENE_TEXT.replace("0 0 4", "0 0 9")
        with pytest.raises(SceneParseError, match="below the cell height"):
            parse_scene(bad)

    def test_elevated_cells_require_an_under_label(self):
        bad = SCENE_TEXT.replace("under_label 1\n", "")
        with pytest.raises(SceneParseError, match="under_label"):
            parse_scene(bad)

    def test_negative_height_is_rejected(self):
        bad = SCENE_TEXT.replace("0 12 0", "0 -1 0")
        with pytest.raises(SceneParseError, match="non-negative"):
            parse_scene(bad)

    def test_mismatched_grid_shapes_are_rejected(self):
        bad = SCENE_TEXT.replace("label 2 3", "label 2 2").replace(
            "1 2 1", "1 2").replace("1 1 3", "1 1")
        with pytest.raises(SceneParseError, match="earlier blocks"):
            parse_scene(bad)

    def test_duplicate_legend_id_is_rejected(self):
        bad = SCENE_TEXT.replace("legend 2 building",
                                 "legend 2 building\nlegend 2 tower")
        with pytest.raises(SceneParseError, match="duplicate legend id 2"):
            parse_scene(bad)

    def test_comments_and_blank_lines_are_ignored(self):
        noisy = SCENE_TEXT.replace("cell_size 5",
                                   "# noise\n\ncell_size 5\n# more noise")
        assert parse_scene(noisy).cell_size == 5.0

    @pytest.mark.parametrize("drop, field", [
        ("cell_size 5\n", "cell_size"),
        ("legend 1 road\nlegend 2 building\nlegend 3 canopy\n", "legend"),
        ("height 2 3\n0 12 0\n0 0 9\n", "height"),
        ("label 2 3\n1 2 1\n1 1 3\n", "label"),
    ], ids=["cell_size", "legend", "height", "label"])
    def test_missing_directive_is_refused(self, drop, field):
        with pytest.raises(SceneParseError, match=f"missing {field}") as err:
            parse_scene(SCENE_TEXT.replace(drop, ""))
        assert err.value.field == field

    @pytest.mark.parametrize("line, again, at", [
        ("cell_size 5", "cell_size 10", 4),
        ("under_label 1", "under_label 2", 8),
        ("0 0 4", "clearance 2 3\n0 0 0\n0 0 0", 18),
    ], ids=["cell_size", "under_label", "clearance"])
    def test_repeated_directive_is_refused(self, line, again, at):
        with pytest.raises(SceneParseError, match="duplicate") as err:
            parse_scene(SCENE_TEXT.replace(line, line + "\n" + again))
        assert (err.value.line, err.value.field) == (at, again.split()[0])


EPISODE_TEXT = """\
stmr-episode v1
id ep_demo
instruction head to the building, then stop.
start 2.5 2.5 10.0 0.0 0.0 1.5707963267948966
goal 2.5 32.5 10.0
max_actions 12
path 2.5 2.5 10.0 0.0 0.0 1.5707963267948966
path 2.5 32.5 10.0 0.0 0.0 1.5707963267948966
"""


class TestParseEpisode:
    def test_round_trips_the_fields(self):
        ep = parse_episode(EPISODE_TEXT)
        assert ep.episode_id == "ep_demo"
        assert ep.instruction == "head to the building, then stop."
        assert ep.start.yaw == pytest.approx(math.pi / 2, abs=1e-15)
        assert np.array_equal(ep.goal, [2.5, 32.5, 10.0])
        assert ep.max_actions == 12
        assert len(ep.path) == 2

    def test_missing_goal(self):
        bad = EPISODE_TEXT.replace("goal 2.5 32.5 10.0\n", "")
        with pytest.raises(SceneParseError, match="missing goal"):
            parse_episode(bad)

    def test_path_must_start_at_the_start_pose(self):
        bad = EPISODE_TEXT.replace(
            "path 2.5 2.5 10.0", "path 9.0 2.5 10.0", 1)
        with pytest.raises(SceneParseError, match="begin at the start"):
            parse_episode(bad)

    def test_unknown_directive(self):
        with pytest.raises(SceneParseError, match="unknown directive"):
            parse_episode(EPISODE_TEXT + "wind 3\n")

    @pytest.mark.parametrize("again", [
        "id ep_other", "instruction fly home.",
        "start 2.5 2.5 20.0 0.0 0.0 0.0", "goal 1 1 1", "max_actions 1",
    ])
    def test_repeated_directive_is_refused(self, again):
        with pytest.raises(SceneParseError) as err:
            parse_episode(EPISODE_TEXT + again + "\n")
        assert err.value.line == 9
        assert err.value.field == again.split()[0]

    @pytest.mark.parametrize("eid", [
        "../esc", "a/b", "a\\b", ".", "..", "results.csv", "summary.txt",
    ])
    def test_id_that_is_not_a_safe_directory_name_is_refused(self, eid):
        with pytest.raises(SceneParseError, match="names a directory") as err:
            parse_episode(EPISODE_TEXT.replace("id ep_demo", f"id {eid}"))
        assert (err.value.line, err.value.field) == (2, "id")


# ---------------------------------------------------------------------------
# ray marching vs. the analytic oracle
# ---------------------------------------------------------------------------

def analytic_cast(scene, origin, direction, t_limit):
    """Earliest surface hit by exhaustive per-cell interval analysis.

    Returns (t, label) or None.  Solid model per cell: ordinary cells
    occupy z <= height; cells with positive clearance occupy
    clearance <= z <= height plus a one-sided ground plane at z = 0
    (labeled under_label) that only descending rays can strike.
    """
    ox, oy, oz = (float(origin[0]), float(origin[1]), float(origin[2]))
    dx, dy, dz = (float(direction[0]), float(direction[1]),
                  float(direction[2]))
    cs = scene.cell_size
    best = None
    for j in range(scene.ny):
        for i in range(scene.nx):
            a, b = 0.0, float(t_limit)
            empty = False
            for o, d, lo, hi in ((ox, dx, i * cs, (i + 1) * cs),
                                 (oy, dy, j * cs, (j + 1) * cs)):
                if d == 0.0:
                    if not (lo <= o < hi):
                        empty = True
                        break
                else:
                    ta, tb = (lo - o) / d, (hi - o) / d
                    a = max(a, min(ta, tb))
                    b = min(b, max(ta, tb))
            if empty or a >= b:
                continue
            h = float(scene.height[j, i])
            clr = float(scene.clearance[j, i])
            lab = int(scene.label[j, i])
            za = oz + dz * a
            hit = None
            if clr > 0.0:
                if clr <= za <= h:
                    hit = (a, lab)
                else:
                    cands = []
                    if dz < 0.0 and za > h:
                        t_top = (h - oz) / dz
                        if a <= t_top <= b:
                            cands.append((t_top, lab))
                    if dz > 0.0 and za < clr:
                        t_bot = (clr - oz) / dz
                        if a <= t_bot <= b:
                            cands.append((t_bot, lab))
                    if dz < 0.0:
                        t_g = -oz / dz
                        if a <= t_g <= b:
                            cands.append((t_g, scene.under_label))
                    if cands:
                        hit = min(cands)
            else:
                if za <= h:
                    hit = (a, lab)
                elif dz < 0.0:
                    t_top = (h - oz) / dz
                    if a <= t_top <= b:
                        hit = (t_top, lab)
            if hit is not None and (best is None or hit[0] < best[0]):
                best = hit
    return best


def random_scene(rng) -> Scene:
    nx = int(rng.integers(3, 9))
    ny = int(rng.integers(3, 9))
    cell_size = float(rng.choice([2.0, 5.0]))
    height = rng.choice([0.0, 0.0, 3.0, 6.0, 12.0], size=(ny, nx))
    label = rng.integers(1, 5, size=(ny, nx)).astype(np.int64)
    clearance = np.zeros((ny, nx))
    tall = height >= 6.0
    canopy = tall & (rng.random((ny, nx)) < 0.4)
    clearance[canopy] = 2.0
    legend = {1: "road", 2: "building", 3: "grass", 4: "canopy"}
    return Scene(cell_size=cell_size, legend=legend, height=height,
                 label=label, clearance=clearance, under_label=1)


class TestMarchRaysOracle:
    def test_agrees_with_interval_analysis_on_random_rays(self):
        rng = np.random.default_rng(2024)
        checked_hits = 0
        checked_misses = 0
        for _ in range(40):
            scene = random_scene(rng)
            ext_x, ext_y = scene.extent
            origin = np.array([
                rng.uniform(-0.3 * ext_x, 1.3 * ext_x),
                rng.uniform(-0.3 * ext_y, 1.3 * ext_y),
                rng.uniform(0.5, 15.0),
            ])
            dirs = rng.uniform(-1.0, 1.0, size=(12, 3))
            dirs *= rng.uniform(0.5, 3.0, size=(12, 1))  # unnormalized
            t_limit = float(rng.uniform(10.0, 60.0))
            t_hit, labels = march_rays(scene, origin, dirs, t_limit)
            for n in range(dirs.shape[0]):
                expected = analytic_cast(scene, origin, dirs[n], t_limit)
                if labels[n] > 0:
                    assert expected is not None, (
                        f"marcher hit t={t_hit[n]} label={labels[n]}, "
                        "oracle says miss")
                    assert t_hit[n] == pytest.approx(
                        expected[0], rel=1e-9, abs=1e-9)
                    assert int(labels[n]) == expected[1]
                    checked_hits += 1
                else:
                    assert expected is None, (
                        f"oracle hit {expected}, marcher says miss")
                    checked_misses += 1
        # The sample must exercise both outcomes to mean anything.
        assert checked_hits > 100
        assert checked_misses > 50

    def test_batch_matches_single_ray_queries(self):
        scene = small_scene()
        origin = np.array([2.0, 3.0, 8.0])
        rng = np.random.default_rng(7)
        dirs = rng.uniform(-1, 1, size=(30, 3))
        t_hit, labels = march_rays(scene, origin, dirs, 50.0)
        for n in range(30):
            t, lab = cast_ray(scene, origin, dirs[n], 50.0)
            if lab is None:
                assert labels[n] == 0
            else:
                assert t == t_hit[n]
                assert lab == labels[n]


class TestCastRay:
    def test_building_face_hit_at_exact_plane(self):
        # Building occupies x in [5, 10); flying east at z = 6 from x = 2
        # meets the face at x = 5, so t = 3 exactly.
        scene = small_scene()
        t, lab = cast_ray(scene, np.array([2.0, 2.5, 6.0]),
                          np.array([1.0, 0.0, 0.0]), 20.0)
        assert t == 3.0
        assert lab == 2

    def test_flight_above_everything_misses(self):
        scene = small_scene()
        t, lab = cast_ray(scene, np.array([2.0, 2.5, 13.0]),
                          np.array([1.0, 0.0, 0.0]), 20.0)
        assert t is None and lab is None

    def test_under_canopy_corridor_is_free(self):
        # Canopy cell x in [10, 15), y in [5, 10): band z in [4, 9].
        scene = small_scene()
        t, lab = cast_ray(scene, np.array([8.0, 7.5, 2.0]),
                          np.array([1.0, 0.0, 0.0]), 6.0)
        assert t is None and lab is None

    def test_descending_under_canopy_hits_tagged_ground(self):
        scene = small_scene()
        t, lab = cast_ray(scene, np.array([12.5, 7.5, 2.0]),
                          np.array([0.0, 0.0, -1.0]), 10.0)
        assert t == 2.0
        assert lab == scene.under_label

    def test_ascending_under_canopy_hits_its_underside(self):
        scene = small_scene()
        t, lab = cast_ray(scene, np.array([12.5, 7.5, 2.0]),
                          np.array([0.0, 0.0, 1.0]), 10.0)
        assert t == 2.0   # clearance 4 - z 2
        assert lab == 3

    def test_origin_inside_solid_hits_at_zero(self):
        scene = small_scene()
        t, lab = cast_ray(scene, np.array([7.5, 2.5, 6.0]),
                          np.array([1.0, 0.0, 0.0]), 20.0)
        assert t == 0.0
        assert lab == 2

    def test_hit_beyond_limit_is_a_miss(self):
        scene = small_scene()
        t, lab = cast_ray(scene, np.array([2.0, 2.5, 6.0]),
                          np.array([1.0, 0.0, 0.0]), 2.0)
        assert t is None and lab is None


class TestRender:
    def test_flat_ground_straight_down_gives_planar_depth(self):
        # Looking straight down from 10 m, every pixel ray crosses z = 0
        # at exactly t = 10 because directions are left unnormalized.
        scene = parse_scene(
            "stmr-scene v1\ncell_size 5\nlegend 1 grass\n"
            "height 4 4\n" + "0 0 0 0\n" * 4 +
            "label 4 4\n" + "1 1 1 1\n" * 4)
        pose = UavPose(10.0, 10.0, 10.0)
        depth, semantic = render(scene, pose, K, mount=DOWNWARD_MOUNT)
        assert np.all(depth == 10.0)
        assert np.all(semantic == 1)

    def test_miss_pixels_hold_zero_in_both_images(self):
        scene = small_scene()
        pose = UavPose(2.0, 2.5, 13.0)  # above every obstacle, facing east
        depth, semantic = render(scene, pose, K)
        sky = depth == 0.0
        assert sky.any()
        assert np.all(semantic[sky] == 0)

    def test_labels_are_positive_wherever_depth_is(self):
        scene = small_scene()
        depth, semantic = render(scene, UavPose(2.0, 2.5, 6.0, yaw=0.3), K)
        assert np.all((depth > 0) == (semantic > 0))


class TestApplyAction:
    def test_straight_moves_along_heading(self):
        scene = small_scene()
        pose = UavPose(2.5, 2.5, 11.0, yaw=math.pi / 2)
        out = apply_action(scene, pose, Action("straight", 0, 5.0))
        assert out.pose.y == pytest.approx(7.5, abs=1e-12)
        assert not out.collision

    def test_right_turns_clockwise_then_translates(self):
        scene = small_scene()
        pose = UavPose(2.5, 2.5, 11.0, yaw=math.pi / 2)
        out = apply_action(scene, pose, Action("right", 15.0, 0.0))
        assert out.pose.yaw == pytest.approx(math.radians(75.0), abs=1e-12)
        assert out.pose.x == pose.x and out.pose.y == pose.y

    def test_left_turns_counterclockwise(self):
        scene = small_scene()
        pose = UavPose(2.5, 2.5, 11.0, yaw=0.0)
        out = apply_action(scene, pose, Action("left", 10.0, 0.0))
        assert out.pose.yaw == pytest.approx(math.radians(10.0), abs=1e-12)

    def test_blocked_flight_stops_margin_short(self):
        # Face at x = 5; flying east from x = 2 with 0.5 margin stops at 4.5.
        scene = small_scene()
        pose = UavPose(2.0, 2.5, 6.0, yaw=0.0)
        out = apply_action(scene, pose, Action("straight", 0, 10.0))
        assert out.collision
        assert out.reason == "blocked by building"
        assert out.pose.x == pytest.approx(4.5, abs=1e-12)

    def test_surface_exactly_margin_past_target_is_clean(self):
        # Face at x = 5, target x = 4.5 = face - margin: allowed in full.
        scene = small_scene()
        pose = UavPose(2.0, 2.5, 6.0, yaw=0.0)
        out = apply_action(scene, pose, Action("straight", 0, 2.5))
        assert not out.collision
        assert out.pose.x == pytest.approx(4.5, abs=1e-12)

    def test_down_lands_margin_above_ground(self):
        scene = small_scene()
        pose = UavPose(2.5, 2.5, 3.0)
        out = apply_action(scene, pose, Action("down", 0, 10.0))
        assert out.collision
        assert out.pose.z == pytest.approx(0.5, abs=1e-12)
        assert out.reason == "blocked by road"

    def test_boundary_clamp_reports_scene_boundary(self):
        scene = small_scene()
        pose = UavPose(2.5, 2.5, 11.0, yaw=math.pi)  # facing west
        out = apply_action(scene, pose, Action("straight", 0, 10.0))
        assert out.collision
        assert out.reason == "scene boundary"
        assert out.pose.x == pytest.approx(0.5, abs=1e-12)

    def test_back_reverses_the_heading(self):
        scene = small_scene()
        pose = UavPose(2.5, 7.5, 11.0, yaw=math.pi / 2)
        out = apply_action(scene, pose, Action("back", 0, 3.0))
        assert not out.collision
        assert out.pose.y == pytest.approx(4.5, abs=1e-12)

    def test_stop_changes_nothing(self):
        scene = small_scene()
        pose = UavPose(2.5, 2.5, 11.0, yaw=1.0)
        out = apply_action(scene, pose, Action("stop"))
        assert out.pose == pose
        assert not out.collision

    def test_lift_under_canopy_stops_below_the_band(self):
        scene = small_scene()
        pose = UavPose(12.5, 7.5, 2.0)
        out = apply_action(scene, pose, Action("lift", 0, 10.0))
        assert out.collision
        assert out.pose.z == pytest.approx(3.5, abs=1e-12)
        assert out.reason == "blocked by canopy"
