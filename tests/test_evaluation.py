"""Metrics, the episode loop, trace directories, and suite running.

point_segment_distance is checked against a dense-sampling oracle: the
distance along the segment is 1-Lipschitz in arc length, so the minimum
over a fine parameter grid brackets the exact value from above with a
known gap.  Loop behavior is pinned with scripted backends on a tiny
scene whose only obstacle is a wall of buildings, so every collision
and stop is predictable by hand.
"""

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
import sys
import threading
import time
import types

import numpy as np
import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stmrnav import evaluation
from stmrnav.errors import PlanningBackendError, StmrNavError, TemplateError
from stmrnav.evaluation import (
    MAX_UNPARSEABLE,
    REQUERY_LIMIT,
    EpisodeResult,
    LoopConfig,
    StepTrace,
    Summary,
    aggregate,
    format_summary,
    navigation_error,
    oracle_success,
    point_segment_distance,
    read_step_trace,
    results_csv_text,
    run_episode,
    run_suite,
    success,
    write_episode_trace,
)
from stmrnav.geometry import DOWNWARD_MOUNT, FORWARD_MOUNT, UavPose
from stmrnav.mapping import TopDownMap
from stmrnav.planner import (
    STOP_RESPONSE,
    Action,
    RemoteBackend,
    ScriptedBackend,
)
from stmrnav.world import parse_episode, parse_scene
from conftest import child_pids, scripted_factory
from reference_mapping import metric_text_reference
from test_cli import FIXTURES, run_capped

SCENE_TEXT = """\
stmr-scene v1
# open ground with one north-south wall of buildings at x in [5, 10)
cell_size 5
legend 1 road
legend 2 building
legend 4 grass
under_label 1

height 4 4
0 12 0 0
0 12 0 0
0 12 0 0
0 12 0 0
label 4 4
4 2 1 4
4 2 1 4
4 2 1 4
4 2 1 4
clearance 4 4
0 0 0 0
0 0 0 0
0 0 0 0
0 0 0 0
"""

EP_NORTH = """\
stmr-episode v1
id ep_north
instruction head to the road, then stop.
start 2.5 2.5 10.0 0.0 0.0 1.5707963267948966
goal 12.5 12.5 0.0
max_actions 6
path 2.5 2.5 10.0 0.0 0.0 1.5707963267948966
path 12.5 12.5 0.0 0.0 0.0 1.5707963267948966
"""

EP_EAST = """\
stmr-episode v1
id ep_east
instruction head to the building, then stop.
start 2.5 2.5 10.0 0.0 0.0 0.0
goal 12.5 12.5 0.0
max_actions 6
path 2.5 2.5 10.0 0.0 0.0 0.0
path 12.5 12.5 0.0 0.0 0.0 0.0
"""

STRAIGHT_ONE = "Action: (straight), (0 degrees), (1 meters)"

# ep001 moved 1e12 m east, run through ``run_suite`` with its script;
# prints the ValueError the suite raises.  Arguments: the fixture
# directory and the output directory.
RUN_SUITE_FROM_FAR = """\
import re, sys
from pathlib import Path
from stmrnav.evaluation import run_suite
from stmrnav.planner import ScriptedBackend
from stmrnav.world import load_scene, parse_episode
fixtures = Path(sys.argv[1])
far = "1e12 100.0 30.0 0.0 0.0 0.0"
text = (fixtures / "ep001.episode").read_text(encoding="utf-8")
text = re.sub(r"^start .*$", "start " + far, text, flags=re.M)
text = re.sub(r"^path .*$", "path " + far, text, count=1, flags=re.M)
try:
    run_suite(load_scene(fixtures / "riverside.scene"), [parse_episode(text)],
              lambda e, i: ScriptedBackend.from_file(
                  fixtures / "scripts" / "ep001.txt"),
              out_dir=sys.argv[2])
except ValueError as exc:
    print(exc)
"""


@pytest.fixture()
def wall_scene():
    return parse_scene(SCENE_TEXT)


@pytest.fixture()
def ep_north():
    return parse_episode(EP_NORTH)


@pytest.fixture()
def ep_east():
    return parse_episode(EP_EAST)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestNavigationError:
    def test_hand_case(self):
        assert navigation_error((0.0, 0.0, 0.0), (3.0, 4.0, 12.0)) == 13.0

    def test_accepts_pose_positions(self):
        pose = UavPose(1.0, 2.0, 3.0)
        assert navigation_error(pose.position, (1.0, 2.0, 3.0)) == 0.0

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError):
            navigation_error((math.nan, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            navigation_error((0, 0, 0), (math.inf, 0, 0))


class TestSuccess:
    def test_needs_a_deliberate_stop(self):
        assert success(5.0, "stop-action") is True
        assert success(5.0, "max-actions") is False
        assert success(5.0, "error") is False

    def test_radius_is_strict(self):
        assert success(19.999, "stop-action") is True
        assert success(20.0, "stop-action") is False

    def test_custom_radius(self):
        assert success(3.0, "stop-action", radius=2.0) is False


class TestPointSegmentDistance:
    def test_perpendicular_foot_inside_the_segment(self):
        d = point_segment_distance((0, 1, 0), (-1, 0, 0), (1, 0, 0))
        assert d == 1.0

    def test_clamps_to_the_near_endpoint(self):
        d = point_segment_distance((3, 4, 0), (-1, 0, 0), (1, 0, 0))
        assert d == pytest.approx(math.sqrt(20.0), abs=1e-12)

    def test_degenerate_segment_is_point_distance(self):
        assert point_segment_distance((1, 1, 1), (0, 0, 0), (0, 0, 0)) == \
            pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_matches_a_dense_sampling_oracle(self):
        rng = np.random.default_rng(7)
        ts = np.linspace(0.0, 1.0, 2001)
        for _ in range(200):
            p, a, b = rng.uniform(-10.0, 10.0, size=(3, 3))
            exact = point_segment_distance(p, a, b)
            samples = a[None, :] + ts[:, None] * (b - a)[None, :]
            sampled = float(np.min(np.linalg.norm(samples - p, axis=1)))
            # the sampled minimum can only overshoot, by at most one
            # grid step of arc length
            step = float(np.linalg.norm(b - a)) / 2000.0
            assert exact <= sampled + 1e-12
            assert sampled - exact <= step + 1e-12


class TestOracleSuccess:
    def test_flythrough_counts_even_when_no_pose_is_close(self):
        traj = [(-100.0, 0.0, 0.0), (100.0, 0.0, 0.0)]
        goal = (0.0, 0.0, 0.0)
        assert all(math.dist(p, goal) >= 20.0 for p in traj)
        assert oracle_success(traj, goal) is True

    def test_far_segment_does_not_count(self):
        traj = [(-100.0, 30.0, 0.0), (100.0, 30.0, 0.0)]
        assert oracle_success(traj, (0.0, 0.0, 0.0)) is False

    def test_single_pose_trajectories(self):
        assert oracle_success([(1.0, 0.0, 0.0)], (0, 0, 0)) is True
        assert oracle_success([(30.0, 0.0, 0.0)], (0, 0, 0)) is False

    def test_accepts_poses(self):
        traj = [UavPose(0, -50, 10), UavPose(0, 50, 10)]
        assert oracle_success(traj, (0.0, 0.0, 10.0)) is True

    def test_empty_trajectory_is_an_error(self):
        with pytest.raises(ValueError):
            oracle_success([], (0, 0, 0))

    def test_radius_is_strict_at_the_boundary(self):
        assert oracle_success([(20.0, 0.0, 0.0)], (0, 0, 0)) is False
        assert oracle_success([(20.0, 0.0, 0.0)], (0, 0, 0),
                              radius=20.001) is True


def _result(eid, ne, ok, oracle, stopped_by, n_traces=0):
    pose = UavPose(0.0, 0.0, 0.0)
    traces = tuple(
        StepTrace(index=i, pose=pose, prompt="p", response="r",
                  action=Action("stop"), matrix_text="m", map_text="s")
        for i in range(n_traces))
    return EpisodeResult(
        episode_id=eid, trajectory=(pose,), stop_pose=pose,
        stopped_by=stopped_by, ne=ne, success=ok, oracle_success=oracle,
        step_traces=traces)


class TestAggregate:
    def test_hand_computed_means_and_rates(self):
        results = [
            _result("a", 2.0, True, True, "stop-action"),
            _result("b", 4.0, False, True, "max-actions"),
            _result("c", 6.0, True, True, "stop-action"),
            _result("d", 8.0, False, False, "error"),
        ]
        summary = aggregate(results)
        assert summary == Summary(count=4, mean_ne=5.0, sr=50.0, osr=75.0)

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestFormatSummary:
    def test_exact_table(self):
        text = format_summary(Summary(count=10, mean_ne=3.525, sr=80.0,
                                      osr=100.0))
        assert text == ("episodes      NE/m      SR/%     OSR/%\n"
                        "      10     3.525      80.0     100.0\n")


class TestResultsCsv:
    def test_exact_rows(self):
        results = [
            _result("ep_a", 1.23456, True, True, "stop-action", n_traces=2),
            _result("ep_b", 20.0, False, True, "max-actions"),
        ]
        assert results_csv_text(results) == (
            "episode_id,ne_m,success,oracle_success,steps,stopped_by\n"
            "ep_a,1.235,1,1,2,stop-action\n"
            "ep_b,20.000,0,1,0,max-actions\n")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class TestLoopConfig:
    def test_defaults_validate(self):
        LoopConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"tau": 0.0},
        {"tau": 1.0},
        {"matrix_size": 15},
        {"matrix_size": 0},
        {"r": 0.0},
        {"r": 7.5},                       # not a multiple of VOXEL_SIZE
        {"r": 2.5},                       # rounds to zero blocks
        {"r": -5.0},
        {"r": 5.000001},
        {"mount": "sideways"},
        {"plan_mode": "amnesiac"},
        {"map_format": "hologram"},
        {"matrix_size": -2},
        {"max_actions": -1},
        {"max_actions": 0},
        {"matrix_size": 100000},          # window side beyond the cap
        {"matrix_size": 10**30},
        {"matrix_size": 10**400},         # beyond a float
        {"r": 1e308},
        {"r": 5e-324},                    # a subnormal
        {"matrix_size": 4, "r": 1285.0},  # 4 * 257 cells
    ])
    def test_invalid_values_are_rejected(self, kwargs):
        config = LoopConfig(**kwargs)
        with pytest.raises(ValueError):
            config.validate()

    def test_a_window_at_the_cap_is_accepted(self):
        LoopConfig(matrix_size=4, r=1280.0).validate()   # 4 * 256 cells
        LoopConfig(matrix_size=evaluation.MAX_WINDOW_CELLS).validate()

    def test_float_fields_take_integers(self):
        LoopConfig(r=10).validate()

    def test_template_placeholders_are_checked(self):
        LoopConfig(template="go {instruction} on {size}x{size}").validate()
        with pytest.raises(TemplateError, match="nowhere"):
            LoopConfig(template="go {nowhere}").validate()

    def test_block_is_cells_per_matrix_entry(self):
        assert LoopConfig(r=5.0).block == 1
        assert LoopConfig(r=10.0).block == 2

    def test_mount_matrix_selection(self):
        assert LoopConfig(mount="forward").mount_matrix is FORWARD_MOUNT
        assert LoopConfig(mount="down").mount_matrix is DOWNWARD_MOUNT


# ---------------------------------------------------------------------------
# the loop itself
# ---------------------------------------------------------------------------

class TestRunEpisode:
    def test_immediate_stop(self, wall_scene, ep_north):
        result = run_episode(wall_scene, ep_north,
                             ScriptedBackend([STOP_RESPONSE]))
        assert result.stopped_by == "stop-action"
        assert result.steps == 1
        assert len(result.trajectory) == 2
        assert result.stop_pose == ep_north.start
        assert result.ne == pytest.approx(math.sqrt(300.0), abs=1e-9)
        assert result.success is True
        assert result.oracle_success is True

    def test_prompt_carries_instruction_plan_and_matrix(self, wall_scene,
                                                        ep_north):
        result = run_episode(wall_scene, ep_north,
                             ScriptedBackend([STOP_RESPONSE]))
        prompt = result.step_traces[0].prompt
        assert ep_north.instruction in prompt
        assert "(In Process)" in prompt
        assert result.step_traces[0].matrix_text in prompt
        assert "-1:your past trajectory" in prompt

    def test_requery_recovers_within_budget(self, wall_scene, ep_north):
        backend = ScriptedBackend(["no verb here at all",
                                   "still rambling on",
                                   STOP_RESPONSE])
        result = run_episode(wall_scene, ep_north, backend)
        assert result.stopped_by == "stop-action"
        assert result.steps == 1
        notes = result.step_traces[0].notes
        assert any(n.startswith("attempt 1 unparseable") for n in notes)
        assert any(n.startswith("attempt 2 unparseable") for n in notes)

    def test_persistent_garbage_falls_back_then_aborts(self, wall_scene,
                                                       ep_north):
        backend = ScriptedBackend(["gibberish"] * 10)
        result = run_episode(wall_scene, ep_north, backend)
        assert result.stopped_by == "error"
        assert result.steps == MAX_UNPARSEABLE
        for trace in result.step_traces:
            assert trace.action == Action("straight", 0.0, 0.0)
            assert "no parseable response; holding position" in trace.notes
            assert sum(n.startswith("attempt ") for n in trace.notes) == \
                REQUERY_LIMIT + 1
        assert result.stop_pose.position == pytest.approx(
            ep_north.start.position)
        assert result.success is False

    def test_max_actions_cap_from_config(self, wall_scene, ep_north):
        backend = ScriptedBackend([STRAIGHT_ONE] * 10)
        config = LoopConfig(max_actions=3)
        result = run_episode(wall_scene, ep_north, backend, config=config)
        assert result.stopped_by == "max-actions"
        assert result.steps == 3
        assert len(result.trajectory) == 4
        assert result.stop_pose.y == pytest.approx(5.5)

    def test_episode_cap_applies_by_default(self, wall_scene, ep_north):
        backend = ScriptedBackend([STRAIGHT_ONE] * 20)
        result = run_episode(wall_scene, ep_north, backend)
        assert result.steps == ep_north.max_actions

    def test_collision_is_clipped_noted_and_reported_back(self, wall_scene,
                                                          ep_east):
        backend = ScriptedBackend(
            ["Action: (straight), (0 degrees), (10 meters)",
             STOP_RESPONSE])
        result = run_episode(wall_scene, ep_east, backend)
        assert result.stop_pose.x == pytest.approx(4.5)
        assert result.stop_pose.y == pytest.approx(2.5)
        assert "collision: blocked by building" in \
            result.step_traces[0].notes
        assert "straight 10 meters (collision)" in \
            result.step_traces[1].prompt

    def test_perceptor_failure_stops_with_an_error_trace(self, wall_scene,
                                                         ep_north):
        class FailingPerceptor:
            def perceive(self, depth, semantic):
                raise StmrNavError("camera unplugged")

        result = run_episode(wall_scene, ep_north,
                             ScriptedBackend([STOP_RESPONSE]),
                             perceptor=FailingPerceptor())
        assert result.stopped_by == "error"
        assert result.steps == 1
        trace = result.step_traces[0]
        assert trace.action is None
        assert trace.notes == ("error: camera unplugged",)
        assert result.success is False

    def test_action_clamp_notes_are_recorded(self, wall_scene, ep_north):
        backend = ScriptedBackend(
            ["Action: (straight), (0 degrees), (12 meters)",
             STOP_RESPONSE])
        result = run_episode(wall_scene, ep_north, backend)
        assert any(n == "action note: clamped distance 12 -> 10"
                   for n in result.step_traces[0].notes)

    def test_topo_map_format_replaces_the_matrix_block(self, wall_scene,
                                                       ep_north):
        config = LoopConfig(map_format="topo")
        result = run_episode(wall_scene, ep_north,
                             ScriptedBackend([STOP_RESPONSE]),
                             config=config)
        trace = result.step_traces[0]
        assert "Place 0:" in trace.prompt
        assert trace.matrix_text not in trace.prompt
        assert trace.matrix_text.startswith("[")

    def test_topo_places_are_the_trajectory_cells_in_first_visit_order(
            self, wall_scene, ep_north):
        # north 10 m, north 5 m, then back 15 m over the cells already
        # flown: the places stay (0, 0), (0, 2), (0, 3), and (0, 1) joins
        script = ["Action: (straight), (0 degrees), (10 meters)",
                  "Action: (straight), (0 degrees), (5 meters)",
                  "Action: (back), (0 degrees), (10 meters)",
                  "Action: (back), (0 degrees), (5 meters)",
                  STOP_RESPONSE]
        result = run_episode(wall_scene, ep_north, ScriptedBackend(script),
                             config=LoopConfig(map_format="topo"))
        assert result.steps == 5
        for trace in result.step_traces:
            flown = result.trajectory[:trace.index + 1]
            want = []
            for pose in flown:
                cell = (math.floor(pose.x / 5.0), math.floor(pose.y / 5.0))
                if cell not in want:
                    want.append(cell)
            places = re.findall(r"^Place (\d+): .* at cell \((-?\d+), "
                                r"(-?\d+)\)$", trace.prompt, re.MULTILINE)
            assert [int(k) for k, _, _ in places] == list(range(len(want)))
            assert [(int(i), int(j)) for _, i, j in places] == want
        assert want == [(0, 0), (0, 2), (0, 3), (0, 1)]

    @pytest.mark.parametrize("mode", ["state", "stateless"])
    def test_unresolved_landmark_is_noted_once(self, wall_scene, ep_north,
                                               mode):
        # the road sub-goal completes over the road at step 0; the next
        # one names a pond the legend lacks
        start = UavPose(12.5, 2.5, 15.0, yaw=math.pi / 2)
        episode = dataclasses.replace(
            ep_north, instruction="head to the road and head to the pond",
            start=start)
        script = ["Action: (straight), (0 degrees), (5 meters)"] * 2 + [
            STOP_RESPONSE]
        result = run_episode(wall_scene, episode, ScriptedBackend(script),
                             config=LoopConfig(mount="down",
                                               plan_mode=mode))
        assert result.steps == 3
        warnings = [(t.index, n) for t in result.step_traces
                    for n in t.notes if n.startswith("plan warning")]
        assert warnings == [
            (0, "plan warning: landmark 'pond' has no legend entry")]

    def test_metric_map_format_produces_bearing_clauses(self, wall_scene,
                                                        ep_east):
        config = LoopConfig(map_format="metric")
        result = run_episode(wall_scene, ep_east,
                             ScriptedBackend([STOP_RESPONSE]),
                             config=config)
        prompt = result.step_traces[0].prompt
        assert ("meters away" in prompt) or ("nothing mapped yet" in prompt)
        assert result.step_traces[0].matrix_text not in prompt

    def test_subgoal_landmarks_resolve_at_the_configured_tau(
            self, wall_scene, ep_east):
        # "white building" scores about 0.61 against the legend name
        # "building": filter_masks keeps and labels the building masks at
        # tau 0.5, and the sub-goal must resolve at the same tau to win
        # priority and complete beside the wall
        episode = dataclasses.replace(
            ep_east, instruction="fly to the white building")
        for tau, status in ((0.5, "Completed"), (0.8, "In Process")):
            result = run_episode(wall_scene, episode,
                                 ScriptedBackend([STOP_RESPONSE]),
                                 config=LoopConfig(tau=tau))
            assert (f"1. ({status}) fly to the white building"
                    in result.step_traces[0].prompt), tau

    def test_invalid_config_is_rejected_before_flying(self, wall_scene,
                                                      ep_north):
        with pytest.raises(ValueError):
            run_episode(wall_scene, ep_north,
                        ScriptedBackend([STOP_RESPONSE]),
                        config=LoopConfig(tau=2.0))


METRIC_LEGEND = {1: "road", 2: "building", 3: "river"}


@st.composite
def metric_cases(draw):
    """A map, a pose and a half span for the metric map text.

    Cells go negative; poses land anywhere, on cell edges or on cell
    centers (where equal distances tie); the map may be empty."""
    cs = draw(st.sampled_from([2.5, 5.0, 10.0]))
    reach = draw(st.integers(1, 12))      # small reaches fill the map densely
    index = st.integers(-reach, reach)
    ids = draw(st.sampled_from([[1], [1, 2], [1, 2, 3]]))
    labels = draw(st.dictionaries(st.tuples(index, index),
                                  st.sampled_from(ids), max_size=60))
    grid = st.integers(-reach - 2, reach + 2)
    coord = st.one_of(st.floats(-70, 70),
                      grid.map(lambda k: k * cs),
                      grid.map(lambda k: (k + 0.5) * cs))
    half_span = draw(st.one_of(st.floats(0, 40),
                               st.integers(0, 6).map(lambda k: k * cs)))
    pose = UavPose(draw(coord), draw(coord), 20.0,
                   yaw=draw(st.floats(0, 6.28)))
    return TopDownMap(cell_size=cs, labels=labels), pose, half_span


class TestMetricTextMatchesReference:
    """Scanning the span's cells prints what sorting every cell did."""

    @given(metric_cases())
    # two road cells 5 m west and 5 m south of the vehicle: the sorted
    # scan meets (-1, 0) first, so the road is reported behind it
    @example((TopDownMap(cell_size=5.0, labels={(-1, 0): 1, (0, -1): 1}),
              UavPose(2.5, 2.5, 20.0, yaw=0.3), 20.0))
    @settings(max_examples=300, deadline=None)
    def test_byte_equal(self, case):
        tdmap, pose, half_span = case
        assert evaluation._metric_text(tdmap, pose, METRIC_LEGEND,
                                       half_span) == \
            metric_text_reference(tdmap, pose, METRIC_LEGEND, half_span)


# ---------------------------------------------------------------------------
# traces on disk and suite running
# ---------------------------------------------------------------------------

class TestWriteEpisodeTrace:
    def test_directory_layout_and_pose_file(self, wall_scene, ep_east,
                                            tmp_path):
        backend = ScriptedBackend(
            ["Action: (straight), (0 degrees), (10 meters)",
             STOP_RESPONSE])
        result = run_episode(wall_scene, ep_east, backend)
        write_episode_trace(result, tmp_path)

        base = tmp_path / "ep_east"
        for i, trace in enumerate(result.step_traces):
            step = base / f"step_{i}"
            for name in ("prompt.txt", "response.txt", "matrix.txt",
                         "map.txt"):
                assert (step / name).is_file()
            assert (step / "notes.txt").is_file() == bool(trace.notes)
            assert (step / "prompt.txt").read_text(encoding="utf-8") == \
                trace.prompt

        pose_line = (base / "step_0" / "pose.txt").read_text(
            encoding="utf-8")
        assert pose_line == "2.5 2.5 10.0 0.0 0.0 0.0\n"
        notes = (base / "step_0" / "notes.txt").read_text(encoding="utf-8")
        assert "collision: blocked by building" in notes


class TestReadStepTrace:
    def test_reads_back_what_was_written(self, wall_scene, ep_east,
                                         tmp_path):
        backend = ScriptedBackend(
            ["Action: (straight), (0 degrees), (10 meters)",
             STOP_RESPONSE])
        result = run_episode(wall_scene, ep_east, backend)
        write_episode_trace(result, tmp_path)
        for trace in result.step_traces:
            back = read_step_trace(tmp_path / "ep_east", trace.index)
            assert back == dataclasses.replace(trace, action=None)
        assert read_step_trace(tmp_path / "ep_east", 2) is None

    @pytest.mark.parametrize("pose", ["abc\n", "1.0 2.0 3.0\n",
                                      "1 2 3 0 0 nan\n"])
    def test_malformed_pose_is_a_value_error(self, tmp_path, pose):
        step = tmp_path / "step_0"
        step.mkdir()
        for name in ("prompt", "response", "matrix", "map"):
            (step / f"{name}.txt").write_text("", encoding="utf-8")
        (step / "pose.txt").write_text(pose, encoding="utf-8")
        with pytest.raises(ValueError):
            read_step_trace(tmp_path, 0)


class TestRunSuite:
    @staticmethod
    def _episodes():
        episodes = []
        for tag in ("a", "b", "c"):
            episodes.append(parse_episode(
                EP_NORTH.replace("id ep_north", f"id ep_{tag}")))
        return episodes

    def test_results_keep_input_order_even_in_parallel(self, wall_scene):
        episodes = self._episodes()
        calls = []

        def factory(episode, index):
            calls.append((episode.episode_id, index))
            return ScriptedBackend([STOP_RESPONSE])

        results = run_suite(wall_scene, episodes, factory, parallel=2)
        assert [r.episode_id for r in results] == ["ep_a", "ep_b", "ep_c"]
        assert sorted(calls) == [("ep_a", 0), ("ep_b", 1), ("ep_c", 2)]

    def test_parallel_matches_serial_output(self, wall_scene):
        episodes = self._episodes()

        def factory(episode, index):
            return ScriptedBackend([STOP_RESPONSE])

        serial = run_suite(wall_scene, episodes, factory, parallel=1)
        threaded = run_suite(wall_scene, episodes, factory, parallel=2)
        assert results_csv_text(serial) == results_csv_text(threaded)
        assert [r.stop_pose for r in serial] == \
            [r.stop_pose for r in threaded]

    def test_out_dir_gets_traces_csv_and_summary(self, wall_scene,
                                                 tmp_path):
        episodes = self._episodes()

        def factory(episode, index):
            return ScriptedBackend([STOP_RESPONSE])

        results = run_suite(wall_scene, episodes, factory,
                            out_dir=tmp_path)
        assert (tmp_path / "results.csv").read_text(encoding="utf-8") == \
            results_csv_text(results)
        assert (tmp_path / "summary.txt").read_text(encoding="utf-8") == \
            format_summary(aggregate(results))
        for tag in ("a", "b", "c"):
            assert (tmp_path / f"ep_{tag}" / "step_0" /
                    "prompt.txt").is_file()

    def test_bad_template_stops_the_suite_before_any_episode(
            self, wall_scene):
        calls = []

        def factory(episode, index):
            calls.append(index)
            return ScriptedBackend([STOP_RESPONSE])

        with pytest.raises(TemplateError):
            run_suite(wall_scene, self._episodes(), factory,
                      config=LoopConfig(template="go {nowhere}"))
        assert calls == []

    def test_dropped_connection_fails_only_its_episode(
            self, wall_scene, tmp_path, monkeypatch):
        def post(*args, **kwargs):
            raise requests.exceptions.ChunkedEncodingError("dropped")

        monkeypatch.setattr(requests, "post", post)

        def factory(episode, index):
            if index == 1:
                return RemoteBackend("http://localhost:1/v1",
                                     sleep=lambda s: None)
            return ScriptedBackend([STOP_RESPONSE])

        results = run_suite(wall_scene, self._episodes(), factory,
                            out_dir=tmp_path)
        assert [r.stopped_by for r in results] == [
            "stop-action", "error", "stop-action"]
        notes = (tmp_path / "ep_b" / "step_0" / "notes.txt").read_text(
            encoding="utf-8")
        assert "error: no response after 3 attempts: dropped" in notes
        assert (tmp_path / "results.csv").read_text(encoding="utf-8") == \
            results_csv_text(results)

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_crashing_episode_keeps_the_finished_ones(
            self, wall_scene, tmp_path, monkeypatch, parallel):
        doomed = ScriptedBackend([STOP_RESPONSE])
        real_query = evaluation.query

        def query(backend, bundle):
            if backend is doomed:
                raise RuntimeError("bug in a stage")
            return real_query(backend, bundle)

        monkeypatch.setattr(evaluation, "query", query)

        def factory(episode, index):
            return doomed if index == 1 else ScriptedBackend([STOP_RESPONSE])

        with pytest.raises(RuntimeError, match="bug in a stage") as err:
            run_suite(wall_scene, self._episodes(), factory,
                      parallel=parallel, out_dir=tmp_path)
        assert "raised in episode ep_b; 2 of 3 episodes finished" in \
            err.value.__notes__
        finished = run_suite(wall_scene, [self._episodes()[i] for i in (0, 2)],
                             lambda e, i: ScriptedBackend([STOP_RESPONSE]))
        assert (tmp_path / "results.csv").read_text(encoding="utf-8") == \
            results_csv_text(finished)
        assert (tmp_path / "summary.txt").read_text(encoding="utf-8") == \
            format_summary(aggregate(finished))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ep_a", "ep_c", "results.csv", "summary.txt"]

    def test_first_crash_in_input_order_is_raised(self, wall_scene,
                                                  tmp_path):
        def factory(episode, index):
            raise (KeyError if index == 0 else RuntimeError)(index)

        with pytest.raises(KeyError):
            run_suite(wall_scene, self._episodes(), factory, parallel=2,
                      out_dir=tmp_path)
        assert (tmp_path / "results.csv").read_text(encoding="utf-8") == \
            "episode_id,ne_m,success,oracle_success,steps,stopped_by\n"
        assert not (tmp_path / "summary.txt").exists()

    def test_parallel_must_be_positive(self, wall_scene):
        with pytest.raises(ValueError):
            run_suite(wall_scene, self._episodes(),
                      lambda e, i: ScriptedBackend([STOP_RESPONSE]),
                      parallel=0)

    def test_repeated_episode_id_is_refused_before_any_write(
            self, wall_scene, tmp_path):
        out = tmp_path / "out"
        episodes = self._episodes()
        with pytest.raises(ValueError, match="'ep_b' repeats"):
            run_suite(wall_scene, episodes + episodes[1:2],
                      lambda e, i: ScriptedBackend([STOP_RESPONSE]),
                      out_dir=out)
        assert not out.exists()

    def test_empty_episode_list_is_refused_before_any_write(
            self, wall_scene, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="no episodes to run"):
            run_suite(wall_scene, [],
                      lambda e, i: ScriptedBackend([STOP_RESPONSE]),
                      out_dir=out)
        assert not out.exists()

    def test_start_outside_the_scene_is_refused_before_any_write(
            self, wall_scene, tmp_path):
        out = tmp_path / "out"
        episodes = self._episodes()
        episodes[1] = dataclasses.replace(
            episodes[1], start=UavPose(2.5, -1.0, 10.0))
        with pytest.raises(ValueError, match=re.escape(
                "episode 'ep_b': start (2.5, -1) outside scene bounds")):
            run_suite(wall_scene, episodes,
                      lambda e, i: ScriptedBackend([STOP_RESPONSE]),
                      out_dir=out)
        assert not out.exists()

    def test_a_start_far_outside_the_scene_is_refused_under_a_memory_cap(
            self, tmp_path):
        # Flown, the first action clips the pose into the scene, and the
        # trail is then marked every 2.5 m across 1e12 m.
        proc = run_capped(RUN_SUITE_FROM_FAR, FIXTURES, tmp_path / "out")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("episode 'ep001': start (1e+12, 100) outside "
                               "scene bounds 600 x 600\n")
        assert not (tmp_path / "out").exists()

    def test_out_dir_that_cannot_be_a_directory_fails_before_any_episode(
            self, wall_scene, tmp_path):
        out = tmp_path / "out"
        out.write_text("a file, not a directory\n", encoding="utf-8")
        calls = []

        def factory(episode, index):
            calls.append(index)
            return ScriptedBackend([STOP_RESPONSE])

        with pytest.raises(FileExistsError):
            run_suite(wall_scene, self._episodes(), factory, parallel=2,
                      out_dir=out)
        assert calls == []

    @pytest.mark.parametrize("parallel", [2, 4])
    def test_parallel_episodes_take_turns_computing(self, wall_scene,
                                                    monkeypatch, parallel):
        real_render = evaluation.render
        guard = threading.Lock()
        inside = []
        most = 0

        def render(*args, **kwargs):
            nonlocal most
            with guard:
                inside.append(None)
                most = max(most, len(inside))
            try:
                time.sleep(0.002)       # widens the window for an overlap
                return real_render(*args, **kwargs)
            finally:
                with guard:
                    inside.pop()

        monkeypatch.setattr(evaluation, "render", render)
        episodes = [parse_episode(EP_NORTH.replace("id ep_north",
                                                   f"id ep_{i}"))
                    for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # many more thread switches
        try:
            results = run_suite(
                wall_scene, episodes,
                lambda e, i: ScriptedBackend([STRAIGHT_ONE] * 3
                                             + [STOP_RESPONSE]),
                parallel=parallel)
        finally:
            sys.setswitchinterval(interval)
        assert [r.stopped_by for r in results] == ["stop-action"] * 6
        assert [len(r.step_traces) for r in results] == [4] * 6
        assert most == 1

    def test_parallel_backend_waits_still_overlap(self, wall_scene):
        # each episode's first answer waits for the other episode's first
        # query, which cannot come while the waiting one holds the turn
        meeting = threading.Barrier(2, timeout=10)

        class MeetsTheOther:
            def __init__(self):
                self.met = False

            def complete(self, prompt):
                if not self.met:
                    self.met = True
                    meeting.wait()
                return STOP_RESPONSE

        results = run_suite(wall_scene, self._episodes()[:2],
                            lambda e, i: MeetsTheOther(), parallel=2)
        assert [r.stopped_by for r in results] == ["stop-action"] * 2

    def test_traces_are_written_while_later_episodes_still_run(
            self, wall_scene, tmp_path):
        first_prompt = tmp_path / "out" / "ep_a" / "step_0" / "prompt.txt"

        class WaitsForTheFirstTrace:
            def complete(self, prompt):
                deadline = time.monotonic() + 10
                while not first_prompt.exists():
                    if time.monotonic() > deadline:
                        raise PlanningBackendError("ep_a is not written")
                    time.sleep(0.005)
                return STOP_RESPONSE

        def factory(episode, index):
            if index == 2:
                return WaitsForTheFirstTrace()
            return ScriptedBackend([STOP_RESPONSE])

        results = run_suite(wall_scene, self._episodes(), factory,
                            parallel=2, out_dir=tmp_path / "out")
        assert [r.stopped_by for r in results] == ["stop-action"] * 3
        run_suite(wall_scene, self._episodes(),
                  lambda e, i: ScriptedBackend([STOP_RESPONSE]),
                  parallel=1, out_dir=tmp_path / "serial")
        assert _tree_bytes(tmp_path / "out") == \
            _tree_bytes(tmp_path / "serial")

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_failed_write_stops_the_suite(self, wall_scene, tmp_path,
                                          monkeypatch, parallel):
        written = threading.Event()

        def write_episode_trace(result, out_root):
            written.set()
            raise OSError("disk full")

        monkeypatch.setattr(evaluation, "write_episode_trace",
                            write_episode_trace)

        class WaitsForTheWrite:
            def complete(self, prompt):
                written.wait(timeout=2)
                return STOP_RESPONSE

        started = []

        def factory(episode, index):
            started.append(index)
            return ScriptedBackend([STOP_RESPONSE]) if index == 0 \
                else WaitsForTheWrite()

        episodes = [parse_episode(EP_NORTH.replace("id ep_north",
                                                   f"id ep_{i}"))
                    for i in range(8)]
        with pytest.raises(OSError, match="disk full"):
            run_suite(wall_scene, episodes, factory, parallel=parallel,
                      out_dir=tmp_path)
        # the episodes in flight when the write failed finish; no other
        # episode starts
        assert sorted(started) == list(range(len(started)))
        assert len(started) <= parallel + 1


class TestTraceWriter:
    """``run_suite`` hands each step to a forked writer process.  A write
    that fails, or a writer that dies, stops the suite with an error that
    names the episode; an episode that raises leaves nothing on disk; and
    the writer is reaped however the suite ends."""

    @staticmethod
    def _episodes(n):
        return [parse_episode(EP_NORTH.replace("id ep_north", f"id ep_{i}"))
                for i in range(n)]

    @staticmethod
    def _four_steps(episode=None, index=None):
        return ScriptedBackend([STRAIGHT_ONE] * 3 + [STOP_RESPONSE])

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_a_real_write_failure_stops_the_suite(self, wall_scene, tmp_path,
                                                  parallel):
        (tmp_path / "ep_0").mkdir()
        (tmp_path / "ep_0" / "step_1").write_text("a file, not a step\n",
                                                  encoding="utf-8")
        started = []

        def factory(episode, index):
            started.append(index)
            return self._four_steps()

        with pytest.raises(FileExistsError, match="step_1") as err:
            run_suite(wall_scene, self._episodes(8), factory,
                      parallel=parallel, out_dir=tmp_path)
        assert "raised writing the trace of episode ep_0" in \
            err.value.__notes__
        assert sorted(started) == list(range(len(started)))
        assert len(started) <= parallel + 1
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_a_writer_that_dies_is_an_error_naming_the_episode(
            self, wall_scene, tmp_path, monkeypatch, parallel):
        died = tmp_path / "died"

        def write_episode_trace(result, out_root):
            died.touch()
            os._exit(1)

        monkeypatch.setattr(evaluation, "write_episode_trace",
                            write_episode_trace)

        class AfterTheWriterDied:
            """Answers every query after the first only once the writer
            has gone, so the steps after it go down a broken pipe."""

            def __init__(self):
                self.script = TestTraceWriter._four_steps()
                self.queries = 0

            def complete(self, prompt):
                self.queries += 1
                deadline = time.monotonic() + 10
                while (self.queries > 1 and not died.exists()
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                if self.queries > 1:
                    time.sleep(0.05)    # lets the writer's exit close the pipe
                return self.script.complete(prompt)

        with pytest.raises(ChildProcessError,
                           match="trace writer exited with status 1") as err:
            run_suite(wall_scene, self._episodes(4),
                      lambda e, i: AfterTheWriterDied(), parallel=parallel,
                      out_dir=tmp_path / "out")
        assert "raised writing the trace of episode ep_0" in \
            err.value.__notes__
        assert died.exists()
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_an_episode_that_raises_leaves_no_directory(
            self, wall_scene, tmp_path, monkeypatch, parallel):
        doomed = self._four_steps()
        real_query = evaluation.query
        doomed_queries = []

        def query(backend, bundle):
            if backend is doomed:
                doomed_queries.append(None)
                if len(doomed_queries) == 3:
                    raise RuntimeError("bug at step 2")
            return real_query(backend, bundle)

        monkeypatch.setattr(evaluation, "query", query)
        with pytest.raises(RuntimeError, match="bug at step 2"):
            run_suite(wall_scene, self._episodes(3),
                      lambda e, i: doomed if i == 1 else self._four_steps(),
                      parallel=parallel, out_dir=tmp_path / "out")
        run_suite(wall_scene, [self._episodes(3)[i] for i in (0, 2)],
                  self._four_steps, out_dir=tmp_path / "clean")
        assert _tree_bytes(tmp_path / "out") == \
            _tree_bytes(tmp_path / "clean")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "ep_0", "ep_2", "results.csv", "summary.txt"]

    @pytest.mark.parametrize("parallel", [1, 2])
    @pytest.mark.parametrize("ending", ["return", "raise", "interrupt"])
    def test_the_writer_is_reaped_however_the_suite_ends(
            self, wall_scene, tmp_path, parallel, ending):
        before = child_pids()
        if before is None:
            pytest.skip("this kernel does not list child processes")

        class EndsAtStep1:
            def __init__(self):
                self.queries = 0

            def complete(self, prompt):
                self.queries += 1
                if self.queries == 2 and ending == "raise":
                    raise RuntimeError("bug at step 1")
                if self.queries == 2 and ending == "interrupt":
                    raise KeyboardInterrupt
                return STRAIGHT_ONE if self.queries == 1 else STOP_RESPONSE

        raised = {"return": None, "raise": RuntimeError,
                  "interrupt": KeyboardInterrupt}[ending]
        out = tmp_path / "out"
        with (pytest.raises(raised) if raised
              else contextlib.nullcontext()):
            run_suite(wall_scene, self._episodes(3),
                      lambda e, i: EndsAtStep1() if i == 1 else
                      ScriptedBackend([STRAIGHT_ONE, STOP_RESPONSE]),
                      parallel=parallel, out_dir=out)
        assert child_pids() == before
        assert (out / "ep_0" / "step_1" / "pose.txt").is_file()
        assert (out / "ep_1").exists() == (raised is None)


def _tree_bytes(root) -> dict[str, bytes]:
    """Every file under ``root``, by path relative to it."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


GOLDEN_DIGESTS = os.path.join(os.path.dirname(__file__), "goldens",
                              "fixture_suite_digests.json")


def _episode_digest(result) -> str:
    """sha256 of every step's index, prompt, matrix, map and pose."""
    h = hashlib.sha256()
    for t in result.step_traces:
        pose = " ".join(repr(v) for v in (t.pose.x, t.pose.y, t.pose.z,
                                          t.pose.pitch, t.pose.roll,
                                          t.pose.yaw))
        for part in (str(t.index), t.prompt, t.matrix_text, t.map_text,
                     pose):
            h.update(part.encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()


def test_fixture_suite_matches_the_recorded_digests(scene, episodes):
    """Every step's prompt, matrix, map snapshot and pose on the bundled
    suite is byte-for-byte what the recorded goldens hold."""
    with open(GOLDEN_DIGESTS, encoding="utf-8") as f:
        want = json.load(f)["episodes"]
    results = run_suite(scene, episodes, scripted_factory,
                        config=LoopConfig(mount="forward"))
    assert {r.episode_id: _episode_digest(r) for r in results} == want


def test_every_layer_the_benchmark_tracer_wraps_exists():
    """``perfbench/tracer.py`` times the loop by swapping wrappers in for
    the layer functions ``stmrnav.evaluation`` looks up by name; a layer
    renamed or merged away must fail here, not only in a traced
    benchmark run."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "tracer.py")
    tracer = types.ModuleType("perfbench_tracer")
    with open(path, encoding="utf-8") as f:
        # compiled here, so nothing is written under perfbench/
        exec(compile(f.read(), path, "exec"), tracer.__dict__)
    assert tracer.missing_layers(evaluation) == []
