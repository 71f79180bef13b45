"""Regenerate the packaged scene, episodes, and ground-truth scripts.

Run from the repository root:

    PYTHONPATH=src python3 tools/make_fixtures.py

The outputs under src/stmrnav/fixtures/ are committed; this script
exists so they can be audited and rebuilt deterministically, and
``fixture_texts()`` returns them without writing, so a test can check
the committed files against it.  Episodes
are authored as action sequences and simulated with the real motion
model, so each episode's goal and path are exactly what replaying its
script produces.  The script asserts every authored action is
collision-free and that path lengths stay in the 50-500 m band.
"""

from __future__ import annotations

import math
import os

import numpy as np

from stmrnav.geometry import UavPose
from stmrnav.planner import Action, serialize_action
from stmrnav.world import apply_action, parse_scene

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.normpath(
    os.path.join(HERE, "..", "src", "stmrnav", "fixtures"))

N = 120          # cells per side
CS = 5.0         # meters per cell

NORTH = math.pi / 2
EAST = 0.0
WEST = math.pi
SOUTH = -math.pi / 2


def build_scene_text() -> str:
    height = np.zeros((N, N), dtype=int)
    label = np.full((N, N), 4, dtype=int)      # grass everywhere
    clearance = np.zeros((N, N), dtype=int)

    # river: north-south band, x in [250, 270)
    label[:, 50:54] = 3

    # roads (drawn after the river; crossings become bridges)
    label[20:22, :] = 1          # south road, y in [100, 110)
    label[80:82, :] = 1          # north road, y in [400, 410)
    label[:, 20:22] = 1          # west road, x in [100, 110)
    label[:, 90:92] = 1          # east road, x in [450, 460)

    # parking lot north-east of the south-road / west-road crossing
    label[23:28, 24:29] = 6

    # buildings
    for (j0, j1, i0, i1, h) in [
        (30, 34, 30, 35, 18),
        (60, 65, 10, 14, 25),
        (40, 45, 70, 75, 15),
        (14, 18, 100, 105, 20),
        (95, 99, 60, 64, 22),
        (85, 89, 75, 79, 12),
    ]:
        label[j0:j1, i0:i1] = 2
        height[j0:j1, i0:i1] = h

    # tree canopy over a stretch of the south road: foliage from 4 m to
    # 9 m with the road surface underneath
    label[20:22, 30:39] = 5
    height[20:22, 30:39] = 9
    clearance[20:22, 30:39] = 4

    def grid_lines(arr):
        return "\n".join(" ".join(str(int(v)) for v in row) for row in arr)

    return (
        "# synthetic riverside test scene\n"
        "stmr-scene v1\n"
        f"cell_size {CS:g}\n"
        "legend 1 road\n"
        "legend 2 building\n"
        "legend 3 river\n"
        "legend 4 grass\n"
        "legend 5 canopy\n"
        "legend 6 parking\n"
        "under_label 1\n"
        f"height {N} {N}\n" + grid_lines(height) + "\n"
        f"label {N} {N}\n" + grid_lines(label) + "\n"
        f"clearance {N} {N}\n" + grid_lines(clearance) + "\n")


def straight(n, dist=10):
    return [("straight", 0, dist)] * n


def turn(verb, times=6):
    return [(verb, 15, 0)] * times


EPISODES = [
    ("ep001",
     "lift off and head straight across the grass to the road",
     (132.5, 57.5, 20.0, NORTH),
     [("lift", 0, 5)] + straight(5, 9)),
    ("ep002",
     "follow the road east across the river and stop on the far side",
     (202.5, 105.0, 30.0, EAST),
     straight(10)),
    ("ep003",
     "fly low along the road under the canopy and across the river, "
     "then stop",
     (112.5, 107.5, 2.0, EAST),
     straight(15)),
    ("ep004",
     "head north up the road to the crossing, then turn right and "
     "follow the road east to the river",
     (102.5, 52.5, 30.0, NORTH),
     straight(5) + turn("right") + straight(15)),
    ("ep005",
     "follow the road north across the junction and stop",
     (457.5, 202.5, 35.0, NORTH),
     straight(25)),
    ("ep006",
     "cross the river heading west, then turn left and fly south over "
     "the grass, then descend and stop",
     (302.5, 352.5, 30.0, WEST),
     straight(14) + turn("left") + straight(15) + [("down", 0, 5)]),
    ("ep007",
     "go north to the road, then turn right and follow it east, then "
     "stop",
     (102.5, 307.5, 30.0, NORTH),
     straight(10) + turn("right") + straight(25)),
    ("ep008",
     "follow the road east across the river until you reach the "
     "junction, then stop",
     (52.5, 102.5, 28.0, EAST),
     straight(40)),
    ("ep009",
     "fly north along the road to the top road, then turn left and "
     "follow it west, then stop",
     (457.5, 52.5, 32.0, NORTH),
     straight(35) + turn("left") + straight(10)),
    ("ep010",
     "head east over the river, then turn right and fly south along "
     "the river to the road, then stop",
     (52.5, 407.5, 30.0, EAST),
     straight(20) + turn("right") + straight(30)),
]

_THOUGHTS = [
    "the route continues along the current leg",
    "still clear ahead, keeping course",
    "tracking the planned leg",
    "the next waypoint is further along this heading",
]


def simulate(scene, episode_id, start, actions):
    pose = UavPose(*start[:3], yaw=start[3])
    path = [pose]
    length = 0.0
    for verb, deg, dist in actions:
        outcome = apply_action(scene, pose, Action(verb, deg, dist))
        assert not outcome.collision, (
            f"{episode_id}: authored action ({verb},{deg},{dist}) at "
            f"{pose} collides: {outcome.reason}")
        length += math.dist(
            (pose.x, pose.y, pose.z),
            (outcome.pose.x, outcome.pose.y, outcome.pose.z))
        pose = outcome.pose
        path.append(pose)
    path.append(pose)  # the final stop action does not move
    return path, length


def pose_fields(p: UavPose) -> str:
    return " ".join(repr(float(v)) for v in (p.x, p.y, p.z, p.pitch, p.roll, p.yaw))


def episode_text(episode_id, instruction, path, goal, max_actions) -> str:
    lines = [
        "stmr-episode v1",
        f"id {episode_id}",
        f"instruction {instruction}",
        f"start {pose_fields(path[0])}",
        f"goal {' '.join(repr(float(v)) for v in goal)}",
        f"max_actions {max_actions}",
    ]
    lines += [f"path {pose_fields(p)}" for p in path]
    return "\n".join(lines) + "\n"


def script_text(actions) -> str:
    responses = []
    for step, (verb, deg, dist) in enumerate(actions):
        action = serialize_action(Action(verb, deg, dist))
        thought = _THOUGHTS[step % len(_THOUGHTS)]
        responses.append(
            f"Thought: {thought}.\n"
            "Observation: the map matches the expected surroundings.\n"
            "Plan: keeping the same plan.\n"
            f"Action: {action}")
    responses.append(
        "Thought: the destination is reached.\n"
        "Observation: the goal area is at the center of the map.\n"
        "Plan: everything is completed.\n"
        "Action: (stop), (0 degrees), (0 meters)")
    return "\n===\n".join(responses) + "\n"


def fixture_texts() -> dict[str, str]:
    """Every fixture file's text, keyed by its ``/``-separated path
    relative to the fixtures directory."""
    scene_text = build_scene_text()
    scene = parse_scene(scene_text)
    texts = {"riverside.scene": scene_text}
    for episode_id, instruction, start, actions in EPISODES:
        path, length = simulate(scene, episode_id, start, actions)
        assert 50.0 <= length <= 500.0, (episode_id, length)
        goal = (path[-1].x, path[-1].y, path[-1].z)
        max_actions = len(actions) + 1 + 10
        texts[f"{episode_id}.episode"] = episode_text(
            episode_id, instruction, path, goal, max_actions)
        texts[f"scripts/{episode_id}.txt"] = script_text(actions)
    return texts


def main() -> None:
    for rel, text in fixture_texts().items():
        out = os.path.join(FIXTURES, *rel.split("/"))
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        print(f"wrote {rel}")


if __name__ == "__main__":
    main()
