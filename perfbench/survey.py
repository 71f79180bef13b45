"""Seeded generator for the ``survey-down`` workload's flights.

Each flight is a back-and-forth (lawnmower) survey at a constant
altitude above every building of the riverside scene: legs of straight
10 m actions joined by U-turns made of 15 degree turns in place and a
short cross-track hop.  The instruction names every legend class, so
the caption filter keeps every mask and the world memory grows with
everything the downward camera sees.

The output is ordinary ``.episode`` files plus ``===``-separated script
files, the same formats as the bundled fixtures; the program under test
only ever reads those files.  Poses are computed here with plain
trigonometry (the motion rule of the action grammar), not with the
program's own motion code, so the goal is independent of the code
being measured.  The survey stays inside the scene and above the
tallest building, so no action collides and each flight ends exactly
at its goal.
"""

from __future__ import annotations

import math
import os
import random

DEFAULT_SEED = 20241011

SCENE_SIZE = 600.0        # riverside scene: 120 cells of 5 m per side
LEG_STEP = 10.0           # meters per straight action (the grammar's max)
TURN_STEP = 15.0          # degrees per turn action (the grammar's max)
LANE_HOPS = 3             # straight actions between two lanes (30 m)
LANES = 7
LEG = 12                  # straight actions per lane (120 m)
ALTITUDE = 40.0           # the tallest building is 25 m
EDGE = 40.0               # keep the whole flight this far inside the scene

LEGEND_PHRASES = ("the road", "the building", "the river", "the grass",
                  "the canopy", "the parking area")

_THOUGHTS = ("sweeping the current lane", "holding the survey heading",
             "the lane continues ahead", "keeping the lane spacing")


def _fmt(v: float) -> str:
    return repr(float(v))


def _pose_text(p) -> str:
    x, y, z, yaw = p
    return " ".join(_fmt(v) for v in (x, y, z, 0.0, 0.0, yaw))


def _actions(lanes: int, leg: int, first_turn: str):
    """Action list (verb, degrees, meters) for one lawnmower pattern."""
    actions = []
    turn = first_turn
    for lane in range(lanes):
        actions += [("straight", 0, LEG_STEP)] * leg
        if lane == lanes - 1:
            break
        actions += [(turn, TURN_STEP, 0)] * 6
        actions += [("straight", 0, LEG_STEP)] * LANE_HOPS
        actions += [(turn, TURN_STEP, 0)] * 6
        turn = "left" if turn == "right" else "right"
    return actions


def _fly(start, actions):
    """Poses after each action, by the grammar's motion rule."""
    x, y, z, yaw = start
    poses = [start]
    for verb, deg, dist in actions:
        if verb == "right":
            yaw = yaw - math.radians(deg)
        elif verb == "left":
            yaw = yaw + math.radians(deg)
        x = x + dist * math.cos(yaw)
        y = y + dist * math.sin(yaw)
        yaw = yaw % (2.0 * math.pi)
        poses.append((x, y, z, yaw))
    return poses


def _flight(rng: random.Random, index: int, short: bool):
    # The pattern's size is fixed, so every seed asks for the same
    # amount of work; the seed moves and turns it over the scene.
    lanes, leg = (2, 3) if short else (LANES, LEG)
    first_turn = rng.choice(("right", "left"))
    yaw = rng.choice((0.0, math.pi / 2, math.pi, -math.pi / 2))
    actions = _actions(lanes, leg, first_turn)

    # fly from the origin, then shift the whole pattern to a random
    # place where it fits inside the scene with EDGE to spare
    rel = _fly((0.0, 0.0, ALTITUDE, yaw), actions)
    xs = [p[0] for p in rel]
    ys = [p[1] for p in rel]
    lo_x = EDGE - min(xs)
    hi_x = SCENE_SIZE - EDGE - max(xs)
    lo_y = EDGE - min(ys)
    hi_y = SCENE_SIZE - EDGE - max(ys)
    # start on a cell center so the voxel bookkeeping sees round numbers
    x0 = 5.0 * rng.randint(math.ceil(lo_x / 5), math.floor(hi_x / 5) - 1) + 2.5
    y0 = 5.0 * rng.randint(math.ceil(lo_y / 5), math.floor(hi_y / 5) - 1) + 2.5
    poses = _fly((x0, y0, ALTITUDE, yaw), actions)
    assert all(EDGE / 2 < p[0] < SCENE_SIZE - EDGE / 2
               and EDGE / 2 < p[1] < SCENE_SIZE - EDGE / 2 for p in poses)

    phrases = list(LEGEND_PHRASES)
    rng.shuffle(phrases)
    instruction = ("survey back and forth over " + ", ".join(phrases[:-1])
                   + " and " + phrases[-1] + ", then stop")
    return f"sv{index + 1:03d}", instruction, poses, actions


def _episode_text(episode_id, instruction, poses, max_actions) -> str:
    goal = poses[-1]
    lines = ["stmr-episode v1",
             f"id {episode_id}",
             f"instruction {instruction}",
             f"start {_pose_text(poses[0])}",
             f"goal {_fmt(goal[0])} {_fmt(goal[1])} {_fmt(goal[2])}",
             f"max_actions {max_actions}"]
    lines += [f"path {_pose_text(p)}" for p in poses]
    return "\n".join(lines) + "\n"


def _script_text(actions) -> str:
    responses = []
    for step, (verb, deg, dist) in enumerate(actions):
        responses.append(
            f"Thought: {_THOUGHTS[step % len(_THOUGHTS)]}.\n"
            "Observation: the map matches the expected surroundings.\n"
            "Plan: keeping the same plan.\n"
            f"Action: ({verb}), ({deg:g} degrees), ({dist:g} meters)")
    responses.append(
        "Thought: the survey is complete.\n"
        "Observation: the last lane is done.\n"
        "Plan: everything is completed.\n"
        "Action: (stop), (0 degrees), (0 meters)")
    return "\n===\n".join(responses) + "\n"


def generate(seed: int, out_dir: str, flights: int,
             short: bool = False) -> list[str]:
    """Write ``flights`` survey episodes and their scripts under out_dir.

    ``short`` flies two three-action lanes per flight instead, for
    smoke runs.  Returns the episode file paths.  Scripts go to
    ``out_dir/scripts/<episode id>.txt``.  The same seed always writes
    the same bytes.
    """
    rng = random.Random(seed)
    os.makedirs(os.path.join(out_dir, "scripts"), exist_ok=True)
    paths = []
    for index in range(flights):
        episode_id, instruction, poses, actions = _flight(rng, index, short)
        path = os.path.join(out_dir, f"{episode_id}.episode")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(_episode_text(episode_id, instruction, poses,
                                  len(actions) + 1 + 10))
        with open(os.path.join(out_dir, "scripts", f"{episode_id}.txt"),
                  "w", encoding="utf-8", newline="") as f:
            f.write(_script_text(actions))
        paths.append(path)
    return paths
