"""Time the program's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py SCENE SCRIPT_DIR EPISODE [EPISODE ...]

Imports stmrnav, loads the scene, every episode and every episode's
script, and prints the seconds that took.  Interpreter start-up is not
counted; everything a run does before its first step is.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from stmrnav import evaluation, planner, world  # noqa: E402,F401

scene_path, script_dir, *episode_paths = sys.argv[1:]
scene = world.load_scene(scene_path)
for path in episode_paths:
    episode = world.load_episode(path)
    planner.ScriptedBackend.from_file(
        os.path.join(script_dir, f"{episode.episode_id}.txt"))
print(repr(time.perf_counter() - t0))
