"""Bit-identity of ``world.march_rays`` with the lockstep reference marcher.

``march_rays`` carries only the rays still in flight and skips tests that
cannot fire; ``reference_marcher.march_rays_reference`` advances every ray
that entered the scene through every step.  Both must return the same
bytes: depth, labels, and the sign of every zero.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_marcher import march_rays_reference
from stmrnav import world
from stmrnav.evaluation import DEFAULT_INTRINSICS
from stmrnav.geometry import DOWNWARD_MOUNT, FORWARD_MOUNT, UavPose
from stmrnav.world import Scene
from test_world import random_scene

# Exact zeros of both signs exercise the axis-parallel branches; shallow
# slopes keep rays near the tops of cells for many steps.
COMPONENT = st.one_of(st.just(0.0), st.just(-0.0),
                      st.floats(-3.0, 3.0, allow_nan=False))
SLOPE = st.one_of(COMPONENT, st.floats(-0.1, 0.1))
DIRECTIONS = st.lists(st.tuples(COMPONENT, COMPONENT, SLOPE),
                      min_size=1, max_size=40)
# An altitude, or a height at or just above the tallest cell top.
ALTITUDE = st.one_of(st.floats(0.0, 15.0),
                     st.tuples(st.just("top"), st.floats(0.0, 1.0)))


def assert_same_bytes(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].dtype == want[1].dtype


@given(seed=st.integers(0, 2**32 - 1),
       fx=st.floats(-0.3, 1.3), fy=st.floats(-0.3, 1.3),
       z=ALTITUDE, dirs=DIRECTIONS, t_limit=st.floats(1.0, 80.0))
@settings(max_examples=300, deadline=None)
def test_random_scenes_match_the_reference(seed, fx, fy, z, dirs, t_limit):
    scene = random_scene(np.random.default_rng(seed))
    ext_x, ext_y = scene.extent
    if isinstance(z, tuple):
        z = float(scene.height.max()) + z[1]
    origin = np.array([fx * ext_x, fy * ext_y, z])
    dirs = np.array(dirs, dtype=np.float64)
    assert_same_bytes(world.march_rays(scene, origin, dirs, t_limit),
                      march_rays_reference(scene, origin, dirs, t_limit))


@given(x=st.floats(-20.0, 620.0), y=st.floats(-20.0, 620.0),
       z=st.one_of(st.floats(0.5, 80.0), st.just("top")),
       pitch=st.floats(-0.3, 0.3), roll=st.floats(-0.3, 0.3),
       yaw=st.floats(-math.pi, math.pi),
       mount=st.sampled_from(["forward", "down"]))
@settings(max_examples=60, deadline=None)
def test_fixture_renders_match_the_reference(scene, x, y, z, pitch, roll,
                                             yaw, mount):
    z = float(scene.height.max()) if z == "top" else z
    pose = UavPose(x, y, z, pitch=pitch, roll=roll, yaw=yaw)
    mount = FORWARD_MOUNT if mount == "forward" else DOWNWARD_MOUNT
    got = world.render(scene, pose, DEFAULT_INTRINSICS, mount)
    with mock.patch.object(world, "march_rays", march_rays_reference):
        want = world.render(scene, pose, DEFAULT_INTRINSICS, mount)
    assert_same_bytes(got, want)


def test_shallow_descent_from_above_the_tallest_cell_still_hits():
    # One 12 m cell at the far end of a flat strip; the ray starts 0.2 m
    # above it and loses only 0.05 m per meter flown, so it stays above
    # every cell top for several steps before it enters the tall cell.
    scene = Scene(cell_size=2.0, legend={1: "road", 2: "building"},
                  height=np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 12.0]]),
                  label=np.array([[1, 1, 1, 1, 1, 2]]),
                  clearance=np.zeros((1, 6)))
    origin = np.array([0.5, 1.0, 12.2])
    dirs = np.array([[1.0, 0.0, -0.05]])
    got = world.march_rays(scene, origin, dirs, 20.0)
    assert_same_bytes(got, march_rays_reference(scene, origin, dirs, 20.0))
    assert got[0][0] == 9.5 and got[1][0] == 2


@pytest.mark.parametrize("z", [1.0, 20.0])
def test_subnormal_components_trace_without_overflow_warnings(z):
    # Dividing by a component below about 1e-308 overflows to inf, the
    # intended slab, step or hit distance, and must not warn.  From 1 m
    # the rays pass under the canopy cell; from 20 m they are above all.
    scene = Scene(cell_size=5.0, legend={1: "road", 2: "building",
                                         3: "tree"},
                  height=np.array([[0.0, 0.0, 0.0, 0.0],
                                   [0.0, 0.0, 10.0, 0.0],
                                   [0.0, 12.0, 0.0, 0.0]]),
                  label=np.array([[1, 1, 1, 1], [1, 1, 3, 1], [1, 2, 1, 1]]),
                  clearance=np.array([[0.0, 0.0, 0.0, 0.0],
                                      [0.0, 0.0, 4.0, 0.0],
                                      [0.0, 0.0, 0.0, 0.0]]),
                  under_label=1)
    origin = np.array([2.5, 7.5, z])
    tiny = 1e-310
    dirs = np.array([[1.0, 0.0, tiny], [1.0, 0.0, -tiny],
                     [1.0, tiny, -0.05], [tiny, 1.0, -0.1],
                     [-tiny, 1.0, -tiny], [1.0, -tiny, tiny],
                     [tiny, tiny, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = world.march_rays(scene, origin, dirs, 60.0)
    with np.errstate(all="ignore"):
        want = march_rays_reference(scene, origin, dirs, 60.0)
    assert_same_bytes(got, want)
