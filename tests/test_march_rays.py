"""Bit-identity of ``world.march_rays`` and ``world.march_columns`` with
the lockstep reference marcher, and which of the two ``render`` takes.

``march_rays`` carries only the rays still in flight and skips tests that
cannot fire; ``march_columns`` walks each image column once for all its
rays; ``reference_marcher.march_rays_reference`` advances every ray that
entered the scene through every step.  All must return the same bytes:
depth, labels, and the sign of every zero.
"""

import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scripted_factory
from reference_marcher import march_rays_reference
from stmrnav import world
from stmrnav.evaluation import DEFAULT_INTRINSICS, run_suite
from stmrnav.geometry import (
    DOWNWARD_MOUNT,
    FORWARD_MOUNT,
    MAX_RANGE,
    CameraIntrinsics,
    UavPose,
    camera_to_world_rotation,
)
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
    with reference_paths():
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


# ---------------------------------------------------------------------------
# the miss test (``world._proven_misses``), the sink cell and compaction
# ---------------------------------------------------------------------------

def spy_on_misses():
    """Patch ``world._proven_misses`` to record every ray it drops (as a
    direction) and how many rays it tested."""
    real = world._proven_misses
    seen = {"tested": 0, "dropped": []}

    def spy(scene, origin, dirs, t_enter, t_exit):
        miss = real(scene, origin, dirs, t_enter, t_exit)
        seen["tested"] += miss.size
        seen["dropped"].append(dirs[:, miss].T)
        return miss

    return mock.patch.object(world, "_proven_misses", spy), seen


def canopy_scene(rng):
    """A random scene whose every cell of 6 m or more is an elevated slab."""
    scene = random_scene(rng)
    clearance = np.where(scene.height >= 6.0, 2.0, 0.0)
    return Scene(cell_size=scene.cell_size, legend=scene.legend,
                 height=scene.height, label=scene.label,
                 clearance=clearance, under_label=1)


def nudged(value, ulps):
    for _ in range(abs(ulps)):
        value = np.nextafter(value, np.inf if ulps > 0 else -np.inf)
    return float(value)


# Near-horizontal slopes keep a ray within a few ulps of a cell top.
NEAR_FLAT = st.one_of(st.just(0.0), st.just(-0.0),
                      st.floats(-1e-12, 1e-12), st.floats(-3.0, 3.0))


@st.composite
def miss_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scene = canopy_scene(rng) if draw(st.booleans()) else random_scene(rng)
    cs = scene.cell_size
    i = draw(st.integers(0, scene.nx - 1))
    j = draw(st.integers(0, scene.ny - 1))
    where = draw(st.sampled_from(["peak", "block-edge", "free"]))
    if where == "peak":
        # on the tallest cell around (i, j), a few ulps off its top
        block = scene.height[max(j - 1, 0):j + 2, max(i - 1, 0):i + 2]
        jj, ii = np.unravel_index(np.argmax(block), block.shape)
        i, j = max(i - 1, 0) + ii, max(j - 1, 0) + jj
        z = nudged(scene.height[j, i], draw(st.integers(-3, 3)))
        x = (i + draw(st.floats(0.0, 1.0))) * cs
        y = (j + draw(st.floats(0.0, 1.0))) * cs
    else:
        z = draw(st.floats(0.0, 15.0))
        if where == "block-edge":
            # on a line between blocks of 2^l cells of the pyramid
            edge = 2 ** draw(st.integers(1, 3))
            x = (i // edge) * edge * cs
            y = (j + draw(st.floats(0.0, 1.0))) * cs
        else:
            x = draw(st.floats(-0.3, 1.3)) * scene.extent[0]
            y = draw(st.floats(-0.3, 1.3)) * scene.extent[1]
    dirs = np.array(draw(st.lists(st.tuples(COMPONENT, COMPONENT, NEAR_FLAT),
                                  min_size=1, max_size=40)))
    t_limit = draw(st.one_of(st.floats(1.0, 80.0), st.just(math.inf)))
    return scene, np.array([x, y, z]), dirs, t_limit


@given(case=miss_cases())
@settings(max_examples=300, deadline=None)
def test_every_ray_the_miss_test_drops_is_a_miss(case):
    scene, origin, dirs, t_limit = case
    patch, seen = spy_on_misses()
    with patch:
        got = world.march_rays(scene, origin, dirs, t_limit)
    with np.errstate(all="ignore"):
        assert_same_bytes(got, march_rays_reference(scene, origin, dirs,
                                                    t_limit))
        dropped = np.concatenate(seen["dropped"] or [np.zeros((0, 3))])
        t, label = march_rays_reference(scene, origin, dropped, t_limit)
    assert not label.any()
    assert t.tobytes() == np.zeros_like(t).tobytes()


def test_the_miss_test_drops_most_rays_of_a_forward_frame(scene):
    # Level flight at 30 m over the riverside: the rays that climb from
    # above every top are dropped before the test; most of the rest pass
    # over the scene within the 100 m range and must not be marched.
    # ``render`` sends such a frame to the column walk, so its rays go to
    # ``march_rays`` directly.
    pose = UavPose(152.5, 102.5, 30.0, yaw=0.5)
    dirs = (world._camera_rays(DEFAULT_INTRINSICS)
            @ camera_to_world_rotation(pose, FORWARD_MOUNT).T)
    patch, seen = spy_on_misses()
    with patch:
        got = world.march_rays(scene, pose.position, dirs, MAX_RANGE)
    want = march_rays_reference(scene, pose.position, dirs, MAX_RANGE)
    assert_same_bytes(got, want)
    dropped = sum(d.shape[0] for d in seen["dropped"])
    assert seen["tested"] > 0
    assert dropped > seen["tested"] / 2


def test_rays_through_a_grid_corner_at_a_piece_end_are_not_dropped():
    # Each ray passes (within rounding) through the corner shared by four
    # cells at t = 1, where the miss test ends the second of the four
    # pieces of its span [0, 2].  Of the two cells it can touch only at
    # that corner one is a 10 m block, and the rest of the scene is flat.
    # The walk may step into the block there for no time at all and hit
    # it, while the rounded piece ends can put the ray on either side of
    # both grid lines.  The one-cell widening of each piece's box is what
    # keeps such rays.
    rng = np.random.default_rng(7)
    for cs in (0.3, 0.7, 1.1):
        for a, b in ((3, 1), (3, 5), (5, 2)):
            for i, j in ((a, b - 1), (a - 1, b)):
                height = np.zeros((8, 8))
                height[j, i] = 10.0
                scene = Scene(cell_size=cs,
                              legend={1: "road", 2: "building"},
                              height=height,
                              label=np.where(height > 0, 2, 1),
                              clearance=np.zeros((8, 8)))
                corner = np.array([a * cs, b * cs])
                for _ in range(40):
                    origin = np.append(
                        corner - rng.uniform(0.1, 2.0, size=2) * cs, 5.0)
                    xy = corner - origin[:2]
                    dirs = np.array([[xy[0], xy[1], -1.0]])
                    got = world.march_rays(scene, origin, dirs, 2.0)
                    assert_same_bytes(
                        got, march_rays_reference(scene, origin, dirs, 2.0))


def test_rays_whose_range_ends_on_the_ground_are_not_dropped():
    # The range limit is exactly the time each ray comes down to the
    # flat ground, so the walk's last hit test fires at t = t_limit, but
    # z rounded at that t can sit an ulp above the ground.  The margin of
    # the miss test is what keeps such rays.
    scene = Scene(cell_size=5.0, legend={1: "road"},
                  height=np.zeros((6, 6)),
                  label=np.ones((6, 6), dtype=np.int64),
                  clearance=np.zeros((6, 6)))
    rng = np.random.default_rng(11)
    origin = np.array([2.5, 2.5, 0.0])
    for _ in range(200):
        origin[2] = rng.uniform(0.5, 3.0)
        dirs = np.array([[1.0, rng.uniform(0.0, 1.0),
                          -rng.uniform(0.05, 1.0)]])
        t_limit = -origin[2] / dirs[0, 2]
        got = world.march_rays(scene, origin, dirs, t_limit)
        assert_same_bytes(got,
                          march_rays_reference(scene, origin, dirs, t_limit))


def test_rays_that_finish_at_different_steps_match_the_reference():
    # A 60-cell strip: rays that dive into it, rays that leave it sideways
    # while still coming down, and rays that skim it from end to end.
    # Finished rays sit on the sink cell while the others walk on, until
    # fewer than half are live and the arrays are compacted; a sink that
    # could be hit would give the parked rays a hit they never made.
    height = np.zeros((3, 60))
    height[:, 45:] = 4.0
    scene = Scene(cell_size=2.0, legend={1: "road", 2: "building"},
                  height=height, label=np.where(height > 0, 2, 1),
                  clearance=np.zeros((3, 60)))
    origin = np.array([1.0, 3.0, 8.0])
    dirs = np.array([
        [1.0, 0.0, -2.0], [1.0, 0.0, -0.5], [1.0, 0.0, -0.25],
        [1.0, 1.0, -0.1], [1.0, -1.0, -0.1], [1.0, 2.0, -0.05],
        [1.0, 0.5, -0.2],
        [1.0, 0.0, -0.05], [1.0, 0.01, -0.08], [1.0, 0.0, -0.12],
        [1.0, -0.01, 0.0], [1.0, 0.0, 0.01], [1.0, 0.0, -0.09],
    ])
    got = world.march_rays(scene, origin, dirs, 200.0)
    assert_same_bytes(got, march_rays_reference(scene, origin, dirs, 200.0))
    assert got[1][:3].tolist() == [1, 1, 1] and not got[1][3:6].any()


def test_an_unbounded_range_matches_the_reference():
    # Straight down at a subnormal rate: the time to reach the cell top
    # overflows to inf, and with no range limit so does the cell's exit.
    # Such a ray never arrives, so it must stay a miss.
    scene = Scene(cell_size=5.0, legend={1: "road"},
                  height=np.full((2, 2), 3.0),
                  label=np.ones((2, 2), dtype=np.int64),
                  clearance=np.zeros((2, 2)))
    origin = np.array([2.5, 2.5, 10.0])
    dirs = np.array([[0.0, 0.0, -1e-310], [0.0, 0.0, -1.0],
                     [1.0, 0.0, -1e-310]])
    got = world.march_rays(scene, origin, dirs, math.inf)
    with np.errstate(all="ignore"):
        want = march_rays_reference(scene, origin, dirs, math.inf)
    assert_same_bytes(got, want)
    assert got[1].tolist() == [0, 1, 0]


# NaN and huge values in the origin or the directions: a huge position
# must saturate, not wrap, when the miss test casts it to a cell.
EXTREME = st.sampled_from([math.nan, 1e300, -1e300])


@st.composite
def extreme_cases(draw):
    scene = random_scene(np.random.default_rng(
        draw(st.integers(0, 2**32 - 1))))
    origin = [draw(st.floats(-0.3, 1.3)) * scene.extent[0],
              draw(st.floats(-0.3, 1.3)) * scene.extent[1],
              draw(st.floats(0.0, 15.0))]
    dirs = [list(d) for d in draw(st.lists(
        st.tuples(COMPONENT, COMPONENT, SLOPE), min_size=1, max_size=20))]
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            origin[draw(st.integers(0, 2))] = draw(EXTREME)
        else:
            row = draw(st.integers(0, len(dirs) - 1))
            dirs[row][draw(st.integers(0, 2))] = draw(EXTREME)
    t_limit = draw(st.one_of(st.floats(1.0, 80.0), st.just(math.inf)))
    return scene, np.array(origin), np.array(dirs), t_limit


@given(case=extreme_cases())
@settings(max_examples=300, deadline=None)
def test_nan_and_huge_inputs_match_the_reference(case):
    scene, origin, dirs, t_limit = case
    patch, seen = spy_on_misses()
    with np.errstate(all="ignore"):
        with patch:
            got = world.march_rays(scene, origin, dirs, t_limit)
        assert_same_bytes(got, march_rays_reference(scene, origin, dirs,
                                                    t_limit))
        dropped = np.concatenate(seen["dropped"] or [np.zeros((0, 3))])
        t, label = march_rays_reference(scene, origin, dropped, t_limit)
    assert not label.any()
    assert t.tobytes() == np.zeros_like(t).tobytes()


def test_the_miss_test_keeps_rays_whose_pieces_end_far_off_the_grid():
    # From the middle of a flat 8 x 8 strip, 5 m up, toward a 10 m column
    # two cells back: the piece ends lie ~1e299 m away, so the first piece
    # crosses the column below its top and the ray must stay.  A cell
    # index cast from such a position without clipping wraps, and the
    # piece's box then skips the column.  A NaN height keeps the ray too.
    height = np.zeros((8, 8))
    height[:, 2] = 10.0
    scene = Scene(cell_size=1.0, legend={1: "road", 2: "building"},
                  height=height, label=np.where(height > 0, 2, 1),
                  clearance=np.zeros((8, 8)))
    origin = np.array([4.5, 4.5, 5.0])
    dirs = np.array([[-1e300, -1.0], [0.0, 0.0], [0.0, math.nan]])
    with np.errstate(all="ignore"):
        miss = world._proven_misses(scene, origin, dirs, np.zeros(2),
                                    np.ones(2))
    assert not miss.any()


# ---------------------------------------------------------------------------
# the column walk (``world.march_columns``) and the path ``render`` takes
# ---------------------------------------------------------------------------

# Subnormal components, whose quotients overflow, and huge ones.
EXTREME_COMPONENT = st.sampled_from([5e-324, -5e-324, 1e-310, -1e-310,
                                     1e300, -1e300])
IMAGE_SHAPE = st.one_of(st.tuples(st.just(1), st.integers(1, 8)),
                        st.tuples(st.integers(1, 8), st.just(1)),
                        st.tuples(st.integers(1, 6), st.integers(1, 6)))


def without_canopy(scene):
    return Scene(cell_size=scene.cell_size, legend=scene.legend,
                 height=scene.height, label=scene.label,
                 clearance=np.zeros_like(scene.height),
                 under_label=scene.under_label)


@st.composite
def column_cases(draw):
    """A random scene with or without canopy, an origin anywhere or at a
    cell top (exactly or one ulp off), and directions for a rows x cols
    image whose columns each share one horizontal direction."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scene = random_scene(rng)
    if draw(st.booleans()):
        scene = without_canopy(scene)
    if draw(st.booleans()):
        i = draw(st.integers(0, scene.nx - 1))
        j = draw(st.integers(0, scene.ny - 1))
        x = (i + draw(st.floats(0.0, 1.0))) * scene.cell_size
        y = (j + draw(st.floats(0.0, 1.0))) * scene.cell_size
        z = nudged(scene.height[j, i], draw(st.integers(-1, 1)))
    else:
        x = draw(st.floats(-0.3, 1.3)) * scene.extent[0]
        y = draw(st.floats(-0.3, 1.3)) * scene.extent[1]
        z = draw(st.floats(0.0, 15.0))
    rows, cols = draw(IMAGE_SHAPE)
    horizontal = st.one_of(COMPONENT, EXTREME_COMPONENT)
    dirs = np.empty((rows, cols, 3))
    dirs[:, :, :2] = draw(st.lists(st.tuples(horizontal, horizontal),
                                   min_size=cols, max_size=cols))
    dirs[:, :, 2] = np.reshape(draw(st.lists(
        st.one_of(SLOPE, EXTREME_COMPONENT), min_size=rows * cols,
        max_size=rows * cols)), (rows, cols))
    t_limit = draw(st.one_of(st.floats(1.0, 80.0), st.just(math.inf)))
    return scene, np.array([x, y, z]), dirs, t_limit


def march_columns_quietly(scene, origin, dirs, t_limit):
    """``march_columns`` with every numpy floating-point event and every
    warning turned into an error."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        return world.march_columns(scene, origin, dirs, t_limit)


@given(case=column_cases())
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_the_column_walk_matches_the_reference(case):
    scene, origin, dirs, t_limit = case
    got = march_columns_quietly(scene, origin, dirs, t_limit)
    with np.errstate(all="ignore"):
        want = march_rays_reference(scene, origin, dirs.reshape(-1, 3),
                                    t_limit)
    assert_same_bytes(got, want)


@pytest.mark.parametrize("z", [1.0, 20.0])
def test_extreme_columns_trace_without_floating_point_events(z):
    # The scene of the subnormal test above; each column's horizontal
    # direction has a zero of either sign, a subnormal or a huge
    # component, and its rays climb, descend or stay level, some by
    # subnormal or huge slopes.
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
    tiny, huge = 1e-310, 1e300
    horizontal = [(1.0, 0.0), (1.0, -0.0), (-0.0, 1.0), (1.0, tiny),
                  (tiny, 1.0), (-tiny, -1.0), (huge, 1.0), (1.0, -huge),
                  (tiny, tiny), (0.0, -0.0)]
    slopes = [tiny, -tiny, 0.0, -0.0, -0.05, 0.1, -1.0, huge, -huge]
    dirs = np.array([[(dx, dy, dz) for dx, dy in horizontal]
                     for dz in slopes])
    got = march_columns_quietly(scene, origin, dirs, 60.0)
    with np.errstate(all="ignore"):
        want = march_rays_reference(scene, origin, dirs.reshape(-1, 3), 60.0)
    assert_same_bytes(got, want)
    assert got[1].any()


def spy_on_paths():
    """Patch ``world.march_columns`` and ``world.march_rays`` to record
    which of them runs, in call order, with its number of rays."""
    calls = []
    stack = contextlib.ExitStack()
    for name in ("march_columns", "march_rays"):
        def spy(scene, origin, dirs, t_limit, name=name,
                real=getattr(world, name)):
            calls.append((name, np.asarray(dirs).size // 3))
            return real(scene, origin, dirs, t_limit)
        stack.enter_context(mock.patch.object(world, name, spy))
    return stack, calls


def reference_paths():
    """Patch both paths of ``render`` to the reference marcher."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(world, "march_rays",
                                          march_rays_reference))
    stack.enter_context(mock.patch.object(
        world, "march_columns", lambda scene, origin, dirs, t_limit:
        march_rays_reference(scene, origin, dirs.reshape(-1, 3), t_limit)))
    return stack


@given(seed=st.integers(0, 2**32 - 1), canopy=st.booleans(),
       fx=st.floats(-0.3, 1.3), fy=st.floats(-0.3, 1.3), z=ALTITUDE,
       yaw=st.one_of(st.sampled_from([0.0, math.pi / 2, -math.pi / 2,
                                      math.pi]),
                     st.floats(-math.pi, math.pi)),
       shape=IMAGE_SHAPE)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_level_renders_take_the_column_walk(seed, canopy, fx, fy, z, yaw,
                                            shape):
    scene = random_scene(np.random.default_rng(seed))
    if not canopy:
        scene = without_canopy(scene)
    if isinstance(z, tuple):
        z = float(scene.height.max()) + z[1]
    pose = UavPose(fx * scene.extent[0], fy * scene.extent[1], z, yaw=yaw)
    rows, cols = shape
    k = CameraIntrinsics(fx=2.0, fy=2.0, cx=(cols - 1) / 2,
                         cy=(rows - 1) / 2, width=cols, height=rows)
    patch, calls = spy_on_paths()
    with patch:
        got = world.render(scene, pose, k)
    assert calls == [("march_columns", rows * cols)]
    with reference_paths():
        want = world.render(scene, pose, k)
    assert_same_bytes(got, want)


def test_every_fixture_suite_frame_takes_the_column_walk(scene, episodes):
    patch, calls = spy_on_paths()
    with patch:
        run_suite(scene, episodes, scripted_factory)
    frame = DEFAULT_INTRINSICS.width * DEFAULT_INTRINSICS.height
    assert calls.count(("march_columns", frame)) == 316
    # the rest are the collision casts of ``apply_action``, one ray each
    assert set(calls) == {("march_columns", frame), ("march_rays", 1)}


def test_downward_frames_take_march_rays(scene):
    frame = DEFAULT_INTRINSICS.width * DEFAULT_INTRINSICS.height
    for yaw in np.radians(np.arange(0.0, 360.0, 15.0)):
        pose = UavPose(302.5, 297.5, 40.0, yaw=float(yaw))
        patch, calls = spy_on_paths()
        with patch:
            world.render(scene, pose, DEFAULT_INTRINSICS, DOWNWARD_MOUNT)
        assert calls == [("march_rays", frame)]


@pytest.mark.parametrize("tilt", [5e-324, -5e-324, 2.0**-52, -2.0**-52])
@pytest.mark.parametrize("axis", ["pitch", "roll"])
def test_a_tilt_of_one_ulp_takes_march_rays_once_columns_differ(
        scene, axis, tilt):
    # One ulp of 0 vanishes in the rotation, and every column still
    # shares its direction; one ulp of 1 does not.
    for yaw in (0.0, 0.5, math.pi / 2, math.pi):
        pose = UavPose(152.5, 102.5, 30.0, yaw=yaw, **{axis: tilt})
        r = camera_to_world_rotation(pose, FORWARD_MOUNT)
        dirs = (world._camera_rays(DEFAULT_INTRINSICS) @ r.T).reshape(
            DEFAULT_INTRINSICS.height, DEFAULT_INTRINSICS.width, 3)
        shared = bool((dirs[..., :2] == dirs[:1, :, :2]).all())
        assert shared == (abs(tilt) < 1e-300)
        patch, calls = spy_on_paths()
        with patch:
            got = world.render(scene, pose, DEFAULT_INTRINSICS)
        path = "march_columns" if shared else "march_rays"
        assert calls == [(path, dirs.size // 3)]
        with reference_paths():
            want = world.render(scene, pose, DEFAULT_INTRINSICS)
        assert_same_bytes(got, want)


def test_cast_ray_never_takes_the_column_walk(scene):
    patch, calls = spy_on_paths()
    origin = np.array([152.5, 102.5, 30.0])
    with patch:
        for direction in ([1.0, 0.0, 0.0], [0.0, 0.0, -1.0],
                          [0.6, -0.8, 0.0], [-0.0, 1.0, 0.0]):
            world.cast_ray(scene, origin, np.array(direction), 100.0)
    assert calls == [("march_rays", 1)] * 4
