"""Synthetic 2.5D aerial world: scene files, depth/semantic rendering, motion.

A scene is a height field on a uniform grid.  Each cell carries one
semantic label and an occupied height band.  Ordinary cells are solid
from the ground up to ``height``.  Cells with a positive ``clearance``
are elevated slabs (tree canopy, bridges): solid between ``clearance``
and ``height`` with free air underneath and ground at z = 0 labeled
``under_label``.

Grids are stored as (ny, nx) arrays indexed [j, i] where i counts
x-cells (east) and j counts y-cells (north); data row k of a scene file
covers the y band [k*cell_size, (k+1)*cell_size).  The scene occupies
[0, nx*cell_size) x [0, ny*cell_size) in world coordinates.

Rendering marches every pixel ray through the grid with the
Amanatides-Woo traversal, vectorized across rays: each step advances
every ray still in flight by one cell, and a ray leaves the working set
as soon as it hits, leaves the scene, passes the range limit, or can no
longer come down to any surface.  Ray directions are left unnormalized
at ((u-cx)/fx, (v-cy)/fy, 1) in the camera frame so the hit parameter t
is exactly the planar depth stored in the depth image: back-projecting
a rendered pixel with its stored depth reproduces the surface point
that was hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SceneParseError
from .geometry import (
    FORWARD_MOUNT,
    CameraIntrinsics,
    UavPose,
    camera_to_world_rotation,
)
from .planner import Action

_MISS_EPS = 1e-12


@dataclass(frozen=True)
class Scene:
    """Uniform-grid height field with per-cell semantic labels."""

    cell_size: float
    legend: dict[int, str]
    height: np.ndarray      # (ny, nx) float64, top of the occupied band
    label: np.ndarray       # (ny, nx) int64
    clearance: np.ndarray   # (ny, nx) float64, 0 where the cell is solid
    under_label: int = 0    # label of the ground under elevated cells

    @property
    def nx(self) -> int:
        return self.height.shape[1]

    @property
    def ny(self) -> int:
        return self.height.shape[0]

    @property
    def extent(self) -> tuple[float, float]:
        """(x, y) size of the scene in meters."""
        return (self.nx * self.cell_size, self.ny * self.cell_size)

    def label_name(self, label_id: int) -> str:
        return self.legend.get(label_id, f"label {label_id}")

    @cached_property
    def _march_grids(self):
        """What ``march_rays`` reads of the scene, built on first use: the
        height, label, canopy-underside and inside grids, flattened with a
        one-cell border, and the tallest cell top."""
        return (_padded(self.height, 0.0),
                _padded(self.label, 0),
                _padded(np.where(self.clearance > 0, self.clearance,
                                 -np.inf), -np.inf),
                _padded(np.ones(self.height.shape, dtype=bool), False),
                self.height.max())


@dataclass(frozen=True)
class Episode:
    """One navigation task: instruction, start pose, goal point, truth path."""

    episode_id: str
    instruction: str
    start: UavPose
    goal: np.ndarray        # (3,) float64
    max_actions: int
    path: tuple[UavPose, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class ActionOutcome:
    """Result of applying one action: new pose plus collision bookkeeping."""

    pose: UavPose
    collision: bool = False
    reason: str | None = None


# ---------------------------------------------------------------------------
# scene / episode files
# ---------------------------------------------------------------------------

def _significant_lines(text: str):
    """Yield (line_number, content) skipping blanks and # comments."""
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield n, line


def _parse_grid(lines, idx, nrows, ncols, caster, fieldname):
    rows = []
    for _ in range(nrows):
        if idx >= len(lines):
            raise SceneParseError(
                f"expected {nrows} data rows, file ended after {len(rows)}",
                field=fieldname)
        n, line = lines[idx]
        idx += 1
        parts = line.split()
        if len(parts) != ncols:
            raise SceneParseError(
                f"expected {ncols} values, got {len(parts)}",
                line=n, field=fieldname)
        try:
            rows.append([caster(p) for p in parts])
        except ValueError as exc:
            raise SceneParseError(str(exc), line=n, field=fieldname) from exc
    return rows, idx


def parse_scene(text: str) -> Scene:
    """Parse the scene text format (header ``stmr-scene v1``)."""
    lines = list(_significant_lines(text))
    if not lines or lines[0][1] != "stmr-scene v1":
        ln = lines[0][0] if lines else None
        raise SceneParseError("missing 'stmr-scene v1' header",
                              line=ln, field="header")

    cell_size = None
    legend: dict[int, str] = {}
    grids: dict[str, np.ndarray] = {}
    under_label = 0
    dims = None

    idx = 1
    while idx < len(lines):
        n, line = lines[idx]
        idx += 1
        parts = line.split()
        key = parts[0]
        if key == "cell_size":
            if len(parts) != 2:
                raise SceneParseError("cell_size takes one value",
                                      line=n, field="cell_size")
            cell_size = float(parts[1])
            if not (math.isfinite(cell_size) and cell_size > 0):
                raise SceneParseError("cell_size must be positive",
                                      line=n, field="cell_size")
        elif key == "legend":
            if len(parts) != 3:
                raise SceneParseError("legend takes an id and a name",
                                      line=n, field="legend")
            lid = int(parts[1])
            if lid < 1:
                raise SceneParseError("legend ids start at 1",
                                      line=n, field="legend")
            if lid in legend:
                raise SceneParseError(f"duplicate legend id {lid}",
                                      line=n, field="legend")
            legend[lid] = parts[2]
        elif key in ("height", "label", "clearance"):
            if len(parts) != 3:
                raise SceneParseError(f"{key} takes nrows and ncols",
                                      line=n, field=key)
            nrows, ncols = int(parts[1]), int(parts[2])
            if nrows < 1 or ncols < 1:
                raise SceneParseError("grid dimensions must be positive",
                                      line=n, field=key)
            if dims is None:
                dims = (nrows, ncols)
            elif dims != (nrows, ncols):
                raise SceneParseError(
                    f"grid is {nrows}x{ncols} but earlier blocks were "
                    f"{dims[0]}x{dims[1]}", line=n, field=key)
            caster = int if key == "label" else float
            rows, idx = _parse_grid(lines, idx, nrows, ncols, caster, key)
            if key in grids:
                raise SceneParseError(f"duplicate {key} block",
                                      line=n, field=key)
            grids[key] = np.array(
                rows, dtype=np.int64 if key == "label" else np.float64)
        elif key == "under_label":
            if len(parts) != 2:
                raise SceneParseError("under_label takes one id",
                                      line=n, field="under_label")
            under_label = int(parts[1])
        else:
            raise SceneParseError(f"unknown directive {key!r}", line=n)

    if cell_size is None:
        raise SceneParseError("missing cell_size", field="cell_size")
    if not legend:
        raise SceneParseError("missing legend entries", field="legend")
    for name in ("height", "label"):
        if name not in grids:
            raise SceneParseError(f"missing {name} grid", field=name)

    height = grids["height"]
    label = grids["label"]
    clearance = grids.get("clearance")
    if clearance is None:
        clearance = np.zeros_like(height)

    if not np.isfinite(height).all() or (height < 0).any():
        raise SceneParseError("heights must be finite and non-negative",
                              field="height")
    known = np.isin(label, list(legend))
    if not known.all():
        j, i = np.argwhere(~known)[0]
        raise SceneParseError(
            f"label id {label[j, i]} at cell ({i}, {j}) not in the legend",
            field="label")
    if not np.isfinite(clearance).all() or (clearance < 0).any():
        raise SceneParseError("clearance must be finite and non-negative",
                              field="clearance")
    elevated = clearance > 0
    if (clearance[elevated] >= height[elevated]).any():
        raise SceneParseError(
            "clearance must stay below the cell height", field="clearance")
    if elevated.any():
        if under_label not in legend:
            raise SceneParseError(
                "elevated cells need a legend-listed under_label",
                field="under_label")
    elif under_label and under_label not in legend:
        raise SceneParseError("under_label not in legend", field="under_label")

    return Scene(cell_size=cell_size, legend=dict(sorted(legend.items())),
                 height=height, label=label, clearance=clearance,
                 under_label=under_label)


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8") as f:
        return parse_scene(f.read())


def parse_episode(text: str) -> Episode:
    """Parse the episode text format (header ``stmr-episode v1``)."""
    lines = list(_significant_lines(text))
    if not lines or lines[0][1] != "stmr-episode v1":
        ln = lines[0][0] if lines else None
        raise SceneParseError("missing 'stmr-episode v1' header",
                              line=ln, field="header")

    episode_id = None
    instruction = None
    start = None
    goal = None
    max_actions = None
    path: list[UavPose] = []

    def _pose(parts, n, fieldname):
        if len(parts) != 6:
            raise SceneParseError("expected x y z pitch roll yaw",
                                  line=n, field=fieldname)
        try:
            x, y, z, pitch, roll, yaw = (float(p) for p in parts)
            return UavPose(x, y, z, pitch, roll, yaw)
        except ValueError as exc:
            raise SceneParseError(str(exc), line=n, field=fieldname) from exc

    for n, line in lines[1:]:
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "id":
            if not rest or len(rest.split()) != 1:
                raise SceneParseError("id must be a single token",
                                      line=n, field="id")
            episode_id = rest
        elif key == "instruction":
            if not rest:
                raise SceneParseError("instruction is empty",
                                      line=n, field="instruction")
            instruction = rest
        elif key == "start":
            start = _pose(rest.split(), n, "start")
        elif key == "goal":
            parts = rest.split()
            if len(parts) != 3:
                raise SceneParseError("goal takes x y z", line=n, field="goal")
            goal = np.array([float(p) for p in parts])
        elif key == "max_actions":
            max_actions = int(rest)
            if max_actions < 1:
                raise SceneParseError("max_actions must be positive",
                                      line=n, field="max_actions")
        elif key == "path":
            path.append(_pose(rest.split(), n, "path"))
        else:
            raise SceneParseError(f"unknown directive {key!r}", line=n)

    for name, val in (("id", episode_id), ("instruction", instruction),
                      ("start", start), ("goal", goal),
                      ("max_actions", max_actions)):
        if val is None:
            raise SceneParseError(f"missing {name}", field=name)
    if not path:
        raise SceneParseError("missing path", field="path")
    first = path[0]
    drift = max(abs(first.x - start.x), abs(first.y - start.y),
                abs(first.z - start.z), abs(first.yaw - start.yaw))
    if drift > 1e-9:
        raise SceneParseError("path must begin at the start pose",
                              field="path")

    return Episode(episode_id=episode_id, instruction=instruction,
                   start=start, goal=goal, max_actions=max_actions,
                   path=tuple(path))


def load_episode(path) -> Episode:
    with open(path, "r", encoding="utf-8") as f:
        return parse_episode(f.read())


# ---------------------------------------------------------------------------
# ray marching
# ---------------------------------------------------------------------------

def _slab_interval(o: float, d: np.ndarray, lo: float, hi: float,
                   t0: np.ndarray, t1: np.ndarray):
    """Intersect [t0, t1] with the slab lo <= o + d*t <= hi, in place."""
    nonzero = d != 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ta = np.where(nonzero, (lo - o) / d, -np.inf)
        tb = np.where(nonzero, (hi - o) / d, np.inf)
    lo_t = np.minimum(ta, tb)
    hi_t = np.maximum(ta, tb)
    inside = nonzero | ((o >= lo) & (o < hi))
    np.maximum(t0, np.where(nonzero, lo_t, -np.inf), out=t0)
    np.minimum(t1, np.where(nonzero, hi_t, np.inf), out=t1)
    t1[~inside] = -np.inf


def _padded(grid: np.ndarray, fill) -> np.ndarray:
    """Flatten ``grid`` with a one-cell border of ``fill`` on every side."""
    out = np.full((grid.shape[0] + 2, grid.shape[1] + 2), fill,
                  dtype=grid.dtype)
    out[1:-1, 1:-1] = grid
    return out.ravel()


def march_rays(scene: Scene, origin: np.ndarray, dirs: np.ndarray,
               t_limit: float):
    """Trace rays from a common origin through the height field.

    ``dirs`` is (N, 3) and need not be unit length; hit parameters are
    in units of each direction vector, clipped at ``t_limit``.  Returns
    (t_hit, hit_label), both (N,).  Misses carry t_hit = 0 and label 0.

    Every ray that enters the scene walks the grid cell by cell
    (Amanatides-Woo).  The walk is vectorized across rays and carries
    only the rays still in flight: their state is packed into one float
    and one index array, compacted after each step, and a ray drops out
    once it hits, steps off the grid, passes ``t_limit``, or is not
    descending and already above the tallest cell.  The canopy tests run
    only on steps where some live ray is over a cell with positive
    clearance.  Each ray goes through the same floating-point operations
    whatever other rays are traced with it.
    """
    dirs = np.asarray(dirs, dtype=np.float64)
    n = dirs.shape[0]
    ox, oy, oz = (float(origin[0]), float(origin[1]), float(origin[2]))
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    ext_x, ext_y = scene.extent
    cs = scene.cell_size

    t_hit = np.zeros(n)
    hit_label = np.zeros(n, dtype=np.int64)

    t_enter = np.zeros(n)
    t_exit = np.full(n, float(t_limit))
    _slab_interval(ox, dx, 0.0, ext_x, t_enter, t_exit)
    _slab_interval(oy, dy, 0.0, ext_y, t_enter, t_exit)
    active = t_enter < t_exit
    if not active.any():
        return t_hit, hit_label

    idx = np.nonzero(active)[0]
    te = t_enter[idx]
    tx = t_exit[idx]
    adx, ady, adz = dx[idx], dy[idx], dz[idx]
    px = ox + adx * te
    py = oy + ady * te
    ix = np.clip(np.floor(px / cs).astype(np.int64), 0, scene.nx - 1)
    iy = np.clip(np.floor(py / cs).astype(np.int64), 0, scene.ny - 1)

    step_x = np.where(adx > 0, 1, -1).astype(np.int64)
    step_y = np.where(ady > 0, 1, -1).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        next_x = np.where(adx > 0, (ix + 1) * cs, ix * cs)
        next_y = np.where(ady > 0, (iy + 1) * cs, iy * cs)
        t_max_x = np.where(adx != 0, te + (next_x - px) / adx, np.inf)
        t_max_y = np.where(ady != 0, te + (next_y - py) / ady, np.inf)
        t_delta_x = np.where(adx != 0, cs / np.abs(adx), np.inf)
        t_delta_y = np.where(ady != 0, cs / np.abs(ady), np.inf)
        t_g = np.where(adz != 0, -oz / adz, np.inf)

    row = scene.nx + 2
    height, label, canopy_lo, inside, top = scene._march_grids
    # From the first step on t never decreases, and with it (rounding is
    # monotone) neither does z along a ray with adz >= 0: once such a ray
    # is above every cell top, no hit test can fire for it again.
    z_cap = np.where(adz >= 0, top, np.inf)

    rays = np.stack([te, oz + adz * te, t_max_x, t_max_y, t_delta_x,
                     t_delta_y, adz, tx, tx - _MISS_EPS, z_cap, t_g])
    # flat cell index, its change per x and per y step, output row
    cells = np.stack([(iy + 1) * row + ix + 1, step_x, step_y * row, idx])
    inf = np.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(scene.nx + scene.ny + 4):
            if not rays.shape[1]:
                break
            (t_cur, z0, t_max_x, t_max_y, t_delta_x, t_delta_y, adz, tx,
             tx_eps, z_cap, t_g) = rays
            cell, step_x, step_y, rows = cells
            hi = height[cell]
            pick_x = t_max_x <= t_max_y
            t_next = np.where(pick_x, t_max_x, t_max_y)
            t1 = np.minimum(t_next, tx)
            lo = canopy_lo[cell]
            canopy = lo > -inf
            # descending onto the top of the band (the sign tests mask
            # the quotients of rays with adz == 0)
            t_top = (hi - oz) / adz
            c2 = np.where((adz < 0) & (z0 > hi) & (t_top <= t1), t_top, inf)
            under = None
            if not canopy.any():
                # entered the cell already inside the occupied band
                c1 = np.where(z0 <= hi, t_cur, inf)
                t_best = np.minimum(c1, c2)
            else:
                c1 = np.where((z0 >= lo) & (z0 <= hi), t_cur, inf)
                # ascending into the underside of an elevated band
                t_bot = (lo - oz) / adz
                c3 = np.where(canopy & (adz > 0) & (z0 < lo) & (t_bot <= t1),
                              t_bot, inf)
                # descending to the ground beneath an elevated band
                c4 = np.where(canopy & (adz < 0) & (t_g >= t_cur)
                              & (t_g <= t1), t_g, inf)
                t_best = np.minimum(np.minimum(c1, c2), c3)
                # strict, as argmin over (c1, c2, c3, c4) keeps the first
                under = c4 < t_best
                t_best = np.minimum(t_best, c4)
            hit = np.isfinite(t_best)
            if hit.any():
                hit_rows = rows[hit]
                t_hit[hit_rows] = t_best[hit]
                labels = label[cell[hit]]
                if under is not None:
                    labels = np.where(under[hit], scene.under_label, labels)
                hit_label[hit_rows] = labels

            np.add(t_max_x, t_delta_x, out=t_max_x, where=pick_x)
            np.add(t_max_y, t_delta_y, out=t_max_y, where=~pick_x)
            cell += np.where(pick_x, step_x, step_y)
            t_cur[:] = t_next
            np.multiply(adz, t_next, out=z0)
            z0 += oz
            keep = (t_next < tx_eps) & inside[cell] & ~(hit | (z0 > z_cap))
            if not keep.all():
                rays = rays[:, keep]
                cells = cells[:, keep]

    return t_hit, hit_label


def render(scene: Scene, pose: UavPose, k: CameraIntrinsics,
           mount: np.ndarray = FORWARD_MOUNT,
           max_range: float = 100.0):
    """Render depth and semantic images for a camera at ``pose``.

    The depth image stores planar camera-frame z; pixels with no surface
    within ``max_range`` hold 0 in both images.
    """
    uu, vv = np.meshgrid(np.arange(k.width), np.arange(k.height))
    uu = uu.ravel().astype(np.float64)
    vv = vv.ravel().astype(np.float64)
    cam = np.stack([(uu - k.cx) / k.fx, (vv - k.cy) / k.fy,
                    np.ones_like(uu)], axis=1)
    r = camera_to_world_rotation(pose, mount)
    dirs = cam @ r.T
    t_hit, labels = march_rays(scene, pose.position, dirs, max_range)
    labels = np.where(t_hit > 0, labels, 0)
    depth = t_hit.reshape(k.height, k.width)
    semantic = labels.reshape(k.height, k.width)
    return depth, semantic


def cast_ray(scene: Scene, origin: np.ndarray, direction: np.ndarray,
             t_limit: float):
    """Single-ray hit query; returns (t_hit, label) or (None, None) on miss.

    A hit at t = 0 (origin already inside a surface) is a real hit;
    misses are identified by label 0, which no scene cell may carry.
    """
    t, lab = march_rays(scene, origin,
                        np.asarray(direction, dtype=np.float64)[None, :],
                        t_limit)
    if lab[0] > 0:
        return float(t[0]), int(lab[0])
    return None, None


# ---------------------------------------------------------------------------
# motion
# ---------------------------------------------------------------------------

def apply_action(scene: Scene, pose: UavPose, action: Action,
                 margin: float = 0.5) -> ActionOutcome:
    """Advance the vehicle by one action with collision clipping.

    right/left rotate the heading by the action's degree field and then
    translate forward; straight/back translate along the current heading;
    lift/down translate vertically; stop leaves the pose unchanged.
    Translation stops ``margin`` meters short of the first surface along
    the motion ray, and positions are kept ``margin`` inside the scene
    bounds (and above the ground plane).
    """
    if action.verb == "stop":
        return ActionOutcome(pose=pose)

    yaw = pose.yaw
    if action.verb == "right":
        yaw = yaw - math.radians(action.degree)
    elif action.verb == "left":
        yaw = yaw + math.radians(action.degree)

    heading = np.array([math.cos(yaw), math.sin(yaw), 0.0])
    if action.verb in ("right", "left", "straight"):
        direction = heading
    elif action.verb == "back":
        direction = -heading
    elif action.verb == "lift":
        direction = np.array([0.0, 0.0, 1.0])
    elif action.verb == "down":
        direction = np.array([0.0, 0.0, -1.0])
    else:
        raise ValueError(f"unknown verb {action.verb!r}")

    collision = False
    reason = None
    allowed = float(action.distance)
    if allowed > 0:
        t, lab = cast_ray(scene, pose.position, direction,
                          allowed + margin)
        if t is not None and t - margin < allowed:
            allowed = max(t - margin, 0.0)
            collision = True
            reason = f"blocked by {scene.label_name(lab)}"

    target = pose.position + allowed * direction
    ext_x, ext_y = scene.extent
    clipped = np.array([
        min(max(target[0], margin), ext_x - margin),
        min(max(target[1], margin), ext_y - margin),
        max(target[2], margin),
    ])
    if not np.array_equal(clipped, target) and reason is None:
        collision = True
        reason = "scene boundary"

    new_pose = UavPose(clipped[0], clipped[1], clipped[2],
                       pitch=pose.pitch, roll=pose.roll, yaw=yaw)
    return ActionOutcome(pose=new_pose, collision=collision, reason=reason)
