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

A frame whose image columns each share one horizontal direction (a
level camera) is rendered by walking each column's cells once for all
its rays, each ray's hit tests starting where a max-height bound lets
it first reach a surface.  Any other frame marches its pixel rays
through the grid with the Amanatides-Woo traversal, vectorized across
rays: each step advances every ray still in flight by one cell, and a
ray leaves the working set as soon as it hits, leaves the scene, passes
the range limit, or can no longer come down to any surface.  Ray
directions are left unnormalized at ((u-cx)/fx, (v-cy)/fy, 1) in the
camera frame so the hit parameter t is exactly the planar depth stored
in the depth image: back-projecting a rendered pixel with its stored
depth reproduces the surface point that was hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import SceneParseError, read_text
from .geometry import (
    FORWARD_MOUNT,
    MAX_RANGE,
    CameraIntrinsics,
    UavPose,
    camera_to_world_rotation,
)
from .planner import Action

_MISS_EPS = 1e-12
_T_MAX = float(np.finfo(np.float64).max)
# Relative slack of the column walk's slope bounds over the rounding in z
# and hit times.
_CLEAR_SLACK = 1e-6
# Steps of the hit tests each pass of ``march_columns`` runs per ray.
_CHUNK = 4
MARGIN = 0.5           # meters of collision standoff


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
        one-cell border and one trailing sink cell, and the tallest cell
        top.  The sink (height NaN, label 0, no canopy, not inside) is
        where the walk parks rays that have finished: no hit test can
        fire there."""
        return (_padded(self.height, 0.0, np.nan),
                _padded(self.label, 0, 0),
                _padded(np.where(self.clearance > 0, self.clearance,
                                 -np.inf), -np.inf, -np.inf),
                _padded(np.ones(self.height.shape, dtype=bool), False,
                        False),
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

def significant_lines(text: str):
    """Yield (line_number, content) skipping blanks and # comments."""
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield n, line


def _number(caster, text, line, fieldname):
    """``caster(text)``, or a SceneParseError naming the line and field."""
    try:
        return caster(text)
    except ValueError as exc:
        raise SceneParseError(str(exc), line=line, field=fieldname) from exc


def _int64(text) -> int:
    """``int(text)``, or ValueError if the value does not fit int64."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{text} does not fit a 64-bit integer")
    return value


def _note_directive(seen: set, key: str, line, repeatable: str) -> None:
    """Add ``key`` to ``seen``; only ``repeatable`` may come twice."""
    if key in seen and key != repeatable:
        raise SceneParseError(f"duplicate {key} directive", line=line,
                              field=key)
    seen.add(key)


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
        rows.append(_number(lambda ps: list(map(caster, ps)), parts, n,
                            fieldname))
    return rows, idx


def parse_scene(text: str) -> Scene:
    """Parse the scene text format (header ``stmr-scene v1``)."""
    lines = list(significant_lines(text))
    if not lines or lines[0][1] != "stmr-scene v1":
        ln = lines[0][0] if lines else None
        raise SceneParseError("missing 'stmr-scene v1' header",
                              line=ln, field="header")

    cell_size = None
    legend: dict[int, str] = {}
    grids: dict[str, np.ndarray] = {}
    under_label = 0
    dims = None
    seen: set[str] = set()

    idx = 1
    while idx < len(lines):
        n, line = lines[idx]
        idx += 1
        parts = line.split()
        key = parts[0]
        _note_directive(seen, key, n, repeatable="legend")
        if key == "cell_size":
            if len(parts) != 2:
                raise SceneParseError("cell_size takes one value",
                                      line=n, field="cell_size")
            cell_size = _number(float, parts[1], n, "cell_size")
            if not (math.isfinite(cell_size) and cell_size > 0):
                raise SceneParseError("cell_size must be positive",
                                      line=n, field="cell_size")
        elif key == "legend":
            if len(parts) != 3:
                raise SceneParseError("legend takes an id and a name",
                                      line=n, field="legend")
            lid = _number(_int64, parts[1], n, "legend")
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
            nrows, ncols = (_number(int, p, n, key) for p in parts[1:])
            if nrows < 1 or ncols < 1:
                raise SceneParseError("grid dimensions must be positive",
                                      line=n, field=key)
            if dims is None:
                dims = (nrows, ncols)
            elif dims != (nrows, ncols):
                raise SceneParseError(
                    f"grid is {nrows}x{ncols} but earlier blocks were "
                    f"{dims[0]}x{dims[1]}", line=n, field=key)
            caster = _int64 if key == "label" else float
            rows, idx = _parse_grid(lines, idx, nrows, ncols, caster, key)
            grids[key] = np.array(
                rows, dtype=np.int64 if key == "label" else np.float64)
        elif key == "under_label":
            if len(parts) != 2:
                raise SceneParseError("under_label takes one id",
                                      line=n, field="under_label")
            under_label = _number(_int64, parts[1], n, "under_label")
        else:
            raise SceneParseError(f"unknown directive {key!r}", line=n)

    for name in ("cell_size", "legend", "height", "label"):
        if name not in seen:
            raise SceneParseError(f"missing {name}", field=name)

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
    return parse_scene(read_text(path))


def parse_episode(text: str) -> Episode:
    """Parse the episode text format (header ``stmr-episode v1``)."""
    lines = list(significant_lines(text))
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
    seen: set[str] = set()

    def _pose(parts, n, fieldname):
        if len(parts) != 6:
            raise SceneParseError("expected x y z pitch roll yaw",
                                  line=n, field=fieldname)
        return _number(lambda ps: UavPose(*map(float, ps)), parts, n,
                       fieldname)

    for n, line in lines[1:]:
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        _note_directive(seen, key, n, repeatable="path")
        if key == "id":
            # the id names its trace directory in a run's output directory
            if (len(rest.split()) != 1 or set(rest) & set("/\\\0")
                    or rest in (".", "..", "results.csv", "summary.txt")):
                raise SceneParseError(
                    f"id must be one token that names a directory, got "
                    f"{rest!r}", line=n, field="id")
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
            goal = np.array([_number(float, p, n, "goal") for p in parts])
            if not np.isfinite(goal).all():
                raise SceneParseError("goal must be finite", line=n,
                                      field="goal")
        elif key == "max_actions":
            max_actions = _number(int, rest, n, "max_actions")
            if max_actions < 1:
                raise SceneParseError("max_actions must be positive",
                                      line=n, field="max_actions")
        elif key == "path":
            path.append(_pose(rest.split(), n, "path"))
        else:
            raise SceneParseError(f"unknown directive {key!r}", line=n)

    for name in ("id", "instruction", "start", "goal", "max_actions",
                 "path"):
        if name not in seen:
            raise SceneParseError(f"missing {name}", field=name)
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
    return parse_episode(read_text(path))


def place_violations(scene: Scene, name: str, point) -> list[str]:
    """Why the point (x, y, z) called ``name`` is no place in ``scene``:
    outside the scene bounds or not above the ground.  Empty if none."""
    x, y, z = point
    ext_x, ext_y = scene.extent
    if not (0 <= x < ext_x and 0 <= y < ext_y):
        return [f"{name} ({x:g}, {y:g}) outside scene bounds "
                f"{ext_x:g} x {ext_y:g}"]
    if z <= 0:
        return [f"{name} altitude {z:g} is not above ground"]
    return []


def episode_violations(scene: Scene, episode: Episode) -> list[str]:
    """Why ``episode`` does not fit ``scene``: a start or goal outside
    the scene bounds or not above the ground.  Empty if none."""
    return (place_violations(scene, "start", episode.start.position)
            + place_violations(scene, "goal", episode.goal))


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


def _padded(grid: np.ndarray, fill, sink) -> np.ndarray:
    """Flatten ``grid`` with a one-cell border of ``fill`` on every side,
    then one trailing ``sink`` value."""
    out = np.full((grid.shape[0] + 2, grid.shape[1] + 2), fill,
                  dtype=grid.dtype)
    out[1:-1, 1:-1] = grid
    return np.append(out.ravel(), np.array(sink, dtype=grid.dtype))


def _walk_start(scene: Scene, ox: float, oy: float, te: np.ndarray,
                dx: np.ndarray, dy: np.ndarray):
    """Where the cell walk of rays that enter the grid at ``te`` starts:
    the flat index of the first cell in the padded grids, its change per
    x and per y step, the times of the first x and y crossings, and the
    times between crossings."""
    cs = scene.cell_size
    row = scene.nx + 2
    px = ox + dx * te
    py = oy + dy * te
    ix = np.clip(np.floor(px / cs).astype(np.int64), 0, scene.nx - 1)
    iy = np.clip(np.floor(py / cs).astype(np.int64), 0, scene.ny - 1)
    step_x = np.where(dx > 0, 1, -1).astype(np.int64)
    step_y = np.where(dy > 0, row, -row).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        next_x = np.where(dx > 0, (ix + 1) * cs, ix * cs)
        next_y = np.where(dy > 0, (iy + 1) * cs, iy * cs)
        t_max_x = np.where(dx != 0, te + (next_x - px) / dx, np.inf)
        t_max_y = np.where(dy != 0, te + (next_y - py) / dy, np.inf)
        t_delta_x = np.where(dx != 0, cs / np.abs(dx), np.inf)
        t_delta_y = np.where(dy != 0, cs / np.abs(dy), np.inf)
    return ((iy + 1) * row + ix + 1, step_x, step_y, t_max_x, t_max_y,
            t_delta_x, t_delta_y)


def _hit_tests(oz: float, hi, lo, z0, t_cur, t1, adz, adz_down, t_g):
    """The hit tests of one step of the walk, for rays that enter a cell
    (band top ``hi``, canopy underside ``lo``, -inf if none) at ``t_cur``
    and height ``z0`` and leave it at ``t1``.  ``adz_down`` is dz where
    it is negative and NaN elsewhere; ``t_g`` is when the ray comes down
    to the ground.  Returns which rays hit, their hit times (meaningful
    where they hit) and which hit the ground under a canopy, or None if
    no cell has a canopy.  Runs under the caller's errstate."""
    # descending onto the top of the band
    t_top = (hi - oz) / adz_down
    if lo.max() == -np.inf:
        # entered the cell already inside the occupied band; the two
        # tests exclude each other, as z0 > hi when it fails
        inband = z0 <= hi
        return inband | (t_top <= t1), np.where(inband, t_cur, t_top), None
    inf = np.inf
    canopy = lo > -inf
    c1 = np.where((z0 >= lo) & (z0 <= hi), t_cur, inf)
    c2 = np.where((z0 > hi) & (t_top <= t1), t_top, inf)
    # ascending into the underside of an elevated band
    t_bot = (lo - oz) / adz
    c3 = np.where(canopy & (adz > 0) & (z0 < lo) & (t_bot <= t1), t_bot, inf)
    # descending to the ground beneath an elevated band
    c4 = np.where(canopy & (adz < 0) & (t_g >= t_cur) & (t_g <= t1), t_g,
                  inf)
    t_best = np.minimum(np.minimum(c1, c2), c3)
    # strict, as argmin over (c1, c2, c3, c4) keeps the first
    under = c4 < t_best
    t_best = np.minimum(t_best, c4)
    return np.isfinite(t_best), t_best, under


def _hit_labels(scene: Scene, label, cell, under, hit):
    """The labels of the rays ``_hit_tests`` found to ``hit``."""
    if under is None:
        return label[cell[hit]]
    return np.where(under[hit], scene.under_label, label[cell[hit]])


def march_rays(scene: Scene, origin: np.ndarray, dirs: np.ndarray,
               t_limit: float):
    """Trace rays from a common origin through the height field.

    ``dirs`` is (N, 3) and need not be unit length; hit parameters are
    in units of each direction vector, clipped at ``t_limit``.  Returns
    (t_hit, hit_label), both (N,).  Misses carry t_hit = 0 and label 0.

    A ray that starts above every cell top and does not descend
    provably misses and never walks.  Every other ray that enters the
    scene walks the grid cell by cell (Amanatides-Woo), vectorized across
    rays: its state is packed into one float and one index array.  A ray
    finishes once it hits, steps off the grid, passes ``t_limit``, or is
    not descending and already above the tallest cell.  A finished ray is
    parked on the grids' sink cell, where no hit test fires and its cell
    steps are 0; the arrays are compacted to the live rays only when
    fewer than half of their columns are live.  The canopy tests run
    only on steps where some live ray is over a cell with positive
    clearance.  Each ray goes through the same floating-point operations
    whatever other rays are traced with it.

    ``render`` sends a frame whose columns share their (dx, dy) to
    ``march_columns`` instead, which returns the same bytes; every other
    frame, and every ``cast_ray``, comes here.
    """
    dirs = np.asarray(dirs, dtype=np.float64)
    n = dirs.shape[0]
    ox, oy, oz = (float(origin[0]), float(origin[1]), float(origin[2]))
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    ext_x, ext_y = scene.extent

    t_hit = np.zeros(n)
    hit_label = np.zeros(n, dtype=np.int64)

    t_enter = np.zeros(n)
    # A finite exit keeps every hit time the walk can accept finite; no
    # finite hit time lies beyond the largest float.
    t_exit = np.full(n, min(float(t_limit), _T_MAX))
    _slab_interval(ox, dx, 0.0, ext_x, t_enter, t_exit)
    _slab_interval(oy, dy, 0.0, ext_y, t_enter, t_exit)
    height, label, canopy_lo, inside, top = scene._march_grids
    # z never falls along a ray with dz >= 0, so from above every cell
    # top such a ray cannot hit.
    idx = np.flatnonzero((t_enter < t_exit) & ~((dz >= 0) & (oz > top)))
    if not idx.size:
        return t_hit, hit_label

    te = t_enter[idx]
    tx = t_exit[idx]
    adz = dz[idx]
    cell, step_x, step_y, t_max_x, t_max_y, t_delta_x, t_delta_y = (
        _walk_start(scene, ox, oy, te, dx[idx], dy[idx]))
    sink = height.size - 1
    # From the first step on t never decreases, and with it (rounding is
    # monotone) neither does z along a ray with adz >= 0: once such a ray
    # is above every cell top, no hit test can fire for it again.
    z_cap = np.where(adz >= 0, top, np.inf)
    # NaN unless descending, so the top-of-band test fails for the rest
    adz_down = np.where(adz < 0, adz, np.nan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_g = np.where(adz != 0, -oz / adz, np.inf)

    rays = np.stack([te, oz + adz * te, t_max_x, t_max_y, t_delta_x,
                     t_delta_y, adz, adz_down, tx, tx - _MISS_EPS, z_cap,
                     t_g])
    # flat cell index, its change per x and per y step, output row
    cells = np.stack([cell, step_x, step_y, idx])
    live = idx.size
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(scene.nx + scene.ny + 4):
            if not live:
                break
            (t_cur, z0, t_max_x, t_max_y, t_delta_x, t_delta_y, adz,
             adz_down, tx, tx_eps, z_cap, t_g) = rays
            cell, step_x, step_y, rows = cells
            pick_x = t_max_x <= t_max_y
            t_next = np.where(pick_x, t_max_x, t_max_y)
            hit, t_best, under = _hit_tests(
                oz, height[cell], canopy_lo[cell], z0, t_cur,
                np.minimum(t_next, tx), adz, adz_down, t_g)
            if hit.any():
                hit_rows = rows[hit]
                t_hit[hit_rows] = t_best[hit]
                hit_label[hit_rows] = _hit_labels(scene, label, cell, under,
                                                  hit)

            np.add(t_max_x, t_delta_x, out=t_max_x, where=pick_x)
            np.add(t_max_y, t_delta_y, out=t_max_y, where=~pick_x)
            cell += np.where(pick_x, step_x, step_y)
            t_cur[:] = t_next
            np.multiply(adz, t_next, out=z0)
            z0 += oz
            keep = (t_next < tx_eps) & inside[cell] & ~(hit | (z0 > z_cap))
            n_keep = np.count_nonzero(keep)
            if n_keep < live:
                live = n_keep
                if 2 * live < keep.size:
                    kept = np.flatnonzero(keep)
                    rays = rays.take(kept, axis=1)
                    cells = cells.take(kept, axis=1)
                else:
                    np.copyto(cell, sink, where=~keep)
                    cells[1:3] *= keep

    return t_hit, hit_label


def _crossings(t0: np.ndarray, dt: np.ndarray, cells: int,
               t_stop: np.ndarray) -> np.ndarray:
    """Each column's times of crossing grid lines of one axis, t0, t0 +
    dt, ..., summed as the walk's ``+=`` sums them: through the first at
    or past the column's ``t_stop``, or ``cells`` of them, by which the
    walk has left the grid.  Runs under the caller's errstate."""
    need = float(((t_stop - t0) / dt).max()) + 2
    n = int(min(max(need, 1.0), cells)) if need == need else cells
    while True:
        chain = np.empty((t0.size, n))
        chain[:, 0] = t0
        chain[:, 1:] = dt[:, None]
        np.add.accumulate(chain, axis=1, out=chain)
        if n == cells or (chain[:, -1] >= t_stop).all():
            return chain
        n = cells


def _slope_bound(num: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``num / t``, the largest dz with which a ray's z at ``t`` is at
    most ``num`` above the origin: +inf where that gives no bound (t < 0
    or NaN), and at t = 0 -inf if ``num`` is negative, else +inf."""
    bound = np.where(t > 0, num / t,
                     np.where((t == 0) & (num < 0), -np.inf, np.inf))
    bound[np.isnan(bound)] = np.inf
    return bound


def march_columns(scene: Scene, origin: np.ndarray, dirs: np.ndarray,
                  t_limit: float):
    """``march_rays`` for an image whose columns each share one
    horizontal direction, with the same bytes out.

    ``dirs`` is (rows, cols, 3) and every row has the (dx, dy) of row 0,
    zeros of either sign alike; the result is ``march_rays`` on
    ``dirs.reshape(-1, 3)``.  The cells a ray walks, and when it enters
    and leaves each, depend only on the origin, dx and dy, so each
    column's walk is built once for all its rays: the x and y crossing
    times are running sums, merged as the walk takes them (x first on
    ties), and a cumsum gives the cells.  A ray can hit in a step only if
    its dz is at most the step's slope bound (max(height, 0) - oz +
    slack) / t, with t where the step ends for a descending ray and where
    it starts for a climbing one.  The count of a column's running maxima
    of the bounds below a ray's dz is its first possible step: past the
    column's last step the ray misses, and otherwise it runs the hit
    tests of ``march_rays`` from there, ``_CHUNK`` steps a pass, until it
    hits or the walk ends.
    """
    dirs = np.asarray(dirs, dtype=np.float64)
    n_rows, n_cols = dirs.shape[:2]
    ox, oy, oz = (float(origin[0]), float(origin[1]), float(origin[2]))
    ext_x, ext_y = scene.extent
    t_hit = np.zeros(n_rows * n_cols)
    hit_label = np.zeros(n_rows * n_cols, dtype=np.int64)

    height, label, canopy_lo, inside, _ = scene._march_grids
    with np.errstate(all="ignore"):
        t_enter = np.zeros(n_cols)
        t_exit = np.full(n_cols, min(float(t_limit), _T_MAX))
        _slab_interval(ox, dirs[0, :, 0], 0.0, ext_x, t_enter, t_exit)
        _slab_interval(oy, dirs[0, :, 1], 0.0, ext_y, t_enter, t_exit)
        cols = np.flatnonzero(t_enter < t_exit)
        if not cols.size:
            return t_hit, hit_label
        te, tx = t_enter[cols], t_exit[cols]
        dz = dirs[:, cols, 2]
        cell, step_x, step_y, t_max_x, t_max_y, t_delta_x, t_delta_y = (
            _walk_start(scene, ox, oy, te, dirs[0, cols, 0],
                        dirs[0, cols, 1]))
        tx_eps = tx - _MISS_EPS
        xs = _crossings(t_max_x, t_delta_x, scene.nx, tx_eps)
        times = np.concatenate(
            [xs, _crossings(t_max_y, t_delta_y, scene.ny, tx_eps)], axis=1)
        order = np.argsort(times, axis=1, kind="stable")
        t_next = np.take_along_axis(times, order, axis=1)
        cells = np.cumsum(np.concatenate(
            [cell[:, None], np.where(order < xs.shape[1], step_x[:, None],
                                     step_y[:, None])], axis=1), axis=1)
        # a column's walk ends with the step that reaches tx_eps or
        # leaves the grid, as a ray's walk in march_rays does
        ends = ~((t_next < tx_eps[:, None])
                 & inside.take(cells[:, 1:], mode="clip"))
        n_steps = ends.argmax(axis=1) + 1
        m = n_steps.max()
        t_next, cells = t_next[:, :m], cells[:, :m]
        t_cur = np.concatenate([te[:, None], t_next[:, :-1]], axis=1)
        t1 = np.minimum(t_next, tx[:, None])

        clear = (np.maximum(height.take(cells, mode="clip"), 0.0) - oz
                 + _CLEAR_SLACK * (1.0 + abs(oz)))
        dz_slack = _CLEAR_SLACK * np.abs(dz).max(axis=0)[:, None]
        t_fall = np.maximum(t_cur, t1)
        fall = _slope_bound(clear + dz_slack * t_fall, t_fall)
        climb = _slope_bound(clear + dz_slack * t_cur, t_cur)
        # a climbing ray can hit only below climb, a descending one only
        # below fall, and none climbs where climb < 0
        bound = np.maximum.accumulate(
            np.where(climb < 0, fall, np.maximum(fall, climb)), axis=1)
        row, c = np.nonzero(dz <= bound[np.arange(cols.size), n_steps - 1])
        d = dz[row, c]
        k = np.count_nonzero(bound[c] < d[:, None], axis=1)
        ray = row * n_cols + cols[c]
        d_down = np.where(d < 0, d, np.nan)
        t_g = np.where(d != 0, -oz / d, np.inf)
        span = np.arange(_CHUNK)
        while ray.size:
            # the last step stands in for the steps past it
            ks = np.minimum(k[:, None] + span, n_steps[c, None] - 1)
            cc = c[:, None]
            cell = cells[cc, ks]
            tc = t_cur[cc, ks]
            hit, t_best, under = _hit_tests(
                oz, height[cell], canopy_lo[cell], d[:, None] * tc + oz, tc,
                t1[cc, ks], d[:, None], d_down[:, None], t_g[:, None])
            first_hit = hit & (np.cumsum(hit, axis=1) == 1)
            done = hit.any(axis=1)
            t_hit[ray[done]] = t_best[first_hit]
            hit_label[ray[done]] = _hit_labels(scene, label, cell, under,
                                               first_hit)
            k += _CHUNK
            go = np.flatnonzero(~done & (k < n_steps[c]))
            ray, c, k, d, d_down, t_g = (
                a[go] for a in (ray, c, k, d, d_down, t_g))
    return t_hit, hit_label


@lru_cache(maxsize=8)
def _camera_rays(k: CameraIntrinsics) -> np.ndarray:
    """Read-only (height*width, 3) camera-frame ray of every pixel, row by
    row, as ((u-cx)/fx, (v-cy)/fy, 1)."""
    uu, vv = np.meshgrid(np.arange(k.width), np.arange(k.height))
    uu = uu.ravel().astype(np.float64)
    vv = vv.ravel().astype(np.float64)
    cam = np.stack([(uu - k.cx) / k.fx, (vv - k.cy) / k.fy,
                    np.ones_like(uu)], axis=1)
    cam.flags.writeable = False
    return cam


def render(scene: Scene, pose: UavPose, k: CameraIntrinsics,
           mount: np.ndarray = FORWARD_MOUNT):
    """Render depth and semantic images for a camera at ``pose``.

    The depth image stores planar camera-frame z; pixels with no surface
    within ``MAX_RANGE`` hold 0 in both images.  A comparison of the
    pixel rays picks the tracer: if every image row has the dx and the
    dy of row 0, as at pitch = roll = 0 on the forward mount, the frame
    goes to ``march_columns``, which walks each column once; any other
    frame goes to ``march_rays``.  Both return the same bytes.
    """
    r = camera_to_world_rotation(pose, mount)
    dirs = (_camera_rays(k) @ r.T).reshape(k.height, k.width, 3)
    if ((dirs[..., 0] == dirs[0, :, 0]).all()
            and (dirs[..., 1] == dirs[0, :, 1]).all()):
        t_hit, labels = march_columns(scene, pose.position, dirs, MAX_RANGE)
    else:
        t_hit, labels = march_rays(scene, pose.position,
                                   dirs.reshape(-1, 3), MAX_RANGE)
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

def apply_action(scene: Scene, pose: UavPose, action: Action) -> ActionOutcome:
    """Advance the vehicle by one action with collision clipping.

    right/left rotate the heading by the action's degree field and then
    translate forward; straight/back translate along the current heading;
    lift/down translate vertically; stop leaves the pose unchanged.
    Translation stops ``MARGIN`` meters short of the first surface along
    the motion ray, and positions are kept ``MARGIN`` inside the scene
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
                          allowed + MARGIN)
        if t is not None and t - MARGIN < allowed:
            allowed = max(t - MARGIN, 0.0)
            collision = True
            reason = f"blocked by {scene.label_name(lab)}"

    target = pose.position + allowed * direction
    ext_x, ext_y = scene.extent
    clipped = np.array([
        min(max(target[0], MARGIN), ext_x - MARGIN),
        min(max(target[1], MARGIN), ext_y - MARGIN),
        max(target[2], MARGIN),
    ])
    if not np.array_equal(clipped, target) and reason is None:
        collision = True
        reason = "scene boundary"

    new_pose = UavPose(clipped[0], clipped[1], clipped[2],
                       pitch=pose.pitch, roll=pose.roll, yaw=yaw)
    return ActionOutcome(pose=new_pose, collision=collision, reason=reason)
