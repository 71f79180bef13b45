"""Semantic voxel accumulation and top-down projection.

The world memory is a sparse voxel grid: each observed point increments
a per-voxel histogram over label ids, and a voxel's effective category
is the most frequent label (ties break to the lower id).  Projection
flattens each occupied (i, j) column to one map cell: normally the
category of the highest occupied voxel wins, but if any voxel in the
column carries a current-sub-goal category, that category is surfaced
regardless of height (topmost such voxel when several qualify), so the
thing being navigated to cannot be hidden under trees or overhangs.

The projection is incremental: ``insert_points`` records the voxels it
changed in ``VoxelGrid.touched``, and ``project_top_down(grid, s,
onto=tdmap)`` re-reads only those into the map's per-column table of
voxel categories and relabels only their columns (every column when
the sub-goal set changes), so one map can live for a whole flight.

Flown-over cells are tracked in a separate trajectory layer; they merge
into the serialized matrix as -1 only at serialization time, never by
editing semantic labels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LabelError
from .geometry import SemanticPointCloud, UavPose


def _argmax_label(hist: dict[int, int]) -> int:
    """Most frequent label; ties go to the lower id."""
    return max(hist.items(), key=lambda kv: (kv[1], -kv[0]))[0]


@dataclass
class VoxelGrid:
    """Sparse voxel histogram keyed by integer (i, j, k) coordinates.

    ``known_labels``, when given, restricts what may be inserted;
    non-positive labels are always rejected since 0 is the unexplored
    sentinel and -1 the trajectory marker.  ``touched`` holds the keys
    ``insert_points`` changed since the last ``project_top_down(...,
    onto=...)``; voxels written straight into ``counts`` are not in it.
    """

    voxel_size: float
    counts: dict[tuple[int, int, int], dict[int, int]] = field(
        default_factory=dict)
    known_labels: frozenset[int] | None = None
    touched: set[tuple[int, int, int]] = field(
        default_factory=set, repr=False, compare=False)

    def __post_init__(self):
        if not self.voxel_size > 0:
            raise ValueError("voxel_size must be positive")

    def category(self, key) -> int:
        """Effective category of one voxel; 0 if unobserved."""
        hist = self.counts.get(tuple(key))
        return _argmax_label(hist) if hist else 0


def insert_points(grid: VoxelGrid, cloud: SemanticPointCloud) -> VoxelGrid:
    """Accumulate a labeled point cloud into the grid (mutates and returns).

    Labels must be positive integers (an integer dtype) and, when the
    grid has ``known_labels``, registered.  Order-insensitive: any
    permutation of the same points produces the same histograms.  The
    points are grouped by (voxel, label) with one sort, so each histogram
    entry is updated once per distinct pair, not once per point.  The
    changed voxel keys are added to ``grid.touched``.
    """
    labels = np.asarray(cloud.labels)
    if labels.dtype.kind not in "iu":
        raise LabelError(
            f"point labels must be integers, not dtype {labels.dtype}")
    if labels.size:
        bad = labels <= 0
        if bad.any():
            raise LabelError(
                f"non-positive label {int(labels[bad][0])} cannot be mapped")
        if grid.known_labels is not None:
            unknown = ~np.isin(labels, list(grid.known_labels))
            if unknown.any():
                raise LabelError(
                    f"label {int(labels[unknown][0])} not registered")
    ijk = np.floor(cloud.xyz / grid.voxel_size).astype(np.int64)
    keys = (*ijk.T, labels)
    order = np.lexsort(keys[::-1])
    keys = [key[order] for key in keys]
    # first row of each run of equal (i, j, k, label) rows
    first = np.ones(labels.size, dtype=bool)
    first[1:] = np.logical_or.reduce([key[1:] != key[:-1] for key in keys])
    starts = np.flatnonzero(first)
    runs = np.diff(np.append(starts, labels.size))
    for i, j, k, lab, n in zip(*(key[starts].tolist() for key in keys),
                               runs.tolist()):
        voxel = (i, j, k)
        hist = grid.counts.setdefault(voxel, {})
        hist[lab] = hist.get(lab, 0) + n
        grid.touched.add(voxel)
    return grid


@dataclass
class TopDownMap:
    """World-anchored 2D semantic map with a separate trajectory layer.

    Cell (i, j) covers x in [i*s, (i+1)*s), y in [j*s, (j+1)*s) of the
    world frame.  Unlisted cells are unexplored.  ``columns`` and
    ``subgoals`` are the projection's own state: the ``{k: category}``
    of each projected column's voxels, and the sub-goal set its labels
    were computed with.
    """

    cell_size: float
    labels: dict[tuple[int, int], int] = field(default_factory=dict)
    trajectory: set[tuple[int, int]] = field(default_factory=set)
    columns: dict[tuple[int, int], dict[int, int]] = field(
        default_factory=dict, repr=False, compare=False)
    subgoals: frozenset[int] | None = field(
        default=None, repr=False, compare=False)

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self.cell_size),
                math.floor(y / self.cell_size))

    def label_at(self, i: int, j: int) -> int:
        return self.labels.get((i, j), 0)

    def bounds(self) -> tuple[int, int, int, int] | None:
        """(i0, j0, i1, j1) of the labeled and visited cells; None if none."""
        cells = set(self.labels) | set(self.trajectory)
        if not cells:
            return None
        return (min(i for i, _ in cells), min(j for _, j in cells),
                max(i for i, _ in cells), max(j for _, j in cells))


def _column_label(column: dict[int, int], subgoals: frozenset) -> int:
    """The topmost sub-goal category of a column, else its top category."""
    prioritized = [k for k, cat in column.items() if cat in subgoals]
    return column[max(prioritized or column)]


def project_top_down(grid: VoxelGrid, subgoal_labels=frozenset(),
                     onto: TopDownMap | None = None) -> TopDownMap:
    """Flatten the voxel grid column by column.

    Sub-goal categories anywhere in a column take priority (topmost such
    voxel if several); otherwise the highest occupied voxel's category
    is used.  Unobserved columns stay unexplored.

    With ``onto=None`` every voxel of ``grid.counts`` is read into a
    fresh map.  Given the map an earlier call returned for this grid,
    only the voxels in ``grid.touched`` are re-read, only their columns
    are relabelled (every column when the sub-goal set differs from the
    last call's), ``grid.touched`` is cleared, and ``onto`` itself is
    returned.  ``onto`` must have the grid's voxel size as its cell size,
    or ValueError is raised.
    """
    subgoals = frozenset(subgoal_labels)
    if onto is None:
        tdmap = TopDownMap(cell_size=grid.voxel_size)
        keys = grid.counts
    else:
        if onto.cell_size != grid.voxel_size:
            raise ValueError(
                f"cannot project a grid of voxel_size {grid.voxel_size} "
                f"onto a map of cell_size {onto.cell_size}")
        tdmap = onto
        keys = grid.touched
    columns = tdmap.columns
    dirty = set()
    for key in keys:
        i, j, k = key
        columns.setdefault((i, j), {})[k] = _argmax_label(grid.counts[key])
        dirty.add((i, j))
    if onto is not None:
        grid.touched.clear()
    if subgoals != tdmap.subgoals:
        tdmap.subgoals = subgoals
        dirty = columns
    for key in dirty:
        tdmap.labels[key] = _column_label(columns[key], subgoals)
    return tdmap


def mark_waypoint(tdmap: TopDownMap, pose: UavPose) -> TopDownMap:
    """Flag the cell under the pose as visited (mutates and returns).

    Only the trajectory layer changes; semantic labels are never touched
    by waypoints.
    """
    tdmap.trajectory.add(tdmap.cell_of(pose.x, pose.y))
    return tdmap


def map_snapshot(tdmap: TopDownMap, legend) -> str:
    """Dump the explored map as plain text: legend, extent, two grids.

    The label grid prints one integer per cell with row 0 the
    northernmost explored row; the trajectory grid prints 1 for visited
    cells.  Meant for the CLI renderer and for golden-file comparison;
    ``parse_snapshot`` reads it back.
    """
    lines = [f"cell_size {tdmap.cell_size:g}", "legend 0 unexplored"]
    for lid, name in sorted(legend.items()):
        lines.append(f"legend {lid} {name}")
    lines.append("legend -1 trajectory")

    label_cells = _cell_array(tdmap.labels)
    visited_cells = _cell_array(tdmap.trajectory)
    cells = np.concatenate([label_cells, visited_cells])
    if not len(cells):
        lines.append("origin 0 0")
        lines.append("size 0 0")
        return "\n".join(lines) + "\n"

    i0, j0 = cells.min(axis=0).tolist()
    i1, j1 = cells.max(axis=0).tolist()
    lines.append(f"origin {i0} {j0}")
    lines.append(f"size {i1 - i0 + 1} {j1 - j0 + 1}")

    # row 0 is the northernmost row, j1
    shape = (j1 - j0 + 1, i1 - i0 + 1)
    lines.append("labels")
    lines += _grid_lines(shape, j1 - label_cells[:, 1],
                         label_cells[:, 0] - i0,
                         np.fromiter(tdmap.labels.values(), np.int64,
                                     len(tdmap.labels)))
    lines.append("trajectory")
    lines += _grid_lines(shape, j1 - visited_cells[:, 1],
                         visited_cells[:, 0] - i0,
                         np.ones(len(visited_cells), dtype=np.int64))
    return "\n".join(lines) + "\n"


def _cell_array(cells) -> np.ndarray:
    """The (i, j) cells of a dict or set as an (n, 2) int64 array."""
    return np.fromiter(itertools.chain.from_iterable(cells), np.int64,
                       2 * len(cells)).reshape(-1, 2)


def _grid_lines(shape, rows, cols, values) -> list[str]:
    """The lines of a grid holding ``values`` at (rows, cols) and 0
    elsewhere, space-separated.  Each distinct value is printed once,
    into a text table indexed through ``np.unique``."""
    ids, inverse = np.unique(np.append(values, 0), return_inverse=True)
    index = np.full(shape, inverse[-1])
    index[rows, cols] = inverse[:-1]
    text = np.array([str(v) for v in ids.tolist()], dtype=object)
    return [" ".join(row) for row in text[index].tolist()]


def parse_snapshot(text: str) -> tuple[TopDownMap, dict[int, str]]:
    """Inverse of ``map_snapshot``: the map's nonzero label cells and
    visited cells, and the legend without the 0 and -1 entries the
    snapshot adds.  The cell size comes back as printed (six significant
    digits).  Raises ValueError on a malformed snapshot."""
    header = {}
    legend = {}
    grids: dict[str, list[list[int]]] = {"labels": [], "trajectory": []}
    rows = None
    for line in text.splitlines():
        parts = line.split()
        if parts in (["labels"], ["trajectory"]):
            rows = grids[parts[0]]
        elif parts and rows is not None:
            rows.append([int(v) for v in parts])
        elif parts[:1] == ["legend"] and len(parts) == 3:
            legend[int(parts[1])] = parts[2]
        elif parts:
            header[parts[0]] = parts[1:]
    try:
        (cell_size,) = map(float, header["cell_size"])
        i0, j0 = map(int, header["origin"])
        ncols, nrows = map(int, header["size"])
    except KeyError as exc:
        raise ValueError(f"map snapshot has no {exc.args[0]} line") from None
    if not cell_size > 0:
        raise ValueError(f"map snapshot cell_size {cell_size} is invalid")
    for name, grid in grids.items():
        if len(grid) != nrows or any(len(r) != ncols for r in grid):
            raise ValueError(f"map snapshot {name} grid is not "
                             f"{ncols} x {nrows}")

    tdmap = TopDownMap(cell_size=cell_size)
    for r in range(nrows):       # row 0 is northernmost
        for c in range(ncols):
            cell = (i0 + c, j0 + nrows - 1 - r)
            if grids["labels"][r][c]:
                tdmap.labels[cell] = grids["labels"][r][c]
            if grids["trajectory"][r][c]:
                tdmap.trajectory.add(cell)
    return tdmap, {lid: name for lid, name in legend.items() if lid > 0}
