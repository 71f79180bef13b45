"""Semantic voxel accumulation and top-down projection.

The world memory is a sparse voxel grid: each observed point increments
a per-voxel histogram over label ids, and a voxel's effective category
is the most frequent label (ties break to the lower id).  Projection
flattens each occupied (i, j) column to one map cell: normally the
category of the highest occupied voxel wins, but if any voxel in the
column carries a current-sub-goal category, that category is surfaced
regardless of height (topmost such voxel when several qualify), so the
thing being navigated to cannot be hidden under trees or overhangs.

Flown-over cells are tracked in a separate trajectory layer; they merge
into the serialized matrix as -1 only at serialization time, never by
editing semantic labels.
"""

from __future__ import annotations

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
    sentinel and -1 the trajectory marker.
    """

    voxel_size: float
    counts: dict[tuple[int, int, int], dict[int, int]] = field(
        default_factory=dict)
    known_labels: frozenset[int] | None = None

    def __post_init__(self):
        if not self.voxel_size > 0:
            raise ValueError("voxel_size must be positive")

    def voxel_of(self, x: float, y: float, z: float):
        s = self.voxel_size
        return (math.floor(x / s), math.floor(y / s), math.floor(z / s))

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
    entry is updated once per distinct pair, not once per point.
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
        hist = grid.counts.setdefault((i, j, k), {})
        hist[lab] = hist.get(lab, 0) + n
    return grid


@dataclass
class TopDownMap:
    """World-anchored 2D semantic map with a separate trajectory layer.

    Cell (i, j) covers x in [i*s, (i+1)*s), y in [j*s, (j+1)*s) relative
    to ``origin``.  Unlisted cells are unexplored.
    """

    cell_size: float
    labels: dict[tuple[int, int], int] = field(default_factory=dict)
    trajectory: set[tuple[int, int]] = field(default_factory=set)
    origin: tuple[float, float] = (0.0, 0.0)

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor((x - self.origin[0]) / self.cell_size),
                math.floor((y - self.origin[1]) / self.cell_size))

    def label_at(self, i: int, j: int) -> int:
        return self.labels.get((i, j), 0)

    def bounds(self) -> tuple[int, int, int, int] | None:
        """(i0, j0, i1, j1) of the labeled and visited cells; None if none."""
        cells = set(self.labels) | set(self.trajectory)
        if not cells:
            return None
        return (min(i for i, _ in cells), min(j for _, j in cells),
                max(i for i, _ in cells), max(j for _, j in cells))


def project_top_down(grid: VoxelGrid, subgoal_labels=frozenset()) -> TopDownMap:
    """Flatten the voxel grid column by column.

    Sub-goal categories anywhere in a column take priority (topmost such
    voxel if several); otherwise the highest occupied voxel's category
    is used.  Unobserved columns stay unexplored.
    """
    subgoals = frozenset(subgoal_labels)
    columns: dict[tuple[int, int], tuple[int, int]] = {}
    prioritized: dict[tuple[int, int], tuple[int, int]] = {}
    for (i, j, k), hist in grid.counts.items():
        cat = _argmax_label(hist)
        key = (i, j)
        best = columns.get(key)
        if best is None or k > best[0]:
            columns[key] = (k, cat)
        if cat in subgoals:
            top = prioritized.get(key)
            if top is None or k > top[0]:
                prioritized[key] = (k, cat)

    labels = {key: cat for key, (_, cat) in columns.items()}
    for key, (_, cat) in prioritized.items():
        labels[key] = cat
    return TopDownMap(cell_size=grid.voxel_size, labels=labels)


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

    bounds = tdmap.bounds()
    if bounds is None:
        lines.append("origin 0 0")
        lines.append("size 0 0")
        return "\n".join(lines) + "\n"

    i0, j0, i1, j1 = bounds
    lines.append(f"origin {i0} {j0}")
    lines.append(f"size {i1 - i0 + 1} {j1 - j0 + 1}")

    lines.append("labels")
    for j in range(j1, j0 - 1, -1):
        row = [str(tdmap.labels.get((i, j), 0)) for i in range(i0, i1 + 1)]
        lines.append(" ".join(row))
    lines.append("trajectory")
    for j in range(j1, j0 - 1, -1):
        row = ["1" if (i, j) in tdmap.trajectory else "0"
               for i in range(i0, i1 + 1)]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def parse_snapshot(text: str) -> tuple[TopDownMap, dict[int, str]]:
    """Inverse of ``map_snapshot``: the map's nonzero label cells and
    visited cells, and the legend without the 0 and -1 entries the
    snapshot adds.  The cell size comes back as printed (six significant
    digits) and the world origin, which the format lacks, as (0, 0).
    Raises ValueError on a malformed snapshot."""
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
