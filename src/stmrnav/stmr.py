"""The matrix prompt: local window extraction, pooling, serialization.

The text the planner sees is a small square matrix of label ids cut
from the top-down map around the vehicle.  The window is world-axis
aligned (row 0 is the northernmost row, column 0 the westernmost), so
turning in place never changes the numbers; the vehicle's heading and
camera declination ride along as a single token ("west0") printed at
the center cell.  Each matrix cell covers a fixed number of meters, so
the language model can reason metrically.

Two alternative single-purpose encoders are included for comparison
runs: a topological place-graph text and a bearing/range clause list.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .geometry import UavPose
from .mapping import TopDownMap

COMPASS = ("east", "northeast", "north", "northwest",
           "west", "southwest", "south", "southeast")

DIRECTION_PHRASES = ("front", "right front", "right", "right back",
                     "back", "left back", "left", "left front")


@dataclass(frozen=True)
class LocalWindow:
    """Square cut of the top-down map, north-up.

    ``labels[r, c]`` is the semantic id (0 = unexplored) and
    ``trajectory[r, c]`` the visited flag of the cell ``r`` rows south
    of the window's north edge and ``c`` columns east of its west edge.
    """

    labels: np.ndarray      # (S, S) int64
    trajectory: np.ndarray  # (S, S) bool
    cell_size: float


def extract_local_window(tdmap: TopDownMap, pose: UavPose,
                         size: int = 20, block: int = 1) -> LocalWindow:
    """Cut the window whose pooled center block contains the vehicle.

    ``size`` is the matrix side in blocks and ``block`` the number of
    source cells per block edge, so the window spans size*block source
    cells.  Cells never observed come back as 0.
    """
    if size < 2 or size % 2:
        raise ValueError("size must be even and at least 2")
    if block < 1:
        raise ValueError("block must be at least 1")
    s = size * block
    half = (size // 2) * block
    ci, cj = tdmap.cell_of(pose.x, pose.y)
    i_left = ci - half
    j_top = cj + half

    # the window's cells in row-major order, north row first
    cells = [(i, j) for j in range(j_top, j_top - s, -1)
             for i in range(i_left, i_left + s)]
    labels = np.fromiter(map(tdmap.labels.get, cells, itertools.repeat(0)),
                         np.int64, s * s).reshape(s, s)
    trajectory = np.fromiter(map(tdmap.trajectory.__contains__, cells),
                             bool, s * s).reshape(s, s)
    return LocalWindow(labels=labels, trajectory=trajectory,
                       cell_size=tdmap.cell_size)


@dataclass(frozen=True, eq=False)
class StmrMatrix:
    """The pooled matrix plus everything needed to print it."""

    cells: np.ndarray           # (size, size) int64
    legend: dict[int, str]      # scene ids only; 0 and -1 are implicit
    orientation_token: str
    cell_metric: float = 5.0

    def __post_init__(self):
        n = self.cells.shape[0]
        if self.cells.ndim != 2 or self.cells.shape != (n, n):
            raise ShapeMismatchError("matrix must be square")
        if n < 2 or n % 2:
            raise ShapeMismatchError("matrix side must be even and >= 2")
        allowed = set(self.legend) | {0, -1}
        present = set(np.unique(self.cells).tolist())
        if not present <= allowed:
            raise ValueError(
                f"matrix holds ids outside the legend: "
                f"{sorted(present - allowed)}")

    @property
    def size(self) -> int:
        return self.cells.shape[0]

    @property
    def center(self) -> int:
        return self.size // 2


def orientation_token(pose: UavPose) -> str:
    """Heading bucketed to 8 compass points + pitch in whole degrees."""
    idx = round(pose.yaw / (math.pi / 4)) % 8
    pitch_deg = round(math.degrees(pose.pitch))
    return f"{COMPASS[idx]}{pitch_deg}"


def pool_to_matrix(window: LocalWindow, pose: UavPose, legend,
                   subgoal_labels=frozenset(), size: int = 20,
                   cell_metric: float | None = None) -> StmrMatrix:
    """Pool the window down to a size x size matrix.

    Each matrix cell takes the most frequent explored label in its
    source block (ties to the lower id; all-unexplored blocks stay 0).
    Any visited source cell turns the block into -1 unless the block's
    winner is a current-sub-goal label, so the target can never be
    hidden by the flight path.  The center cell is reserved for the
    orientation token and holds 0.
    """
    s = window.labels.shape[0]
    if not s or s % size:
        raise ShapeMismatchError(
            f"window side {s} is not a positive multiple of matrix size "
            f"{size}")
    block = s // size
    # one row of block*block source cells per matrix cell, row-major
    blocks = (window.labels.reshape(size, block, size, block)
              .swapaxes(1, 2).reshape(size * size, block * block))
    # Compact the ids so the count table is as wide as the distinct ids,
    # not the largest one.  ids is sorted and argmax keeps the first
    # maximum, so ties go to the lower id; with the unexplored column
    # zeroed, an all-unexplored block (whose row is all zero) gets ids[0],
    # which is 0.
    ids, inverse = np.unique(np.maximum(blocks, 0).ravel(),
                             return_inverse=True)
    counts = np.bincount(
        np.repeat(np.arange(size * size) * ids.size, block * block)
        + inverse, minlength=size * size * ids.size
    ).reshape(size * size, ids.size)
    counts[:, ids == 0] = 0
    winners = ids[counts.argmax(axis=1)].reshape(size, size)
    visited = window.trajectory.reshape(size, block, size, block).any(
        axis=(1, 3))
    cells = np.where(visited & ~np.isin(winners, list(subgoal_labels)),
                     -1, winners).astype(np.int64, copy=False)
    center = size // 2
    cells[center, center] = 0
    metric = window.cell_size * block if cell_metric is None else cell_metric
    return StmrMatrix(cells=cells, legend=dict(legend),
                      orientation_token=orientation_token(pose),
                      cell_metric=metric)


def legend_line(legend) -> str:
    parts = ["0:Unexplored"]
    parts += [f"{lid}:{name}" for lid, name in sorted(legend.items())]
    parts.append("-1:your past trajectory")
    return "[" + " ".join(parts) + "]"


def serialize_matrix(m: StmrMatrix, pose: UavPose | None = None) -> str:
    """Print the matrix as prompt text: legend line, then north-up rows.

    The center cell prints as the orientation token (recomputed from
    ``pose`` when given).
    """
    token = orientation_token(pose) if pose is not None else m.orientation_token
    rows = [list(map(str, row))
            for row in m.cells.astype(np.int64, copy=False).tolist()]
    rows[m.center][m.center] = token
    return "\n".join([legend_line(m.legend)]
                     + [" ".join(row) for row in rows])


def parse_matrix(text: str, cell_metric: float = 5.0) -> StmrMatrix:
    """Inverse of serialize_matrix, for round-trip testing.

    Reads the legend line back into an id -> name dict (dropping the
    implicit 0 and -1 entries) and the center token back into
    ``orientation_token``; the reserved center cell reads as 0.
    """
    lines = text.splitlines()
    if not lines or not (lines[0].startswith("[") and lines[0].endswith("]")):
        raise ValueError("missing legend line")
    legend = {}
    inner = lines[0][1:-1]
    # Entries are "<id>:<name>" separated by spaces; only the fixed
    # trailing trajectory entry has a multi-word name, so names run up
    # to the next "<id>:" anchor.
    anchors = list(re.finditer(r"(?:^| )(-?\d+):", inner))
    for m, nxt in zip(anchors, anchors[1:] + [None]):
        lid = int(m.group(1))
        end = nxt.start() if nxt is not None else len(inner)
        if lid not in (0, -1):
            legend[lid] = inner[m.end():end]
    rows = lines[1:]
    n = len(rows)
    cells = np.zeros((n, n), dtype=np.int64)
    token = None
    for r, row in enumerate(rows):
        parts = row.split(" ")
        if len(parts) != n:
            raise ValueError(f"row {r} has {len(parts)} cells, expected {n}")
        for c, part in enumerate(parts):
            try:
                cells[r, c] = int(part)
            except ValueError:
                if token is not None or (r, c) != (n // 2, n // 2):
                    raise ValueError(
                        f"unexpected token {part!r} at [{r},{c}]") from None
                token = part
                cells[r, c] = 0
    if token is None:
        raise ValueError("no orientation token found")
    return StmrMatrix(cells=cells, legend=legend, orientation_token=token,
                      cell_metric=cell_metric)


# ---------------------------------------------------------------------------
# alternative encoders
# ---------------------------------------------------------------------------

def encode_topo(captions, adjacency) -> str:
    """Place-graph text: one caption line per place, then connectivity.

    ``captions`` maps place index order (list position) to description;
    ``adjacency`` maps place index to its neighbor indices.  Each
    place's sentence lists all its neighbors, but a sentence is emitted
    only when it introduces at least one edge not already stated, so a
    chain of three places produces two sentences, not three.
    """
    captions = list(captions)
    if not captions:
        raise ValueError("need at least one place")
    lines = [f"Place {i}: {cap}" for i, cap in enumerate(captions)]
    stated: set[frozenset] = set()
    for i in range(len(captions)):
        neighbors = [j for j in adjacency.get(i, ()) if j != i]
        if not neighbors:
            continue
        edges = [frozenset((i, j)) for j in neighbors]
        if all(e in stated for e in edges):
            continue
        stated.update(edges)
        noun = "Places" if len(neighbors) > 1 else "Place"
        listed = ", ".join(str(j) for j in neighbors)
        lines.append(f"Place {i} is connected with {noun} {listed}")
    return "\n".join(lines)


def encode_metric(landmarks, pose: UavPose) -> str:
    """Bearing/range clause list, clockwise from the heading.

    ``landmarks`` is a sequence of (name, world x, world y).  Bearings
    are bucketed into 8 sectors relative to the current heading and
    ranges are horizontal distances rounded to whole meters.
    """
    clauses = []
    for name, x, y in landmarks:
        dx = x - pose.x
        dy = y - pose.y
        dist = round(math.hypot(dx, dy))
        rel_cw = math.degrees(pose.yaw - math.atan2(dy, dx)) % 360.0
        bucket = round(rel_cw / 45.0) % 8
        clauses.append((rel_cw, dist, name, bucket))
    if not clauses:
        return "nothing mapped yet"
    clauses.sort(key=lambda t: (t[0], t[1], t[2]))
    return "; ".join(
        f"a {name} in the {DIRECTION_PHRASES[bucket]} {dist} meters away"
        for _, dist, name, bucket in clauses)
