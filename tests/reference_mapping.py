"""Reference world-memory kernels: the per-element loops that
``mapping`` and ``stmr`` ran before they became whole-array or
incremental operations.

Kept verbatim (renamed) as the oracles for the equality property tests
in ``test_mapping.py`` and ``test_stmr.py``: the insert updates one
histogram entry per point, the projection rebuilds the whole map from
every voxel, the snapshot and the window look up one cell at a time,
the serializer indexes one numpy scalar per cell, and the pooling runs
``np.unique`` once per matrix cell.
"""

import numpy as np

from stmrnav.errors import LabelError, ShapeMismatchError
from stmrnav.geometry import SemanticPointCloud, UavPose
from stmrnav.mapping import TopDownMap, VoxelGrid, _argmax_label
from stmrnav.stmr import (
    LocalWindow,
    StmrMatrix,
    legend_line,
    orientation_token,
)


def insert_points_reference(grid: VoxelGrid,
                            cloud: SemanticPointCloud) -> VoxelGrid:
    """Accumulate a labeled point cloud into the grid (mutates and returns).

    Order-insensitive: any permutation of the same points produces the
    same histograms.
    """
    labels = np.asarray(cloud.labels)
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
    for (i, j, k), lab in zip(map(tuple, ijk), labels.tolist()):
        hist = grid.counts.setdefault((i, j, k), {})
        hist[lab] = hist.get(lab, 0) + 1
    return grid


def pool_to_matrix_reference(window: LocalWindow, pose: UavPose, legend,
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
    if s % size:
        raise ShapeMismatchError(
            f"window side {s} is not divisible by matrix size {size}")
    block = s // size
    subgoals = frozenset(subgoal_labels)

    cells = np.zeros((size, size), dtype=np.int64)
    for r in range(size):
        for c in range(size):
            chunk = window.labels[r * block:(r + 1) * block,
                                  c * block:(c + 1) * block]
            visited = window.trajectory[r * block:(r + 1) * block,
                                        c * block:(c + 1) * block].any()
            explored = chunk[chunk > 0]
            if explored.size:
                ids, counts = np.unique(explored, return_counts=True)
                winner = int(ids[np.argmax(counts)])
            else:
                winner = 0
            if visited and winner not in subgoals:
                winner = -1
            cells[r, c] = winner
    center = size // 2
    cells[center, center] = 0
    metric = window.cell_size * block if cell_metric is None else cell_metric
    return StmrMatrix(cells=cells, legend=dict(legend),
                      orientation_token=orientation_token(pose),
                      cell_metric=metric)


def project_top_down_reference(grid: VoxelGrid,
                               subgoal_labels=frozenset()) -> TopDownMap:
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


def map_snapshot_reference(tdmap: TopDownMap, legend) -> str:
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


def extract_local_window_reference(tdmap: TopDownMap, pose: UavPose,
                                   size: int = 20,
                                   block: int = 1) -> LocalWindow:
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

    labels = np.zeros((s, s), dtype=np.int64)
    trajectory = np.zeros((s, s), dtype=bool)
    for rr in range(s):
        j = j_top - rr
        for cc in range(s):
            key = (i_left + cc, j)
            lab = tdmap.labels.get(key)
            if lab is not None:
                labels[rr, cc] = lab
            if key in tdmap.trajectory:
                trajectory[rr, cc] = True
    return LocalWindow(labels=labels, trajectory=trajectory,
                       cell_size=tdmap.cell_size)


def serialize_matrix_reference(m: StmrMatrix,
                               pose: UavPose | None = None) -> str:
    """Print the matrix as prompt text: legend line, then north-up rows.

    The center cell prints as the orientation token (recomputed from
    ``pose`` when given).
    """
    token = orientation_token(pose) if pose is not None else m.orientation_token
    lines = [legend_line(m.legend)]
    c = m.center
    for r in range(m.size):
        row = [token if (r == c and col == c) else str(int(m.cells[r, col]))
               for col in range(m.size)]
        lines.append(" ".join(row))
    return "\n".join(lines)
