"""Reference world-memory kernels: the per-element loops that
``mapping.insert_points`` and ``stmr.pool_to_matrix`` ran before they
became whole-array operations.

Kept verbatim (renamed) as the oracles for the equality property tests
in ``test_mapping.py`` and ``test_stmr.py``: the insert updates one
histogram entry per point, and the pooling runs ``np.unique`` once per
matrix cell.
"""

import numpy as np

from stmrnav.errors import LabelError, ShapeMismatchError
from stmrnav.geometry import SemanticPointCloud, UavPose
from stmrnav.mapping import VoxelGrid
from stmrnav.stmr import LocalWindow, StmrMatrix, orientation_token


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
