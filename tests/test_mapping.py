"""Voxel accumulation and top-down projection against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stmrnav.errors import LabelError
from stmrnav.geometry import SemanticPointCloud, UavPose
from stmrnav.mapping import (
    TopDownMap,
    VoxelGrid,
    insert_points,
    map_snapshot,
    mark_waypoint,
    parse_snapshot,
    project_top_down,
)
from reference_mapping import (
    insert_points_reference,
    map_snapshot_reference,
    project_top_down_reference,
)


def cloud_of(points, labels) -> SemanticPointCloud:
    return SemanticPointCloud(np.array(points, dtype=np.float64),
                              np.array(labels, dtype=np.int64))


class TestVoxelGrid:
    def test_insert_accumulates_histograms(self):
        grid = VoxelGrid(voxel_size=5.0)
        insert_points(grid, cloud_of(
            [[1, 1, 1], [2, 2, 2], [3, 3, 3]], [4, 4, 2]))
        assert grid.counts[(0, 0, 0)] == {4: 2, 2: 1}
        assert grid.category((0, 0, 0)) == 4

    def test_majority_vote_ties_go_to_the_lower_id(self):
        grid = VoxelGrid(voxel_size=5.0)
        insert_points(grid, cloud_of([[1, 1, 1], [2, 2, 2]], [5, 3]))
        assert grid.category((0, 0, 0)) == 3

    def test_insert_is_order_insensitive(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 30, size=(200, 3))
        labs = rng.integers(1, 5, size=200)
        grid_a = insert_points(VoxelGrid(5.0), cloud_of(pts, labs))
        perm = rng.permutation(200)
        grid_b = insert_points(VoxelGrid(5.0), cloud_of(pts[perm],
                                                        labs[perm]))
        assert grid_a.counts == grid_b.counts

    def test_nonpositive_labels_are_rejected(self):
        grid = VoxelGrid(voxel_size=5.0)
        with pytest.raises(LabelError, match="non-positive label 0"):
            insert_points(grid, cloud_of([[1, 1, 1]], [0]))
        with pytest.raises(LabelError):
            insert_points(grid, cloud_of([[1, 1, 1]], [-1]))

    def test_unregistered_labels_are_rejected(self):
        grid = VoxelGrid(voxel_size=5.0, known_labels=frozenset({1, 2}))
        with pytest.raises(LabelError, match="label 3 not registered"):
            insert_points(grid, cloud_of([[1, 1, 1]], [3]))

    def test_category_of_empty_voxel_is_unexplored(self):
        assert VoxelGrid(voxel_size=5.0).category((3, 3, 3)) == 0

    def test_voxel_size_must_be_positive(self):
        with pytest.raises(ValueError):
            VoxelGrid(voxel_size=0.0)

    @pytest.mark.parametrize("labels", [
        np.array([2.5]), np.array([2.0]), np.array([True]),
        np.array([], dtype=np.float64)])
    def test_non_integer_labels_are_rejected(self, labels):
        grid = VoxelGrid(voxel_size=5.0)
        cloud = SemanticPointCloud(np.ones((labels.size, 3)), labels)
        with pytest.raises(LabelError, match="must be integers"):
            insert_points(grid, cloud)
        assert grid.counts == {}


# Points crowd a few voxels on both sides of zero; labels mix small ids
# (many repeats per voxel) with sparse legend ids up to 10**6.
COORD = st.floats(-12.0, 12.0, allow_nan=False)
POINT_LABEL = st.one_of(st.integers(1, 4), st.integers(1, 10**6),
                        st.sampled_from([10**6, 2**40]))


@st.composite
def clouds(draw, label=POINT_LABEL):
    n = draw(st.integers(0, 60))
    xyz = draw(arrays(np.float64, (n, 3), elements=COORD))
    return SemanticPointCloud(xyz, draw(arrays(np.int64, n, elements=label)))


class TestInsertPointsMatchesReference:
    """The one-sort insert equals the per-point loop it replaced."""

    @given(voxel_size=st.sampled_from([0.5, 1.0, 2.5, 5.0]),
           batches=st.lists(clouds(), min_size=1, max_size=4),
           registered=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_equal_histograms_across_inserts(self, voxel_size, batches,
                                             registered):
        known = None
        if registered:
            known = frozenset(int(v) for c in batches for v in c.labels)
        grid = VoxelGrid(voxel_size, known_labels=known)
        ref = VoxelGrid(voxel_size, known_labels=known)
        for cloud in batches:
            insert_points(grid, cloud)
            insert_points_reference(ref, cloud)
            assert grid.counts == ref.counts
        for key, hist in grid.counts.items():
            assert all(type(v) is int for v in key)
            assert all(type(v) is int for v in (*hist, *hist.values()))

    @given(cloud=clouds(st.integers(-3, 6)),
           known=st.one_of(st.none(), st.frozensets(st.integers(1, 6))))
    @settings(max_examples=100, deadline=None)
    def test_same_label_errors(self, cloud, known):
        grid = VoxelGrid(5.0, counts={(0, 0, 0): {1: 1}}, known_labels=known)
        ref = VoxelGrid(5.0, counts={(0, 0, 0): {1: 1}}, known_labels=known)
        try:
            insert_points_reference(ref, cloud)
        except LabelError as exc:
            with pytest.raises(LabelError) as err:
                insert_points(grid, cloud)
            assert str(err.value) == str(exc)
        else:
            insert_points(grid, cloud)
        assert grid.counts == ref.counts


def brute_force_top_down(grid: VoxelGrid) -> dict:
    """Group voxels per column, take the highest, argmax its histogram."""
    columns: dict[tuple[int, int], list] = {}
    for (i, j, k), hist in grid.counts.items():
        columns.setdefault((i, j), []).append((k, hist))
    out = {}
    for key, stack in columns.items():
        _, hist = max(stack, key=lambda t: t[0])
        best = sorted(hist.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
        out[key] = best
    return out


def random_grid(rng, max_extent=50, n_voxels=200) -> VoxelGrid:
    grid = VoxelGrid(voxel_size=5.0)
    for _ in range(n_voxels):
        key = tuple(int(v) for v in rng.integers(0, max_extent, size=3))
        hist = grid.counts.setdefault(key, {})
        lab = int(rng.integers(1, 7))
        hist[lab] = hist.get(lab, 0) + int(rng.integers(1, 6))
    return grid


class TestProjectTopDown:
    def test_highest_voxel_wins_the_column(self):
        grid = VoxelGrid(voxel_size=5.0)
        grid.counts[(2, 3, 0)] = {1: 4}
        grid.counts[(2, 3, 5)] = {2: 1}
        tdmap = project_top_down(grid)
        assert tdmap.labels == {(2, 3): 2}
        assert tdmap.cell_size == 5.0

    def test_matches_brute_force_on_random_grids(self):
        rng = np.random.default_rng(303)
        for _ in range(25):
            grid = random_grid(rng)
            assert project_top_down(grid).labels == brute_force_top_down(grid)

    def test_subgoal_label_surfaces_from_under_cover(self):
        # Sub-goal category 1 sits at the bottom, canopy 4 on top:
        # plain projection shows 4, prioritized projection shows 1.
        grid = VoxelGrid(voxel_size=5.0)
        grid.counts[(0, 0, 0)] = {1: 2}
        grid.counts[(0, 0, 1)] = {4: 9}
        assert project_top_down(grid).labels[(0, 0)] == 4
        assert project_top_down(grid, {1}).labels[(0, 0)] == 1

    def test_priority_ignores_columns_without_the_subgoal(self):
        grid = VoxelGrid(voxel_size=5.0)
        grid.counts[(1, 1, 2)] = {3: 1}
        assert project_top_down(grid, {1}).labels == {(1, 1): 3}

    def test_unobserved_columns_stay_absent(self):
        tdmap = project_top_down(VoxelGrid(voxel_size=5.0))
        assert tdmap.labels == {}
        assert tdmap.label_at(4, 4) == 0


# Coordinates span a few voxels each way, so columns hold several voxels,
# and labels 1-4 repeat enough that a voxel's winner flips between
# batches.  Sub-goal sets may be empty or name labels (5, 6) never seen.
FEW_LABELS = st.integers(1, 4)
SUBGOALS = st.frozensets(st.integers(1, 6), max_size=3)


class TestIncrementalProjection:
    """Projecting onto the flight's map equals a full re-projection."""

    @given(batches=st.lists(st.tuples(clouds(FEW_LABELS), SUBGOALS),
                            min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_reference_after_every_batch(self, batches):
        grid = VoxelGrid(voxel_size=5.0)
        tdmap = TopDownMap(cell_size=5.0)
        for cloud, subgoals in batches:
            insert_points(grid, cloud)
            got = project_top_down(grid, subgoals, onto=tdmap)
            assert got is tdmap
            assert grid.touched == set()
            assert got.labels == project_top_down_reference(
                grid, subgoals).labels

    def test_a_flipped_winner_relabels_its_column(self):
        grid = VoxelGrid(voxel_size=5.0)
        tdmap = project_top_down(grid)
        insert_points(grid, cloud_of([[1, 1, 1]], [3]))
        assert project_top_down(grid, onto=tdmap).labels == {(0, 0): 3}
        insert_points(grid, cloud_of([[1, 1, 1], [2, 2, 2]], [2, 2]))
        assert project_top_down(grid, onto=tdmap).labels == {(0, 0): 2}

    def test_insert_records_the_voxels_it_changed(self):
        grid = VoxelGrid(voxel_size=5.0)
        insert_points(grid, cloud_of([[1, 1, 1], [2, 2, 2], [1, 1, 7]],
                                     [1, 2, 1]))
        assert grid.touched == {(0, 0, 0), (0, 0, 1)}
        project_top_down(grid)
        assert grid.touched == {(0, 0, 0), (0, 0, 1)}

    @given(st.dictionaries(
        st.tuples(*[st.integers(-4, 4)] * 3),
        st.dictionaries(st.integers(1, 6), st.integers(1, 5), min_size=1,
                        max_size=3),
        max_size=40), SUBGOALS)
    @settings(max_examples=200, deadline=None)
    def test_full_projection_of_counts_written_directly(self, counts,
                                                        subgoals):
        grid = VoxelGrid(voxel_size=5.0, counts=counts)
        assert project_top_down(grid, subgoals).labels == \
            project_top_down_reference(grid, subgoals).labels

    @pytest.mark.parametrize("tdmap", [
        TopDownMap(cell_size=2.5),
        TopDownMap(cell_size=10.0),
    ])
    def test_a_map_of_another_cell_size_or_origin_is_refused(self, tdmap):
        grid = VoxelGrid(voxel_size=5.0)
        insert_points(grid, cloud_of([[1, 1, 1]], [3]))
        with pytest.raises(ValueError, match="cannot project"):
            project_top_down(grid, onto=tdmap)
        assert tdmap.labels == {}
        assert grid.touched == {(0, 0, 0)}


class TestTopDownMap:
    def test_mark_waypoint_touches_only_the_trajectory_layer(self):
        tdmap = TopDownMap(cell_size=5.0, labels={(0, 0): 2})
        mark_waypoint(tdmap, UavPose(2.0, 2.0, 9.0))
        assert tdmap.trajectory == {(0, 0)}
        assert tdmap.labels == {(0, 0): 2}


class TestMapSnapshot:
    def test_small_map_prints_north_up(self):
        tdmap = TopDownMap(cell_size=5.0,
                           labels={(0, 0): 1, (1, 1): 2},
                           trajectory={(0, 1)})
        text = map_snapshot(tdmap, {1: "road", 2: "building"})
        assert text == (
            "cell_size 5\n"
            "legend 0 unexplored\n"
            "legend 1 road\n"
            "legend 2 building\n"
            "legend -1 trajectory\n"
            "origin 0 0\n"
            "size 2 2\n"
            "labels\n"
            "0 2\n"
            "1 0\n"
            "trajectory\n"
            "1 0\n"
            "0 0\n")

    def test_empty_map_prints_zero_extent(self):
        text = map_snapshot(TopDownMap(cell_size=2.5), {1: "road"})
        assert "origin 0 0\nsize 0 0\n" in text


class TestMapSnapshotMatchesReference:
    """The whole-array snapshot prints what the per-cell loop printed."""

    @given(cell_size=st.sampled_from([0.5, 2.5, 5.0]),
           labels=st.dictionaries(
               st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
               st.one_of(st.integers(1, 12),
                         st.sampled_from([10**6, 2**40])),
               max_size=60),
           trajectory=st.sets(
               st.tuples(st.integers(-25, 25), st.integers(-25, 25)),
               max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_byte_equal(self, cell_size, labels, trajectory):
        tdmap = TopDownMap(cell_size, labels=labels, trajectory=trajectory)
        legend = {1: "road", 2: "building", 2**40: "far"}
        assert map_snapshot(tdmap, legend) == \
            map_snapshot_reference(tdmap, legend)

    def test_trajectory_only_and_empty_maps(self):
        for tdmap in (TopDownMap(5.0, trajectory={(-3, -7), (2, 4)}),
                      TopDownMap(5.0)):
            assert map_snapshot(tdmap, {}) == map_snapshot_reference(
                tdmap, {})


CELL = st.tuples(st.integers(-30, 30), st.integers(-30, 30))
LEGENDS = st.dictionaries(
    st.integers(1, 40),
    st.text("abcdefghijklmnopqrstuvwxyz_-", min_size=1, max_size=12),
    max_size=8)


@st.composite
def maps_and_legends(draw):
    legend = draw(LEGENDS)
    label = (st.sampled_from(sorted(legend)) if legend
             else st.integers(1, 40))
    tdmap = TopDownMap(
        cell_size=draw(st.sampled_from([0.5, 1.0, 2.5, 5.0, 10.0])),
        labels=draw(st.dictionaries(CELL, label, max_size=40)),
        trajectory=draw(st.sets(CELL, max_size=20)))
    return tdmap, legend


class TestParseSnapshot:
    @given(maps_and_legends())
    @settings(max_examples=200, deadline=None)
    def test_inverts_map_snapshot(self, map_and_legend):
        tdmap, legend = map_and_legend
        back, back_legend = parse_snapshot(map_snapshot(tdmap, legend))
        assert back_legend == legend
        assert back.labels == tdmap.labels
        assert back.trajectory == tdmap.trajectory
        assert back.cell_size == tdmap.cell_size
        assert back.bounds() == tdmap.bounds()

    def test_empty_map_round_trips(self):
        back, legend = parse_snapshot(map_snapshot(TopDownMap(2.5), {}))
        assert (back.labels, back.trajectory, legend) == ({}, set(), {})
        assert back.bounds() is None

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("cell_size 5\n", ""),
        lambda t: t.replace("cell_size 5", "cell_size 0"),
        lambda t: t.replace("size 2 2", "size 2 x"),
        lambda t: t.replace("size 2 2", "size 3 2"),
        lambda t: t.replace("origin 0 0", "origin 0"),
        lambda t: t.replace("labels\n0 2\n", "labels\n0 2 7\n"),
        lambda t: t.replace("1 0\n0 0\n", "1 0\n"),
        lambda t: t.replace("legend 1 road", "legend one road"),
    ])
    def test_malformed_snapshot_is_a_value_error(self, edit):
        text = map_snapshot(TopDownMap(cell_size=5.0,
                                       labels={(0, 0): 1, (1, 1): 2},
                                       trajectory={(0, 1)}),
                            {1: "road", 2: "building"})
        with pytest.raises(ValueError):
            parse_snapshot(edit(text))
