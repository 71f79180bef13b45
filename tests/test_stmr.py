"""Window extraction, pooling, matrix text, and the alternative encoders."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stmrnav.errors import ShapeMismatchError
from stmrnav.geometry import UavPose
from stmrnav.mapping import TopDownMap
from stmrnav.stmr import (
    COMPASS,
    LocalWindow,
    StmrMatrix,
    encode_metric,
    encode_topo,
    extract_local_window,
    legend_line,
    orientation_token,
    parse_matrix,
    pool_to_matrix,
    serialize_matrix,
)
from reference_mapping import (
    extract_local_window_reference,
    pool_to_matrix_reference,
    serialize_matrix_reference,
)

LEGEND = {1: "road", 2: "building", 3: "river", 4: "grass"}


class TestExtractLocalWindow:
    def test_hand_window_is_north_up_and_centered(self):
        # Vehicle at (12, 7), cell (2, 1); size 4 -> window columns
        # i in [0, 4), rows j = 3 (top) down to 0, vehicle block (2, 2).
        tdmap = TopDownMap(cell_size=5.0,
                           labels={(0, 3): 1, (3, 0): 2, (2, 1): 3},
                           trajectory={(2, 1)})
        window = extract_local_window(tdmap, UavPose(12.0, 7.0, 9.0),
                                      size=4, block=1)
        assert window.labels.shape == (4, 4)
        assert window.labels[0, 0] == 1      # north-west corner = (0, 3)
        assert window.labels[3, 3] == 2      # south-east corner = (3, 0)
        assert window.labels[2, 2] == 3      # the vehicle's own cell
        assert window.trajectory[2, 2]
        assert window.trajectory.sum() == 1

    def test_block_scales_the_footprint(self):
        tdmap = TopDownMap(cell_size=5.0, labels={(0, 0): 4})
        window = extract_local_window(tdmap, UavPose(2.0, 2.0, 9.0),
                                      size=4, block=2)
        assert window.labels.shape == (8, 8)
        # Vehicle cell (0, 0) sits at the start of center block (2, 2):
        # source row = j_top - j = 4 - 0, column = 0 - (-4).
        assert window.labels[4, 4] == 4

    def test_unexplored_cells_read_zero(self):
        window = extract_local_window(TopDownMap(cell_size=5.0),
                                      UavPose(0, 0, 5), size=6)
        assert not window.labels.any()
        assert not window.trajectory.any()

    def test_odd_or_tiny_sizes_are_rejected(self):
        tdmap = TopDownMap(cell_size=5.0)
        with pytest.raises(ValueError):
            extract_local_window(tdmap, UavPose(0, 0, 5), size=5)
        with pytest.raises(ValueError):
            extract_local_window(tdmap, UavPose(0, 0, 5), size=0)


# Cells on both sides of zero, so windows reach negative cells; labels
# include sparse ids up to 2**40.
MAP_CELL = st.tuples(st.integers(-12, 12), st.integers(-12, 12))
MAP_LABEL = st.one_of(st.integers(1, 9), st.sampled_from([10**6, 2**40]))
COORD = st.floats(-60.0, 60.0, allow_nan=False)


class TestExtractLocalWindowMatchesReference:
    """The row-list window equals the per-cell loop it replaced."""

    @given(labels=st.dictionaries(MAP_CELL, MAP_LABEL, max_size=80),
           trajectory=st.sets(MAP_CELL, max_size=30),
           x=COORD, y=COORD, size=st.sampled_from([2, 4, 6]),
           block=st.integers(1, 3),
           cell_size=st.sampled_from([2.5, 5.0]))
    @settings(max_examples=300, deadline=None)
    def test_byte_equal(self, labels, trajectory, x, y, size, block,
                        cell_size):
        tdmap = TopDownMap(cell_size, labels=labels, trajectory=trajectory)
        pose = UavPose(x, y, 9.0)
        got = extract_local_window(tdmap, pose, size=size, block=block)
        want = extract_local_window_reference(tdmap, pose, size=size,
                                              block=block)
        for a, b in ((got.labels, want.labels),
                     (got.trajectory, want.trajectory)):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()
        assert got.cell_size == want.cell_size

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_empty_map(self, block):
        tdmap = TopDownMap(cell_size=5.0)
        pose = UavPose(-7.0, -3.0, 9.0)
        got = extract_local_window(tdmap, pose, size=4, block=block)
        want = extract_local_window_reference(tdmap, pose, size=4,
                                              block=block)
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.trajectory.tobytes() == want.trajectory.tobytes()


class TestOrientationToken:
    @pytest.mark.parametrize("yaw_deg,expected", [
        (0.0, "east"), (45.0, "northeast"), (90.0, "north"),
        (135.0, "northwest"), (180.0, "west"), (225.0, "southwest"),
        (270.0, "south"), (315.0, "southeast"), (359.0, "east"),
        (23.0, "northeast"), (22.0, "east"),
    ])
    def test_compass_buckets(self, yaw_deg, expected):
        pose = UavPose(0, 0, 5, yaw=math.radians(yaw_deg))
        assert orientation_token(pose) == f"{expected}0"

    def test_pitch_rides_along_in_whole_degrees(self):
        pose = UavPose(0, 0, 5, yaw=math.pi / 2, pitch=math.radians(20.0))
        assert orientation_token(pose) == "north20"
        nose_up = UavPose(0, 0, 5, pitch=math.radians(-6.0))
        assert orientation_token(nose_up) == "east-6"

    @given(st.floats(0, 2 * math.pi - 1e-9))
    @settings(max_examples=100, deadline=None)
    def test_token_always_names_a_compass_point(self, yaw):
        token = orientation_token(UavPose(0, 0, 5, yaw=yaw))
        assert any(token.startswith(c) for c in COMPASS)


def bincount_pool(window: LocalWindow, subgoals, size: int) -> np.ndarray:
    """Histogram-argmax oracle; bincount argmax ties break low by itself."""
    s = window.labels.shape[0]
    block = s // size
    out = np.zeros((size, size), dtype=np.int64)
    for r in range(size):
        for c in range(size):
            chunk = window.labels[r * block:(r + 1) * block,
                                  c * block:(c + 1) * block]
            visited = bool(window.trajectory[
                r * block:(r + 1) * block,
                c * block:(c + 1) * block].any())
            explored = chunk[chunk > 0]
            winner = 0
            if explored.size:
                winner = int(np.bincount(explored).argmax())
            if visited and winner not in subgoals:
                winner = -1
            out[r, c] = winner
    out[size // 2, size // 2] = 0
    return out


def random_window(rng, size, block) -> LocalWindow:
    s = size * block
    labels = rng.integers(0, 5, size=(s, s)).astype(np.int64)
    trajectory = rng.random((s, s)) < 0.15
    return LocalWindow(labels=labels, trajectory=trajectory, cell_size=5.0)


class TestPoolToMatrix:
    def test_matches_bincount_oracle_across_block_sizes(self):
        rng = np.random.default_rng(99)
        pose = UavPose(0, 0, 5)
        for block in (1, 2, 3, 4):
            for _ in range(20):
                window = random_window(rng, 6, block)
                subgoals = frozenset(
                    int(v) for v in rng.choice([1, 2, 3, 4], size=2))
                got = pool_to_matrix(window, pose, LEGEND, subgoals, size=6)
                expected = bincount_pool(window, subgoals, 6)
                assert np.array_equal(got.cells, expected)

    def test_tie_between_labels_goes_to_the_lower_id(self):
        labels = np.array([[1, 2], [2, 1]] * 2, dtype=np.int64)
        labels = np.tile(labels[:2, :], (2, 1))      # 4x2 -> make 4x4
        labels = np.hstack([labels, labels])
        window = LocalWindow(labels=labels,
                             trajectory=np.zeros((4, 4), bool),
                             cell_size=5.0)
        matrix = pool_to_matrix(window, UavPose(0, 0, 5), LEGEND, size=2)
        assert matrix.cells[0, 1] == 1

    def test_trajectory_beats_plain_labels(self):
        labels = np.full((2, 2), 4, dtype=np.int64)
        trajectory = np.zeros((2, 2), bool)
        trajectory[0, 0] = True
        window = LocalWindow(labels, trajectory, 5.0)
        matrix = pool_to_matrix(window, UavPose(0, 0, 5), LEGEND, size=2)
        assert matrix.cells[0, 0] == -1

    def test_subgoal_label_beats_trajectory(self):
        labels = np.full((2, 2), 3, dtype=np.int64)
        trajectory = np.ones((2, 2), bool)
        window = LocalWindow(labels, trajectory, 5.0)
        matrix = pool_to_matrix(window, UavPose(0, 0, 5), LEGEND,
                                subgoal_labels={3}, size=2)
        assert matrix.cells[0, 0] == 3

    def test_center_cell_is_reserved(self):
        labels = np.full((6, 6), 2, dtype=np.int64)
        window = LocalWindow(labels, np.zeros((6, 6), bool), 5.0)
        matrix = pool_to_matrix(window, UavPose(0, 0, 5), LEGEND, size=6)
        assert matrix.cells[3, 3] == 0
        assert matrix.cells[0, 0] == 2

    def test_indivisible_window_is_rejected(self):
        window = LocalWindow(np.zeros((10, 10), dtype=np.int64),
                             np.zeros((10, 10), bool), 5.0)
        with pytest.raises(ShapeMismatchError):
            pool_to_matrix(window, UavPose(0, 0, 5), LEGEND, size=4)

    def test_empty_window_is_rejected(self):
        window = LocalWindow(np.zeros((0, 0), dtype=np.int64),
                             np.zeros((0, 0), bool), 5.0)
        with pytest.raises(ShapeMismatchError):
            pool_to_matrix(window, UavPose(0, 0, 5), LEGEND, size=4)

    def test_cell_metric_defaults_to_block_times_cell(self):
        window = random_window(np.random.default_rng(1), 4, 2)
        matrix = pool_to_matrix(window, UavPose(0, 0, 5), LEGEND, size=4)
        assert matrix.cell_metric == 10.0


class TestMatrixText:
    def make_matrix(self) -> StmrMatrix:
        cells = np.zeros((4, 4), dtype=np.int64)
        cells[0, 0] = 1
        cells[1, 3] = 4
        cells[3, 2] = -1
        return StmrMatrix(cells=cells, legend=LEGEND,
                          orientation_token="north0")

    def test_legend_line_layout(self):
        assert legend_line(LEGEND) == (
            "[0:Unexplored 1:road 2:building 3:river 4:grass "
            "-1:your past trajectory]")

    def test_serialization_prints_token_at_center(self):
        text = serialize_matrix(self.make_matrix())
        lines = text.splitlines()
        assert len(lines) == 5
        assert lines[1] == "1 0 0 0"
        assert lines[2] == "0 0 0 4"
        assert lines[3] == "0 0 north0 0"
        assert lines[4] == "0 0 -1 0"

    def test_pose_argument_recomputes_the_token(self):
        text = serialize_matrix(self.make_matrix(),
                                pose=UavPose(0, 0, 5, yaw=math.pi))
        assert "west0" in text.splitlines()[3]

    def test_parse_inverts_serialize(self):
        matrix = self.make_matrix()
        parsed = parse_matrix(serialize_matrix(matrix))
        assert np.array_equal(parsed.cells, matrix.cells)
        assert parsed.legend == LEGEND
        assert parsed.orientation_token == "north0"

    def test_parse_rejects_stray_tokens(self):
        text = serialize_matrix(self.make_matrix())
        bad = text.replace("1 0 0 0", "1 x 0 0")
        with pytest.raises(ValueError, match="unexpected token"):
            parse_matrix(bad)

    def test_parse_requires_the_legend_line(self):
        with pytest.raises(ValueError, match="legend"):
            parse_matrix("0 0\n0 0")

    def test_matrix_rejects_ids_outside_the_legend(self):
        cells = np.zeros((4, 4), dtype=np.int64)
        cells[0, 0] = 9
        with pytest.raises(ValueError, match="outside the legend"):
            StmrMatrix(cells=cells, legend=LEGEND,
                       orientation_token="east0")

    def test_matrix_must_be_square_and_even(self):
        with pytest.raises(ShapeMismatchError):
            StmrMatrix(cells=np.zeros((3, 3), dtype=np.int64),
                       legend=LEGEND, orientation_token="east0")
        with pytest.raises(ShapeMismatchError):
            StmrMatrix(cells=np.zeros((2, 4), dtype=np.int64),
                       legend=LEGEND, orientation_token="east0")

    @given(st.integers(0, 359), st.integers(-45, 45))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_any_orientation_token(self, yaw_deg,
                                                        pitch_deg):
        pose = UavPose(0, 0, 5, yaw=math.radians(yaw_deg),
                       pitch=math.radians(pitch_deg))
        cells = np.zeros((4, 4), dtype=np.int64)
        matrix = StmrMatrix(cells=cells, legend=LEGEND,
                            orientation_token=orientation_token(pose))
        parsed = parse_matrix(serialize_matrix(matrix))
        assert parsed.orientation_token == matrix.orientation_token


@st.composite
def matrices(draw):
    n = draw(st.sampled_from([2, 4, 6, 20]))
    ids = draw(st.lists(MAP_LABEL, min_size=1, max_size=4, unique=True))
    cells = draw(arrays(np.int64, (n, n),
                        elements=st.sampled_from([0, -1, *ids])))
    return StmrMatrix(cells=cells, legend={i: f"id{i}" for i in ids},
                      orientation_token="north0")


class TestSerializeMatrixMatchesReference:
    """Formatting from ``cells.tolist()`` prints what indexing did."""

    @given(matrix=matrices(),
           yaw=st.one_of(st.none(), st.floats(0, 2 * math.pi - 1e-9)))
    @settings(max_examples=200, deadline=None)
    def test_byte_equal(self, matrix, yaw):
        pose = None if yaw is None else UavPose(0, 0, 5, yaw=yaw)
        assert serialize_matrix(matrix, pose) == \
            serialize_matrix_reference(matrix, pose)


class TestEncodeTopo:
    def test_chain_of_three_yields_two_connection_lines(self):
        text = encode_topo(
            ["grass at cell (0, 0)", "road at cell (1, 0)",
             "road at cell (2, 0)"],
            {0: [1], 1: [0, 2], 2: [1]})
        assert text == (
            "Place 0: grass at cell (0, 0)\n"
            "Place 1: road at cell (1, 0)\n"
            "Place 2: road at cell (2, 0)\n"
            "Place 0 is connected with Place 1\n"
            "Place 1 is connected with Places 0, 2")

    def test_isolated_place_has_no_connection_line(self):
        text = encode_topo(["a lone tower"], {})
        assert text == "Place 0: a lone tower"

    def test_needs_at_least_one_place(self):
        with pytest.raises(ValueError):
            encode_topo([], {})


class TestEncodeMetric:
    def test_hand_computed_clause_list(self):
        # Facing north: river dead ahead at 20 m; building at (10, 10)
        # bears 45 degrees clockwise -> right front, round(14.14) = 14 m;
        # canopy due west -> left, 15 m.
        pose = UavPose(0.0, 0.0, 10.0, yaw=math.pi / 2)
        text = encode_metric(
            [("building", 10.0, 10.0), ("river", 0.0, 20.0),
             ("canopy", -15.0, 0.0)], pose)
        assert text == (
            "a river in the front 20 meters away; "
            "a building in the right front 14 meters away; "
            "a canopy in the left 15 meters away")

    def test_empty_landmark_list(self):
        assert encode_metric([], UavPose(0, 0, 5)) == "nothing mapped yet"

    def test_behind_maps_to_back(self):
        pose = UavPose(0.0, 0.0, 10.0, yaw=0.0)
        text = encode_metric([("road", -7.0, 0.0)], pose)
        assert text == "a road in the back 7 meters away"


# Window labels mix unexplored (0, and -1 which also counts as
# unexplored), a few small ids that tie often, and sparse large ids.
WINDOW_LABEL = st.one_of(st.sampled_from([0, 0, -1]), st.integers(1, 3),
                         st.sampled_from([999_983, 10**6, 2**40]))


@st.composite
def pooling_cases(draw):
    size = draw(st.sampled_from([2, 4, 6]))
    block = draw(st.integers(1, 4))
    s = size * block
    # either whole blocks unexplored or the full mix of labels
    label = draw(st.sampled_from([st.sampled_from([0, 5]), WINDOW_LABEL]))
    window = LocalWindow(draw(arrays(np.int64, (s, s), elements=label)),
                         draw(arrays(bool, (s, s))), 5.0)
    present = set(window.labels[window.labels > 0].tolist())
    subgoals = draw(st.frozensets(st.sampled_from(sorted(present | {0, 2, 7})),
                                  max_size=3))
    return window, subgoals, size


class TestPoolToMatrixMatchesReference:
    """The one-bincount pooling equals the per-block loop it replaced."""

    @given(case=pooling_cases())
    @settings(max_examples=300, deadline=None)
    def test_equal_cells(self, case):
        window, subgoals, size = case
        legend = {int(v): f"id{v}" for v in np.unique(window.labels) if v > 0}
        pose = UavPose(0, 0, 5)
        got = pool_to_matrix(window, pose, legend, subgoals, size=size)
        want = pool_to_matrix_reference(window, pose, legend, subgoals,
                                        size=size)
        assert got.cells.dtype == want.cells.dtype
        assert got.cells.tobytes() == want.cells.tobytes()
        assert got.cell_metric == want.cell_metric
