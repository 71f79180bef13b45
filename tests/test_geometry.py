"""Camera model and frame transforms, checked against hand arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stmrnav.errors import InvalidDepthError, PixelBoundsError, ShapeMismatchError
from stmrnav.geometry import (
    DOWNWARD_MOUNT,
    FORWARD_MOUNT,
    CameraIntrinsics,
    SemanticPointCloud,
    UavPose,
    backproject_image,
    backproject_pixel,
    body_to_world,
    camera_to_world,
    camera_to_world_rotation,
    project_point,
    rot_x,
    rot_y,
    rot_z,
)

K = CameraIntrinsics(fx=40.0, fy=40.0, cx=31.5, cy=23.5, width=64, height=48)


class TestIntrinsics:
    def test_rejects_nonpositive_focal_length(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=0.0, fy=40.0, cx=31.5, cy=23.5,
                             width=64, height=48)

    def test_rejects_principal_point_outside_image(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=40.0, fy=40.0, cx=64.0, cy=23.5,
                             width=64, height=48)


class TestPose:
    def test_yaw_normalizes_into_full_turn(self):
        assert UavPose(0, 0, 1, yaw=-math.pi / 2).yaw == pytest.approx(
            3 * math.pi / 2, abs=1e-15)
        assert UavPose(0, 0, 1, yaw=5 * math.pi).yaw == pytest.approx(
            math.pi, abs=1e-12)

    def test_components_become_plain_floats(self):
        pose = UavPose(np.float64(1.0), np.float64(2.0), np.float64(3.0))
        assert type(pose.x) is float
        assert type(pose.yaw) is float

    def test_rejects_non_finite_components(self):
        with pytest.raises(ValueError):
            UavPose(math.nan, 0, 1)
        with pytest.raises(ValueError):
            UavPose(0, 0, math.inf)

    def test_position_vector(self):
        assert np.array_equal(UavPose(1, 2, 3).position,
                              np.array([1.0, 2.0, 3.0]))


class TestBackprojectPixel:
    def test_hand_computed_point(self):
        # x = (40 - 31.5) * 10 / 40 = 2.125 ; y = (30 - 23.5) * 10 / 40 = 1.625
        x, y, z = backproject_pixel(40.0, 30.0, 10.0, K)
        assert x == pytest.approx(2.125, abs=1e-15)
        assert y == pytest.approx(1.625, abs=1e-15)
        assert z == 10.0

    def test_principal_point_maps_to_optical_axis(self):
        assert backproject_pixel(31.5, 23.5, 7.0, K) == (0.0, 0.0, 7.0)

    def test_rejects_bad_depth(self):
        with pytest.raises(InvalidDepthError):
            backproject_pixel(10, 10, 0.0, K)
        with pytest.raises(InvalidDepthError):
            backproject_pixel(10, 10, -1.0, K)
        with pytest.raises(InvalidDepthError):
            backproject_pixel(10, 10, math.nan, K)

    def test_rejects_pixel_outside_image(self):
        with pytest.raises(PixelBoundsError):
            backproject_pixel(64.0, 10.0, 5.0, K)
        with pytest.raises(PixelBoundsError):
            backproject_pixel(10.0, -0.5, 5.0, K)


class TestProjectPoint:
    def test_inverts_backprojection(self):
        u, v, d = project_point((2.125, 1.625, 10.0), K)
        assert u == pytest.approx(40.0, abs=1e-12)
        assert v == pytest.approx(30.0, abs=1e-12)
        assert d == 10.0

    def test_rejects_point_behind_camera(self):
        with pytest.raises(InvalidDepthError):
            project_point((0.0, 0.0, -1.0), K)
        with pytest.raises(InvalidDepthError):
            project_point((0.0, 0.0, 0.0), K)

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.01, 500))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_identity(self, x, y, z):
        u, v, d = project_point((x, y, z), K)
        if not (0 <= u < K.width and 0 <= v < K.height):
            return
        bx, by, bz = backproject_pixel(u, v, d, K)
        assert bx == pytest.approx(x, rel=1e-12, abs=1e-12)
        assert by == pytest.approx(y, rel=1e-12, abs=1e-12)
        assert bz == z


class TestRotations:
    def test_elementary_rotations_match_trig_tables(self):
        # Rz(90) sends +x to +y; Ry(90) sends +x to -z; Rx(90) sends +y to +z.
        assert np.allclose(rot_z(math.pi / 2) @ [1, 0, 0], [0, 1, 0],
                           atol=1e-15)
        assert np.allclose(rot_y(math.pi / 2) @ [1, 0, 0], [0, 0, -1],
                           atol=1e-15)
        assert np.allclose(rot_x(math.pi / 2) @ [0, 1, 0], [0, 0, 1],
                           atol=1e-15)

    @given(st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_rotation_matrices_are_orthonormal(self, a):
        for r in (rot_x(a), rot_y(a), rot_z(a)):
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_positive_pitch_drops_the_nose(self):
        r = body_to_world(UavPose(0, 0, 10, pitch=math.radians(30)))
        nose = r @ np.array([1.0, 0.0, 0.0])
        assert nose[2] == pytest.approx(-0.5, abs=1e-12)

    def test_yaw_turns_counterclockwise_from_east(self):
        r = body_to_world(UavPose(0, 0, 10, yaw=math.pi / 2))
        nose = r @ np.array([1.0, 0.0, 0.0])
        assert np.allclose(nose, [0.0, 1.0, 0.0], atol=1e-12)

    def test_mount_matrices_are_rotations(self):
        for m in (FORWARD_MOUNT, DOWNWARD_MOUNT):
            assert np.array_equal(m @ m.T, np.eye(3))
            assert np.linalg.det(m) == pytest.approx(1.0)

    def test_forward_mount_points_camera_along_body_x(self):
        # Optical axis (0,0,1) in camera coords = body forward (1,0,0);
        # image down (0,1,0) = body down (0,0,-1).
        assert np.array_equal(FORWARD_MOUNT @ [0, 0, 1], [1, 0, 0])
        assert np.array_equal(FORWARD_MOUNT @ [0, 1, 0], [0, 0, -1])

    def test_downward_mount_points_camera_at_the_ground(self):
        # Optical axis = body down; image up = body forward.
        assert np.array_equal(DOWNWARD_MOUNT @ [0, 0, 1], [0, 0, -1])
        assert np.array_equal(DOWNWARD_MOUNT @ [0, -1, 0], [1, 0, 0])


class TestCameraToWorld:
    def test_point_ahead_lands_north_of_a_north_facing_camera(self):
        pose = UavPose(0, 0, 10, yaw=math.pi / 2)
        p = camera_to_world((0.0, 0.0, 5.0), pose)
        assert np.allclose(p, [0.0, 5.0, 10.0], atol=1e-12)

    def test_image_right_is_east_when_facing_north(self):
        pose = UavPose(0, 0, 10, yaw=math.pi / 2)
        p = camera_to_world((1.0, 0.0, 5.0), pose)
        assert np.allclose(p, [1.0, 5.0, 10.0], atol=1e-12)

    def test_image_down_loses_altitude(self):
        pose = UavPose(0, 0, 10, yaw=math.pi / 2)
        p = camera_to_world((0.0, 1.0, 5.0), pose)
        assert np.allclose(p, [0.0, 5.0, 9.0], atol=1e-12)

    def test_downward_mount_sees_straight_below(self):
        pose = UavPose(3, 4, 10, yaw=1.2345)
        p = camera_to_world((0.0, 0.0, 10.0), pose, mount=DOWNWARD_MOUNT)
        assert np.allclose(p, [3.0, 4.0, 0.0], atol=1e-12)

    def test_rotation_composition_matches_matrix_product(self):
        pose = UavPose(1, 2, 3, pitch=0.2, roll=-0.1, yaw=2.5)
        r = camera_to_world_rotation(pose)
        expected = rot_z(pose.yaw) @ rot_y(pose.pitch) @ rot_x(pose.roll) \
            @ FORWARD_MOUNT
        assert np.allclose(r, expected, atol=1e-15)


class TestBackprojectImage:
    def make_depth(self):
        depth = np.zeros((K.height, K.width))
        depth[10, 20] = 8.0
        depth[30, 40] = 25.0
        depth[5, 5] = 150.0      # beyond MAX_RANGE, must be dropped
        depth[7, 7] = math.nan   # not finite, must be dropped
        labels = np.zeros((K.height, K.width), dtype=np.int64)
        labels[10, 20] = 3
        labels[30, 40] = 1
        labels[5, 5] = 2
        labels[7, 7] = 2
        return depth, labels

    def test_matches_per_pixel_composition_exactly(self):
        depth, labels = self.make_depth()
        pose = UavPose(5, -3, 12, pitch=0.1, yaw=2.0)
        cloud = backproject_image(depth, labels, K, pose)
        assert cloud.xyz.shape == (2, 3)
        assert list(cloud.labels) == [3, 1]
        for row, (v, u) in zip(cloud.xyz, [(10, 20), (30, 40)]):
            cam = backproject_pixel(float(u), float(v), depth[v, u], K)
            expected = camera_to_world(cam, pose)
            assert np.array_equal(row, expected)

    def test_zero_depth_is_the_no_return_sentinel(self):
        depth = np.zeros((K.height, K.width))
        labels = np.ones((K.height, K.width), dtype=np.int64)
        cloud = backproject_image(depth, labels, K, UavPose(0, 0, 10))
        assert cloud.xyz.shape == (0, 3)

    def test_rejects_shape_mismatches(self):
        depth = np.zeros((K.height, K.width))
        with pytest.raises(ShapeMismatchError):
            backproject_image(depth, np.zeros((2, 2), dtype=int), K,
                              UavPose(0, 0, 10))
        with pytest.raises(ShapeMismatchError):
            backproject_image(np.zeros((10, 10)),
                              np.zeros((10, 10), dtype=int), K,
                              UavPose(0, 0, 10))


class TestPointCloud:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ShapeMismatchError):
            SemanticPointCloud(np.zeros((3, 3)), np.array([1, 2]))
