"""Pinhole camera model, depth back-projection, and rigid pose transforms.

Frame conventions, fixed once for the whole package:

* World frame: right-handed, z-up, x points east, y points north.
  Yaw 0 faces +x (east) and grows counter-clockwise.  Pitch is the
  declination angle: positive pitch tilts the nose down.  Roll turns
  about the body-forward axis.
* Body frame: +x forward, +y left, +z up.
* Camera frame: standard pinhole with +z along the optical axis,
  +x right, +y down.  The camera sits on the body behind a fixed
  mount rotation; the default mount looks forward.

Depth images store the camera-frame z coordinate of the hit point
(planar depth), the convention of consumer depth cameras, so that
back-projecting a pixel with its stored depth reproduces the exact
3D point that was observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDepthError, PixelBoundsError, ShapeMismatchError


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


@dataclass(frozen=True)
class UavPose:
    """Vehicle pose: position in meters, attitude in radians.

    Yaw is normalized to [0, 2*pi) at construction.
    """

    x: float
    y: float
    z: float
    pitch: float = 0.0
    roll: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "z", "pitch", "roll", "yaw"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError("pose components must be finite")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "yaw", self.yaw % (2.0 * math.pi))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


@dataclass(frozen=True)
class SemanticPointCloud:
    """3D points in the world frame, one semantic label id per point."""

    xyz: np.ndarray      # (N, 3) float64
    labels: np.ndarray   # (N,) int

    def __post_init__(self):
        if self.xyz.ndim != 2 or self.xyz.shape[1] != 3:
            raise ShapeMismatchError("xyz must have shape (N, 3)")
        if self.labels.shape != (self.xyz.shape[0],):
            raise ShapeMismatchError("labels must have shape (N,)")
        if self.xyz.size and not np.isfinite(self.xyz).all():
            raise ValueError("point coordinates must be finite")

    def __len__(self) -> int:
        return self.xyz.shape[0]


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# Camera axes expressed in body coordinates, one column per camera axis.
# Forward mount: optical axis along body +x; image right = body right (-y);
# image down = body down (-z).
FORWARD_MOUNT = np.array([
    [0.0, 0.0, 1.0],
    [-1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0],
])

# Downward mount: optical axis along body -z; image up = body forward.
DOWNWARD_MOUNT = np.array([
    [0.0, -1.0, 0.0],
    [-1.0, 0.0, 0.0],
    [0.0, 0.0, -1.0],
])


def body_to_world(pose: UavPose) -> np.ndarray:
    """Rotation taking body-frame vectors to the world frame (yaw-pitch-roll)."""
    return rot_z(pose.yaw) @ rot_y(pose.pitch) @ rot_x(pose.roll)


def camera_to_world_rotation(pose: UavPose, mount: np.ndarray = FORWARD_MOUNT) -> np.ndarray:
    return body_to_world(pose) @ mount


def _rotate(r: np.ndarray, x, y, z):
    # Elementwise form shared by the scalar and image paths so both
    # produce bit-identical results.
    wx = r[0, 0] * x + r[0, 1] * y + r[0, 2] * z
    wy = r[1, 0] * x + r[1, 1] * y + r[1, 2] * z
    wz = r[2, 0] * x + r[2, 1] * y + r[2, 2] * z
    return wx, wy, wz


def backproject_pixel(u: float, v: float, depth: float, k: CameraIntrinsics):
    """Map one pixel with planar depth to a camera-frame point.

    x = (u - cx) * depth / fx
    y = (v - cy) * depth / fy
    z = depth
    """
    if not (math.isfinite(depth) and depth > 0):
        raise InvalidDepthError(f"depth must be finite and positive, got {depth!r}")
    if not (0 <= u < k.width and 0 <= v < k.height):
        raise PixelBoundsError(f"pixel ({u}, {v}) outside {k.width}x{k.height} image")
    x = (u - k.cx) * depth / k.fx
    y = (v - k.cy) * depth / k.fy
    return (x, y, depth)


def project_point(p, k: CameraIntrinsics):
    """Forward pinhole model: camera-frame point to (u, v, depth)."""
    x, y, z = float(p[0]), float(p[1]), float(p[2])
    if z <= 0:
        raise InvalidDepthError("point behind the camera")
    return (k.fx * x / z + k.cx, k.fy * y / z + k.cy, z)


def camera_to_world(p, pose: UavPose, mount: np.ndarray = FORWARD_MOUNT) -> np.ndarray:
    """Rigid transform of a camera-frame point into the world frame."""
    r = camera_to_world_rotation(pose, mount)
    wx, wy, wz = _rotate(r, float(p[0]), float(p[1]), float(p[2]))
    return np.array([wx + pose.x, wy + pose.y, wz + pose.z])


def backproject_image(
    depth: np.ndarray,
    labels: np.ndarray,
    k: CameraIntrinsics,
    pose: UavPose,
    mount: np.ndarray = FORWARD_MOUNT,
    max_range: float = 100.0,
) -> SemanticPointCloud:
    """Back-project a depth image into a world-frame semantic point cloud.

    One point per pixel whose depth is finite and in (0, max_range];
    depth <= 0 is the no-return sentinel and anything beyond max_range is
    discarded as unreliable.  Labels ride along unchanged.  Equals the
    per-pixel backproject_pixel + camera_to_world composition exactly.
    """
    depth = np.asarray(depth, dtype=np.float64)
    labels = np.asarray(labels)
    if depth.shape != labels.shape:
        raise ShapeMismatchError(
            f"depth {depth.shape} and label {labels.shape} images differ")
    if depth.shape != (k.height, k.width):
        raise ShapeMismatchError(
            f"image {depth.shape} does not match intrinsics "
            f"({k.height}, {k.width})")

    valid = np.isfinite(depth) & (depth > 0) & (depth <= max_range)
    vv, uu = np.nonzero(valid)
    d = depth[vv, uu]
    cx = (uu - k.cx) * d / k.fx
    cy = (vv - k.cy) * d / k.fy
    r = camera_to_world_rotation(pose, mount)
    wx, wy, wz = _rotate(r, cx, cy, d)
    xyz = np.stack([wx + pose.x, wy + pose.y, wz + pose.z], axis=1)
    return SemanticPointCloud(xyz, labels[vv, uu].astype(np.int64))
