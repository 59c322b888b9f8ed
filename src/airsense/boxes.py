"""Oriented 3D bounding boxes (yaw about z) and point containment tests."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["Box3D", "box_rows", "wrap_angle", "rot_z", "points_in_box"]


def wrap_angle(theta: float) -> float:
    """Map an angle to (-pi, pi]."""
    t = math.fmod(theta + math.pi, 2.0 * math.pi)
    if t <= 0.0:
        t += 2.0 * math.pi
    return t - math.pi


def rot_z(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class Box3D:
    """Center (x, y, z) in meters, size (l, w, h), heading yaw in (-pi, pi]."""

    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    yaw: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "z", "l", "w", "h", "yaw"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"box {name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"box {name} must be finite, got {value}")
        if self.l <= 0 or self.w <= 0 or self.h <= 0:
            raise ValueError(f"box sides must be positive, got {(self.l, self.w, self.h)}")
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def translated(self, delta) -> "Box3D":
        d = np.asarray(delta, dtype=np.float64)
        return replace(self, x=self.x + d[0], y=self.y + d[1], z=self.z + d[2])

    def to_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "z": self.z,
                "l": self.l, "w": self.w, "h": self.h, "yaw": self.yaw}

    @classmethod
    def from_dict(cls, d: dict) -> "Box3D":
        missing = [k for k in ("x", "y", "z", "l", "w", "h") if k not in d]
        if missing:
            raise ValueError(f"box is missing {', '.join(missing)}")
        return cls(d["x"], d["y"], d["z"], d["l"], d["w"], d["h"], d.get("yaw", 0.0))


def box_rows(boxes) -> np.ndarray:
    """(N, 7) float64 rows x, y, z, l, w, h, yaw from Box3D objects or rows."""
    if not isinstance(boxes, np.ndarray):
        boxes = np.array([[b.x, b.y, b.z, b.l, b.w, b.h, b.yaw] for b in boxes]).reshape(-1, 7)
    if boxes.ndim != 2 or boxes.shape[1] != 7:
        raise ValueError(f"boxes must be (N, 7) rows x, y, z, l, w, h, yaw, got {boxes.shape}")
    return boxes.astype(np.float64, copy=False)


def points_in_box(points: np.ndarray, box: Box3D) -> np.ndarray:
    """Boolean containment mask for (n, 3) points; boundaries are inclusive.

    The height test runs on every point; the yawed footprint test runs only
    on the points it keeps, so a frame's far returns cost one comparison."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    cx, cy, cz = box.center
    dz = pts[:, 2] - cz
    inside = np.abs(dz, out=dz) <= box.h / 2.0 + 1e-12
    rows = np.flatnonzero(inside)
    dx = pts[rows, 0] - cx
    dy = pts[rows, 1] - cy
    c, s = math.cos(-box.yaw), math.sin(-box.yaw)
    lx = c * dx - s * dy
    ly = s * dx + c * dy
    inside[rows] = (np.abs(lx) <= box.l / 2.0 + 1e-12) & (np.abs(ly) <= box.w / 2.0 + 1e-12)
    return inside
