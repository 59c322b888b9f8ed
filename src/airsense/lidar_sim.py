"""Digital-twin scan simulator.

A seeded non-repetitive rosette scan pattern gives each window's rays as unit
directions and microsecond stamps; every ray leaves the sensor origin. A
frame scans a posed target without rebuilding its BVH: the rays in the cone
around the posed target's bounding sphere move into the mesh rest frame and
are traced, and each nearest hit becomes a return with a Lambertian
intensity, mapped back into the sensor frame. The directivity map counts the
hits of a target swept across the field of view.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .boxes import rot_z
from .fields import check_fields
from .mesh import TriangleMesh
from .pointio import ScanFrame
from .raytrace import Bvh

__all__ = [
    "ScanPattern",
    "Pose2D",
    "FrameSim",
    "DirectivityGrid",
    "VoxelRegion",
    "gen_pattern",
    "transform_rays",
    "rays_to_sensor_frame",
    "simulate_frame",
    "directivity_analysis",
    "THRESHOLD_SPARSE",
    "THRESHOLD_DENSE",
    "MIN_CLUSTER_HITS",
]

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# named per-voxel return count presets used in coverage studies
THRESHOLD_SPARSE = 4
THRESHOLD_DENSE = 14

MIN_CLUSTER_HITS = 10

# (voxel, ray) pairs traced per traversal in directivity_analysis. A
# traversal pays a fixed numpy cost per node it visits and element work per
# pair. At the 12-triangle leaves of raytrace._LEAF_SIZE, the 19,801 pairs of
# the offline benchmark's 50-voxel block took 11.5 / 13.9 / 13.5 ms in
# batches of 1 << 13 / 14 / 15 (medians of 35, 2 vCPUs; 18.2 / 18.2 / 17.3 ms
# at 4-triangle leaves), and the CLI-default region 194 / 202 / 217 ms
# (medians of 9). A traversal holds about 245 B per pair, results included,
# so that region peaked at 47.7 / 51.5 / 57.7 / 70.1 MB maxrss at
# 1 << 13 / 14 / 15 / 16; 1 << 14 is the largest batch within 5 MB of 1 << 13.
_RAY_BATCH = 1 << 14


@dataclass(frozen=True)
class ScanPattern:
    """Rosette scan: a radial oscillation spun at an incommensurate rate so
    consecutive frames never repeat. The radial/angular rates are free
    parameters; the sensor constants default to the airborne unit's spec
    (240k returns per second over a 70.4 by 77.2 degree window)."""

    points_per_second: int = 240_000
    h_fov_deg: float = 70.4
    v_fov_deg: float = 77.2
    rho_rate_hz: float = 173.0
    theta_rate_hz: float = 173.0 * GOLDEN
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        for name, low in (("points_per_second", 1), ("seed", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not (0 < self.h_fov_deg < 180 and 0 < self.v_fov_deg < 180):
            raise ValueError("field of view must be in (0, 180) degrees")


def gen_pattern(spec: ScanPattern, duration_ms: float,
                start_ms: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """One window's sensor-frame rays, all leaving the sensor origin: unit
    directions (n, 3) and int64 stamps (n,) in microseconds.

    Ray i of the global timeline is stamped floor(i * 1e6 / rate) us and gets
    its phase from i, so a longer window is a strict prefix extension of a
    shorter one with the same seed and start. The window is rounded to the
    microsecond as simulate_frame rounds its frame, [start_us, end_us), must
    hold at least 1 us, and holds the rays stamped inside it:
    ceil(rate * start_us / 1e6) up to ceil(rate * end_us / 1e6), so
    consecutive windows cast every ray once.

    A window's arrays are generated once per pattern and rounded window: the
    last window's are kept, read-only, and every call returns them.
    """
    for name, value in (("duration_ms", duration_ms), ("start_ms", start_ms)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    window_us = round(duration_ms * 1000)
    if window_us < 1:
        raise ValueError(f"duration_ms must hold at least 1 us, got {duration_ms}")
    start_us = round(start_ms * 1000)
    end_us = start_us + window_us
    # the field types join the key: a float32 field equals its float64 value
    # as a key but gives other rays
    types = tuple(map(type, vars(spec).values()))
    return _window(spec, types, start_us, end_us)


# one entry serves every caller: a sky frame's drones, a directivity sweep
# and each attempt of an augment campaign all repeat the last window
@functools.lru_cache(maxsize=1)
def _window(spec: ScanPattern, types: tuple, start_us: int,
            end_us: int) -> tuple[np.ndarray, np.ndarray]:
    # a Python int: a narrow numpy rate would overflow rate * start_us
    rate = int(spec.points_per_second)
    i0 = -(-rate * start_us // 1_000_000)
    idx = np.arange(i0, -(-rate * end_us // 1_000_000))
    t_s = idx / rate

    rng = np.random.default_rng(spec.seed)
    phase_rho, phase_theta = rng.uniform(0.0, 2.0 * math.pi, size=2)
    rho = np.sin(2.0 * math.pi * spec.rho_rate_hz * t_s + phase_rho)
    theta = 2.0 * math.pi * spec.theta_rate_hz * t_s + phase_theta
    az = np.radians(spec.h_fov_deg / 2.0) * rho * np.cos(theta)
    el = np.radians(spec.v_fov_deg / 2.0) * rho * np.sin(theta)

    cos_el = np.cos(el)
    dirs = np.column_stack([cos_el * np.cos(az), cos_el * np.sin(az), np.sin(el)])
    # floor(i * 1e6 / rate) without forming i * 1e6, which overflows int64
    # once the timeline passes about 1e13 / rate s (an epoch start, say)
    t_us = idx // rate * 1_000_000 + idx % rate * 1_000_000 // rate
    for array in (dirs, t_us):
        array.setflags(write=False)
    return dirs, t_us


@dataclass(frozen=True)
class Pose2D:
    """Target pose: yaw about z plus translation, in the sensor frame."""

    yaw: float = 0.0
    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        check_fields(self)

    def rotation(self) -> np.ndarray:
        return rot_z(self.yaw)


def transform_rays(directions: np.ndarray, pose: Pose2D) -> tuple[np.ndarray, np.ndarray]:
    """Express rays leaving the sensor origin in the rest frame of a posed
    mesh: returns their common origin there, the apex, and their directions
    (n, 3), both rotated by -yaw about z, the apex from -translation.
    Intersecting these rays against the unposed mesh is equivalent to
    intersecting the originals against the posed mesh, so the acceleration
    structure never needs a rebuild.
    """
    rot = pose.rotation()
    return -np.asarray(pose.translation, dtype=np.float64) @ rot, directions @ rot


def rays_to_sensor_frame(points: np.ndarray, pose: Pose2D) -> np.ndarray:
    """Map mesh rest-frame points back into the sensor frame."""
    return np.asarray(points, dtype=np.float64) @ pose.rotation().T \
        + np.asarray(pose.translation, dtype=np.float64)


@dataclass
class FrameSim:
    """One simulated window: the resulting frame plus acceptance bookkeeping.
    A cluster thinner than min_hits is flagged, not discarded silently."""

    frame: ScanFrame
    hit_count: int
    accepted: bool
    rays_cast: int


def simulate_frame(pattern: ScanPattern, bvh: Bvh, pose: Pose2D,
                   window_ms: float = 100.0, start_ms: float = 0.0,
                   min_hits: int = MIN_CLUSTER_HITS) -> FrameSim:
    """Scan a posed target for one window. The target is its mesh's BVH,
    built once by the caller and shared by every frame of that mesh.

    Pipeline: generate the pattern, keep the rays in the cone around the
    posed target's bounding sphere (the rest cannot reach it), move them into
    the mesh rest frame, trace them, take each hit's Lambertian cosine as its
    intensity (unit incident intensity) and map hit points back into the
    sensor frame. The frame is accepted only when at least min_hits returns
    came back; rays_cast counts every ray of the pattern.
    """
    dirs, t_us = gen_pattern(pattern, window_ms, start_ms)
    center, radius = _root_sphere(bvh)
    keep = _in_cone(rays_to_sensor_frame(center, pose)[None], radius, dirs)[0]
    apex, local = transform_rays(dirs[keep], pose)
    t, tri = bvh.intersect(np.broadcast_to(apex, local.shape), local)
    hit = tri >= 0
    local = local[hit]
    points = rays_to_sensor_frame(apex + t[hit, None] * local, pose)
    frame = ScanFrame(points, _lambertian(local, bvh.mesh.normals[tri[hit]]),
                      t_us[keep][hit], int(round(start_ms * 1000)),
                      int(round(window_ms * 1000)))
    return FrameSim(frame, len(frame), len(frame) >= min_hits, len(dirs))


def _lambertian(directions: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Return intensity of a unit incident intensity on a Lambertian surface:
    |d . n| per row of unit directions and face normals, capped at 1
    against rounding."""
    return np.minimum(np.abs(np.sum(directions * normals, axis=1)), 1.0)


@dataclass(frozen=True)
class VoxelRegion:
    """Axis-aligned block of cubic voxels; centers lie on a voxel-size grid."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    z_range: tuple[float, float]
    voxel_size: float = 1.0

    def __post_init__(self):
        check_fields(self)
        if self.voxel_size <= 0:
            raise ValueError(f"voxel_size must be finite and positive, got {self.voxel_size}")
        for name in ("x_range", "y_range", "z_range"):
            lo, hi = getattr(self, name)
            voxels = (hi - lo) / self.voxel_size
            if not math.isfinite(voxels):
                raise ValueError(f"{name} holds a non-finite count of voxels of "
                                 f"{self.voxel_size}, got {(lo, hi)}")
            if voxels + 1e-9 < 1:
                raise ValueError(f"{name} must be finite and span at least one voxel of "
                                 f"{self.voxel_size}, got {(lo, hi)}")

    def centers(self) -> np.ndarray:
        axes = []
        for lo, hi in (self.x_range, self.y_range, self.z_range):
            n = int(math.floor((hi - lo) / self.voxel_size + 1e-9))
            axes.append(lo + (np.arange(n) + 0.5) * self.voxel_size)
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])


def _root_sphere(bvh: Bvh) -> tuple[np.ndarray, float]:
    """Center and radius of the sphere through the corners of bvh's root box."""
    root = bvh.nodes[0]
    return (root.lo + root.hi) / 2.0, math.dist(root.lo, root.hi) / 2.0


def _in_cone(spheres: np.ndarray, radius: float, directions: np.ndarray) -> np.ndarray:
    """(m, n) mask of the rays from the origin that can meet each of m spheres
    of the given radius, centered at the rows of spheres (m, 3): those whose
    unit direction lies within the sphere's angular radius of its center,
    one dot product each. The radius is padded by 1e-6 of itself plus 1e-9
    of the distance to the center, far above the rounding of this test and
    of the slab test, so no ray that reaches the box inside the sphere is
    dropped. Every ray is kept for a sphere that holds the origin."""
    dist = np.sqrt(np.einsum("ij,ij->i", spheres, spheres))
    r = radius * (1.0 + 1e-6) + dist * 1e-9
    # cosine of each sphere's angular radius, times dist; -inf keeps every ray
    cos_min = np.where(dist > r, np.sqrt(np.maximum(dist * dist - r * r, 0.0)), -np.inf)
    return spheres @ directions.T >= cos_min[:, None]


def _in_fov(centers: np.ndarray, pattern: ScanPattern) -> np.ndarray:
    az = np.degrees(np.arctan2(centers[:, 1], centers[:, 0]))
    rng_xy = np.hypot(centers[:, 0], centers[:, 1])
    el = np.degrees(np.arctan2(centers[:, 2], rng_xy))
    ahead = centers[:, 0] > 0
    return ahead & (np.abs(az) <= pattern.h_fov_deg / 2.0) \
        & (np.abs(el) <= pattern.v_fov_deg / 2.0)


@dataclass
class DirectivityGrid:
    """Hit counts for a target centered in each voxel of a region."""

    centers: np.ndarray        # (n, 3)
    counts: np.ndarray         # (n,) int64
    threshold: int

    def included(self) -> np.ndarray:
        return self.counts >= self.threshold

    def to_csv(self, path):
        """Voxel centers and counts, sub-threshold voxels excluded."""
        with open(path, "w") as fh:
            fh.write("x,y,z,count\n")
            for c, n in zip(self.centers, self.counts):
                if n >= self.threshold:
                    fh.write(f"{c[0]:.3f},{c[1]:.3f},{c[2]:.3f},{int(n)}\n")


def directivity_analysis(pattern: ScanPattern, mesh: TriangleMesh, window_ms: float,
                         threshold: int, region: VoxelRegion) -> DirectivityGrid:
    """Hit-count map of the target swept over the voxel centers of a region.

    Only voxel centers inside the field of view are scanned; the rest stay at
    zero. Every placement shares one acceleration structure and the mesh's
    rest orientation, so each voxel only moves the rays' common origin. One
    cone test per chunk of voxels keeps the (voxel, ray) pairs whose ray can
    reach the placed target's bounding sphere, 8 B a pair against the about
    245 B a pair a traversal holds; the voxel-major pair list is sliced into
    traversals of _RAY_BATCH pairs that may span voxels and chunks, and each
    traversal's hits are counted back per voxel with one bincount.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    centers = region.centers()
    counts = np.zeros(len(centers), dtype=np.int64)
    voxels = np.nonzero(_in_fov(centers, pattern))[0]
    bvh = Bvh(mesh)
    # column-major, so that the cone test's product reads each component in one run
    dirs = np.asfortranarray(gen_pattern(pattern, window_ms)[0])
    apexes = mesh.center() - centers[voxels]
    center, radius = _root_sphere(bvh)
    pairs = _cone_pairs(center - apexes, radius, dirs)
    for b in range(0, pairs.size, _RAY_BATCH):
        voxel, ray = np.divmod(pairs[b:b + _RAY_BATCH], len(dirs))
        _, tri = bvh.intersect(apexes[voxel], dirs[ray])
        counts[voxels] += np.bincount(voxel[tri >= 0], minlength=len(voxels))
    return DirectivityGrid(centers, counts, threshold)


def _cone_pairs(spheres: np.ndarray, radius: float, dirs: np.ndarray) -> np.ndarray:
    """Ascending flat indices voxel * n + ray of the rays in each voxel's
    cone, around the sphere of the given radius centered at its row of
    spheres. The cone test runs on chunks of voxels whose masks hold at most
    _RAY_BATCH entries, or one voxel's n rays."""
    n = len(dirs)
    step = max(1, _RAY_BATCH // max(n, 1))
    return np.concatenate([np.empty(0, dtype=np.intp)] + [
        np.flatnonzero(_in_cone(spheres[a:a + step], radius, dirs)) + a * n
        for a in range(0, len(spheres), step)])
