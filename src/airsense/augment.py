"""Blended-reality training data: split labeled frames into target and
background point sets, insert simulated clusters at stratified field-of-view
positions, and generate the rigid-transform baseline over the same insertion
plan so the two datasets stay frame-aligned."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anchors import ANCHOR_SIZE
from .boxes import Box3D, points_in_box, rot_z
from .fields import check_fields
from .lidar_sim import MIN_CLUSTER_HITS, Pose2D, ScanPattern, VoxelRegion, simulate_frame
from .mesh import TriangleMesh
from .pointio import ScanFrame
from .raytrace import Bvh

__all__ = [
    "LabeledFrame",
    "AugPlan",
    "DatasetPair",
    "split_frame",
    "synth_insert",
    "euclidean_augment",
    "build_datasets",
]


@dataclass
class LabeledFrame:
    """A scan frame with its ground-truth boxes, each one labeled "drone"."""

    frame: ScanFrame
    boxes: list[Box3D]


def split_frame(lf: LabeledFrame) -> tuple[ScanFrame, ScanFrame]:
    """Partition a labeled frame into (target points, background points).
    A point inside any ground-truth box belongs to the target set."""
    if not lf.boxes:
        raise ValueError("frame has no labels to split on")
    inside = np.zeros(len(lf.frame), dtype=bool)
    for box in lf.boxes:
        inside |= points_in_box(lf.frame.points, box)
    f = lf.frame

    def subset(mask):
        return ScanFrame(f.points[mask], f.intensity[mask], f.t_us[mask],
                         f.t_start_us, f.window_us)

    return subset(inside), subset(~inside)


def _enclosing_box(points: np.ndarray, center: np.ndarray, yaw: float) -> Box3D:
    """Label box at the insertion center: the anchor footprint, grown just
    enough to enclose the (non-empty) cluster when it spills past it."""
    d = points - center
    c, s = math.cos(-yaw), math.sin(-yaw)
    lx = np.abs(c * d[:, 0] - s * d[:, 1])
    ly = np.abs(s * d[:, 0] + c * d[:, 1])
    lz = np.abs(d[:, 2])
    pad = 1e-6
    size = (max(ANCHOR_SIZE[0], 2 * lx.max() + pad),
            max(ANCHOR_SIZE[1], 2 * ly.max() + pad),
            max(ANCHOR_SIZE[2], 2 * lz.max() + pad))
    return Box3D(center[0], center[1], center[2], *size, yaw=yaw)


def synth_insert(background: ScanFrame, cluster: ScanFrame, location, yaw: float,
                 min_points: int = MIN_CLUSTER_HITS) -> tuple[LabeledFrame, bool]:
    """Merge a simulated cluster into a background frame, labeled "drone".

    The cluster must already have been simulated at the target location and
    orientation; it is never moved here. Background returns inside the new
    label box are removed as an occlusion approximation; their presence is
    reported through the returned collision flag.
    """
    if min_points < 1:
        raise ValueError(f"min_points must be >= 1, got {min_points}")
    if len(cluster) < min_points:
        raise ValueError(f"cluster has {len(cluster)} points, need >= {min_points}")
    center = np.asarray(location, dtype=np.float64).reshape(3)
    box = _enclosing_box(cluster.points, center, yaw)
    occluded = points_in_box(background.points, box)
    collision = bool(occluded.any())
    keep = ~occluded
    # rebase cluster timestamps into the background's window
    shift = background.t_start_us - cluster.t_start_us
    cluster_t = np.minimum(cluster.t_us + shift,
                           background.t_start_us + background.window_us - 1)
    points = np.vstack([background.points[keep], cluster.points])
    intensity = np.concatenate([background.intensity[keep], cluster.intensity])
    t_us = np.concatenate([background.t_us[keep], cluster_t])
    merged = ScanFrame(points, intensity, t_us,
                       background.t_start_us, background.window_us).sorted_by_time()
    return LabeledFrame(merged, [box]), collision


def euclidean_augment(cluster_points: np.ndarray, source_center,
                      target_location, yaw: float) -> np.ndarray:
    """Rigid baseline transform: rotate the cluster about z around its source
    center, then translate the center onto the target location. Point count
    and pairwise distances are preserved exactly."""
    pts = np.asarray(cluster_points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise ValueError("cluster is empty")
    src = np.asarray(source_center, dtype=np.float64).reshape(3)
    dst = np.asarray(target_location, dtype=np.float64).reshape(3)
    return (pts - src) @ rot_z(yaw).T + dst


@dataclass(frozen=True)
class AugPlan:
    """Counts, insertion region, and seed for one generation campaign.
    Defaults mirror a campaign of 400 backgrounds and 2495 insertions; the
    only structural requirement is that both datasets share the plan."""

    background_pool: int = 400
    instances: int = 2495
    region: VoxelRegion = VoxelRegion((8.0, 24.0), (-6.0, 6.0), (-3.0, 3.0))
    seed: int = 0
    min_points: int = MIN_CLUSTER_HITS
    max_attempts: int = 40

    def __post_init__(self):
        check_fields(self)
        for name, low in (("background_pool", 1), ("instances", 1), ("min_points", 1),
                          ("max_attempts", 1), ("seed", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class DatasetPair:
    """Frame-aligned datasets: index i of both sides shares the background and
    the insertion center. manifest rows record the provenance of each frame."""

    data_sim: list[LabeledFrame]
    data_euc: list[LabeledFrame]
    manifest: list[dict]


def build_datasets(plan: AugPlan, real_frames: list[LabeledFrame], mesh: TriangleMesh,
                   pattern: ScanPattern, window_ms: float = 100.0) -> DatasetPair:
    """Generate the paired simulated / rigid-baseline datasets.

    Backgrounds and source clusters come from the first background_pool real
    frames. Each instance draws a stratified voxel center and yaw, simulates
    the target there (retrying until the cluster clears the admission count),
    and inserts the simulated cluster and the rigidly moved real cluster into
    the same background at the same location.
    """
    if len(real_frames) < plan.background_pool:
        raise ValueError(
            f"need {plan.background_pool} real frames, got {len(real_frames)}")
    pool = real_frames[: plan.background_pool]
    split = [split_frame(lf) for lf in pool]
    rng = np.random.default_rng(plan.seed)
    centers = plan.region.centers()
    bvh = Bvh(mesh)
    mesh_offset = mesh.center()

    data_sim: list[LabeledFrame] = []
    data_euc: list[LabeledFrame] = []
    manifest: list[dict] = []
    for i in range(plan.instances):
        bg_idx = int(rng.integers(0, len(pool)))
        drone_pts, background = split[bg_idx]
        sim = None
        location = None
        yaw = 0.0
        for _ in range(plan.max_attempts):
            location = centers[int(rng.integers(0, len(centers)))]
            yaw = float(rng.uniform(-math.pi, math.pi))
            pose = Pose2D(yaw, tuple(location - mesh_offset))
            result = simulate_frame(pattern, bvh, pose, window_ms,
                                    min_hits=plan.min_points)
            if result.accepted:
                sim = result
                break
        if sim is None:
            raise RuntimeError(
                f"instance {i}: no insertion voxel produced {plan.min_points} hits")

        sim_frame, _ = synth_insert(background, sim.frame, location, yaw,
                                    plan.min_points)

        src_center = drone_pts.points.mean(axis=0)
        moved = euclidean_augment(drone_pts.points, src_center, location, yaw)
        euc_cluster = ScanFrame(moved, drone_pts.intensity, drone_pts.t_us,
                                drone_pts.t_start_us, drone_pts.window_us)
        euc_frame, _ = synth_insert(background, euc_cluster, location, yaw,
                                    plan.min_points)

        data_sim.append(sim_frame)
        data_euc.append(euc_frame)
        manifest.append({
            "index": i,
            "background": bg_idx,
            "insertion": [float(v) for v in location],
            "yaw": yaw,
            "seed": plan.seed,
            "sim_points": len(sim.frame),
            "euc_points": len(euc_cluster),
        })
    return DatasetPair(data_sim, data_euc, manifest)
