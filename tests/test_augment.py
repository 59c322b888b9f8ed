import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airsense import lidar_sim
from airsense.augment import (
    AugPlan,
    LabeledFrame,
    build_datasets,
    euclidean_augment,
    split_frame,
    synth_insert,
)
from airsense.boxes import Box3D, points_in_box
from airsense.lidar_sim import Pose2D, ScanPattern, VoxelRegion, simulate_frame
from airsense.mesh import quadcopter_mesh
from airsense.pointio import ScanFrame
from airsense.raytrace import Bvh
from oracles import admitted

FAST = ScanPattern(points_per_second=24_000, seed=11)
WINDOW_US = 100_000


def frame_from(points, t0=0):
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    return ScanFrame(pts, np.full(n, 0.4), np.arange(n, dtype=np.int64) + t0,
                     t0, WINDOW_US)


def labeled(points, boxes):
    return LabeledFrame(frame_from(points), boxes)


class TestSplit:
    def test_all_points_inside_box_empty_background(self):
        box = Box3D(5, 0, 0, 2, 2, 2)
        lf = labeled([[5, 0, 0], [5.2, 0.3, 0.1]], [box])
        drone, background = split_frame(lf)
        assert len(drone) == 2
        assert len(background) == 0

    def test_no_points_inside_box_empty_drone(self):
        box = Box3D(50, 0, 0, 1, 1, 1)
        lf = labeled([[5, 0, 0], [6, 1, 0]], [box])
        drone, background = split_frame(lf)
        assert len(drone) == 0
        assert len(background) == 2
        assert not admitted(lf)

    def test_no_labels_rejected(self):
        with pytest.raises(ValueError):
            split_frame(labeled([[1, 1, 1]], []))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_partition_matches_point_in_box_oracle(self, seed):
        r = np.random.default_rng(seed)
        pts = np.column_stack([r.uniform(0, 20, 200), r.uniform(-10, 10, 200),
                               r.uniform(-5, 5, 200)])
        boxes = [Box3D(r.uniform(2, 18), r.uniform(-8, 8), r.uniform(-3, 3),
                       *r.uniform(1, 3, 3), yaw=r.uniform(-math.pi, math.pi))
                 for _ in range(2)]
        lf = labeled(pts, boxes)
        drone, background = split_frame(lf)
        inside = points_in_box(pts, boxes[0]) | points_in_box(pts, boxes[1])
        assert len(drone) == int(inside.sum())
        assert len(background) == int((~inside).sum())
        assert len(drone) + len(background) == 200


class TestSynthInsert:
    def simulated_cluster(self, loc, yaw):
        dense = ScanPattern(points_per_second=96_000, seed=11)
        sim = simulate_frame(dense, Bvh(quadcopter_mesh()), Pose2D(yaw, tuple(np.asarray(loc))),
                             100.0)
        assert sim.accepted
        return sim.frame

    def test_empty_background_gives_cluster_only(self):
        loc = (11.0, 0.0, 0.0)
        cluster = self.simulated_cluster(loc, 0.3)
        lf, collision = synth_insert(ScanFrame.empty(), cluster, loc, 0.3)
        assert len(lf.frame) == len(cluster)
        assert not collision
        assert len(lf.boxes) == 1

    def test_cluster_point_count_preserved(self):
        loc = (11.0, 0.0, 0.0)
        cluster = self.simulated_cluster(loc, 0.0)
        bg = frame_from([[30, 5, 1], [40, -5, 2]])
        lf, _ = synth_insert(bg, cluster, loc, 0.0)
        assert len(lf.frame) == len(cluster) + 2

    def test_label_box_encloses_cluster(self):
        loc = (12.0, 1.0, -0.5)
        cluster = self.simulated_cluster(loc, 1.2)
        lf, _ = synth_insert(ScanFrame.empty(), cluster, loc, 1.2)
        assert points_in_box(cluster.points, lf.boxes[0]).all()
        assert admitted(lf)

    def test_occluded_background_removed_and_flagged(self):
        loc = (11.0, 0.0, 0.0)
        cluster = self.simulated_cluster(loc, 0.0)
        bg = frame_from([[11.0, 0.0, 0.0], [30.0, 5.0, 1.0]])
        lf, collision = synth_insert(bg, cluster, loc, 0.0)
        assert collision
        assert len(lf.frame) == len(cluster) + 1  # in-box background dropped

    def test_thin_cluster_rejected(self):
        thin = frame_from([[11, 0, 0]] * 5)
        with pytest.raises(ValueError):
            synth_insert(ScanFrame.empty(), thin, (11, 0, 0), 0.0)

    def test_min_points_below_one_rejected(self):
        empty = ScanFrame.empty()
        with pytest.raises(ValueError, match="min_points must be >= 1, got 0"):
            synth_insert(empty, empty, (11, 0, 0), 0.0, min_points=0)


class TestEuclidean:
    def test_identity_transform(self, rng):
        pts = rng.normal(size=(30, 3))
        center = pts.mean(axis=0)
        out = euclidean_augment(pts, center, center, 0.0)
        np.testing.assert_allclose(out, pts, atol=1e-12)

    def test_half_turn_twice_is_identity(self, rng):
        pts = rng.normal(size=(20, 3))
        c = pts.mean(axis=0)
        once = euclidean_augment(pts, c, c, math.pi)
        twice = euclidean_augment(once, c, c, math.pi)
        np.testing.assert_allclose(twice, pts, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_isometry(self, seed):
        r = np.random.default_rng(seed)
        pts = r.normal(size=(25, 3))
        target = r.uniform(-30, 30, 3)
        yaw = r.uniform(-math.pi, math.pi)
        out = euclidean_augment(pts, pts.mean(axis=0), target, yaw)
        assert out.shape == pts.shape
        d_in = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        d_out = np.linalg.norm(out[:, None] - out[None], axis=2)
        assert np.abs(d_in - d_out).max() <= 1e-9

    def test_centroid_lands_on_target(self, rng):
        pts = rng.normal(size=(40, 3))
        target = np.array([15.0, -3.0, 2.0])
        out = euclidean_augment(pts, pts.mean(axis=0), target, 0.7)
        np.testing.assert_allclose(out.mean(axis=0), target, atol=1e-9)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            euclidean_augment(np.zeros((0, 3)), np.zeros(3), np.zeros(3), 0.0)


def make_real_frames(n, rng):
    """Synthetic stand-ins for recorded flights: clutter plus one admitted
    target cluster per frame."""
    bvh = Bvh(quadcopter_mesh())
    frames = []
    k = 0
    while len(frames) < n:
        k += 1
        loc = np.array([rng.uniform(9, 14), rng.uniform(-2, 2), rng.uniform(-1, 1)])
        yaw = float(rng.uniform(-math.pi, math.pi))
        sim = simulate_frame(ScanPattern(points_per_second=24_000, seed=100 + k),
                             bvh, Pose2D(yaw, tuple(loc)), 100.0)
        if not sim.accepted:
            continue
        n_bg = int(rng.integers(50, 120))
        bg_pts = np.column_stack([rng.uniform(5, 40, n_bg), rng.uniform(-15, 15, n_bg),
                                  rng.uniform(-6, 6, n_bg)])
        bg = ScanFrame(bg_pts, rng.uniform(0, 1, n_bg),
                       np.sort(rng.integers(0, WINDOW_US, n_bg)).astype(np.int64),
                       0, WINDOW_US)
        lf, _ = synth_insert(bg, sim.frame, loc, yaw)
        frames.append(lf)
    return frames


def dataset_bytes(pair):
    """Each side's frames and boxes as bytes, and the manifest as JSON."""
    sides = [[(lf.frame.t_start_us, lf.frame.window_us,
               [a.tobytes() for a in (lf.frame.points, lf.frame.intensity, lf.frame.t_us)],
               [json.dumps(box.to_dict()) for box in lf.boxes]) for lf in data]
             for data in (pair.data_sim, pair.data_euc)]
    return sides + [json.dumps(pair.manifest)]


class TestBuildDatasets:
    def test_single_pair(self, rng):
        real = make_real_frames(1, rng)
        plan = AugPlan(background_pool=1, instances=1,
                       region=VoxelRegion((9, 13), (-2, 2), (-1, 1)), seed=4)
        pair = build_datasets(plan, real, quadcopter_mesh(), FAST)
        assert len(pair.data_sim) == len(pair.data_euc) == 1
        assert len(pair.manifest) == 1

    def test_paired_alignment_audit(self, rng):
        real = make_real_frames(3, rng)
        plan = AugPlan(background_pool=3, instances=6,
                       region=VoxelRegion((9, 13), (-2, 2), (-1, 1)), seed=5)
        pair = build_datasets(plan, real, quadcopter_mesh(), FAST)
        assert len(pair.data_sim) == len(pair.data_euc) == 6
        for i, row in enumerate(pair.manifest):
            sim_lf, euc_lf = pair.data_sim[i], pair.data_euc[i]
            # identical insertion centers
            assert sim_lf.boxes[0].center.tolist() == row["insertion"]
            assert euc_lf.boxes[0].center.tolist() == row["insertion"]
            # background identity: points outside the label box coincide
            sim_bg = sim_lf.frame.points[~points_in_box(sim_lf.frame.points, sim_lf.boxes[0])]
            euc_bg = euc_lf.frame.points[~points_in_box(euc_lf.frame.points, euc_lf.boxes[0])]
            a = sim_bg[np.lexsort(sim_bg.T)]
            b = euc_bg[np.lexsort(euc_bg.T)]
            assert np.array_equal(a, b)
            # admission rule on both sides
            assert admitted(sim_lf) and admitted(euc_lf)

    def test_cold_and_warm_pattern_give_the_same_datasets(self, rng):
        real = make_real_frames(3, rng)
        plan = AugPlan(background_pool=3, instances=6,
                       region=VoxelRegion((9, 13), (-2, 2), (-1, 1)), seed=5)
        records = []
        for clear in (True, False):
            if clear:
                lidar_sim._window.cache_clear()
            misses = lidar_sim._window.cache_info().misses
            pair = build_datasets(plan, real, quadcopter_mesh(), FAST)
            assert lidar_sim._window.cache_info().misses == misses + clear
            records.append(dataset_bytes(pair))
        assert records[0] == records[1]
        assert len(records[0][0]) == len(records[0][1]) == 6

    def test_simulated_and_rigid_clusters_differ(self, rng):
        # the scan pattern depends on position, so a simulated cluster cannot
        # equal the rigidly moved copy unless the location is the original
        real = make_real_frames(1, rng)
        plan = AugPlan(background_pool=1, instances=2,
                       region=VoxelRegion((16, 20), (-2, 2), (-1, 1)), seed=6)
        pair = build_datasets(plan, real, quadcopter_mesh(), FAST)
        for sim_lf, euc_lf in zip(pair.data_sim, pair.data_euc):
            box = sim_lf.boxes[0]
            sim_cluster = sim_lf.frame.points[points_in_box(sim_lf.frame.points, box)]
            euc_cluster = euc_lf.frame.points[points_in_box(euc_lf.frame.points, euc_lf.boxes[0])]
            if sim_cluster.shape == euc_cluster.shape:
                assert not np.allclose(np.sort(sim_cluster, axis=0),
                                       np.sort(euc_cluster, axis=0))

    def test_pool_exhaustion_rejected(self, rng):
        real = make_real_frames(1, rng)
        plan = AugPlan(background_pool=2, instances=1)
        with pytest.raises(ValueError):
            build_datasets(plan, real, quadcopter_mesh(), FAST)

    @pytest.mark.parametrize("field", ["min_points", "max_attempts", "background_pool",
                                       "instances"])
    @pytest.mark.parametrize("value, message", [
        (0, "{} must be an integer >= 1"), (-3, "{} must be an integer >= 1"),
        (2.5, "{}: expected an integer, got 2.5"),
        (True, "{}: expected a finite number, got True"),
        (np.int64(0), "{} must be an integer >= 1")])
    def test_plan_counts_must_be_integers_of_at_least_one(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message.format(field)}"):
            AugPlan(**{field: value})
        assert getattr(AugPlan(**{field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("value, message", [
        (-1, "seed must be an integer >= 0"), (2.5, "seed: expected an integer, got 2.5"),
        (True, "seed: expected a finite number, got True")])
    def test_plan_seed_must_be_an_integer_of_at_least_zero(self, value, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            AugPlan(seed=value)
        assert AugPlan(seed=np.int64(0)).seed == 0
