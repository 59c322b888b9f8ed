import dataclasses
import json
import math

import numpy as np
import pytest

from airsense.boxes import Box3D, points_in_box
from airsense.config import ConfigError, load_config
from airsense.pointio import ScanFrame
from airsense.tracker import (
    SEPARATION_THRESHOLD_M,
    Track,
    TrackState,
    Tracker,
    TrackerConfig,
    recenter,
    replay,
    separation_monitor,
)

from oracles import recenter_oracle

WINDOW_US = 100_000


def cluster_points(center, rng, n=40, spread=0.3):
    return np.asarray(center) + rng.normal(scale=spread, size=(n, 3)) * [1, 1, 0.3]


def frame_at(k, points):
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    t0 = k * WINDOW_US
    return ScanFrame(pts, np.full(n, 0.5),
                     np.full(n, t0 + WINDOW_US // 2, dtype=np.int64), t0, WINDOW_US)


def det_box(center, yaw=0.0):
    return Box3D(center[0], center[1], center[2], 1.6, 1.6, 1.0, yaw)


class TestRecenter:
    def test_centroid_shift(self):
        prev = Box3D(10, 0, 0, 2, 2, 2)
        pts = np.tile([10.3, 0.0, 0.0], (12, 1))
        out = recenter(prev, frame_at(0, pts), None, 0.1)
        assert out is not None
        np.testing.assert_allclose([out.x, out.y, out.z], [10.3, 0.0, 0.0], atol=1e-12)

    def test_no_enclosed_points_skips(self):
        prev = Box3D(10, 0, 0, 1, 1, 1)
        out = recenter(prev, frame_at(0, [[50, 0, 0]]), None, 0.1)
        assert out is None

    def test_velocity_prediction_recovers_moving_cluster(self, rng):
        prev = Box3D(10, 0, 0, 2, 2, 1.5)
        velocity = np.array([30.0, 0.0, 0.0])  # cluster jumped 3 m in 0.1 s
        pts = cluster_points([13.0, 0, 0], rng, spread=0.2)
        out = recenter(prev, frame_at(0, pts), velocity, 0.1)
        assert out is not None
        assert abs(out.x - 13.0) < 0.2
        # without the prediction the box finds nothing
        assert recenter(prev, frame_at(0, pts), None, 0.1) is None

    def test_yaw_from_principal_axis(self, rng):
        angle = math.radians(30)
        axis = np.array([math.cos(angle), math.sin(angle), 0.0])
        ts = rng.uniform(-1.0, 1.0, 60)
        pts = ts[:, None] * axis + rng.normal(scale=0.03, size=(60, 3))
        prev = Box3D(0, 0, 0, 3, 3, 2)
        out = recenter(prev, frame_at(0, pts), None, 0.1)
        assert out is not None
        assert abs(math.degrees(out.yaw) - 30) < 5

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_oracle_on_bench_like_frames(self, seed):
        """24k returns over the default grid, a quarter in clumps, two drone
        clusters; boxes that enclose a cluster, a clump, one point, one
        repeated point, scatters just above and below the degenerate-heading
        test's 1e-8 or nothing, with and without a velocity."""
        r = np.random.default_rng(seed)
        drones = [np.array([r.uniform(10, 30), r.uniform(-9, 9), r.uniform(-1, 1)])
                  for _ in range(2)]
        clumps = [c + r.normal(size=(750, 3)) * [0.2, 0.2, 0.3]
                  for c in r.uniform([0, -40, -8], [70.4, 40, 8], (8, 3))]
        pieces = [d + r.uniform(-0.4, 0.4, (60, 3)) * [1.6, 1.6, 1.0] for d in drones]
        lone, repeated = np.array([50.0, 30.0, 9.5]), np.array([60.0, -30.0, 9.5])
        tight = [np.array([5.0, y, 9.5]) for y in (-30.0, 30.0)]   # cov near 3e-8, 3e-10
        pieces += clumps + [r.uniform([0, -40, -8], [70.4, 40, 8], (17_867, 3)),
                            lone[None], np.tile(repeated, (4, 1)),
                            tight[0] + r.normal(scale=1e-4, size=(4, 3)),
                            tight[1] + r.normal(scale=1e-5, size=(4, 3))]
        pts = np.vstack(pieces)[r.permutation(24_000)]
        frame = frame_at(3, pts)
        boxes = [Box3D(*d, 1.6, 1.6, 1.0, r.uniform(-math.pi, math.pi)) for d in drones]
        boxes += [Box3D(*clumps[0][0], 1.6, 1.6, 1.0), Box3D(*lone, 0.5, 0.5, 0.5),
                  Box3D(*repeated, 0.5, 0.5, 0.5, 1.0), Box3D(35.0, 0.0, 30.0, 1.6, 1.6, 1.0),
                  Box3D(*tight[0], 0.1, 0.1, 0.1, 1.0), Box3D(*tight[1], 0.1, 0.1, 0.1, 1.0),
                  Box3D(35.0, 0.0, 0.0, 1.6, 1.6, 40.0, 0.3)]
        for box in boxes:
            for velocity in (None, r.normal(scale=3.0, size=3)):
                want = recenter_oracle(box, frame, velocity, 0.1)
                got = recenter(box, frame, velocity, 0.1)
                if want is None:
                    assert got is None
                else:
                    assert dataclasses.astuple(got) == dataclasses.astuple(want)


class TestSeparation:
    def track_at(self, tid, x):
        return Track(tid, Box3D(x, 0, 0, 1.6, 1.6, 1.0))

    def test_far_pair_silent(self):
        alerts = separation_monitor([self.track_at(0, 0), self.track_at(1, 20)])
        assert alerts == []

    def test_close_pair_alerts(self):
        alerts = separation_monitor([self.track_at(0, 0), self.track_at(1, 10)])
        assert len(alerts) == 1
        assert alerts[0].pair == (0, 1)
        assert alerts[0].distance == pytest.approx(10.0)

    def test_threshold_is_strict(self):
        at_threshold = separation_monitor(
            [self.track_at(0, 0), self.track_at(1, SEPARATION_THRESHOLD_M)])
        assert at_threshold == []
        inside = separation_monitor(
            [self.track_at(0, 0), self.track_at(1, SEPARATION_THRESHOLD_M - 1e-9)])
        assert len(inside) == 1

    def test_all_pairs_reported(self):
        tracks = [self.track_at(i, float(i)) for i in range(3)]
        alerts = separation_monitor(tracks)
        assert {a.pair for a in alerts} == {(0, 1), (0, 2), (1, 2)}


class TestTrackerStep:
    def test_perfect_detections_never_invoke_tracking(self, rng):
        tracker = Tracker()
        for k in range(10):
            c = [10.0 + 0.2 * k, 0.0, 0.0]
            tracker.step(frame_at(k, cluster_points(c, rng)), [det_box(c)])
        assert tracker.recenter_calls == 0
        assert all(t.state == TrackState.DETECTED for t in tracker.tracks)
        assert len(tracker.tracks) == 1

    def test_dropout_switches_to_tracking(self, rng):
        tracker = Tracker()
        c0, c1 = [10.0, 0, 0], [10.2, 0, 0]
        tracker.step(frame_at(0, cluster_points(c0, rng)), [det_box(c0)])
        tracker.step(frame_at(1, cluster_points(c1, rng)), [])
        assert tracker.recenter_calls == 1
        assert tracker.tracks[0].state == TrackState.TRACKED
        assert abs(tracker.tracks[0].box.x - 10.2) < 0.2

    def test_velocity_needs_two_detections(self, rng):
        tracker = Tracker()
        tracker.step(frame_at(0, cluster_points([10, 0, 0], rng)), [det_box([10, 0, 0])])
        assert tracker.tracks[0].velocity is None
        tracker.step(frame_at(1, cluster_points([10.5, 0, 0], rng)),
                     [det_box([10.5, 0, 0])])
        v = tracker.tracks[0].velocity
        assert v is not None
        np.testing.assert_allclose(v, [5.0, 0.0, 0.0], atol=1e-9)

    def test_skip_does_not_mutate_velocity(self, rng):
        tracker = Tracker()
        tracker.step(frame_at(0, cluster_points([10, 0, 0], rng)), [det_box([10, 0, 0])])
        tracker.step(frame_at(1, cluster_points([10.5, 0, 0], rng)),
                     [det_box([10.5, 0, 0])])
        v_before = tracker.tracks[0].velocity.copy()
        tracker.step(frame_at(2, [[90.0, 0, 0]]), [])  # nothing inside the box
        assert tracker.tracks[0].state == TrackState.COASTING
        np.testing.assert_allclose(tracker.tracks[0].velocity, v_before)

    def test_unmatched_detection_spawns_track(self, rng):
        tracker = Tracker()
        tracker.step(frame_at(0, cluster_points([10, 0, 0], rng)), [det_box([10, 0, 0])])
        tracker.step(frame_at(1, cluster_points([10, 0, 0], rng)),
                     [det_box([10, 0, 0]), det_box([30, 5, 0])])
        assert len(tracker.tracks) == 2

    def test_out_of_order_frame_rejected(self, rng):
        tracker = Tracker()
        tracker.step(frame_at(1, cluster_points([10, 0, 0], rng)), [])
        with pytest.raises(ValueError):
            tracker.step(frame_at(0, cluster_points([10, 0, 0], rng)), [])

    def test_track_dropped_after_max_skips(self, rng):
        tracker = Tracker(TrackerConfig(max_skips=3))
        tracker.step(frame_at(0, cluster_points([10, 0, 0], rng)), [det_box([10, 0, 0])])
        for k in range(1, 5):
            tracker.step(frame_at(k, [[90.0, 0, 0]]), [])
        assert tracker.tracks == []

    def test_center_inside_hull_of_support(self, rng):
        tracker = Tracker()
        pts = cluster_points([10, 0, 0], rng)
        tracker.step(frame_at(0, pts), [det_box(pts.mean(axis=0))])
        pts2 = cluster_points([10.2, 0, 0], rng)
        tracker.step(frame_at(1, pts2), [])
        track = tracker.tracks[0]
        assert track.state == TrackState.TRACKED
        support = pts2[points_in_box(pts2, track.box)]
        lo, hi = support.min(axis=0), support.max(axis=0)
        assert (track.box.center >= lo - 1e-9).all()
        assert (track.box.center <= hi + 1e-9).all()


class TestReplay:
    def test_constant_velocity_with_dropouts(self, rng):
        spacing = 0.25
        side = np.arange(-0.6, 0.61, spacing)
        gx, gy = np.meshgrid(side, side)
        template = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
        vel = np.array([2.0, 1.0, 0.0])
        frames, dets, truth = [], [], []
        drop = rng.random(100) < 0.3
        drop[:2] = False  # seed the velocity estimate first
        for k in range(100):
            center = np.array([10.0, -5.0, 0.0]) + vel * (0.1 * k)
            truth.append(center)
            frames.append(frame_at(k, template + center))
            dets.append([] if drop[k] else [det_box(center)])
        log, alerts, summary = replay(frames, dets)
        by_frame = {}
        for row in log:
            by_frame[row["frame"]] = np.array([row["box"]["x"], row["box"]["y"],
                                               row["box"]["z"]])
        errs = [np.linalg.norm(by_frame[k] - truth[k]) for k in range(100)]
        assert max(errs) <= 2 * spacing
        assert summary["none"] == 0

    def test_flyby_first_alert_at_crossing_frame(self, rng):
        # two targets closing at 1 m/s from 20 m apart; first frame with
        # separation < 15 m is k = 51
        frames, dets = [], []
        for k in range(80):
            a = np.array([10.0, 10.0 - 0.05 * k, 0.0])
            b = np.array([10.0, -10.0 + 0.05 * k, 0.0])
            pts = np.vstack([cluster_points(a, rng, n=20, spread=0.1),
                             cluster_points(b, rng, n=20, spread=0.1)])
            frames.append(frame_at(k, pts))
            dets.append([det_box(a), det_box(b)])
        log, alerts, summary = replay(frames, dets)
        first = min(a["frame"] for a in alerts)
        distances = [20.0 - 0.1 * k for k in range(80)]
        expected_first = next(k for k, d in enumerate(distances) if d < 15.0)
        assert first == expected_first == 51
        assert summary["multi_by_detection"] == 80

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            replay([frame_at(0, [[1, 1, 1]])], [])


class TestTrackerConfig:
    @pytest.mark.parametrize("section", [
        {"gate_m": 0.0},
        {"gate_m": -2.0},
        {"gate_m": math.inf},
        {"gate_m": math.nan},
        {"gate_m": True},
        {"separation_m": 0},
        {"separation_m": "15"},
        {"separation_m": 10 ** 400},
        {"separation_m": False},
        {"max_skips": -1},
        {"max_skips": 1.5},
        {"max_skips": True},
        {"max_skips": "3"},
    ])
    def test_bad_spec_rejected_at_the_boundary(self, tmp_path, section):
        (name, _), = section.items()
        with pytest.raises(ValueError, match=name):
            TrackerConfig(**section)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tracker": section}))   # json writes Infinity, NaN
        with pytest.raises(ConfigError, match=name):
            load_config(path)
