"""Tracking-by-detection with geometric fallback.

Detector boxes drive the tracks whenever they arrive. On detector dropout a
track's box is carried by re-centering the previous box on the points it
encloses in the new frame; a frame with no enclosed points is skipped. Speed
comes from the latest two confirmed detections only. A separation monitor
raises an alert for every pair of tracks closer than the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import Box3D, points_in_box
from .fields import check_fields
from .pointio import ScanFrame

__all__ = [
    "TrackState",
    "Track",
    "SeparationAlert",
    "TrackerConfig",
    "Tracker",
    "recenter",
    "separation_monitor",
    "SEPARATION_THRESHOLD_M",
]

SEPARATION_THRESHOLD_M = 15.0


class TrackState:
    DETECTED = "detected"
    TRACKED = "tracked"
    COASTING = "coasting"


@dataclass
class Track:
    track_id: int
    box: Box3D
    state: str = TrackState.DETECTED
    last_update_us: int = 0
    det_centers: list[np.ndarray] = field(default_factory=list)   # last two confirmed
    det_times_us: list[int] = field(default_factory=list)
    skip_streak: int = field(default=0, init=False)

    @property
    def velocity(self) -> np.ndarray | None:
        """m/s from the latest two confirmed detections; None before that."""
        if len(self.det_centers) < 2:
            return None
        dt = (self.det_times_us[-1] - self.det_times_us[-2]) * 1e-6
        if dt <= 0:
            return None
        return (self.det_centers[-1] - self.det_centers[-2]) / dt

    def to_dict(self) -> dict:
        v = self.velocity
        return {"id": self.track_id, "state": self.state,
                "box": self.box.to_dict(),
                "velocity": None if v is None else [float(x) for x in v]}


@dataclass(frozen=True)
class SeparationAlert:
    pair: tuple[int, int]
    distance: float
    threshold: float
    t_us: int

    def to_dict(self) -> dict:
        return {"pair": list(self.pair), "distance": self.distance,
                "threshold": self.threshold, "t_us": self.t_us}


@dataclass(frozen=True)
class TrackerConfig:
    gate_m: float = 2.0              # detection-to-track association radius
    separation_m: float = SEPARATION_THRESHOLD_M
    max_skips: int = 10              # coasting frames before a track is dropped

    def __post_init__(self):
        check_fields(self)
        for name in ("gate_m", "separation_m"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        if self.max_skips < 0:
            raise ValueError(f"max_skips must be an integer >= 0, got {self.max_skips!r}")


def _estimate_yaw(points: np.ndarray, fallback: float) -> float:
    """Heading from the principal axis of the horizontal point scatter,
    normalized into (-pi/2, pi/2]."""
    if points.shape[0] < 2:
        return fallback
    xy = points[:, :2] - points[:, :2].mean(axis=0)
    cov = xy.T @ xy
    if (np.abs(cov) <= 1e-8).all():   # np.allclose(cov, 0.0), without its overhead
        return fallback
    evals, evecs = np.linalg.eigh(cov)
    axis = evecs[:, int(np.argmax(evals))]
    yaw = math.atan2(axis[1], axis[0])
    if yaw <= -math.pi / 2:
        yaw += math.pi
    elif yaw > math.pi / 2:
        yaw -= math.pi
    return yaw


def recenter(prev_box: Box3D, frame: ScanFrame, velocity: np.ndarray | None,
             dt_s: float) -> Box3D | None:
    """Carry a box through a detector dropout.

    The box is first advanced by velocity * dt, then re-centered on the
    centroid of the returns it encloses, with the heading re-estimated from
    their principal horizontal axis. Returns None (skip) when the advanced
    box encloses no points.
    """
    if velocity is not None:
        predicted = prev_box.translated(np.asarray(velocity) * dt_s)
    else:
        predicted = prev_box
    # a take of the few enclosed rows; a boolean row mask over the whole
    # frame costs about six times as much
    pts = frame.points[np.flatnonzero(points_in_box(frame.points, predicted))]
    if not len(pts):
        return None
    centroid = pts.mean(axis=0)
    yaw = _estimate_yaw(pts, predicted.yaw)
    return Box3D(centroid[0], centroid[1], centroid[2],
                 predicted.l, predicted.w, predicted.h, yaw)


def separation_monitor(tracks: list[Track], threshold: float = SEPARATION_THRESHOLD_M,
                       t_us: int = 0) -> list[SeparationAlert]:
    """Alert for every track pair strictly inside the separation threshold.
    No hysteresis: alert if and only if distance < threshold."""
    alerts = []
    for i in range(len(tracks)):
        for j in range(i + 1, len(tracks)):
            d = float(np.linalg.norm(tracks[i].box.center - tracks[j].box.center))
            if d < threshold:
                alerts.append(SeparationAlert(
                    (tracks[i].track_id, tracks[j].track_id), d, threshold, t_us))
    return alerts


class Tracker:
    """Sequential per-stream state machine; frames must arrive in time order."""

    def __init__(self, config: TrackerConfig = TrackerConfig()):
        self.config = config
        self.tracks: list[Track] = []
        self._next_id = 0
        self._last_frame_us: int | None = None
        self.recenter_calls = 0

    def step(self, frame: ScanFrame, detections: list[Box3D]) -> list[Track]:
        """Advance all tracks by one frame.

        Detections claim the nearest track inside the gate; leftover
        detections spawn tracks; unmatched tracks fall back to re-centering.
        A track is dropped after max_skips consecutive skipped frames.
        """
        if self._last_frame_us is not None and frame.t_start_us <= self._last_frame_us:
            raise ValueError(
                f"frame at {frame.t_start_us} us arrived after {self._last_frame_us} us")
        self._last_frame_us = frame.t_start_us
        now = frame.t_start_us + frame.window_us // 2

        pairs = []
        for di, det in enumerate(detections):
            for ti, track in enumerate(self.tracks):
                d = float(np.linalg.norm(det.center - track.box.center))
                if d <= self.config.gate_m:
                    pairs.append((d, di, ti))
        pairs.sort()
        matched_d: set[int] = set()
        matched_t: set[int] = set()
        for d, di, ti in pairs:
            if di in matched_d or ti in matched_t:
                continue
            matched_d.add(di)
            matched_t.add(ti)
            self._confirm(self.tracks[ti], detections[di], now)

        survivors = []
        for ti, track in enumerate(self.tracks):
            if ti in matched_t:
                survivors.append(track)
                continue
            dt_s = (now - track.last_update_us) * 1e-6
            self.recenter_calls += 1
            new_box = recenter(track.box, frame, track.velocity, dt_s)
            if new_box is None:
                track.state = TrackState.COASTING
                track.skip_streak += 1
                if track.skip_streak <= self.config.max_skips:
                    survivors.append(track)
            else:
                track.box = new_box
                track.state = TrackState.TRACKED
                track.skip_streak = 0
                track.last_update_us = now
                survivors.append(track)
        self.tracks = survivors

        for di, det in enumerate(detections):
            if di not in matched_d:
                track = Track(self._next_id, det, TrackState.DETECTED, now,
                              [det.center], [now])
                self._next_id += 1
                self.tracks.append(track)
        return self.tracks

    def _confirm(self, track: Track, det: Box3D, now: int):
        track.box = det
        track.state = TrackState.DETECTED
        track.skip_streak = 0
        track.last_update_us = now
        track.det_centers.append(det.center)
        track.det_times_us.append(now)
        if len(track.det_centers) > 2:
            track.det_centers = track.det_centers[-2:]
            track.det_times_us = track.det_times_us[-2:]

    def alerts(self) -> list[SeparationAlert]:
        return separation_monitor(self.tracks, self.config.separation_m, self._last_frame_us)


def replay(frames: list[ScanFrame], detections_per_frame: list[list[Box3D]],
           config: TrackerConfig = TrackerConfig()):
    """Run a recorded stream through the tracker.

    Returns (track_log, alert_log, summary). The summary is this toolkit's
    own four-way frame breakdown: how many frames had two or more tracks
    confirmed by detection, a mix of detection and geometric tracking, a
    single maintained track, or none.
    """
    if len(frames) != len(detections_per_frame):
        raise ValueError("need one detection list per frame")
    tracker = Tracker(config)
    track_log = []
    alert_log = []
    summary = {"multi_by_detection": 0, "tracker_assisted": 0, "single": 0, "none": 0}
    for k, (frame, dets) in enumerate(zip(frames, detections_per_frame)):
        tracks = tracker.step(frame, dets)
        for t in tracks:
            row = t.to_dict()
            row["frame"] = k
            track_log.append(row)
        for a in tracker.alerts():
            row = a.to_dict()
            row["frame"] = k
            alert_log.append(row)
        n_det = sum(1 for t in tracks if t.state == TrackState.DETECTED)
        n_trk = sum(1 for t in tracks if t.state == TrackState.TRACKED)
        if n_det + n_trk == 0:
            summary["none"] += 1
        elif n_det + n_trk == 1:
            summary["single"] += 1
        elif n_trk == 0:
            summary["multi_by_detection"] += 1
        else:
            summary["tracker_assisted"] += 1
    return track_log, alert_log, summary
