"""3D box overlap and detection quality metrics.

Overlap of yawed boxes is the product of the vertical extent intersection and
the footprint intersection, the latter computed for all pairs of two box
sequences at once by Sutherland-Hodgman polygon clipping over arrays. A
detection counts as a true positive when it overlaps a ground truth box by at
least the configured IoU (0.30 by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import Box3D, box_rows

__all__ = [
    "EvalOutcome",
    "iou3d",
    "iou_bev",
    "classify",
    "aggregate",
    "TP_IOU_THRESHOLD",
]

TP_IOU_THRESHOLD = 0.30


def _corners(arr: np.ndarray) -> np.ndarray:
    """Footprint corners (N, 4, 2), counterclockwise. Each box takes its own
    (4, 2) x (2, 2) product and libm's cos and sin, which fixes the rounding."""
    c = np.array([math.cos(t) for t in arr[:, 6].tolist()])
    s = np.array([math.sin(t) for t in arr[:, 6].tolist()])
    rot = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
    local = arr[:, None, 3:5] / 2.0 * [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
    return local @ rot.transpose(0, 2, 1) + arr[:, None, :2]


def _clipped_area(poly: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Area of each footprint poly[k] clipped to clip[k], both (K, 4, 2).

    Sutherland-Hodgman runs over the 4 clip edges on vertex buffers with a
    count per row. The shoelace runs per vertex count k, so each dot product
    sums k terms at one polygon's strides, which fixes its rounding.
    """
    n = np.full(len(poly), 4)
    rows = np.arange(len(poly))[:, None]
    for e in range(4):
        a, b = clip[:, None, e], clip[:, None, (e + 1) % 4]
        ex, ey = b[..., 0] - a[..., 0], b[..., 1] - a[..., 1]
        slot = np.arange(poly.shape[1])
        valid = slot < n[:, None]
        prev = (slot - 1) % np.maximum(n, 1)[:, None]
        inside = valid & (ex * (poly[..., 1] - a[..., 1]) - ey * (poly[..., 0] - a[..., 0])
                          >= -1e-12)
        cross = valid & (inside != inside[rows, prev])
        # where the segment from the previous vertex q meets the edge's line
        q = poly[rows, prev]
        d = poly - q
        denom = d[..., 0] * ey - d[..., 1] * ex
        flat = np.abs(denom) < 1e-15   # then the clipper keeps the vertex itself
        denom[flat] = 1.0
        t = ((a[..., 0] - q[..., 0]) * ey - (a[..., 1] - q[..., 1]) * ex) / denom
        meet = np.where(flat[..., None], poly, q + t[..., None] * d)
        # each slot emits its crossing, then itself if inside
        keep = np.stack([cross, inside], axis=2).reshape(len(n), 2 * len(slot))
        emitted = np.stack([meet, poly], axis=2).reshape(len(n), 2 * len(slot), 2)
        n = keep.sum(axis=1)
        poly = np.zeros((len(n), n.max(initial=0), 2))
        r, c = np.nonzero(keep)
        poly[r, np.cumsum(keep, axis=1)[r, c] - 1] = emitted[r, c]
    area = np.zeros(len(n))
    for k in np.unique(n[n >= 3]):
        at = np.flatnonzero(n == k)
        x, y = np.moveaxis(poly[at, :k], 2, 0)   # views at a (k, 2) polygon's strides
        area[at] = 0.5 * np.abs(np.vecdot(x, np.roll(y, -1, axis=1))
                                - np.vecdot(y, np.roll(x, -1, axis=1)))
    return area


def iou3d(a, b) -> np.ndarray:
    """Intersection volume over union volume of every box in a against every
    box in b, an (N, M) matrix. a and b are sequences of Box3D or (N, 7)
    arrays of x, y, z, l, w, h, yaw rows. Entry (i, j) clips a[i]'s footprint
    to b[j]'s, and the rounding depends on that order."""
    a, b = box_rows(a), box_rows(b)
    dz = (np.minimum((a[:, 2] + a[:, 5] / 2.0)[:, None], b[:, 2] + b[:, 5] / 2.0)
          - np.maximum((a[:, 2] - a[:, 5] / 2.0)[:, None], b[:, 2] - b[:, 5] / 2.0))
    # a pair that does not overlap in z has IoU 0 without clipping
    ia, ib = np.nonzero(dz > 0.0)
    inter = _clipped_area(_corners(a)[ia], _corners(b)[ib]) * dz[ia, ib]
    union = (a[:, 3] * a[:, 4] * a[:, 5])[ia] + (b[:, 3] * b[:, 4] * b[:, 5])[ib] - inter
    out = np.zeros(dz.shape)
    out[ia, ib] = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    return out


def iou_bev(a, b) -> np.ndarray:
    """Footprint intersection area over footprint union area, as iou3d. It is
    iou3d of the boxes set at z = 0 with h = 1, whose vertical overlap is
    exactly 1."""
    a, b = box_rows(a).copy(), box_rows(b).copy()
    a[:, 2], a[:, 5], b[:, 2], b[:, 5] = 0.0, 1.0, 0.0, 1.0
    return iou3d(a, b)


def classify(dets: list[Box3D], gts: list[Box3D], iou_thr: float = TP_IOU_THRESHOLD,
             use_bev: bool = False) -> tuple[int, int, int]:
    """Greedy best-overlap matching of one frame's boxes.

    Pairs are consumed in descending IoU order, ties by detection and then
    truth index; each side matches at most once. Unmatched ground truth boxes
    are false negatives, unmatched detections false positives. Returns
    (TP, FP, FN).
    """
    overlap = (iou_bev if use_bev else iou3d)(dets, gts)
    di, gi = np.nonzero(overlap >= iou_thr)
    order = np.argsort(-overlap[di, gi], kind="stable")
    used_d, used_g = set(), set()
    for d, g in zip(di[order].tolist(), gi[order].tolist()):
        if d not in used_d and g not in used_g:
            used_d.add(d)
            used_g.add(g)
    tp = len(used_d)
    return tp, len(dets) - tp, len(gts) - tp
@dataclass
class EvalOutcome:
    """Aggregated counts with derived rates; a rate whose denominator is zero
    is reported as None, never as 0."""

    tp: int
    fp: int
    fn: int
    precision: float | None
    recall: float | None
    f1: float | None

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn,
                "precision": self.precision, "recall": self.recall, "f1": self.f1}


def aggregate(frame_counts) -> EvalOutcome:
    """Sum per-frame (TP, FP, FN) triples, then derive precision, recall, and
    the harmonic-mean F1 score."""
    counts = list(frame_counts)
    if not counts:
        raise ValueError("need at least one frame")
    tp = sum(c[0] for c in counts)
    fp = sum(c[1] for c in counts)
    fn = sum(c[2] for c in counts)
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    recall = tp / (tp + fn) if (tp + fn) > 0 else None
    f1 = None
    if precision is not None and recall is not None and (precision + recall) > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    return EvalOutcome(tp, fp, fn, precision, recall, f1)
