"""Altitude-stratified anchors, target assignment, box residual coding,
classification loss terms, and non-maximum suppression.

The scan space is cut into 1 m altitude layers, ten above and ten below the
sensor plane plus the sensor layer, 21 in total. Each layer owns one class
name (drone_0 .. drone_20) and one 1.6 x 1.6 x 1.0 m anchor box centered in
the layer, so the predicted class doubles as a coarse elevation estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import Box3D, box_rows, wrap_angle
from .fields import check_fields
from .metrics import iou3d
from .pillars import PillarGridSpec

__all__ = [
    "ANCHOR_SIZE",
    "LAYER_HEIGHT",
    "NUM_LAYERS",
    "MatchThresholds",
    "AnchorLayer",
    "AnchorGrid",
    "build_anchor_layers",
    "build_anchor_grid",
    "focal_cls_term",
    "encode_box",
    "decode_box",
    "assign_targets",
    "TargetAssignment",
    "NEGATIVE",
    "IGNORED",
    "nms",
]

ANCHOR_SIZE = (1.6, 1.6, 1.0)   # length, width, height in meters
LAYER_HEIGHT = 1.0
NUM_LAYERS = 21
LAYERS_BELOW = 10

NEGATIVE = -1
IGNORED = -2

# RetinaNet's focal weights (Lin et al., arXiv 1708.02002)
FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0

# IoU above which nms suppresses a box overlapping a kept one
NMS_IOU = 0.5


@dataclass(frozen=True)
class MatchThresholds:
    pos_iou: float = 0.4
    neg_iou: float = 0.35

    def __post_init__(self):
        check_fields(self)
        if not 0.0 <= self.neg_iou < self.pos_iou <= 1.0:
            raise ValueError("thresholds must satisfy 0 <= neg_iou < pos_iou <= 1, "
                             f"got {(self.pos_iou, self.neg_iou)}")


@dataclass(frozen=True)
class AnchorLayer:
    class_id: int
    class_name: str
    z_center: float


def build_anchor_layers(sensor_elevation: float = 0.0) -> list[AnchorLayer]:
    """NUM_LAYERS anchor layers, one per LAYER_HEIGHT altitude band.

    Layer i spans [i - LAYERS_BELOW, i - LAYERS_BELOW + 1) bands relative to
    the sensor elevation, so its center sits at (i - LAYERS_BELOW + 0.5).
    """
    return [AnchorLayer(i, f"drone_{i}",
                        sensor_elevation + (i - LAYERS_BELOW) * LAYER_HEIGHT + 0.5 * LAYER_HEIGHT)
            for i in range(NUM_LAYERS)]


@dataclass
class AnchorGrid:
    """Anchors at every pillar cell center, replicated across all layers."""

    grid: PillarGridSpec
    layers: list[AnchorLayer]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def anchor_box(self, iy: int, ix: int, layer: int) -> Box3D:
        cx, cy = self.grid.cell_center(ix, iy)
        return Box3D(cx, cy, self.layers[layer].z_center, *ANCHOR_SIZE, yaw=0.0)

    def class_of_layer(self, layer: int) -> int:
        return self.layers[layer].class_id


def build_anchor_grid(grid: PillarGridSpec, sensor_elevation: float = 0.0) -> AnchorGrid:
    return AnchorGrid(grid, build_anchor_layers(sensor_elevation))


def focal_cls_term(p: float, with_log: bool = False) -> float:
    """Class-imbalance weighted classification term.

    The default evaluates -FOCAL_ALPHA * (1 - p)^FOCAL_GAMMA; with_log=True
    multiplies in the log-likelihood factor of the conventional focal loss.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    base = -FOCAL_ALPHA * (1.0 - p) ** FOCAL_GAMMA
    if not with_log:
        return base
    if p == 0.0:
        return math.inf
    return base * math.log(p)


def encode_box(box: Box3D, anchor: Box3D) -> np.ndarray:
    """Seven regression residuals of a box against its anchor: planar offsets
    normalized by the anchor footprint diagonal, vertical offset normalized by
    anchor height, log size ratios, and the yaw gap."""
    diag = math.hypot(anchor.l, anchor.w)
    return np.array([
        (box.x - anchor.x) / diag,
        (box.y - anchor.y) / diag,
        (box.z - anchor.z) / anchor.h,
        math.log(box.l / anchor.l),
        math.log(box.w / anchor.w),
        math.log(box.h / anchor.h),
        box.yaw - anchor.yaw,
    ])


def decode_box(anchor: Box3D, residuals) -> Box3D:
    """Inverse of encode_box; all-zero residuals reproduce the anchor."""
    r = np.asarray(residuals, dtype=np.float64).reshape(7)
    if not np.isfinite(r).all():
        raise ValueError("residuals must be finite")
    diag = math.hypot(anchor.l, anchor.w)
    return Box3D(
        anchor.x + r[0] * diag,
        anchor.y + r[1] * diag,
        anchor.z + r[2] * anchor.h,
        anchor.l * math.exp(r[3]),
        anchor.w * math.exp(r[4]),
        anchor.h * math.exp(r[5]),
        wrap_angle(anchor.yaw + r[6]),
    )


@dataclass
class TargetAssignment:
    """labels[iy, ix, layer] is the layer's class id where positive, NEGATIVE
    (-1) or IGNORED (-2) otherwise."""

    labels: np.ndarray
    forced_positives: list[tuple[int, int, int]] = field(default_factory=list)

    def counts(self) -> dict:
        pos = int((self.labels >= 0).sum())
        neg = int((self.labels == NEGATIVE).sum())
        ign = int((self.labels == IGNORED).sum())
        return {"positive": pos, "negative": neg, "ignored": ign}


def _window(offset: float, radius: float, cell: float, n: int) -> np.ndarray:
    """Indices of the cells, clipped to [0, n), whose centers may lie within
    `radius` of a point `offset` meters from the grid's low edge. floor and
    ceil widen the bounds by up to one cell, so rounding never drops a cell;
    the caller applies the exact distance test."""
    lo = math.floor((offset - radius) / cell - 0.5)
    hi = math.ceil((offset + radius) / cell - 0.5)
    return np.arange(max(lo, 0), min(hi + 1, n))


def _z_overlap(z: np.ndarray, h: float, gt: Box3D) -> np.ndarray:
    """Mask of the anchor layers centered at z with height h that overlap a
    box vertically, tested as iou3d tests it, so a layer outside the mask
    has IoU exactly 0.0 with the box."""
    return (np.minimum(z + h / 2.0, gt.z + gt.h / 2.0)
            - np.maximum(z - h / 2.0, gt.z - gt.h / 2.0)) > 0.0


def assign_targets(gts: list[Box3D], grid: AnchorGrid,
                   thr: MatchThresholds = MatchThresholds()) -> TargetAssignment:
    """Label every anchor from its best overlap with the ground truth.

    Overlap >= pos_iou makes the anchor positive with its layer's class,
    overlap < neg_iou negative, anything between is ignored. Each ground
    truth box additionally forces its single best anchor positive so no
    target goes unsupervised; a box that overlaps no anchor forces the
    nearest one.

    Overlap is evaluated only where it can be non-zero. Two footprints whose
    centers lie farther apart than the sum of their half-diagonals cannot
    intersect, so each box scores only the cells of its window, the cells
    whose centers lie within that reach plus one cell of its own center,
    times the layers that overlap it vertically. Every skipped anchor has
    iou3d exactly 0.0 with the box, which moves neither a label nor a best
    match. The window is scored by one iou3d call in ascending (iy, ix,
    layer) order, and the best anchor is the first maximum in that order,
    so ties resolve to the first anchor in row-major order. The result
    equals an exhaustive evaluation of every anchor against every box, bit
    for bit.
    """
    spec = grid.grid
    ny, nx, nl = spec.ny, spec.nx, grid.num_layers
    cell = spec.cell_size
    # an anchor that no box reaches has best overlap 0.0
    labels = np.full((ny, nx, nl), IGNORED if 0.0 >= thr.neg_iou else NEGATIVE,
                     dtype=np.int16)
    layer_z = np.array([layer.z_center for layer in grid.layers])
    class_ids = np.array([grid.class_of_layer(il) for il in range(nl)], dtype=np.int16)

    forced = []
    for gt in gts:
        reach = (math.hypot(gt.l, gt.w) + math.hypot(*ANCHOR_SIZE[:2])) / 2.0
        iy, ix = np.meshgrid(_window(gt.y - spec.y_range[0], reach + cell, cell, ny),
                             _window(gt.x - spec.x_range[0], reach + cell, cell, nx),
                             indexing="ij")
        cx, cy = spec.cell_center(ix.ravel(), iy.ravel())
        cells = np.flatnonzero(np.hypot(gt.x - cx, gt.y - cy) <= reach + cell)
        layers = np.flatnonzero(_z_overlap(layer_z, ANCHOR_SIZE[2], gt))
        cells, il = np.repeat(cells, len(layers)), np.tile(layers, len(cells))
        anchors = np.column_stack([cx[cells], cy[cells], layer_z[il],
                                   np.broadcast_to(ANCHOR_SIZE, (len(il), 3)),
                                   np.zeros(len(il))])
        v = iou3d(anchors, [gt])[:, 0]
        iy, ix = iy.ravel()[cells], ix.ravel()[cells]
        current = labels[iy, ix, il]
        labels[iy, ix, il] = np.where(
            v >= thr.pos_iou, class_ids[il],
            np.where((v >= thr.neg_iou) & (current == NEGATIVE), IGNORED, current))
        if len(v) and v.max() > 0.0:
            k = int(np.argmax(v))
            best_anchor = (int(iy[k]), int(ix[k]), int(il[k]))
        else:
            # no anchor overlaps this target at all; force the nearest one
            # (distance decomposes per axis, so pick each index directly)
            ix = int(np.clip(math.floor((gt.x - spec.x_range[0]) / cell), 0, nx - 1))
            iy = int(np.clip(math.floor((gt.y - spec.y_range[0]) / cell), 0, ny - 1))
            il = int(np.argmin([abs(l.z_center - gt.z) for l in grid.layers]))
            best_anchor = (iy, ix, il)
        forced.append(best_anchor)
    for iy, ix, il in forced:
        labels[iy, ix, il] = grid.class_of_layer(il)
    return TargetAssignment(labels, forced)


def nms(boxes: list[Box3D], scores) -> list[int]:
    """Greedy score-descending suppression of boxes overlapping a kept one by
    IoU above NMS_IOU. Returns kept indices; score ties fall back to the
    lower index. Each kept box scores the candidates still pending in one
    iou3d call, so memory grows with the number of boxes only."""
    arr = box_rows(boxes)
    scores = np.asarray(scores, dtype=np.float64).reshape(len(arr))
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    order = sorted(range(len(arr)), key=lambda i: (-scores[i], i))
    # neither visited nor suppressed yet
    pending = np.ones(len(arr), dtype=bool)
    kept: list[int] = []
    for i in order:
        if pending[i]:
            kept.append(i)
            pending[i] = False
            rest = np.flatnonzero(pending)
            if rest.size:
                pending[rest[iou3d(arr[rest], arr[[i]])[:, 0] > NMS_IOU]] = False
    return kept
