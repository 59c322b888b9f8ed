"""Pillar front-end: grid assignment into one columnar batch, 9-feature point
decoration and per-pillar max pooling into the site list the backbone takes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import check_fields
from .pointio import ScanFrame
from .spconv import Sites

__all__ = [
    "PillarGridSpec",
    "PillarBatch",
    "PillarAssignment",
    "assign_pillars",
    "pillar_encode",
    "random_pillar_weights",
    "DECORATED_DIMS",
]

DECORATED_DIMS = 9  # x, y, z, r, x_c, y_c, z_c, x_p, y_p


@dataclass(frozen=True)
class PillarGridSpec:
    """Horizontal grid over the scan space. The vertical range is kept wide on
    purpose: targets appear both above and below the sensor plane."""

    x_range: tuple[float, float] = (0.0, 70.4)
    y_range: tuple[float, float] = (-40.0, 40.0)
    z_range: tuple[float, float] = (-10.0, 10.0)
    cell_size: float = 0.16
    max_points_per_pillar: int = 100
    max_pillars: int = 12_000

    def __post_init__(self):
        check_fields(self)
        if self.cell_size <= 0:
            raise ValueError(f"cell_size must be finite and positive, got {self.cell_size}")
        for name in ("max_points_per_pillar", "max_pillars"):
            cap = getattr(self, name)
            if cap < 1:
                raise ValueError(f"{name} must be a positive integer, got {cap!r}")
        for name in ("x_range", "y_range"):
            lo, hi = getattr(self, name)
            if not math.isfinite((hi - lo) / self.cell_size):
                raise ValueError(f"{name} holds a non-finite count of cells of "
                                 f"{self.cell_size}, got {(lo, hi)}")
        if self.nx < 1 or self.ny < 1:
            name = "x_range" if self.nx < 1 else "y_range"
            raise ValueError(f"{name} must span at least one cell of {self.cell_size}, "
                             f"got {getattr(self, name)}")
        if self.z_range[1] < self.z_range[0]:
            raise ValueError(f"z_range must have lo <= hi, got {self.z_range}")

    @property
    def nx(self) -> int:
        return int(np.floor((self.x_range[1] - self.x_range[0]) / self.cell_size + 1e-9))

    @property
    def ny(self) -> int:
        return int(np.floor((self.y_range[1] - self.y_range[0]) / self.cell_size + 1e-9))

    def cell_center(self, ix, iy):
        """Center (x, y) of cell (ix, iy); scalars or arrays of indices."""
        return (self.x_range[0] + (ix + 0.5) * self.cell_size,
                self.y_range[0] + (iy + 0.5) * self.cell_size)


@dataclass(frozen=True)
class PillarBatch:
    """All kept pillars of one frame as columns.

    points is (N, 5): x, y, z, reflectance, t_us, sorted by flat cell key and
    then by time. Pillar i owns rows starts[i] up to starts[i + 1] (the last
    one up to N) and sits in cell (iy[i], ix[i]); pillars are in row-major
    order and none is empty.
    """

    points: np.ndarray
    starts: np.ndarray
    iy: np.ndarray
    ix: np.ndarray

    def __len__(self) -> int:
        return len(self.starts)


@dataclass
class PillarAssignment:
    pillars: PillarBatch
    dropped_out_of_range: int = 0
    truncated_points: int = 0
    truncated_pillars: int = 0


def assign_pillars(frame: ScanFrame, spec: PillarGridSpec) -> PillarAssignment:
    """Bucket returns into pillars by floor division of (x, y).

    Out-of-range points are dropped and counted. Per-pillar membership is
    capped at max_points_per_pillar keeping the earliest timestamps; the
    pillar count is capped at max_pillars keeping the densest pillars first
    (ties resolved row-major). Truncation is reported, never silent.
    """
    if frame is None:
        raise ValueError("frame must not be None")
    order = np.argsort(frame.t_us, kind="stable")
    pts = np.column_stack([frame.points, frame.intensity,
                           frame.t_us.astype(np.float64)])[order]

    ix = np.floor((pts[:, 0] - spec.x_range[0]) / spec.cell_size).astype(np.int64)
    iy = np.floor((pts[:, 1] - spec.y_range[0]) / spec.cell_size).astype(np.int64)
    in_range = ((ix >= 0) & (ix < spec.nx) & (iy >= 0) & (iy < spec.ny)
                & (pts[:, 2] >= spec.z_range[0]) & (pts[:, 2] <= spec.z_range[1]))
    dropped = int(len(pts) - in_range.sum())
    key = iy[in_range] * spec.nx + ix[in_range]
    # stable on time-sorted rows: each cell's returns stay earliest first
    order = np.argsort(key, kind="stable")
    pts, key = pts[in_range][order], key[order]

    starts = np.flatnonzero(np.diff(key, prepend=-1))
    counts = np.diff(starts, append=len(key))
    kept = np.minimum(counts, spec.max_points_per_pillar)
    # stable on row-major cells: equally dense pillars keep row-major order
    densest = np.sort(np.argsort(-kept, kind="stable")[: spec.max_pillars])
    chosen = np.zeros(len(starts), dtype=bool)
    chosen[densest] = True
    rank = np.arange(len(key)) - np.repeat(starts, counts)
    rows = np.repeat(chosen, counts) & (rank < spec.max_points_per_pillar)

    iy, ix = np.divmod(key[starts[densest]], spec.nx)
    batch = PillarBatch(pts[rows], np.cumsum(kept[densest]) - kept[densest], iy, ix)
    return PillarAssignment(batch, dropped, int((counts - kept).sum()),
                            len(starts) - len(densest))


def random_pillar_weights(rng: np.random.Generator, out_channels: int = 64) -> np.ndarray:
    """Untrained stand-in embedding; 64 output channels by default."""
    return rng.normal(size=(DECORATED_DIMS, out_channels)) / np.sqrt(DECORATED_DIMS)


def pillar_encode(pillars: PillarBatch, weights: np.ndarray,
                  grid: PillarGridSpec) -> Sites:
    """Expand each return to the 9 per-point features (raw coordinates and
    reflectance, offsets from its pillar's arithmetic mean, horizontal offsets
    from its cell center), embed them with a linear map and ReLU, and take
    the channelwise maximum over each pillar. Returns the pillars as a site
    list on the (ny, nx) grid: one float32 row per pillar, keyed by its cell
    in the batch's row-major order."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[0] != DECORATED_DIMS:
        raise ValueError(f"weights must map {DECORATED_DIMS} -> F, got shape {weights.shape}")
    pts, starts = pillars.points, pillars.starts
    counts = np.diff(starts, append=len(pts))
    xyz = pts[:, 0:3]
    mean = np.add.reduceat(xyz, starts, axis=0) / counts[:, None]
    cx, cy = grid.cell_center(pillars.ix, pillars.iy)
    decorated = np.empty((len(pts), DECORATED_DIMS), dtype=np.float64)
    decorated[:, 0:4] = pts[:, 0:4]
    decorated[:, 4:7] = xyz - np.repeat(mean, counts, axis=0)
    decorated[:, 7] = xyz[:, 0] - np.repeat(cx, counts)
    decorated[:, 8] = xyz[:, 1] - np.repeat(cy, counts)
    emb = decorated @ weights
    np.maximum(emb, 0.0, out=emb)  # ReLU
    return Sites(grid.ny, grid.nx, pillars.iy * grid.nx + pillars.ix,
                 _segment_max(emb, starts, counts))


def _segment_max(rows: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row-wise maximum of each segment of rows, segment i being the counts[i]
    >= 1 rows from starts[i]: one vectorized step per rank within a segment,
    over the segments that long. np.maximum.reduceat gives the same values
    but loops over every segment and channel."""
    pooled = rows[starts]
    live = np.arange(len(starts))
    for rank in range(1, int(counts.max(initial=0))):
        live = live[counts[live] > rank]
        pooled[live] = np.maximum(pooled[live], rows[starts[live] + rank])
    return pooled
