import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airsense.pillars import (
    DECORATED_DIMS,
    PillarGridSpec,
    _segment_max,
    assign_pillars,
    pillar_encode,
)
from airsense.pointio import ScanFrame

GRID = PillarGridSpec(x_range=(0.0, 16.0), y_range=(-8.0, 8.0),
                      z_range=(-10.0, 10.0), cell_size=1.0)

# [I, -I]: pooling max(d, 0) and max(-d, 0) recovers a one-point pillar's
# decorated row exactly, and for larger pillars each feature's extremes
SPLIT = np.hstack([np.eye(DECORATED_DIMS), -np.eye(DECORATED_DIMS)])


def make_frame(xyz, t_us=None, intensity=None):
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    n = len(xyz)
    if t_us is None:
        t_us = np.arange(n, dtype=np.int64)
    if intensity is None:
        intensity = np.full(n, 0.5)
    return ScanFrame(xyz, intensity, np.asarray(t_us, dtype=np.int64), 0, 100_000)


def segments(batch):
    """Each pillar's rows of a PillarBatch, in pillar order."""
    return np.split(batch.points, batch.starts[1:])


def naive_assignment(frame, spec):
    """Per-point floor-division oracle, ignoring all caps."""
    cells = {}
    for i in range(len(frame)):
        x, y, z = frame.points[i]
        ix = int(np.floor((x - spec.x_range[0]) / spec.cell_size))
        iy = int(np.floor((y - spec.y_range[0]) / spec.cell_size))
        if 0 <= ix < spec.nx and 0 <= iy < spec.ny and spec.z_range[0] <= z <= spec.z_range[1]:
            cells.setdefault((iy, ix), []).append(i)
    return cells


@dataclass
class OraclePillar:
    ix: int
    iy: int
    center_x: float
    center_y: float
    points: np.ndarray


def oracle_assign(frame, spec):
    """Dict-bucket assignment, one object per pillar, sorted with Python
    keys: (pillars, dropped, truncated points, truncated pillars)."""
    n = len(frame)
    if n == 0:
        return [], 0, 0, 0
    pts = np.column_stack([frame.points, frame.intensity, frame.t_us.astype(np.float64)])
    pts = pts[np.argsort(frame.t_us, kind="stable")]
    ix = np.floor((pts[:, 0] - spec.x_range[0]) / spec.cell_size).astype(np.int64)
    iy = np.floor((pts[:, 1] - spec.y_range[0]) / spec.cell_size).astype(np.int64)
    in_range = ((ix >= 0) & (ix < spec.nx) & (iy >= 0) & (iy < spec.ny)
                & (pts[:, 2] >= spec.z_range[0]) & (pts[:, 2] <= spec.z_range[1]))
    dropped = int(n - in_range.sum())
    pts, ix, iy = pts[in_range], ix[in_range], iy[in_range]
    buckets = {}
    for i, k in enumerate(iy * spec.nx + ix):
        buckets.setdefault(int(k), []).append(i)
    truncated_points = 0
    pillars = []
    for k, idxs in buckets.items():
        if len(idxs) > spec.max_points_per_pillar:
            truncated_points += len(idxs) - spec.max_points_per_pillar
            idxs = idxs[: spec.max_points_per_pillar]
        cy, cx = divmod(k, spec.nx)
        center = spec.cell_center(cx, cy)
        pillars.append(OraclePillar(cx, cy, center[0], center[1], pts[idxs]))
    truncated_pillars = 0
    if len(pillars) > spec.max_pillars:
        truncated_pillars = len(pillars) - spec.max_pillars
        pillars.sort(key=lambda p: (-p.points.shape[0], p.iy, p.ix))
        pillars = pillars[: spec.max_pillars]
    pillars.sort(key=lambda p: (p.iy, p.ix))
    return pillars, dropped, truncated_points, truncated_pillars


def oracle_decorate(pillar):
    xyz = pillar.points[:, 0:3]
    out = np.empty((xyz.shape[0], DECORATED_DIMS), dtype=np.float64)
    out[:, 0:3] = xyz
    out[:, 3] = pillar.points[:, 3]
    out[:, 4:7] = xyz - xyz.mean(axis=0)
    out[:, 7] = xyz[:, 0] - pillar.center_x
    out[:, 8] = xyz[:, 1] - pillar.center_y
    return out


def oracle_encode(pillars, weights, grid):
    """Per-pillar decoration and pooling. All rows are embedded by one
    matmul: a one-row product takes another BLAS kernel, whose float64 bits
    need not match the same row's in a batch."""
    rows = [oracle_decorate(p) for p in pillars]
    emb = np.maximum(np.vstack(rows or [np.zeros((0, DECORATED_DIMS))]) @ weights, 0.0)
    values = np.zeros((grid.ny, grid.nx, weights.shape[1]), dtype=np.float32)
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    at = 0
    for p, r in zip(pillars, rows):
        values[p.iy, p.ix] = emb[at:at + len(r)].max(axis=0)
        mask[p.iy, p.ix] = True
        at += len(r)
    return values, mask


# 6 x 5 cells, both caps small enough to bind on a few clumps
CAPPED = PillarGridSpec(x_range=(-1.0, 5.0), y_range=(-2.5, 2.5), z_range=(-1.0, 1.0),
                        cell_size=1.0, max_points_per_pillar=4, max_pillars=5)


class TestOracle:
    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 7), min_size=10, max_size=40),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dict_bucket_oracle(self, sizes, seed):
        """Clumps of 1-7 returns on distinct cells of the grid and a one-cell
        border around it, so both caps bind and equal counts tie at the
        pillar cap; times repeat and arrive out of order."""
        r = np.random.default_rng(seed)
        cells = r.choice((CAPPED.nx + 2) * (CAPPED.ny + 2), size=len(sizes), replace=False)
        cy, cx = np.divmod(np.repeat(cells, sizes), CAPPED.nx + 2)
        n = len(cx)
        xyz = np.column_stack([CAPPED.x_range[0] + (cx - 1 + r.random(n)) * CAPPED.cell_size,
                               CAPPED.y_range[0] + (cy - 1 + r.random(n)) * CAPPED.cell_size,
                               r.uniform(-1.2, 1.2, n)])
        frame = make_frame(xyz, t_us=r.integers(0, max(1, n), n), intensity=r.random(n))

        res = assign_pillars(frame, CAPPED)
        pillars, *counts = oracle_assign(frame, CAPPED)
        batch = res.pillars
        assert (res.dropped_out_of_range, res.truncated_points,
                res.truncated_pillars) == tuple(counts)
        assert len(batch) == len(pillars)
        assert batch.iy.tolist() == [p.iy for p in pillars]
        assert batch.ix.tolist() == [p.ix for p in pillars]
        for p, seg in zip(pillars, segments(batch)):
            assert np.array_equal(seg, p.points)

        weights = r.normal(size=(DECORATED_DIMS, 8))
        pi = pillar_encode(batch, weights, CAPPED)
        values, mask = oracle_encode(pillars, weights, CAPPED)
        assert np.array_equal(pi.to_dense().values, values)
        assert np.array_equal(pi.mask, mask)


class TestAssign:
    def test_single_point_single_pillar(self):
        batch = assign_pillars(make_frame([[3.5, 0.5, 1.0]]), GRID).pillars
        assert len(batch) == 1
        assert (batch.ix[0], batch.iy[0]) == (3, 8)
        assert batch.points.shape[0] == 1

    def test_point_cap_keeps_earliest_timestamps(self):
        spec = PillarGridSpec(x_range=(0, 4), y_range=(0, 4), cell_size=1.0,
                              max_points_per_pillar=100)
        pts = np.tile([[0.5, 0.5, 0.0]], (150, 1))
        t = np.arange(150, dtype=np.int64)[::-1].copy()  # reversed arrival
        res = assign_pillars(make_frame(pts, t_us=t), spec)
        assert res.pillars.points.shape[0] == 100
        assert res.truncated_points == 50
        assert np.array_equal(res.pillars.points[:, 4], np.arange(100))  # earliest, in order

    def test_out_of_range_dropped_and_counted(self):
        frame = make_frame([[100.0, 0.0, 0.0], [3.0, 0.0, 50.0], [3.0, 0.0, 0.0]])
        res = assign_pillars(frame, GRID)
        assert res.dropped_out_of_range == 2
        assert res.pillars.points.shape[0] == 1

    def test_pillar_cap_densest_first(self):
        spec = PillarGridSpec(x_range=(0, 8), y_range=(0, 8), cell_size=1.0,
                              max_pillars=2)
        pts = ([[0.5, 0.5, 0]] * 5) + ([[1.5, 0.5, 0]] * 3) + ([[2.5, 0.5, 0]] * 1)
        res = assign_pillars(make_frame(pts), spec)
        assert res.truncated_pillars == 1
        kept = set(zip(res.pillars.ix.tolist(), res.pillars.iy.tolist()))
        assert kept == {(0, 0), (1, 0)}

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_naive_oracle(self, seed):
        r = np.random.default_rng(seed)
        n = 500
        xyz = np.column_stack([r.uniform(-2, 18, n), r.uniform(-10, 10, n),
                               r.uniform(-12, 12, n)])
        frame = make_frame(xyz)
        res = assign_pillars(frame, GRID)
        oracle = naive_assignment(frame, GRID)
        batch = res.pillars
        got = {(iy, ix): len(seg) for iy, ix, seg in
               zip(batch.iy.tolist(), batch.ix.tolist(), segments(batch))}
        assert got == {k: len(v) for k, v in oracle.items()}
        assert res.dropped_out_of_range == n - sum(len(v) for v in oracle.values())

    def test_row_major_pillar_order(self, rng):
        xyz = np.column_stack([rng.uniform(0, 16, 200), rng.uniform(-8, 8, 200),
                               np.zeros(200)])
        batch = assign_pillars(make_frame(xyz), GRID).pillars
        keys = list(zip(batch.iy.tolist(), batch.ix.tolist()))
        assert keys == sorted(keys)


class TestGridSpec:
    @pytest.mark.parametrize("kwargs, field", [
        ({"x_range": (math.nan, 16.0)}, "x_range"),
        ({"y_range": (-math.inf, 8.0)}, "y_range"),
        ({"z_range": (-10.0, math.nan)}, "z_range"),
        ({"z_range": (5.0, -5.0)}, "z_range"),
        ({"cell_size": math.nan}, "cell_size"),
        ({"cell_size": math.inf}, "cell_size"),
        ({"cell_size": 0.0}, "cell_size"),
        ({"x_range": (0.0, 0.5)}, "x_range"),
        ({"y_range": (8.0, -8.0)}, "y_range"),
        # finite values whose cell count is not: a bare OverflowError before
        ({"cell_size": 1e-320}, "^x_range holds a non-finite count of cells"),
        ({"y_range": (-1e308, 1e308)}, "^y_range holds a non-finite count of cells"),
        ({"max_pillars": 2.5}, "max_pillars"),
        ({"max_pillars": 0}, "max_pillars"),
        ({"max_points_per_pillar": True}, "max_points_per_pillar"),
        ({"max_points_per_pillar": "100"}, "max_points_per_pillar"),
    ])
    def test_grid_validated_naming_the_field(self, kwargs, field):
        args = {"x_range": (0.0, 16.0), "y_range": (-8.0, 8.0), "cell_size": 1.0}
        with pytest.raises(ValueError, match=field):
            PillarGridSpec(**{**args, **kwargs})


def pooled_features(xyz, intensity=None):
    """[max(d, 0), max(-d, 0)] pooled over the decorated rows d of a frame
    that falls into one pillar."""
    batch = assign_pillars(make_frame(xyz, intensity=intensity), GRID).pillars
    assert len(batch) == 1
    v = pillar_encode(batch, SPLIT, GRID).to_dense().values[batch.iy[0], batch.ix[0]]
    return v[:DECORATED_DIMS], v[DECORATED_DIMS:]


class TestDecorate:
    def test_single_point_zero_mean_offsets(self):
        pos, neg = pooled_features([[3.2, 0.7, 1.0]], intensity=[0.9])
        np.testing.assert_allclose(pos - neg, [3.2, 0.7, 1.0, 0.9, 0.0, 0.0, 0.0,
                                               3.2 - 3.5, 0.7 - 0.5], atol=1e-6)

    def test_symmetric_pair_offsets_negate(self):
        pos, neg = pooled_features([[3.1, 0.1, 1.0], [3.9, 0.9, 3.0]])
        np.testing.assert_array_equal(pos[4:7], neg[4:7])
        np.testing.assert_allclose(pos[4:7], [0.4, 0.4, 1.0], atol=1e-6)

    def test_offsets_measured_from_the_arithmetic_mean(self, rng):
        xyz = np.column_stack([rng.uniform(3, 4, 20), rng.uniform(0, 1, 20),
                               rng.normal(size=20)])
        pos, neg = pooled_features(xyz)
        np.testing.assert_allclose(pos[4:7], xyz.max(axis=0) - xyz.mean(axis=0), atol=1e-5)
        np.testing.assert_allclose(neg[4:7], xyz.mean(axis=0) - xyz.min(axis=0), atol=1e-5)


class TestEncode:
    def test_single_point_identity_embedding(self):
        batch = assign_pillars(make_frame([[3.2, 0.7, 1.0]]), GRID).pillars
        pi = pillar_encode(batch, np.eye(DECORATED_DIMS), GRID)
        expected = np.maximum([3.2, 0.7, 1.0, 0.5, 0.0, 0.0, 0.0, 3.2 - 3.5, 0.7 - 0.5], 0.0)
        np.testing.assert_allclose(pi.to_dense().values[8, 3], expected, atol=1e-6)

    def test_max_picks_dominating_point(self):
        frame = make_frame([[3.0, 0.0, 1.0], [3.1, 0.1, 1.1]], intensity=[0.2, 0.9])
        weights = np.zeros((DECORATED_DIMS, 2))
        weights[3, 0] = 1.0   # reflectance channel
        weights[2, 1] = 1.0   # z channel
        pi = pillar_encode(assign_pillars(frame, GRID).pillars, weights, GRID)
        np.testing.assert_allclose(pi.to_dense().values[8, 3], [0.9, 1.1], atol=1e-6)

    def test_matches_naive_per_pillar_loop(self, rng):
        xyz = np.column_stack([rng.uniform(0, 16, 300), rng.uniform(-8, 8, 300),
                               rng.uniform(-5, 5, 300)])
        frame = make_frame(xyz, intensity=rng.random(300))
        weights = rng.normal(size=(DECORATED_DIMS, 6))
        pi = pillar_encode(assign_pillars(frame, GRID).pillars, weights, GRID)
        for pillar in oracle_assign(frame, GRID)[0]:
            best = np.full(6, -np.inf)
            for row in oracle_decorate(pillar):
                best = np.maximum(best, np.maximum(row @ weights, 0.0))
            np.testing.assert_allclose(pi.to_dense().values[pillar.iy, pillar.ix], best, atol=1e-6)

    def test_occupancy_equals_nonempty_pillars(self, rng):
        xyz = np.column_stack([rng.uniform(0, 16, 120), rng.uniform(-8, 8, 120),
                               np.zeros(120)])
        batch = assign_pillars(make_frame(xyz), GRID).pillars
        pi = pillar_encode(batch, rng.normal(size=(DECORATED_DIMS, 4)), GRID)
        expected = np.zeros((GRID.ny, GRID.nx), dtype=bool)
        expected[batch.iy, batch.ix] = True
        assert np.array_equal(pi.mask, expected)

    def test_empty_frame_encodes_to_an_empty_image(self, rng):
        res = assign_pillars(ScanFrame.empty(), GRID)
        assert len(res.pillars) == 0
        assert (res.dropped_out_of_range, res.truncated_points, res.truncated_pillars) == (0, 0, 0)
        pi = pillar_encode(res.pillars, rng.normal(size=(DECORATED_DIMS, 4)), GRID)
        assert pi.to_dense().values.shape == (GRID.ny, GRID.nx, 4)
        assert not pi.mask.any() and not pi.to_dense().values.any()

    def test_unoccupied_cells_all_zero(self, rng):
        res = assign_pillars(make_frame([[3.0, 0.0, 0.0]]), GRID)
        pi = pillar_encode(res.pillars, rng.normal(size=(DECORATED_DIMS, 4)), GRID)
        assert not pi.to_dense().values[~pi.mask].any()

    def test_weight_shape_mismatch(self, rng):
        res = assign_pillars(make_frame([[3.0, 0.0, 0.0]]), GRID)
        with pytest.raises(ValueError):
            pillar_encode(res.pillars, np.zeros((5, 4)), GRID)


class TestSegmentMax:
    """The rank-by-rank pooling against np.maximum.reduceat."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), segments=st.integers(1, 60),
           longest=st.integers(1, 12), channels=st.integers(1, 9))
    def test_matches_reduceat(self, seed, segments, longest, channels):
        r = np.random.default_rng(seed)
        # single-row segments mixed with longer ones: the later ranks run
        # over fewer segments
        counts = np.where(r.random(segments) < 0.4, 1, r.integers(1, longest + 1, segments))
        starts = np.cumsum(counts) - counts
        rows = r.normal(size=(int(counts.sum()), channels))
        rows[r.random(rows.shape) < 0.2] = 0.0
        assert np.array_equal(_segment_max(rows, starts, counts),
                              np.maximum.reduceat(rows, starts, axis=0))

    def test_no_segments(self):
        pooled = _segment_max(np.zeros((0, 5)), np.zeros(0, dtype=np.int64),
                              np.zeros(0, dtype=np.int64))
        assert pooled.shape == (0, 5)

    def test_long_segment_after_short_ones(self):
        rows = np.array([[5.0], [1.0], [2.0], [9.0], [3.0]])
        starts, counts = np.array([0, 1]), np.array([1, 4])
        assert _segment_max(rows, starts, counts).ravel().tolist() == [5.0, 9.0]


class TestProperties:
    def test_translation_covariance(self, rng):
        xyz = np.column_stack([rng.uniform(2, 8, 60), rng.uniform(-4, 4, 60),
                               np.zeros(60)])
        shift = np.array([3.0, 2.0, 0.0])  # integer cells for the 1 m grid
        a = assign_pillars(make_frame(xyz), GRID).pillars
        b = assign_pillars(make_frame(xyz + shift), GRID).pillars
        assert set(zip((a.ix + 3).tolist(), (a.iy + 2).tolist())) == \
            set(zip(b.ix.tolist(), b.iy.tolist()))

    def test_max_pool_monotone_under_new_point(self, rng):
        xyz = np.column_stack([rng.uniform(3, 4, 6), rng.uniform(0, 1, 6), rng.normal(size=6)])
        # nonnegative weights that ignore the mean offsets, the only features
        # a new point changes for the others
        weights = np.abs(rng.normal(size=(DECORATED_DIMS, 4)))
        weights[4:7] = 0.0
        base = pillar_encode(assign_pillars(make_frame(xyz[:-1]), GRID).pillars, weights, GRID)
        grown = pillar_encode(assign_pillars(make_frame(xyz), GRID).pillars, weights, GRID)
        assert (grown.to_dense().values[8, 3] >= base.to_dense().values[8, 3] - 1e-6).all()

    def test_caps_enforced(self, rng):
        spec = PillarGridSpec(x_range=(0, 4), y_range=(0, 4), cell_size=1.0,
                              max_points_per_pillar=7, max_pillars=5)
        xyz = np.column_stack([rng.uniform(0, 4, 400), rng.uniform(0, 4, 400),
                               np.zeros(400)])
        batch = assign_pillars(make_frame(xyz), spec).pillars
        assert len(batch) <= 5
        assert max(len(seg) for seg in segments(batch)) <= 7
