import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airsense.anchors import NMS_IOU, nms
from airsense.boxes import Box3D, points_in_box
from airsense.metrics import aggregate, classify, iou3d, iou_bev
from oracles import bev_corners, classify_pairs, iou3d_pair, iou_bev_pair, nms_pairs


def iou(a: Box3D, b: Box3D) -> float:
    return iou3d([a], [b])[0, 0]


def monte_carlo_iou(a: Box3D, b: Box3D, n=200_000, seed=0):
    """Sampling oracle: volume ratios estimated over the joint bounding box."""
    r = np.random.default_rng(seed)
    corners = np.vstack([bev_corners(a), bev_corners(b)])
    lo = np.array([corners[:, 0].min(), corners[:, 1].min(),
                   min(a.z - a.h / 2, b.z - b.h / 2)])
    hi = np.array([corners[:, 0].max(), corners[:, 1].max(),
                   max(a.z + a.h / 2, b.z + b.h / 2)])
    pts = r.uniform(lo, hi, size=(n, 3))
    in_a = points_in_box(pts, a)
    in_b = points_in_box(pts, b)
    union = (in_a | in_b).sum()
    if union == 0:
        return 0.0
    return (in_a & in_b).sum() / union


def box(x=0, y=0, z=0, l=1, w=1, h=1, yaw=0.0):
    return Box3D(x, y, z, l, w, h, yaw)


class TestIou3d:
    def test_identical_boxes(self):
        b = box(1, 2, 3, 2, 1.5, 1, 0.4)
        assert iou(b, b) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_boxes(self):
        assert iou(box(0, 0, 0), box(10, 0, 0)) == 0.0
        assert iou(box(0, 0, 0), box(0, 0, 5)) == 0.0

    def test_unit_cubes_offset_half(self):
        # intersection 0.5*1*1 = 0.5, union 2 - 0.5 = 1.5
        v = iou(box(0, 0, 0), box(0.5, 0, 0))
        assert v == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_symmetry(self, rng):
        for _ in range(20):
            a = box(*rng.uniform(-1, 1, 3), *rng.uniform(0.5, 2, 3), rng.uniform(-3, 3))
            b = box(*rng.uniform(-1, 1, 3), *rng.uniform(0.5, 2, 3), rng.uniform(-3, 3))
            assert iou(a, b) == pytest.approx(iou(b, a), abs=1e-9)

    def test_rotation_invariance_of_self_overlap(self):
        # a square footprint rotated by 90 degrees covers itself exactly
        a = box(0, 0, 0, 2, 2, 1, 0.0)
        b = box(0, 0, 0, 2, 2, 1, math.pi / 2)
        assert iou(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_45_degree_closed_form(self):
        # unit square vs the same square rotated 45 degrees: intersection is
        # a regular octagon with area 2*(sqrt(2)-1)
        a = box(0, 0, 0, 1, 1, 1, 0.0)
        b = box(0, 0, 0, 1, 1, 1, math.pi / 4)
        inter = 2 * (math.sqrt(2) - 1)
        expected = inter / (2 - inter)
        assert iou(a, b) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_against_sampling_oracle(self, seed):
        r = np.random.default_rng(seed)
        a = box(*r.uniform(-1, 1, 3), *r.uniform(0.6, 2.5, 3), r.uniform(-3, 3))
        b = box(*r.uniform(-1, 1, 3), *r.uniform(0.6, 2.5, 3), r.uniform(-3, 3))
        est = monte_carlo_iou(a, b, seed=seed)
        assert iou(a, b) == pytest.approx(est, abs=0.02)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            box(l=0.0)

    def test_nonfinite_box_rejected_naming_the_field(self):
        for name in ("x", "y", "z", "l", "w", "h", "yaw"):
            for bad in (math.nan, math.inf, -math.inf):
                fields = dict(x=0.0, y=0.0, z=0.0, l=1.0, w=1.0, h=1.0, yaw=0.0)
                fields[name] = bad
                with pytest.raises(ValueError, match=f"box {name} must be finite"):
                    Box3D(**fields)


    @pytest.mark.parametrize("bad", ["1", True, np.bool_(False), None, 1 + 0j])
    def test_non_real_box_field_rejected_naming_the_field(self, bad):
        for name in ("x", "y", "z", "l", "w", "h", "yaw"):
            fields = dict(x=0.0, y=0.0, z=0.0, l=1.0, w=1.0, h=1.0, yaw=0.0)
            fields[name] = bad
            with pytest.raises(ValueError, match=f"box {name} must be a real number"):
                Box3D(**fields)

    def test_numpy_and_integer_fields_accepted(self):
        b = Box3D(np.float32(1.5), np.int64(2), 0, 1, np.float64(1.0), 1, np.float32(0.5))
        assert (b.x, b.y, b.w) == (1.5, 2, 1.0)


class TestPolygonClip:
    def test_full_containment(self):
        # the 1 x 1 footprint clips to itself: overlap 1 over union 16
        outer = box(0, 0, 0, 4, 4, 1)
        inner = box(0, 0, 0, 1, 1, 1)
        assert iou_bev([inner], [outer])[0, 0] == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_no_overlap_empty(self):
        assert iou_bev([box(0, 0, 0)], [box(5, 5, 0)])[0, 0] == 0.0


def overlap_scene(r, cell=0.16):
    """Boxes whose footprints meet in the ways that stress a clipper: axis-
    aligned squares on cell edges, shared edges and corners, containment,
    identical boxes and thin boxes, among yawed boxes."""
    boxes = []
    for _ in range(int(r.integers(2, 10))):
        kind = int(r.integers(0, 6)) if boxes else 0
        z, h = r.uniform(-1, 1), r.uniform(0.5, 2.0)
        if kind == 0:
            boxes.append(box(*r.uniform(-1.5, 1.5, 2), z, *r.uniform(0.3, 2.5, 2), h,
                             r.uniform(-4, 4)))
        elif kind == 1:
            # square on the cell lattice: edges on cell edges or centers
            x, y = cell / 2 * r.integers(-12, 13, 2)
            side = cell * int(r.integers(1, 12))
            boxes.append(box(x, y, z, side, side, h, 0.0))
        elif kind == 2:
            # beside a box: sharing an edge (one offset) or a corner (two)
            b = boxes[int(r.integers(len(boxes)))]
            l, w = (b.l, b.w) if r.random() < 0.5 else r.uniform(0.3, 2.5, 2)
            sx, sy = r.integers(-1, 2, 2)
            u, v = sx * (b.l + l) / 2, sy * (b.w + w) / 2
            c, s = math.cos(b.yaw), math.sin(b.yaw)
            boxes.append(box(b.x + c * u - s * v, b.y + s * u + c * v, z, l, w, h, b.yaw))
        elif kind == 3:
            # inside a box, at any heading that fits
            b = boxes[int(r.integers(len(boxes)))]
            f = r.uniform(0.1, 0.7)
            yaw = b.yaw if r.random() < 0.5 else r.uniform(-4, 4)
            boxes.append(box(b.x, b.y, b.z, f * min(b.l, b.w), f * min(b.l, b.w), b.h, yaw))
        elif kind == 4:
            boxes.append(boxes[int(r.integers(len(boxes)))])
        else:
            thin = 10.0 ** r.uniform(-6, -2)
            boxes.append(box(*r.uniform(-1.5, 1.5, 2), z, r.uniform(0.3, 2.5), thin, h,
                             r.uniform(-4, 4)))
    return boxes


class TestOverlapMatrix:
    def test_shape_and_empty_sides(self):
        a = [box(), box(0.5, 0, 0)]
        assert iou3d(a, a[:1]).shape == (2, 1)
        assert iou3d([], a).shape == (0, 2)
        assert iou_bev(a, []).shape == (2, 0)
        with pytest.raises(ValueError, match="N, 7"):
            iou3d(np.zeros((2, 6)), a)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matrices_equal_the_scalar_oracle(self, seed):
        r = np.random.default_rng(seed)
        boxes = overlap_scene(r)
        k = int(r.integers(1, len(boxes) + 1))
        rows, cols = boxes[:k], boxes
        assert iou3d(rows, cols).tolist() == [[iou3d_pair(p, q) for q in cols] for p in rows]
        assert iou_bev(rows, cols).tolist() == [[iou_bev_pair(p, q) for q in cols]
                                                 for p in rows]
        arr = np.array([[b.x, b.y, b.z, b.l, b.w, b.h, b.yaw] for b in boxes])
        assert np.array_equal(iou3d(arr[:k], arr), iou3d(rows, cols))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_nms_and_classify_equal_the_scalar_oracle(self, seed):
        r = np.random.default_rng(seed)
        boxes = overlap_scene(r)
        scores = r.choice([0.2, 0.5, 0.9], len(boxes))   # ties fall to the lower index
        assert nms(boxes, scores) == nms_pairs(boxes, scores, NMS_IOU)
        k = int(r.integers(0, len(boxes) + 1))
        dets, gts = boxes[k:], boxes[:k]
        for thr in (0.0, 0.1, 0.3):
            for bev in (False, True):
                assert (classify(dets, gts, thr, use_bev=bev)
                        == classify_pairs(dets, gts, thr, use_bev=bev))


class TestClassify:
    def test_perfect_detection(self):
        g = box(1, 1, 1)
        assert classify([g], [g]) == (1, 0, 0)

    def test_missed_ground_truth(self):
        assert classify([], [box()]) == (0, 0, 1)

    def test_misplaced_detection(self):
        assert classify([box(10, 0, 0)], [box()]) == (0, 1, 1)

    def test_threshold_boundary_inclusive(self):
        # offset chosen so IoU is exactly 1/3 >= 0.30
        assert classify([box(0.5, 0, 0)], [box()], iou_thr=0.30) == (1, 0, 0)
        assert classify([box(0.5, 0, 0)], [box()], iou_thr=1.0 / 3.0) == (1, 0, 0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_exhaustive_matching_on_separated_scenes(self, seed):
        # clusters 10 m apart: any det overlaps at most one gt, and greedy
        # equals the optimal assignment found by brute force
        r = np.random.default_rng(seed)
        gts, dets = [], []
        for i in range(int(r.integers(1, 5))):
            cx = 10.0 * i
            g = box(cx, 0, 0, 1.6, 1.6, 1.0)
            gts.append(g)
            if r.random() < 0.8:
                dets.append(box(cx + r.uniform(-0.4, 0.4), r.uniform(-0.4, 0.4), 0,
                                1.6, 1.6, 1.0))
        for _ in range(int(r.integers(0, 3))):
            dets.append(box(-20 + r.uniform(-1, 1), 10, 0))
        tp, fp, fn = classify(dets, gts)

        def best_matching(di, used):
            if di == len(dets):
                return 0
            best = best_matching(di + 1, used)
            for gi in range(len(gts)):
                if gi not in used and iou(dets[di], gts[gi]) >= 0.30:
                    best = max(best, 1 + best_matching(di + 1, used | {gi}))
            return best

        assert tp == best_matching(0, frozenset())
        assert tp + fn == len(gts)
        assert tp + fp == len(dets)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_conservation(self, seed):
        r = np.random.default_rng(seed)
        dets = [box(*r.uniform(-4, 4, 3), *r.uniform(0.5, 2, 3)) for _ in range(int(r.integers(0, 6)))]
        gts = [box(*r.uniform(-4, 4, 3), *r.uniform(0.5, 2, 3)) for _ in range(int(r.integers(0, 6)))]
        tp, fp, fn = classify(dets, gts)
        assert tp + fn == len(gts)
        assert tp + fp == len(dets)


class TestAggregate:
    def test_recall_precision_substitution(self):
        out = aggregate([(8, 0, 2)])
        assert out.recall == pytest.approx(0.8)
        assert out.precision == pytest.approx(1.0)

    def test_f1_harmonic_identity(self):
        out = aggregate([(4, 1, 1)])
        assert out.f1 * (out.precision + out.recall) == pytest.approx(
            2 * out.precision * out.recall, abs=1e-12)

    def test_published_operating_point(self):
        # P=0.96, R=0.80 gives F1 = 0.8727...; the published table truncates
        # the third decimal to 0.872
        p, r = 0.96, 0.80
        f1 = 2 * p * r / (p + r)
        assert f1 == pytest.approx(0.87272727, abs=1e-8)
        assert math.floor(f1 * 1000) / 1000 == 0.872
        # counts that realize that operating point exactly
        out = aggregate([(96 * 5, 4 * 5, 120)])
        assert out.precision == pytest.approx(p)
        assert out.recall == pytest.approx(r)
        assert out.f1 == pytest.approx(f1, abs=1e-12)

    def test_equal_rates_fixed_point(self):
        out = aggregate([(3, 1, 1)])
        assert out.precision == out.recall == out.f1

    def test_undefined_not_zero(self):
        out = aggregate([(0, 0, 0)])
        assert out.precision is None
        assert out.recall is None
        assert out.f1 is None

    def test_multi_frame_sums(self):
        out = aggregate([(1, 0, 0), (0, 1, 0), (2, 0, 1)])
        assert (out.tp, out.fp, out.fn) == (3, 1, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
