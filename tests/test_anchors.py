import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airsense.anchors import (
    ANCHOR_SIZE,
    IGNORED,
    NEGATIVE,
    NMS_IOU,
    NUM_LAYERS,
    MatchThresholds,
    assign_targets,
    build_anchor_grid,
    build_anchor_layers,
    decode_box,
    encode_box,
    focal_cls_term,
    nms,
)
from airsense.boxes import Box3D
from airsense.pillars import PillarGridSpec
from oracles import _bev_intersection_area, iou3d_from_area, nms_pairs

SMALL_GRID = PillarGridSpec(x_range=(0.0, 8.0), y_range=(-4.0, 4.0),
                            z_range=(-12.0, 12.0), cell_size=1.0)


class TestLayers:
    def test_twenty_one_layers(self):
        layers = build_anchor_layers()
        assert len(layers) == NUM_LAYERS == 21
        assert layers[0].class_name == "drone_0"
        assert layers[20].class_name == "drone_20"

    def test_anchor_size(self):
        grid = build_anchor_grid(SMALL_GRID)
        for il in range(grid.num_layers):
            box = grid.anchor_box(0, 0, il)
            assert (box.l, box.w, box.h) == ANCHOR_SIZE == (1.6, 1.6, 1.0)

    def test_middle_layer_center(self):
        # layer 10 spans [0, 1) m relative to the sensor, so its center is 0.5
        layers = build_anchor_layers(sensor_elevation=0.0)
        assert layers[10].z_center == pytest.approx(0.5)

    def test_one_meter_spacing(self):
        layers = build_anchor_layers(sensor_elevation=2.0)
        zs = [l.z_center for l in layers]
        np.testing.assert_allclose(np.diff(zs), 1.0)
        assert zs[0] == pytest.approx(2.0 - 10 + 0.5)

    def test_class_to_elevation_bijection(self):
        layers = build_anchor_layers()
        zs = {l.z_center for l in layers}
        ids = {l.class_id for l in layers}
        assert len(zs) == len(ids) == NUM_LAYERS


def z_residual(z: float, anchor_z: float, h: float = 1.0) -> float:
    """encode_box's vertical residual of a box at z against an anchor of
    height h at anchor_z."""
    return encode_box(Box3D(0.0, 0.0, z, 1.6, 1.6, 1.0),
                      Box3D(0.0, 0.0, anchor_z, 1.6, 1.6, h))[2]


class TestZResidual:
    def test_zero_at_anchor_center(self):
        assert z_residual(4.5, 4.5) == 0.0

    def test_direct_substitution(self):
        assert z_residual(5.0, 4.5) == pytest.approx(0.5)

    def test_negative_offset(self):
        assert z_residual(3.0, 5.0) == pytest.approx(-2.0)

    @settings(max_examples=50)
    @given(z=st.floats(-20, 20), h=st.floats(0.5, 4.0))
    def test_scale_consistency(self, z, h):
        one = z_residual(z, 1.0, h)
        two = z_residual(z, 1.0, 2 * h)
        assert two == pytest.approx(one / 2.0, rel=1e-9, abs=1e-12)


class TestFocalTerm:
    def test_certain_positive_is_zero(self):
        assert focal_cls_term(1.0) == 0.0

    def test_half_probability(self):
        assert focal_cls_term(0.5) == pytest.approx(-0.0625)

    def test_zero_probability(self):
        assert focal_cls_term(0.0) == pytest.approx(-0.25)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            focal_cls_term(1.5)
        with pytest.raises(ValueError):
            focal_cls_term(-0.1)

    @settings(max_examples=60)
    @given(p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0))
    def test_monotone_nonincreasing_magnitude(self, p, q):
        lo, hi = min(p, q), max(p, q)
        assert focal_cls_term(lo) <= focal_cls_term(hi) + 1e-15
        assert focal_cls_term(hi) <= 0.0

    def test_log_variant(self):
        expected = -0.25 * (0.5 ** 2) * math.log(0.5)
        assert focal_cls_term(0.5, with_log=True) == pytest.approx(expected)
        assert focal_cls_term(0.0, with_log=True) == math.inf


class TestBoxCoding:
    def anchor(self):
        return Box3D(3.5, 0.5, 0.5, *ANCHOR_SIZE, yaw=0.0)

    def test_zero_residuals_give_anchor(self):
        a = self.anchor()
        assert decode_box(a, np.zeros(7)) == a

    def test_z_decode_inverts_residual(self):
        a = Box3D(0, 0, 4.5, 1.6, 1.6, 1.0)
        out = decode_box(a, [0, 0, 0.5, 0, 0, 0, 0])
        assert out.z == pytest.approx(5.0)

    @settings(max_examples=100)
    @given(seed=st.integers(0, 10_000))
    def test_round_trip(self, seed):
        r = np.random.default_rng(seed)
        residuals = np.concatenate([r.uniform(-2, 2, 3), r.uniform(-0.5, 0.5, 3),
                                    r.uniform(-1.2, 1.2, 1)])
        decoded = decode_box(self.anchor(), residuals)
        back = encode_box(decoded, self.anchor())
        np.testing.assert_allclose(back, residuals, atol=1e-6)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            decode_box(self.anchor(), [0, 0, np.nan, 0, 0, 0, 0])


class TestAssignTargets:
    def test_exact_anchor_positive(self):
        grid = build_anchor_grid(SMALL_GRID)
        gt = grid.anchor_box(4, 3, 12)
        ta = assign_targets([gt], grid)
        assert ta.labels[4, 3, 12] == grid.class_of_layer(12) == 12

    def test_far_ground_truth_forces_best_match(self):
        grid = build_anchor_grid(SMALL_GRID)
        gt = Box3D(3.47, 0.48, 30.0, 1.6, 1.6, 1.0)  # above every layer
        ta = assign_targets([gt], grid)
        positives = np.argwhere(ta.labels >= 0)
        assert len(positives) == 1
        iy, ix, il = positives[0]
        assert il == NUM_LAYERS - 1  # highest layer is nearest in z
        assert (iy, ix, il) in [tuple(f) for f in ta.forced_positives]

    def test_partition_property(self):
        grid = build_anchor_grid(SMALL_GRID)
        gt = grid.anchor_box(2, 2, 10)
        ta = assign_targets([gt], grid)
        counts = ta.counts()
        assert (sum(counts.values()) == ta.labels.size
                == SMALL_GRID.ny * SMALL_GRID.nx * NUM_LAYERS)

    @settings(max_examples=16, deadline=None)
    @given(seed=st.integers(0, 10_000), cell=st.sampled_from([1.0, 0.4, 0.16]))
    def test_matches_exhaustive_iou_oracle(self, seed, cell):
        r = np.random.default_rng(seed)
        spec = replace(SMALL_GRID, cell_size=cell)
        grid = build_anchor_grid(spec)

        def coord(lo, hi):
            # on a cell boundary, or anywhere up to 4 m beyond either edge
            if r.random() < 0.3:
                return lo + cell * int(r.integers(0, round((hi - lo) / cell) + 1))
            return float(r.uniform(lo - 4.0, hi + 4.0))

        def box():
            l, w, h = r.uniform(0.3, 4.0, 3)
            yaw = r.uniform(-math.pi, math.pi)
            if r.random() < 0.3:
                # an axis-aligned square meets the anchors corner to corner
                # right at the reach, so the reach is tight along diagonals
                w, yaw = l, 0.0
            return Box3D(coord(*spec.x_range), coord(*spec.y_range), r.uniform(-13, 13),
                         l, w, h, yaw)

        gts = [box() for _ in range(int(r.integers(1, 5)))]

        # oracle: evaluate every anchor against every gt with the scalar
        # clipper, no window. The layers of a cell share one footprint, so
        # each (cell, gt) footprint is clipped once, and iou3d's float steps,
        # which read only the anchor's z and size besides the clipped
        # area, run per layer. That gives the bits of a per-anchor call.
        ny, nx = spec.ny, spec.nx
        layer_anchors = [grid.anchor_box(0, 0, il) for il in range(NUM_LAYERS)]
        best = np.zeros((ny, nx, NUM_LAYERS))
        best_per_gt = np.zeros(len(gts))
        best_anchor = [None] * len(gts)
        for iy in range(ny):
            for ix in range(nx):
                footprint = grid.anchor_box(iy, ix, 0)
                areas = [_bev_intersection_area(footprint, g) for g in gts]
                for il, anchor in enumerate(layer_anchors):
                    values = [iou3d_from_area(anchor, g, area) for g, area in zip(gts, areas)]
                    for gi, v in enumerate(values):
                        if v > best_per_gt[gi]:
                            best_per_gt[gi] = v
                            best_anchor[gi] = (iy, ix, il)
                    best[iy, ix, il] = max(values)
        for gi, g in enumerate(gts):
            if best_anchor[gi] is None:
                # overlaps no anchor: the cell holding its center, clipped to
                # the grid, in the layer nearest in z
                ix = min(max(math.floor((g.x - spec.x_range[0]) / cell), 0), nx - 1)
                iy = min(max(math.floor((g.y - spec.y_range[0]) / cell), 0), ny - 1)
                il = int(np.argmin([abs(l.z_center - g.z) for l in grid.layers]))
                best_anchor[gi] = (iy, ix, il)

        # with neg_iou just above 0, every anchor with any overlap is ignored,
        # so the labels expose each overlap that is skipped
        for thr in (MatchThresholds(), MatchThresholds(0.5, 0.0),
                    MatchThresholds(0.4, 1e-12)):
            ta = assign_targets(gts, grid, thr)
            layer = np.broadcast_to(np.arange(NUM_LAYERS, dtype=np.int16), best.shape)
            expected = np.where(best >= thr.pos_iou, layer,
                                np.where(best >= thr.neg_iou, IGNORED, NEGATIVE))
            for ba in best_anchor:
                expected[ba] = ba[2]
            assert ta.forced_positives == best_anchor
            assert np.array_equal(ta.labels, expected)

    def test_thresholds_must_be_finite_and_ordered_within_unit_range(self):
        for pos, neg, name in [(0.4, math.nan, "neg_iou"), (math.nan, 0.35, "pos_iou"),
                               (math.inf, 0.35, "pos_iou"), (0.4, -math.inf, "neg_iou")]:
            with pytest.raises(ValueError, match=f"^{name}: expected a finite number, got"):
                MatchThresholds(pos, neg)
        for pos, neg in [(0.35, 0.4), (0.4, 0.4), (1.2, 0.35), (0.4, -0.1)]:
            with pytest.raises(ValueError, match="threshold"):
                MatchThresholds(pos, neg)
        MatchThresholds(1.0, 0.0)


class TestNms:
    def test_single_box_kept(self):
        assert nms([Box3D(0, 0, 0, 1, 1, 1)], [0.7]) == [0]

    def test_duplicate_keeps_higher_score(self):
        b = Box3D(0, 0, 0, 1, 1, 1)
        assert nms([b, b], [0.8, 0.9]) == [1]
        assert nms([b, b], [0.9, 0.8]) == [0]

    def test_score_tie_prefers_lower_index(self):
        b = Box3D(0, 0, 0, 1, 1, 1)
        assert nms([b, b], [0.9, 0.9]) == [0]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_greedy_oracle(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 8))
        boxes = [Box3D(r.uniform(-2, 2), r.uniform(-2, 2), r.uniform(-1, 1),
                       *r.uniform(0.8, 2.0, 3), yaw=r.uniform(-3, 3)) for _ in range(n)]
        scores = r.uniform(0, 1, n)
        assert nms(boxes, scores) == nms_pairs(boxes, scores, NMS_IOU)
