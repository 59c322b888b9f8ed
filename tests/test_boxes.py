import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airsense.boxes import Box3D, box_rows, points_in_box

from oracles import points_in_box_oracle

SCENE = np.array([[0.0, -40.0, -10.0], [70.4, 40.0, 10.0]])   # the default grid's extent


def face_points(box: Box3D, rng, n: int) -> np.ndarray:
    """Points put on the box's faces as the oracle computes them: on the z
    faces at box.z +- h/2, and on the yawed x/y faces at local +-l/2, +-w/2."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    u = rng.uniform(-0.5, 0.5, (n, 3)) * [box.l, box.w, box.h]
    face = rng.integers(0, 3, n)
    sign = rng.choice([-0.5, 0.5], n)
    u[face == 0, 0] = sign[face == 0] * box.l
    u[face == 1, 1] = sign[face == 1] * box.w
    u[face == 2, 2] = sign[face == 2] * box.h
    return np.column_stack([box.x + c * u[:, 0] - s * u[:, 1],
                            box.y + s * u[:, 0] + c * u[:, 1], box.z + u[:, 2]])


@settings(max_examples=300, deadline=None)
@given(yaw=st.floats(allow_nan=False, allow_infinity=False),
       center=st.tuples(st.floats(-5.0, 75.0), st.floats(-45.0, 45.0), st.floats(-12.0, 12.0)),
       sides=st.tuples(st.floats(1e-9, 100.0), st.floats(1e-9, 100.0),
                       st.sampled_from([1e-12, 1e-9, 0.3, 1.0, 19.9, 20.0, 25.0, 1e6])),
       n=st.sampled_from([0, 1, 7, 500]),
       bad=st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_mask_equals_the_oracle_bit_for_bit(yaw, center, sides, n, bad, seed):
    """Any yaw, boxes thin and taller than the scene, points on every face,
    non-finite rows and empty frames."""
    rng = np.random.default_rng(seed)
    box = Box3D(*center, *sides, yaw)
    pts = np.vstack([rng.uniform(*SCENE, (n, 3)), face_points(box, rng, n),
                     box.center + rng.normal(scale=sides, size=(n, 3))])
    if bad and len(pts):
        rows = rng.integers(0, len(pts), len(bad))
        pts[rows, rng.integers(0, 3, len(bad))] = bad
    with np.errstate(invalid="ignore"):   # inf - inf in the rotation
        want = points_in_box_oracle(pts, box)
        got = points_in_box(pts, box)
    assert got.dtype == bool and got.shape == (len(pts),)
    assert np.array_equal(got, want)


def test_points_exactly_on_the_faces_are_inside():
    box = Box3D(1.0, 2.0, 0.5, 2.0, 1.0, 0.5)
    on = np.array([[0.0, 2.0, 0.5], [2.0, 2.0, 0.5], [1.0, 1.5, 0.5], [1.0, 2.5, 0.5],
                   [1.0, 2.0, 0.25], [1.0, 2.0, 0.75], [2.0, 2.5, 0.75]])
    assert points_in_box(on, box).all()
    off = on + [[-1e-9, 0, 0], [1e-9, 0, 0], [0, -1e-9, 0], [0, 1e-9, 0],
                [0, 0, -1e-9], [0, 0, 1e-9], [0, 0, 1e-9]]
    assert not points_in_box(off, box).any()
    assert np.array_equal(points_in_box(off, box), points_in_box_oracle(off, box))


def test_empty_and_non_finite_frames():
    box = Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.7)
    assert points_in_box(np.zeros((0, 3)), box).shape == (0,)
    rows = np.array([[math.nan, 0, 0], [0, math.inf, 0], [0, 0, -math.inf], [0, 0, 0]])
    assert points_in_box(rows, box).tolist() == [False, False, False, True]


def test_points_are_not_modified():
    pts = np.array([[0.1, 0.2, -0.3], [5.0, 5.0, 5.0]])
    before = pts.copy()
    points_in_box(pts, Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0))
    assert np.array_equal(pts, before)


def test_box_rows_of_objects_and_arrays():
    boxes = [Box3D(1, 2, 3, 4, 5, 6, 0.5), Box3D(-1.5, 0.0, 2.0, 1.0, 1.0, 1.0, 4.0)]
    rows = box_rows(boxes)
    assert rows.dtype == np.float64
    assert rows.tolist() == [[b.x, b.y, b.z, b.l, b.w, b.h, b.yaw] for b in boxes]
    assert box_rows(rows) is rows
    assert box_rows([]).shape == (0, 7)
    assert box_rows(rows.astype(np.float32)).dtype == np.float64
    with pytest.raises(ValueError, match=r"\(N, 7\) rows"):
        box_rows(rows[:, :6])

