import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airsense import lidar_sim, raytrace
from airsense.lidar_sim import (
    THRESHOLD_DENSE,
    THRESHOLD_SPARSE,
    DirectivityGrid,
    Pose2D,
    ScanPattern,
    VoxelRegion,
    directivity_analysis,
    gen_pattern,
    rays_to_sensor_frame,
    simulate_frame,
    transform_rays,
    _in_fov,
)
from airsense.cli import build_parser
from airsense.config import default_config
from airsense.mesh import TriangleMesh, box_mesh, icosphere, quadcopter_mesh
from airsense.raytrace import Bvh, _moller_trumbore
from oracles import (cross_product_mt, face_cosines, index_array_intersect, loop_directivity,
                     posed_mesh)

FAST = ScanPattern(points_per_second=24_000, seed=7)
SPEC_A = ScanPattern(points_per_second=24_000, seed=7, h_fov_deg=70.5)


def brute_force_hits(origins, dirs, mesh):
    """Exhaustive all-triangle nearest-hit oracle."""
    v0, v1, v2 = mesh.triangles()
    n = len(origins)
    best_t = np.full(n, np.inf)
    best = np.full(n, -1, dtype=np.int64)
    for ti in range(mesh.num_triangles):
        e1 = v1[ti] - v0[ti]
        e2 = v2[ti] - v0[ti]
        pvec = np.cross(dirs, e2)
        det = pvec @ e1
        ok = np.abs(det) > 1e-12
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        tvec = origins - v0[ti]
        u = np.sum(tvec * pvec, axis=1) * inv
        qvec = np.cross(tvec, e1)
        v = np.sum(dirs * qvec, axis=1) * inv
        t = (qvec @ e2) * inv
        ok &= (u >= 0) & (u <= 1) & (v >= 0) & (u + v <= 1) & (t > 1e-9)
        upd = ok & (t < best_t)
        best_t[upd] = t[upd]
        best[upd] = ti
    return best_t, best


def unculled_frame(pattern, bvh, pose, window_ms, start_ms):
    """simulate_frame without the cone cull: every ray of the pattern moves
    into the rest frame and traverses from the root."""
    dirs, t_us = gen_pattern(pattern, window_ms, start_ms)
    apex, local = transform_rays(dirs, pose)
    t, tri = bvh.intersect(np.broadcast_to(apex, local.shape), local)
    hit = tri >= 0
    points = rays_to_sensor_frame(apex + t[hit, None] * local[hit], pose)
    return (points, lidar_sim._lambertian(local[hit], bvh.mesh.normals[tri[hit]]),
            t_us[hit], int(hit.sum()), len(dirs))


def unculled_directivity(pattern, mesh, window_ms, region):
    """directivity_analysis as a per-voxel loop tracing every ray of the pattern."""
    centers = region.centers()
    counts = np.zeros(len(centers), dtype=np.int64)
    offset = mesh.center()
    bvh = Bvh(mesh)
    dirs = gen_pattern(pattern, window_ms)[0]
    for i in np.nonzero(_in_fov(centers, pattern))[0]:
        pose = Pose2D(0.0, tuple(centers[i] - offset if np.any(offset) else centers[i]))
        apex, local = transform_rays(dirs, pose)
        counts[i] = (bvh.intersect(np.broadcast_to(apex, local.shape), local)[1] >= 0).sum()
    return counts


def cold_pattern(spec, duration_ms, start_ms=0.0):
    """gen_pattern with its memo cleared first, so the rays are computed afresh."""
    lidar_sim._window.cache_clear()
    return gen_pattern(spec, duration_ms, start_ms)


def pattern_bytes(rays):
    """Each array's dtype, shape and bytes."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in rays]


class TestPattern:
    def test_ray_budget_100ms(self):
        dirs, t_us = gen_pattern(ScanPattern(seed=1), 100.0)
        assert dirs.shape == (24_000, 3) and t_us.shape == (24_000,)

    def test_ray_budget_exact_rounding(self):
        assert len(gen_pattern(FAST, 100.0)[1]) == 2400
        assert len(gen_pattern(FAST, 33.3)[1]) == 800   # ceil(24_000 * 33_300 us / 1e6)

    # the count is that of the global stamps floor(i * 1e6 / rate) inside the
    # window rounded to the microsecond; `count` is frame 0's
    @pytest.mark.parametrize("rate, window_ms, count", [(240_000, 100.0, 24_000),
                                                        (48_000, 100.0, 4_800),
                                                        (100_000, 12.345, 1_235),
                                                        (2_000_000, 0.1003, 200)])
    def test_ray_count_is_the_stamps_inside_the_rounded_window(self, rate, window_ms, count):
        spec = ScanPattern(points_per_second=rate)
        window_us = round(window_ms * 1000)
        assert (count - 1) * 1_000_000 // rate < window_us <= count * 1_000_000 // rate
        assert len(gen_pattern(spec, window_ms)[1]) == count
        stamps = np.arange(50 * count) * 1_000_000 // rate
        for frame in (0, 1, 41):
            start_us = round(frame * window_ms * 1000)
            inside = (stamps >= start_us) & (stamps < start_us + window_us)
            assert np.array_equal(gen_pattern(spec, window_ms, frame * window_ms)[1],
                                  stamps[inside])

    def test_consecutive_frames_tile_the_ray_timeline(self):
        """At 100k rays/s a ray is stamped 10 * i us, so its stamp names its
        index: frames 0-2999 of 12.345 ms cast each index once, each stamped
        inside its frame, and together they are the one long window's rays."""
        spec = ScanPattern(points_per_second=100_000)
        window_ms, window_us = 12.345, 12_345
        frames = [gen_pattern(spec, window_ms, k * window_ms) for k in range(3000)]
        for k, (_, stamps) in enumerate(frames):
            assert round(k * window_ms * 1000) == k * window_us
            assert (stamps >= k * window_us).all()
            assert (stamps < (k + 1) * window_us).all()
        t_us = np.concatenate([stamps for _, stamps in frames])
        assert np.array_equal(t_us, np.arange(-(-3000 * window_us // 10)) * 10)
        whole_dirs, whole_t_us = gen_pattern(spec, 3000 * window_ms)
        assert np.array_equal(np.concatenate([dirs for dirs, _ in frames]), whole_dirs)
        assert np.array_equal(t_us, whole_t_us)

    def test_fast_scan_of_a_window_off_the_microsecond_grid(self):
        # round(2e6 rays/s * 0.1003 ms) = 201 rays stamped the last at 100 us,
        # the end of the 100 us frame
        sim = simulate_frame(ScanPattern(points_per_second=2_000_000), Bvh(icosphere(0.5, 2)),
                             Pose2D(0.0, (0.2, 0.0, 0.0)), 0.1003)
        assert sim.rays_cast == 200 and sim.frame.window_us == 100
        assert sim.frame.t_us.max() < 100

    def test_zero_duration_rejected(self):
        # before the memo is consulted
        gen_pattern(FAST, 100.0)
        before = lidar_sim._window.cache_info()
        for duration_ms in (0.0, -0.0, -5.0):
            with pytest.raises(ValueError, match="duration must be positive"):
                gen_pattern(FAST, duration_ms)
        assert lidar_sim._window.cache_info() == before

    def test_window_under_one_microsecond_rejected(self):
        # 0.5 us rounds half to even to an empty 0 us window
        gen_pattern(FAST, 100.0)
        before = lidar_sim._window.cache_info()
        with pytest.raises(ValueError, match="^duration_ms must hold at least 1 us, got 0.0005"):
            gen_pattern(FAST, 0.0005)
        assert lidar_sim._window.cache_info() == before

    # rejected before the memo is consulted, naming the argument: an infinite
    # window overflowed the microsecond rounding and NaN failed in round()
    @pytest.mark.parametrize("name", ["duration_ms", "start_ms"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_window_rejected_naming_the_argument(self, name, value):
        gen_pattern(FAST, 100.0)
        before = lidar_sim._window.cache_info()
        window = {"duration_ms": 100.0, "start_ms": 0.0, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}"):
            gen_pattern(FAST, **window)
        assert lidar_sim._window.cache_info() == before
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            simulate_frame(FAST, Bvh(icosphere(0.5, 1)), Pose2D(0.0, (5.0, 0.0, 0.0)),
                           window["duration_ms"], window["start_ms"])
        if name == "duration_ms":
            with pytest.raises(ValueError, match=rf"^{name} must be finite"):
                directivity_analysis(FAST, icosphere(0.5, 1), value, 1,
                                     VoxelRegion((9.0, 10.0), (-0.5, 0.5), (-0.5, 0.5)))

    @pytest.mark.parametrize("spec, window_ms, start_ms", [
        (FAST, 100.0, 0.0), (ScanPattern(seed=3), 100.0, 0.0), (FAST, 33.3, 1234.5),
        (ScanPattern(points_per_second=100_000), 12.345, 41 * 12.345)])
    def test_warm_call_equals_a_cold_computation(self, spec, window_ms, start_ms):
        gen_pattern(spec, window_ms, start_ms)
        hits = lidar_sim._window.cache_info().hits
        warm = gen_pattern(spec, window_ms, start_ms)
        assert lidar_sim._window.cache_info().hits == hits + 1
        assert pattern_bytes(warm) == pattern_bytes(cold_pattern(spec, window_ms, start_ms))

    # B differs from A in the seed, the start or the duration, or in a field's
    # type alone: a float32 field equals its float64 value but gives other rays
    @pytest.mark.parametrize("other", [
        (ScanPattern(points_per_second=24_000, seed=8, h_fov_deg=70.5), 100.0, 0.0),
        (SPEC_A, 100.0, 100.0),
        (SPEC_A, 100.0, 0.0004),   # rounds to A's microsecond window
        (SPEC_A, 200.0, 0.0),
        (ScanPattern(points_per_second=24_000, seed=7, h_fov_deg=np.float32(70.5)), 100.0, 0.0)])
    def test_a_b_a_returns_each_key_its_own_rays(self, other):
        a = pattern_bytes(cold_pattern(SPEC_A, 100.0))
        b = pattern_bytes(cold_pattern(*other))
        gen_pattern(SPEC_A, 100.0)
        assert pattern_bytes(gen_pattern(*other)) == b
        assert pattern_bytes(gen_pattern(SPEC_A, 100.0)) == a
        assert (b == a) == (other == (SPEC_A, 100.0, 0.0004))

    def test_returned_arrays_are_read_only(self):
        rays = gen_pattern(FAST, 100.0)
        for array in rays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            rays[0] *= 2.0
        assert pattern_bytes(rays) == pattern_bytes(cold_pattern(FAST, 100.0))

    def test_directions_inside_fov(self):
        dirs = gen_pattern(ScanPattern(seed=5), 100.0)[0]
        az = np.degrees(np.arctan2(dirs[:, 1], dirs[:, 0]))
        el = np.degrees(np.arcsin(np.clip(dirs[:, 2], -1, 1)))
        assert np.abs(az).max() <= 70.4 / 2 + 1e-9
        assert np.abs(el).max() <= 77.2 / 2 + 1e-9

    def test_unit_directions(self):
        dirs = gen_pattern(FAST, 50.0)[0]
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_prefix_consistency(self):
        a_dirs, a_t_us = gen_pattern(FAST, 100.0)
        b_dirs, b_t_us = gen_pattern(FAST, 200.0)
        assert np.array_equal(b_dirs[: len(a_dirs)], a_dirs)
        assert np.array_equal(b_t_us[: len(a_t_us)], a_t_us)

    def test_non_repetitive_across_frames(self):
        a = gen_pattern(FAST, 100.0, start_ms=0.0)[0]
        b = gen_pattern(FAST, 100.0, start_ms=100.0)[0]
        assert not np.allclose(a, b)

    def test_seed_changes_pattern(self):
        a = gen_pattern(ScanPattern(points_per_second=24_000, seed=1), 50.0)[0]
        b = gen_pattern(ScanPattern(points_per_second=24_000, seed=2), 50.0)[0]
        assert not np.allclose(a, b)

    def test_timestamps_monotone(self):
        t_us = gen_pattern(FAST, 100.0)[1]
        assert (np.diff(t_us) >= 0).all()
        assert t_us[0] >= 0 and t_us[-1] < 100_000

    # frames whose first ray was stamped before the frame when its index was
    # rounded from the frame's start
    @pytest.mark.parametrize("rate, window_ms, frame", [(48_000, 100.0, 41),
                                                        (100_000, 12.345, 21),
                                                        (100_000, 33.3333, 7),
                                                        # a start 1.7e12 ms after the epoch
                                                        (240_000, 100.0, 17_000_000_000)])
    def test_rays_stamped_inside_their_frame(self, rate, window_ms, frame):
        spec = ScanPattern(points_per_second=rate)
        start_ms = frame * window_ms
        start_us = round(start_ms * 1000)
        t_us = gen_pattern(spec, window_ms, start_ms)[1]
        # the first ray is the first whose stamp is not before the start
        assert start_us <= t_us[0] < start_us + -(-1_000_000 // rate)
        assert t_us[-1] < start_us + round(window_ms * 1000)
        sim = simulate_frame(spec, Bvh(icosphere(0.5, 2)), Pose2D(0.0, (3.0, 0.0, 0.0)),
                             window_ms, start_ms)
        assert sim.frame.t_start_us == start_us and sim.hit_count > 0

    @pytest.mark.parametrize("rate_type", [np.int32, np.int64])
    def test_numpy_rate_gives_the_int_rate_rays(self, rate_type):
        """A window at 100 ms forms rate * start_us = 2.4e10, past int32."""
        expected = pattern_bytes(cold_pattern(ScanPattern(), 100.0, 100.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rays = cold_pattern(ScanPattern(points_per_second=rate_type(240_000)), 100.0, 100.0)
        assert len(rays[1]) == 24_000 and rays[1][0] == 100_000
        assert pattern_bytes(rays) == expected

    @pytest.mark.parametrize("field, value, message", [
        ("seed", -1, "seed must be an integer >= 0, got"),
        ("seed", 1.5, "seed: expected an integer, got 1.5"),
        ("seed", True, "seed: expected a finite number, got True"),
        ("points_per_second", 0, "points_per_second must be an integer >= 1, got"),
        ("points_per_second", 1.5, "points_per_second: expected an integer, got 1.5")])
    def test_seed_and_rate_must_be_integers(self, field, value, message):
        with pytest.raises(ValueError, match=rf"^{message}"):
            ScanPattern(**{field: value})
        assert getattr(ScanPattern(**{field: np.int64(3)}), field) == 3


class TestTransform:
    def test_identity_pose(self):
        dirs = gen_pattern(FAST, 10.0)[0]
        apex, out = transform_rays(dirs, Pose2D(0.0, (0.0, 0.0, 0.0)))
        assert np.array_equal(out, dirs)
        assert np.array_equal(apex, np.zeros(3))

    def test_quarter_turn_direction(self):
        apex, out = transform_rays(np.array([[0.0, 1.0, 0.0]]), Pose2D(math.pi / 2, (3, 0, 0)))
        np.testing.assert_allclose(out[0], [1.0, 0.0, 0.0], atol=1e-12)
        # the sensor origin, 3 m behind a target turned by +90 degrees, is at
        # +y in the target's rest frame
        np.testing.assert_allclose(apex, [0.0, 3.0, 0.0], atol=1e-12)
        # and the pose rotation itself maps +x to +y
        np.testing.assert_allclose(Pose2D(math.pi / 2).rotation() @ [1, 0, 0],
                                   [0, 1, 0], atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_equivalent_to_rotating_the_mesh(self, seed):
        r = np.random.default_rng(seed)
        mesh = icosphere(0.7, 1)
        bvh = Bvh(mesh)
        yaw = float(r.uniform(-math.pi, math.pi))
        t = np.array([r.uniform(4, 30), r.uniform(-6, 6), r.uniform(-4, 4)])
        pose = Pose2D(yaw, tuple(t))
        dirs = gen_pattern(ScanPattern(points_per_second=24_000, seed=seed), 40.0)[0]
        apex, local = transform_rays(dirs, pose)
        t_hit, tri = bvh.intersect(np.broadcast_to(apex, local.shape), local)
        hit = tri >= 0
        # oracle: actually rotate and translate the mesh, rebuild, intersect
        posed = TriangleMesh(mesh.vertices @ pose.rotation().T + t, mesh.faces.copy())
        ref_t, ref_tri = Bvh(posed).intersect(np.zeros_like(dirs), dirs)
        assert np.array_equal(hit, ref_tri >= 0)
        if hit.any():
            back = rays_to_sensor_frame(apex + t_hit[hit, None] * local[hit], pose)
            assert np.abs(back - ref_t[hit, None] * dirs[hit]).max() <= 1e-6


class TestIntersect:
    def test_axis_aligned_triangle_at_five_meters(self):
        tri = TriangleMesh(np.array([[5.0, -1.0, -1.0], [5.0, 1.0, -1.0],
                                     [5.0, 0.0, 1.5]]), np.array([[0, 1, 2]]))
        t, tri = Bvh(tri).intersect(np.zeros((1, 3)), np.array([[1.0, 0, 0]]))
        assert t[0] == pytest.approx(5.0, abs=1e-12) and tri[0] == 0

    def test_miss_aabb_zero_triangle_tests(self):
        bvh = Bvh(posed_mesh(icosphere(0.5, 1), offset=(10, 0, 0)))
        t, tri = bvh.intersect(np.zeros((5, 3)), np.tile([-1.0, 0.0, 0.0], (5, 1)))
        assert (t == np.inf).all() and (tri == -1).all()
        assert bvh.triangle_tests == 0

    def test_degenerate_triangles_skipped(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [5, -1, -1],
                          [5, 1, -1], [5, 0, 1]], dtype=float)
        mesh = TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
        assert mesh.degenerate_skipped == 1
        assert mesh.num_triangles == 1

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_matches_brute_force(self, seed):
        r = np.random.default_rng(seed)
        mesh = posed_mesh(icosphere(0.8, 2), offset=(8, 0, 0))  # 320 triangles
        bvh = Bvh(mesh)
        n = 2000
        dirs = r.normal(size=(n, 3))
        dirs[:, 0] = np.abs(dirs[:, 0]) + 2.0
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        origins = np.zeros((n, 3))
        t, tri = bvh.intersect(origins, dirs)
        bt, bi = brute_force_hits(origins, dirs, mesh)
        hit = tri >= 0
        assert np.array_equal(hit, np.isfinite(bt))
        assert np.array_equal(np.isfinite(t), hit) and (tri[~hit] == -1).all()
        assert np.array_equal(tri[hit], bi[hit])
        assert np.abs(t[hit] - bt[hit]).max() <= 1e-7

    def test_intersect_requires_unit_directions(self):
        bvh = Bvh(icosphere(0.5, 0))
        with pytest.raises(ValueError, match="unit length"):
            bvh.intersect(np.zeros((1, 3)), np.array([[1.0, 1.0, 0.0]]))
        assert bvh.triangle_tests == 0

    def test_intersect_requires_equal_lengths(self):
        with pytest.raises(ValueError, match="^origins and directions must share length, "
                                             "got 2 and 1"):
            Bvh(icosphere(0.5, 0)).intersect(np.zeros((2, 3)), np.array([[1.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_intersect_rejects_nonfinite_rays(self, bad):
        bvh = Bvh(icosphere(0.5, 0))
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        origins = np.zeros((2, 3))
        origins[1, 2] = bad
        with pytest.raises(ValueError, match="^origins must be finite"):
            bvh.intersect(origins, dirs)
        dirs[0, 1] = bad
        with pytest.raises(ValueError, match="^directions must be finite"):
            bvh.intersect(np.zeros((2, 3)), dirs)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), rays=st.integers(1, 40), tris=st.integers(1, 6))
    def test_moller_trumbore_bits_match_np_cross(self, seed, rays, tris):
        r = np.random.default_rng(seed)
        o = r.normal(size=(rays, 1, 3))
        d = r.normal(size=(rays, 1, 3))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        v0, v1, v2 = (r.normal(size=(1, tris, 3)) for _ in range(3))
        comps = [np.moveaxis(x, -1, 0) for x in (o, d, v0, v1 - v0, v2 - v0)]
        for got, ref in zip(_moller_trumbore(*comps), cross_product_mt(o, d, v0, v1, v2)):
            assert np.array_equal(got, ref)


ORACLE_MESHES = {
    "ico0": posed_mesh(icosphere(0.9, 0), offset=(0.3, -0.2, 0.1)),
    "ico1": icosphere(0.7, 1),
    "ico2": posed_mesh(icosphere(0.8, 2), offset=(2.0, 0.5, -0.4)),
    "quad": quadcopter_mesh(),
}


def oracle_rays(r, bvh, kind, n):
    """Rays of one kind around bvh's root box: from outside, aimed at the
    box; from inside it; axis-parallel, which meet the 1e-12 clamp of the
    inverse direction; or aimed through the mesh's vertices and edge
    midpoints, half of them axis-parallel, where neighbouring triangles tie
    on t."""
    lo, hi = bvh.nodes[0].lo, bvh.nodes[0].hi
    center, ext = (lo + hi) / 2.0, hi - lo
    reach = float(np.linalg.norm(ext))
    rows = np.arange(n)
    if kind == "outside":
        away = r.normal(size=(n, 3))
        origins = center + away / np.linalg.norm(away, axis=1, keepdims=True) \
            * reach * r.uniform(0.8, 4.0, (n, 1))
        dirs = center + r.uniform(-0.7, 0.7, (n, 3)) * ext - origins
    elif kind == "inside":
        origins = r.uniform(lo, hi, (n, 3))
        dirs = r.normal(size=(n, 3))
    elif kind == "axis":
        axis, sign = r.integers(0, 3, n), r.choice([-1.0, 1.0], n)
        origins = r.uniform(lo - 0.2 * ext, hi + 0.2 * ext, (n, 3))
        origins[rows, axis] = np.where(sign > 0, lo[axis], hi[axis]) - sign * reach
        dirs = np.zeros((n, 3))
        dirs[rows, axis] = sign
        # a third get a second nonzero component: one zero instead of two
        tilt = rows[: n // 3]
        dirs[tilt, (axis[tilt] + 1) % 3] = r.uniform(-1.0, 1.0, tilt.size)
    else:
        v0, v1, v2 = bvh.mesh.triangles()
        marks = np.concatenate([bvh.mesh.vertices, (v0 + v1) / 2, (v1 + v2) / 2,
                                (v2 + v0) / 2])
        aim = marks[r.integers(0, len(marks), n)]
        axis, sign = r.integers(0, 3, n), r.choice([-1.0, 1.0], n)
        dirs = r.normal(size=(n, 3))
        dirs[: n // 2] = 0.0
        dirs[rows[: n // 2], axis[: n // 2]] = sign[: n // 2]
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        origins = aim - dirs * reach * r.uniform(1.0, 3.0, (n, 1))
    return origins, dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


LAYOUT_MESHES = dict(ORACLE_MESHES, box=box_mesh(),
                     one=TriangleMesh(np.eye(3), np.array([[0, 1, 2]])))


class TestBvhLayout:
    """The median split's tree: leaves hold every triangle once, at most
    _LEAF_SIZE and (above one leaf) at least half of _LEAF_SIZE + 1 each, and
    every box bounds its children's."""

    @pytest.mark.parametrize("name", sorted(LAYOUT_MESHES))
    def test_leaves_partition_the_triangles_within_nested_boxes(self, name):
        mesh = LAYOUT_MESHES[name]
        bvh = Bvh(mesh)
        leaves = [node for node in bvh.nodes if node.leaf]
        ids = np.concatenate([node.leaf[0] for node in leaves])
        assert np.array_equal(np.sort(ids), np.arange(mesh.num_triangles))
        counts = [node.leaf[0].size for node in leaves]
        assert max(counts) <= raytrace._LEAF_SIZE
        if mesh.num_triangles <= raytrace._LEAF_SIZE:
            assert len(bvh.nodes) == 1
        else:
            assert min(counts) >= (raytrace._LEAF_SIZE + 1) // 2
        a, b, c = mesh.triangles()
        for node in bvh.nodes:
            if node.leaf:
                tri = node.leaf[0]
                assert np.array_equal(node.lo, np.minimum(np.minimum(a, b), c)[tri].min(axis=0))
                assert np.array_equal(node.hi, np.maximum(np.maximum(a, b), c)[tri].max(axis=0))
                continue
            assert node.left > 0 and node.right > 0
            for child in (bvh.nodes[node.left], bvh.nodes[node.right]):
                assert (node.lo <= child.lo).all() and (child.hi <= node.hi).all()

    @pytest.mark.parametrize("name", sorted(LAYOUT_MESHES))
    def test_children_hold_the_halves_along_the_longest_axis(self, name):
        """Each inner node's left child holds the floor half of its triangles
        and the right child the ceil half, split at the median centroid along
        the node box's longest axis."""
        mesh = LAYOUT_MESHES[name]
        bvh = Bvh(mesh)
        centroids = sum(mesh.triangles()) / 3.0

        def under(i):
            node = bvh.nodes[i]
            return node.leaf[0] if node.leaf else np.concatenate(
                [under(node.left), under(node.right)])

        for node in bvh.nodes:
            if node.leaf:
                continue
            left, right = under(node.left), under(node.right)
            n = left.size + right.size
            assert (left.size, right.size) == (n // 2, n - n // 2)
            axis = np.argmax(node.hi - node.lo)
            assert centroids[left, axis].max() <= centroids[right, axis].min()


class TestLeafSize:
    """The leaf size changes the work, not the results, on the program's
    rays: 4-triangle leaves and _LEAF_SIZE give the same directivity counts
    on the offline benchmark's block and the same frames. triangle_tests
    differs by design and is not compared."""

    PATTERN = ScanPattern(seed=7)

    def test_directivity_counts_equal_on_the_offline_block(self):
        region = VoxelRegion((10.0, 15.0), (-5.0, 5.0), (0.0, 1.0))
        grid = directivity_analysis(self.PATTERN, quadcopter_mesh(), 100.0, 1, region)
        with mock.patch.object(raytrace, "_LEAF_SIZE", 4):
            small = directivity_analysis(self.PATTERN, quadcopter_mesh(), 100.0, 1, region)
        assert grid.counts.sum() > 0
        assert np.array_equal(grid.counts, small.counts)

    @pytest.mark.parametrize("mesh", [quadcopter_mesh(), icosphere(0.8, 2)],
                             ids=["quad", "ico2"])
    def test_frames_equal_at_three_poses(self, mesh):
        wide = Bvh(mesh)
        with mock.patch.object(raytrace, "_LEAF_SIZE", 4):
            narrow = Bvh(mesh)
        assert raytrace._LEAF_SIZE > 4 and len(narrow.nodes) > len(wide.nodes)
        for k, (yaw, at) in enumerate([(0.3, (10.0, 1.0, 0.5)), (-1.2, (20.0, -3.0, 1.5)),
                                       (2.5, (35.0, 4.0, -2.0))]):
            pose = Pose2D(yaw, at)
            a = simulate_frame(self.PATTERN, wide, pose, start_ms=100.0 * k)
            b = simulate_frame(self.PATTERN, narrow, pose, start_ms=100.0 * k)
            assert a.hit_count > 0
            for field in ("points", "intensity", "t_us"):
                assert getattr(a.frame, field).tobytes() == getattr(b.frame, field).tobytes()
            assert (a.hit_count, a.rays_cast) == (b.hit_count, b.rays_cast)


class TestTraversalOracle:
    """The column traversal against the index-array traversal it replaced:
    the same bits in t and triangle and the same triangle tests."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), mesh=st.sampled_from(sorted(ORACLE_MESHES)),
           kind=st.sampled_from(["outside", "inside", "axis", "marks"]))
    def test_matches_index_array_traversal(self, seed, mesh, kind):
        bvh = Bvh(ORACLE_MESHES[mesh])
        rays = oracle_rays(np.random.default_rng(seed), bvh, kind, 400)
        ref, tests = index_array_intersect(bvh, *rays)
        got = bvh.intersect(*rays)
        for name, a, b in zip(("t", "triangle"), got, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert bvh.triangle_tests == tests

    @pytest.mark.parametrize("mesh", ["quad", "ico1"])
    def test_marks_reach_tied_hits(self, mesh):
        """The vertex and edge rays hit where two triangles give the same t,
        so the test above reaches the lowest-id tie rule."""
        bvh = Bvh(ORACLE_MESHES[mesh])
        origins, dirs = oracle_rays(np.random.default_rng(3), bvh, "marks", 400)
        valid, t, _, _ = cross_product_mt(origins[:, None], dirs[:, None],
                                          *(v[None] for v in bvh.mesh.triangles()))
        t = np.where(valid, t, np.inf)
        got_t, got_tri = bvh.intersect(origins, dirs)
        tied = (got_tri >= 0) & ((t == got_t[:, None]).sum(axis=1) > 1)
        assert tied.sum() >= 20


class TestLambertian:
    """The Lambertian factor simulate_frame gives each return: |d . n| of the
    hit triangle, checked on an axis-aligned box face."""

    def test_normal_incidence(self):
        assert face_cosines(0.0)[0] == 1.0

    def test_sixty_degrees(self):
        assert face_cosines(math.pi / 3)[0] == pytest.approx(0.5, abs=1e-15)

    def test_grazing(self):
        near = math.radians(89.9)
        assert face_cosines(near)[0] == math.cos(near)
        assert face_cosines(math.pi / 2 - 1e-9)[0] == pytest.approx(0.0, abs=1e-8)

    def test_back_face_cosine_is_not_negative(self):
        angles = (0.0, math.pi / 3, math.radians(89.9))
        assert face_cosines(*angles, inside=True).tobytes() == face_cosines(*angles).tobytes()

    @settings(max_examples=50)
    @given(a=st.floats(0.0, math.radians(89.9)), b=st.floats(0.0, math.radians(89.9)))
    def test_monotone_and_bounded(self, a, b):
        lo, hi = face_cosines(min(a, b), max(a, b))
        assert lo >= hi
        assert 0.0 <= hi <= lo <= 1.0


class TestSimulateFrame:
    def test_mesh_outside_fov_empty(self):
        sim = simulate_frame(FAST, Bvh(quadcopter_mesh()), Pose2D(0.0, (-20, 0, 0)), 100.0)
        assert sim.hit_count == 0
        assert not sim.accepted
        assert len(sim.frame) == 0

    def test_closer_target_yields_more_returns(self):
        bvh = Bvh(quadcopter_mesh())
        near = simulate_frame(FAST, bvh, Pose2D(0.4, (10, 0, 0)), 100.0)
        far = simulate_frame(FAST, bvh, Pose2D(0.4, (40, 0, 0)), 100.0)
        assert near.hit_count > far.hit_count

    def test_min_hits_threshold(self):
        bvh = Bvh(quadcopter_mesh())
        sim = simulate_frame(FAST, bvh, Pose2D(0.0, (12, 0, 0)), 100.0, min_hits=10)
        assert sim.accepted == (sim.hit_count >= 10)
        # force a thin cluster via an absurd threshold
        thin = simulate_frame(FAST, bvh, Pose2D(0.0, (12, 0, 0)), 100.0,
                              min_hits=sim.hit_count + 1)
        assert not thin.accepted

    def test_intensities_bounded_by_incident(self):
        sim = simulate_frame(FAST, Bvh(quadcopter_mesh()), Pose2D(0.2, (10, 0, 0)), 100.0)
        assert len(sim.frame) > 0
        assert sim.frame.intensity.min() >= 0.0
        assert sim.frame.intensity.max() <= 1.0

    def test_nonfinite_pose_rejected_naming_the_field(self):
        with pytest.raises(ValueError, match="yaw"):
            simulate_frame(FAST, Bvh(quadcopter_mesh()), Pose2D(math.nan, (12, 0, 0)), 100.0)
        with pytest.raises(ValueError, match="yaw"):
            Pose2D(math.inf)
        for t in ((12.0, math.nan, 0.0), (math.inf, 0.0, 0.0), (12.0, 0.0)):
            with pytest.raises(ValueError, match="translation"):
                Pose2D(0.0, t)

    def test_points_near_posed_target(self):
        loc = np.array([14.0, 2.0, -1.0])
        sim = simulate_frame(FAST, Bvh(icosphere(0.6, 1)), Pose2D(1.0, tuple(loc)), 100.0)
        assert sim.hit_count > 0
        assert np.abs(sim.frame.points - loc).max() <= 0.6 + 1e-9


MESHES = {"sphere": icosphere(0.5, 1), "box": box_mesh((1.0, 1.0, 0.5)),
          "drone": quadcopter_mesh()}


class TestConeCull:
    """The culled traces against the unculled ones: the cull drops only rays
    that would have missed the root box, so everything matches exactly."""

    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(sorted(MESHES)), seed=st.integers(0, 10_000),
           yaw=st.floats(-math.pi, math.pi), dist=st.floats(1.2, 9.0),
           elevation_edge=st.booleans())
    def test_matches_unculled_trace(self, name, seed, yaw, dist, elevation_edge):
        mesh = MESHES[name]
        pattern = ScanPattern(points_per_second=24_000, seed=seed)
        # sensor inside the bounding sphere, then just outside it
        near = VoxelRegion((0.0, 1.2), (-0.3, 0.3), (-0.3, 0.3), 0.6)
        # a row of voxels across the azimuth or elevation edge of the view
        edge = dist * math.tan(math.radians(
            (pattern.v_fov_deg if elevation_edge else pattern.h_fov_deg) / 2.0))
        across = (edge - 1.5, edge + 1.5)
        edge_region = (VoxelRegion((dist - 0.25, dist + 0.25), (-0.25, 0.25), across, 0.5)
                       if elevation_edge else
                       VoxelRegion((dist - 0.25, dist + 0.25), across, (-0.25, 0.25), 0.5))
        turned = posed_mesh(mesh, yaw)
        for region in (near, edge_region):
            ref = unculled_directivity(pattern, turned, 50.0, region)
            grid = directivity_analysis(pattern, turned, 50.0, 1, region)
            assert np.array_equal(grid.counts, ref)
            # a batch smaller than one voxel's rays: a traversal per voxel
            with mock.patch.object(lidar_sim, "_RAY_BATCH", 16):
                grid = directivity_analysis(pattern, turned, 50.0, 1, region)
            assert np.array_equal(grid.counts, ref)

        culled, full = Bvh(mesh), Bvh(mesh)
        r = np.random.default_rng(seed)
        for k, center in enumerate([(0.2, 0.0, 0.0), (dist, 0.0, 0.0),
                                    (dist, edge - 0.5, 0.0) if not elevation_edge
                                    else (dist, 0.0, edge - 0.5)]):
            pose = Pose2D(float(r.uniform(-math.pi, math.pi)),
                          tuple(np.asarray(center) - mesh.center()))
            sim = simulate_frame(pattern, culled, pose, 50.0, start_ms=50.0 * k)
            points, intensity, t_us, hit_count, rays_cast = unculled_frame(
                pattern, full, pose, 50.0, 50.0 * k)
            assert sim.frame.points.tobytes() == points.tobytes()
            assert sim.frame.intensity.tobytes() == intensity.tobytes()
            assert sim.frame.t_us.tobytes() == t_us.tobytes()
            assert (sim.hit_count, sim.rays_cast) == (hit_count, rays_cast)
            assert culled.triangle_tests == full.triangle_tests


class TestFlatSweep:
    """The flat (voxel, ray) pair sweep against the per-voxel loop it
    replaced: equal counts wherever a traversal's pairs start and end."""

    def test_cli_default_region_matches_the_loop(self):
        args = build_parser().parse_args(["directivity", "--mesh", "builtin:drone",
                                          "--out", "unused.csv"])
        region = VoxelRegion(tuple(args.x), tuple(args.y), tuple(args.z), args.voxel)
        cfg, mesh = default_config(), quadcopter_mesh()
        grid = directivity_analysis(cfg.scan, mesh, cfg.window_ms, args.threshold, region)
        assert grid.counts.sum() > 0
        assert np.array_equal(grid.counts,
                              loop_directivity(cfg.scan, mesh, cfg.window_ms, region))

    @pytest.mark.parametrize("mesh, batch", [
        (posed_mesh(quadcopter_mesh(), 0.9), None),
        (posed_mesh(quadcopter_mesh(), -2.3), None),
        (posed_mesh(icosphere(0.5, 1), offset=(0.4, -0.3, 0.2)), None),
        (posed_mesh(icosphere(0.5, 1), 1.1, (0.4, -0.3, 0.2)), 16),
        (quadcopter_mesh(), 16),
        (posed_mesh(quadcopter_mesh(), 0.4), 1000),
    ], ids=["yawed", "yawed-back", "off-origin", "off-origin-yawed-batch-16", "batch-16",
            "yawed-batch-1000"])
    def test_matches_the_loop(self, mesh, batch):
        # 27 voxels of FAST's 2400 rays: the default batch spans chunks of six
        # voxels; 16 and 1000 end batches partway through a voxel's rays
        region = VoxelRegion((9.0, 12.0), (-1.5, 1.5), (-1.5, 1.5))
        with mock.patch.object(lidar_sim, "_RAY_BATCH", batch or lidar_sim._RAY_BATCH):
            grid = directivity_analysis(FAST, mesh, 100.0, 1, region)
        assert grid.counts.sum() > 0
        assert np.array_equal(grid.counts, loop_directivity(FAST, mesh, 100.0, region))

    def test_traversals_take_full_batches_but_the_last(self):
        sizes = []
        intersect = Bvh.intersect

        def recorded(self, origins, directions):
            sizes.append(len(origins))
            return intersect(self, origins, directions)

        # the offline benchmark's block: 50 voxels of 24,000 rays, whose
        # cone pairs fill 20 batches that end partway through voxels
        region = VoxelRegion((10.0, 15.0), (-5.0, 5.0), (0.0, 1.0))
        with mock.patch.object(Bvh, "intersect", recorded), \
                mock.patch.object(lidar_sim, "_RAY_BATCH", 1000):
            grid = directivity_analysis(ScanPattern(seed=7), quadcopter_mesh(), 100.0, 1,
                                        region)
        assert grid.counts.sum() > 0 and len(sizes) == 20
        assert sizes[:-1] == [1000] * (len(sizes) - 1) and 0 < sizes[-1] <= 1000

    def test_cone_masks_stay_within_a_batch(self):
        masks = []
        in_cone = lidar_sim._in_cone

        def recorded(*args):
            mask = in_cone(*args)
            masks.append(mask.shape)
            return mask

        region = VoxelRegion((10.0, 15.0), (-5.0, 5.0), (0.0, 1.0))
        n = len(gen_pattern(FAST, 100.0)[0])
        for batch in (lidar_sim._RAY_BATCH, 1000):
            masks.clear()
            with mock.patch.object(lidar_sim, "_in_cone", recorded), \
                    mock.patch.object(lidar_sim, "_RAY_BATCH", batch):
                directivity_analysis(FAST, quadcopter_mesh(), 100.0, 1, region)
            assert masks and all(c == n for _, c in masks)
            assert sum(m for m, _ in masks) == 50
            assert max(m * c for m, c in masks) <= max(batch, n)
        # a batch of 1000 holds less than one voxel's 2400 rays
        assert all(m == 1 for m, _ in masks)


class TestDirectivity:
    def test_window_monotonicity_and_preset_nesting(self):
        mesh = quadcopter_mesh()
        region = VoxelRegion((9.0, 12.0), (-1.5, 1.5), (-1.5, 1.5))
        g100 = directivity_analysis(FAST, mesh, 100.0, THRESHOLD_SPARSE, region)
        g200 = directivity_analysis(FAST, mesh, 200.0, THRESHOLD_SPARSE, region)
        assert (g200.counts >= g100.counts).all()
        dense = DirectivityGrid(g100.centers, g100.counts, THRESHOLD_DENSE)
        sparse_set = {tuple(c) for c in g100.centers[g100.included()]}
        dense_set = {tuple(c) for c in dense.centers[dense.included()]}
        assert dense_set <= sparse_set

    def test_cold_and_warm_pattern_give_the_same_grid(self):
        mesh = quadcopter_mesh()
        region = VoxelRegion((9.0, 12.0), (-1.5, 1.5), (-1.5, 1.5))
        grids = []
        for clear in (True, False):
            if clear:
                lidar_sim._window.cache_clear()
            misses = lidar_sim._window.cache_info().misses
            grids.append(directivity_analysis(FAST, mesh, 100.0, THRESHOLD_SPARSE, region))
            assert lidar_sim._window.cache_info().misses == misses + clear
        (cold, warm) = grids
        assert cold.included().any()
        for name in ("centers", "counts"):
            a, b = getattr(cold, name), getattr(warm, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert cold.threshold == warm.threshold

    def test_close_voxel_included_at_threshold_one(self):
        mesh = quadcopter_mesh()
        region = VoxelRegion((9.0, 10.0), (-0.5, 0.5), (-0.5, 0.5))
        grid = directivity_analysis(FAST, mesh, 100.0, 1, region)
        assert grid.included().any()

    def test_out_of_fov_voxels_excluded(self):
        mesh = icosphere(0.5, 1)
        region = VoxelRegion((-3.0, -2.0), (-0.5, 0.5), (-0.5, 0.5))
        grid = directivity_analysis(FAST, mesh, 50.0, 1, region)
        assert not grid.included().any()

    @pytest.mark.parametrize("kwargs, field", [
        ({"voxel_size": 0.0}, "voxel_size"),
        ({"voxel_size": -1.0}, "voxel_size"),
        ({"voxel_size": math.nan}, "voxel_size"),
        ({"voxel_size": math.inf}, "voxel_size"),
        ({"x_range": (6.0, 5.0)}, "x_range"),
        ({"y_range": (1.0, 1.0)}, "y_range"),
        ({"z_range": (math.nan, 1.0)}, "z_range"),
        ({"x_range": (5.0, math.inf)}, "x_range"),
        ({"x_range": (5.0, 5.2)}, "x_range"),
        # finite values whose voxel count is not: centers() overflowed before
        ({"z_range": (-1e308, 1e308)}, "^z_range holds a non-finite count of voxels"),
        ({"voxel_size": 1e-320}, "^x_range holds a non-finite count of voxels"),
    ])
    def test_region_validated_naming_the_field(self, kwargs, field):
        args = {"x_range": (5.0, 6.0), "y_range": (0.0, 1.0), "z_range": (0.0, 1.0)}
        with pytest.raises(ValueError, match=field):
            VoxelRegion(**{**args, **kwargs})

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            directivity_analysis(FAST, icosphere(0.5, 1), 50.0, 0,
                                 VoxelRegion((5, 6), (0, 1), (0, 1)))

    def test_csv_excludes_subthreshold(self, tmp_path):
        mesh = quadcopter_mesh()
        region = VoxelRegion((9.0, 12.0), (-1.5, 1.5), (-0.5, 0.5))
        grid = directivity_analysis(FAST, mesh, 100.0, THRESHOLD_SPARSE, region)
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,z,count"
        assert len(lines) - 1 == int(grid.included().sum())
        for line in lines[1:]:
            assert int(line.split(",")[3]) >= THRESHOLD_SPARSE
