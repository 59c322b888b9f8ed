"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion. Run with -s to see the verdict lines."""

import functools
import math
import struct
import time

import numpy as np
import pytest

from airsense.anchors import encode_box, focal_cls_term
from airsense.augment import AugPlan, build_datasets, synth_insert
from airsense.backbone import ENGINES, BackboneSpec, make_backbone_weights, run_backbone
from airsense.boxes import Box3D, points_in_box
from airsense.lidar_sim import (Pose2D, ScanPattern, VoxelRegion,
                                directivity_analysis, gen_pattern, rays_to_sensor_frame,
                                simulate_frame, transform_rays)
from airsense.mesh import TriangleMesh, icosphere, quadcopter_mesh
from airsense.metrics import aggregate, classify, iou3d
from airsense.pointio import (ScanFrame, read_columnar, read_las, window_frames,
                              write_columnar)
from airsense.raytrace import Bvh
from airsense.spconv import FeatureMap, KernelTensor, Sites, conv, gather_conv
from airsense.tracker import replay
from oracles import face_cosines, masked_sites


def _verdict(num, desc):
    print(f"\ncriterion {num:02d}: PASS - {desc}")


def criterion(num, short_desc):
    """Print the FAIL verdict line before letting pytest report the details;
    passing tests print their own dynamic PASS line via _verdict."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num:02d}: FAIL - {short_desc}")
                raise
        return wrapper
    return deco


def _random_sparse_map(r, p, q, c, density):
    mask = r.random((p, q)) < density
    values = r.normal(size=(p, q, c)).astype(np.float32) * mask[:, :, None]
    return FeatureMap(values), mask


@criterion(1, "engine outputs vs dense gather oracle")
def test_criterion_01_engines_match_dense_gather_oracle():
    r = np.random.default_rng(101)
    t0 = time.perf_counter()
    for case in range(1000):
        p, q = int(r.integers(1, 33)), int(r.integers(1, 33))
        c, f = int(r.integers(1, 9)), int(r.integers(1, 9))
        k = int(r.choice([1, 3, 5]))
        stride = int(r.choice([1, 2]))
        density = float(r.uniform(0.0, 1.0))
        fm, mask = _random_sparse_map(r, p, q, c, density)
        kernel = KernelTensor(r.normal(size=(f, k, k, c)).astype(np.float32))
        sites = masked_sites(fm, mask)

        ref = gather_conv(fm, kernel, stride)
        got_dense, _ = conv(Sites.from_dense(fm), kernel, stride)
        np.testing.assert_allclose(got_dense.to_dense().values, ref.values, atol=1e-5)
        got_sparse, _ = conv(sites, kernel, stride)
        np.testing.assert_allclose(got_sparse.to_dense().values, ref.values, atol=1e-5)

        got_t, _ = conv(sites, kernel, stride, transposed=True)
        upsampled = np.zeros((p * stride, q * stride, c), dtype=np.float32)
        upsampled[::stride, ::stride] = fm.values
        ref_t = gather_conv(FeatureMap(upsampled), kernel)
        np.testing.assert_allclose(got_t.to_dense().values, ref_t.values, atol=1e-5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"1000 cases took {elapsed:.1f}s, budget is 60s"
    _verdict(1, f"1000 randomized cases, three engines vs gather oracle at 1e-5 "
                f"({elapsed:.1f}s)")


@criterion(2, "submanifold closure and masked dense oracle")
def test_criterion_02_submanifold_closure():
    r = np.random.default_rng(202)
    for case in range(500):
        p, q = int(r.integers(1, 25)), int(r.integers(1, 25))
        c, f = int(r.integers(1, 7)), int(r.integers(1, 7))
        k = int(r.choice([1, 3, 5]))
        fm, mask = _random_sparse_map(r, p, q, c, float(r.uniform(0.0, 0.8)))
        sites = masked_sites(fm, mask)
        kernel = KernelTensor(r.normal(size=(f, k, k, c)).astype(np.float32))
        out, _ = conv(sites, kernel, out="same")
        assert np.array_equal(out.keys, sites.keys)  # set equality, exact
        ref = gather_conv(fm, kernel)  # masked input is already zero elsewhere
        got_at_sites = out.feats
        ref_at_sites = ref.values.reshape(p * q, f)[sites.keys]
        np.testing.assert_allclose(got_at_sites, ref_at_sites, atol=1e-5)
    _verdict(2, "500 cases: active set preserved exactly, values match masked "
                "dense oracle at 1e-5")


@criterion(3, "MAC law and fixture wall-clock race")
def test_criterion_03_mac_law_and_fixture_speed():
    r = np.random.default_rng(303)
    for case in range(100):
        p, q = int(r.integers(2, 25)), int(r.integers(2, 25))
        c, f = int(r.integers(1, 7)), int(r.integers(1, 7))
        k = int(r.choice([1, 3, 5]))
        fm, mask = _random_sparse_map(r, p, q, c, float(r.uniform(0.0, 1.0)))
        sites = masked_sites(fm, mask)
        kernel = KernelTensor(r.normal(size=(f, k, k, c)).astype(np.float32))
        _, macs = conv(sites, kernel, 1)
        assert macs == len(sites.keys) * k * k * c * f  # exact

    # stand-in for the hardware speedup claim: on the published fixture
    # geometry the sparse engine must beat the dense engine on this machine
    p = q = 504
    sites = 5124
    c = f = 64
    flat = r.choice(p * q, size=sites, replace=False)
    mask = np.zeros(p * q, dtype=bool)
    mask[flat] = True
    mask = mask.reshape(p, q)
    values = np.zeros((p, q, c), dtype=np.float32)
    values[mask] = r.normal(size=(sites, c)).astype(np.float32)
    fm = FeatureMap(values)
    sparse_in = masked_sites(fm, mask)
    kernel = KernelTensor((r.normal(size=(f, 3, 3, c)) / 24.0).astype(np.float32))

    conv(sparse_in, kernel)[0].to_dense()  # warm up
    t0 = time.perf_counter()
    dense_out, dense_macs = conv(Sites.from_dense(fm), kernel)
    dense_out = dense_out.to_dense()
    t_dense = time.perf_counter() - t0
    t0 = time.perf_counter()
    sparse_out, sparse_macs = conv(sparse_in, kernel)
    sparse_out = sparse_out.to_dense()
    t_sparse = time.perf_counter() - t0

    assert t_sparse < t_dense, f"sparse {t_sparse:.3f}s vs dense {t_dense:.3f}s"
    ratio = sparse_macs / dense_macs
    assert abs(ratio - 0.0202) <= 0.0001
    np.testing.assert_allclose(sparse_out.values, dense_out.values, atol=1e-5)
    _verdict(3, f"MAC law exact on 100 cases; fixture sparse {t_sparse:.2f}s < "
                f"dense {t_dense:.2f}s, MAC ratio {ratio:.4f} = 0.0202 +/- 0.0001")


@criterion(4, "backbone engine agreement")
def test_criterion_04_backbone_engine_agreement():
    r = np.random.default_rng(404)
    spec = BackboneSpec(block_channels=(8, 16, 32), up_channels=16)
    weights = make_backbone_weights(spec, in_channels=4, rng=r)
    worst = 0.0
    for case in range(20):
        x = Sites.from_dense(FeatureMap(r.normal(size=(16, 16, 4)).astype(np.float32)))
        outs = {}
        for engine in ENGINES:
            out, report = run_backbone(x, spec, weights, engine=engine)
            outs[engine] = out.values
            assert len(report.layers) == 19
        d1 = np.abs(outs["dense"] - outs["sparse"]).max()
        d2 = np.abs(outs["dense"] - outs["sparse+submanifold"]).max()
        worst = max(worst, d1, d2)
        assert d1 <= 1e-4 and d2 <= 1e-4
    _verdict(4, f"20 full 16x16 inputs through [4,6,6]+3 deconvs, three engines "
                f"agree at 1e-4 (worst {worst:.2e})")


@criterion(5, "ray transform vs rotate-the-mesh oracle")
def test_criterion_05_ray_transform_equivalence():
    r = np.random.default_rng(505)
    mesh = icosphere(0.8, 3)  # 1280 triangles, under the 5k cap
    assert mesh.num_triangles <= 5000
    bvh = Bvh(mesh)
    sub = gen_pattern(ScanPattern(seed=55), 100.0)[0][::16]
    worst = 0.0
    total_hits = 0
    for case in range(100):
        yaw = float(r.uniform(-math.pi, math.pi))
        x = r.uniform(3.0, 45.0)
        t = np.array([x, r.uniform(-0.3, 0.3) * x, r.uniform(-0.3, 0.3) * x])
        assert np.linalg.norm(t) <= 50.0
        pose = Pose2D(yaw, tuple(t))
        apex, local = transform_rays(sub, pose)
        t_hit, tri = bvh.intersect(np.broadcast_to(apex, local.shape), local)
        hit = tri >= 0
        posed = TriangleMesh(mesh.vertices @ pose.rotation().T + t, mesh.faces.copy())
        ref_t, ref_tri = Bvh(posed).intersect(np.zeros_like(sub), sub)
        assert np.array_equal(hit, ref_tri >= 0)
        if hit.any():
            back = rays_to_sensor_frame(apex + t_hit[hit, None] * local[hit], pose)
            worst = max(worst, float(np.abs(back - ref_t[hit, None] * sub[hit]).max()))
            total_hits += int(hit.sum())
    assert worst <= 1e-6
    assert total_hits > 0
    _verdict(5, f"100 poses: ray-transform hits match rotate-the-mesh oracle "
                f"(worst {worst:.2e} m over {total_hits} hits)")


@criterion(6, "ray budget and field-of-view bounds")
def test_criterion_06_ray_budget_and_fov():
    dirs = gen_pattern(ScanPattern(seed=66), 100.0)[0]
    assert abs(len(dirs) - 24_000) <= 1
    az = np.degrees(np.arctan2(dirs[:, 1], dirs[:, 0]))
    el = np.degrees(np.arcsin(np.clip(dirs[:, 2], -1.0, 1.0)))
    assert np.abs(az).max() <= 70.4 / 2 + 1e-9
    assert np.abs(el).max() <= 77.2 / 2 + 1e-9
    _verdict(6, f"100 ms pattern: {len(dirs)} rays inside 70.4 x 77.2 degrees")


@criterion(7, "Lambertian intensity values")
def test_criterion_07_lambertian_values():
    # pi/3 is not representable, so equality is checked to within one unit
    # in the last place of the cosine there
    near = math.radians(89.9)
    normal, sixty, grazing = face_cosines(0.0, math.pi / 3, near)
    assert normal == 1.0
    assert abs(sixty - 0.5) <= 1e-15
    assert grazing == math.cos(near)
    # a simulated return's intensity is its hit's cosine, for a unit I0
    pattern, mesh = ScanPattern(points_per_second=24_000, seed=77), quadcopter_mesh()
    pose = Pose2D(0.3, tuple(np.array([10.0, 0.5, 0.0]) - mesh.center()))
    bvh = Bvh(mesh)
    sim = simulate_frame(pattern, bvh, pose, 100.0)
    apex, local = transform_rays(gen_pattern(pattern, 100.0)[0], pose)
    _, tri = bvh.intersect(np.broadcast_to(apex, local.shape), local)
    hit = tri >= 0
    cosines = np.minimum(np.abs(np.sum(local[hit] * mesh.normals[tri[hit]], axis=1)), 1.0)
    assert len(sim.frame) > 0
    assert sim.frame.intensity.tobytes() == cosines.tobytes()
    _verdict(7, f"I(0)=I0 exact, I(60deg)=I0/2 to 1e-15, I(89.9deg)=I0 cos 89.9deg "
                f"exact; {len(sim.frame)} simulated intensities equal their cosines")


@criterion(8, "directivity monotonicity and preset nesting")
def test_criterion_08_directivity_monotonicity_and_preset_nesting():
    pattern = ScanPattern(points_per_second=24_000, seed=88)
    mesh = quadcopter_mesh()
    region = VoxelRegion((8.0, 13.0), (-2.5, 2.5), (-2.5, 2.5))  # 5x5x5 voxels
    assert len(region.centers()) == 125
    g100 = directivity_analysis(pattern, mesh, 100.0, 4, region)
    g200 = directivity_analysis(pattern, mesh, 200.0, 4, region)
    assert (g200.counts >= g100.counts).all()
    set4 = {tuple(c) for c in g100.centers[g100.included()]}
    g14 = directivity_analysis(pattern, mesh, 100.0, 14, region)
    assert np.array_equal(g14.counts, g100.counts)  # same seed, same scan
    set14 = {tuple(c) for c in g14.centers[g14.included()]}
    assert set14 <= set4
    _verdict(8, f"5x5x5 grid: 200 ms >= 100 ms voxelwise; preset sets nested "
                f"(|T14|={len(set14)} <= |T4|={len(set4)})")


def _make_real_frames(n, rng, pattern, mesh):
    bvh = Bvh(mesh)
    frames = []
    k = 0
    while len(frames) < n:
        k += 1
        loc = np.array([rng.uniform(9, 14), rng.uniform(-2, 2), rng.uniform(-1, 1)])
        yaw = float(rng.uniform(-math.pi, math.pi))
        sim = simulate_frame(pattern, bvh, Pose2D(yaw, tuple(loc)), 100.0)
        if not sim.accepted:
            continue
        n_bg = int(rng.integers(60, 150))
        pts = np.column_stack([rng.uniform(5, 50, n_bg), rng.uniform(-18, 18, n_bg),
                               rng.uniform(-6, 6, n_bg)])
        bg = ScanFrame(pts, rng.uniform(0, 1, n_bg),
                       np.sort(rng.integers(0, 100_000, n_bg)).astype(np.int64),
                       0, 100_000)
        lf, _ = synth_insert(bg, sim.frame, loc, yaw)
        frames.append(lf)
    return frames


@criterion(9, "augmentation pairing audit")
def test_criterion_09_augmentation_pairing_audit():
    rng = np.random.default_rng(909)
    pattern = ScanPattern(points_per_second=48_000, seed=99)
    mesh = quadcopter_mesh()
    real = _make_real_frames(10, rng, pattern, mesh)
    plan = AugPlan(background_pool=10, instances=50,
                   region=VoxelRegion((9.0, 14.0), (-2.0, 2.0), (-1.0, 1.0)),
                   seed=9)
    pair = build_datasets(plan, real, mesh, pattern)
    assert len(pair.data_sim) == len(pair.data_euc) == 50

    for i, row in enumerate(pair.manifest):
        sim_lf, euc_lf = pair.data_sim[i], pair.data_euc[i]
        # identical insertion centers
        assert sim_lf.boxes[0].center.tolist() == row["insertion"]
        assert euc_lf.boxes[0].center.tolist() == row["insertion"]
        # background identity: the points outside the label box coincide
        sim_bg = sim_lf.frame.points[~points_in_box(sim_lf.frame.points,
                                                    sim_lf.boxes[0])]
        euc_bg = euc_lf.frame.points[~points_in_box(euc_lf.frame.points,
                                                    euc_lf.boxes[0])]
        assert np.array_equal(sim_bg[np.lexsort(sim_bg.T)],
                              euc_bg[np.lexsort(euc_bg.T)])
        # admission rule on every emitted label
        for lf in (sim_lf, euc_lf):
            assert points_in_box(lf.frame.points, lf.boxes[0]).sum() >= 10

    # rigid-baseline clusters pass the isometry check
    from airsense.augment import euclidean_augment, split_frame
    for src in real[:5]:
        drone, _ = split_frame(src)
        moved = euclidean_augment(drone.points, drone.points.mean(axis=0),
                                  [20.0, 1.0, 0.5], 0.7)
        d_in = np.linalg.norm(drone.points[:, None] - drone.points[None], axis=2)
        d_out = np.linalg.norm(moved[:, None] - moved[None], axis=2)
        assert np.abs(d_in - d_out).max() <= 1e-9
    _verdict(9, "50 paired frames: sizes equal, backgrounds identical, centers "
                "equal, labels >= 10 points, rigid isometry at 1e-9")


@criterion(10, "metric identities")
def test_criterion_10_metric_identities():
    # published operating point: P=0.96, R=0.80; the table truncates the
    # harmonic mean 0.87272... to 0.872
    out = aggregate([(96 * 5, 4 * 5, 120)])
    assert out.precision == pytest.approx(0.96, abs=1e-12)
    assert out.recall == pytest.approx(0.80, abs=1e-12)
    assert out.f1 == pytest.approx(2 * 0.96 * 0.80 / 1.76, abs=1e-12)
    assert math.floor(out.f1 * 1000) / 1000 == 0.872

    r = np.random.default_rng(1010)
    for case in range(200):
        dets = [Box3D(*r.uniform(-5, 5, 3), *r.uniform(0.5, 2, 3),
                      yaw=r.uniform(-3, 3)) for _ in range(int(r.integers(0, 6)))]
        gts = [Box3D(*r.uniform(-5, 5, 3), *r.uniform(0.5, 2, 3),
                     yaw=r.uniform(-3, 3)) for _ in range(int(r.integers(0, 6)))]
        tp, fp, fn = classify(dets, gts, 0.30)
        assert tp + fn == len(gts)
        assert tp + fp == len(dets)

    v = iou3d([Box3D(0, 0, 0, 1, 1, 1)], [Box3D(0.5, 0, 0, 1, 1, 1)])[0, 0]
    assert abs(v - 1.0 / 3.0) <= 1e-9
    _verdict(10, "F1(0.96, 0.80) truncates to 0.872; conservation on 200 "
                 "frames; offset unit cubes at 1/3")


@criterion(11, "tracker replay: alert frame and dropout error")
def test_criterion_11_tracker_replay():
    rng = np.random.default_rng(1111)
    # scripted two-target fly-by closing from 20 m at 0.1 m per frame:
    # distance < 15 m first at frame 51
    frames, dets = [], []
    for k in range(80):
        a = np.array([10.0, 10.0 - 0.05 * k, 0.0])
        b = np.array([10.0, -10.0 + 0.05 * k, 0.0])
        pts = np.vstack([a + rng.normal(scale=0.1, size=(15, 3)),
                         b + rng.normal(scale=0.1, size=(15, 3))])
        t0 = k * 100_000
        frames.append(ScanFrame(pts, np.full(30, 0.5),
                                np.full(30, t0 + 50_000, dtype=np.int64),
                                t0, 100_000))
        dets.append([Box3D(*a, 1.6, 1.6, 1.0), Box3D(*b, 1.6, 1.6, 1.0)])
    _, alerts, _ = replay(frames, dets)
    first = min(row["frame"] for row in alerts)
    assert first == 51

    # constant-velocity target with 30% dropout over 100 frames
    spacing = 0.25
    side = np.arange(-0.6, 0.61, spacing)
    gx, gy = np.meshgrid(side, side)
    template = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    vel = np.array([2.0, 1.0, 0.0])
    frames, dets, truth = [], [], []
    drop = rng.random(100) < 0.3
    drop[:2] = False
    for k in range(100):
        center = np.array([10.0, -5.0, 0.0]) + vel * (0.1 * k)
        truth.append(center)
        t0 = k * 100_000
        pts = template + center
        frames.append(ScanFrame(pts, np.full(len(pts), 0.5),
                                np.full(len(pts), t0 + 50_000, dtype=np.int64),
                                t0, 100_000))
        dets.append([] if drop[k] else [Box3D(*center, 1.6, 1.6, 1.0)])
    log, _, _ = replay(frames, dets)
    centers = {row["frame"]: np.array([row["box"]["x"], row["box"]["y"],
                                       row["box"]["z"]]) for row in log}
    errs = [float(np.linalg.norm(centers[k] - truth[k])) for k in range(100)]
    assert max(errs) <= 2 * spacing, f"max error {max(errs):.3f}"
    _verdict(11, f"first alert exactly at frame 51; dropout-track error "
                 f"{max(errs):.3f} m <= {2 * spacing} m over 100 frames")


@criterion(12, "z residual and focal term unit checks")
def test_criterion_12_residual_and_focal_unit_checks():
    anchor = Box3D(0.0, 0.0, 4.5, 1.6, 1.6, 1.0)
    assert encode_box(Box3D(0.0, 0.0, 5.0, 1.6, 1.6, 1.0), anchor)[2] == 0.5
    assert focal_cls_term(1.0) == 0.0
    assert focal_cls_term(0.0) == -0.25
    assert focal_cls_term(0.5) == -0.0625
    _verdict(12, "z residual (5.0, 4.5, 1.0) -> 0.5; focal term at p=1, 0, 0.5")


@criterion(13, "I/O round-trips")
def test_criterion_13_io_round_trips(tmp_path):
    # columnar: byte identical after one canonical write
    r = np.random.default_rng(1313)
    cols = r.uniform([-50, -50, -20, 0], [50, 50, 20, 1], size=(200, 4))
    frame = ScanFrame(cols[:, :3], cols[:, 3], np.arange(200) * 1500, 0, 200 * 1500)
    path_a = tmp_path / "a.xyz"
    path_b = tmp_path / "b.xyz"
    write_columnar(path_a, [frame])
    write_columnar(path_b, read_columnar(path_a))
    assert path_a.read_bytes() == path_b.read_bytes()

    # LAS fixture decodes to hand-computed coordinates
    las = tmp_path / "fix.las"
    header = bytearray(227)
    header[0:4] = b"LASF"
    header[24], header[25] = 1, 2
    struct.pack_into("<H", header, 94, 227)
    struct.pack_into("<I", header, 96, 227)
    header[104] = 3
    struct.pack_into("<H", header, 105, 34)
    struct.pack_into("<I", header, 107, 2)
    struct.pack_into("<ddd", header, 131, 0.01, 0.01, 0.01)
    struct.pack_into("<ddd", header, 155, 10.0, 20.0, 30.0)
    body = b""
    for xi, yi, zi, inten, gps in ((250, -100, 50, 65535, 0.125), (0, 1, 2, 0, 2.5)):
        body += struct.pack("<iiiHBBbBH", xi, yi, zi, inten, 0x11, 0, 0, 0, 0)
        body += struct.pack("<d", gps) + struct.pack("<HHH", 0, 0, 0)
    las.write_bytes(bytes(header) + body)
    (blk,) = read_las(las)
    assert blk.points[0, 0] == pytest.approx(12.5, abs=1e-12)   # 10 + 250*0.01
    assert blk.points[0, 1] == pytest.approx(19.0, abs=1e-12)   # 20 - 100*0.01
    assert blk.points[0, 2] == pytest.approx(30.5, abs=1e-12)   # 30 + 50*0.01
    assert blk.intensity[0] == 1.0
    assert blk.t_us[0] == 125_000
    assert blk.t_us[1] == 2_500_000

    # windowing partitions the stream exactly
    t = np.sort(r.integers(0, 800_000, 400)).astype(int)
    points = np.zeros((400, 3))
    points[:, 0] = np.arange(400)
    stream = [ScanFrame(points, np.zeros(400), t, int(t[0]), int(t[-1] - t[0]) + 1)]
    frames = list(window_frames(stream, 100.0))
    assert sum(len(f) for f in frames) == 400
    ids = sorted(p for f in frames for p in f.points[:, 0].tolist())
    assert ids == [float(i) for i in range(400)]
    _verdict(13, "columnar byte-lossless; LAS fixture decodes to hand values; "
                 "windowing partitions exactly")
