"""Oracles and fixture writers that more than one test module uses."""

import math
import struct

import numpy as np

from airsense.boxes import Box3D, points_in_box, rot_z
from airsense.lidar_sim import (MIN_CLUSTER_HITS, _in_cone, _in_fov, _lambertian, _root_sphere,
                                gen_pattern)
from airsense.mesh import TriangleMesh, box_mesh
from airsense.pointio import (LAS_HEADER_SIZE, LAS_PRF3_RECORD_SIZE, BadMagic,
                              NonMonotonicTimestamps, ScanFrame, TruncatedFile,
                              UnsupportedFormat)
from airsense.raytrace import Bvh
from airsense.spconv import FeatureMap, KernelTensor, Sites, gather_conv


def masked_sites(fm, mask):
    """The cells of the FeatureMap fm set in the boolean (p, q) mask, as
    Sites in row-major key order."""
    keys = np.flatnonzero(mask)
    return Sites(fm.p, fm.q, keys, fm.values.reshape(fm.p * fm.q, -1)[keys])


def posed_mesh(mesh, yaw=0.0, offset=(0.0, 0.0, 0.0)):
    """mesh's vertices turned by yaw about z, then moved by offset."""
    return TriangleMesh(mesh.vertices @ rot_z(yaw).T + np.asarray(offset, dtype=np.float64),
                        mesh.faces)


def reach_oracle(mask, k, stride=1, transposed=False):
    """Cells a k x k scatter from the masked cells reaches, by gathering with
    an all-ones kernel."""
    m = mask.astype(np.float32)[:, :, None]
    if transposed:
        up = np.zeros((m.shape[0] * stride, m.shape[1] * stride, 1), dtype=np.float32)
        up[::stride, ::stride] = m
        m, stride = up, 1
    ones = KernelTensor(np.ones((1, k, k, 1), dtype=np.float32))
    return gather_conv(FeatureMap(m), ones, stride).values[:, :, 0] > 0


def backbone_oracle(x, spec, weights, submanifold=False):
    """The backbone graph as a chain of float64 gather convolutions: each
    block convolution is `gather_conv` on the whole grid, each deconvolution
    zero insertion plus `gather_conv`; the upsampled maps are cropped to the
    first one's size and concatenated, as `run_backbone` does. With
    `submanifold`, every block convolution but the first of its block keeps
    only the cells its block's first convolution reaches, as the
    sparse+submanifold engine does."""
    k = spec.kernel_size
    kernels = iter(weights)
    fm, mask, blocks = x.to_dense(), x.mask, []
    for n_convs, stride in zip(spec.block_convs, spec.block_strides):
        for i in range(n_convs):
            values = gather_conv(fm, next(kernels), stride if i == 0 else 1).values
            if i == 0:
                mask = reach_oracle(mask, k, stride)
            elif submanifold:
                values = values * mask[:, :, None]
            fm = FeatureMap(np.maximum(values, 0.0) if spec.relu else values)
        blocks.append(fm)
    ups = []
    for fm, stride in zip(blocks, spec.up_strides):
        up = np.zeros((fm.p * stride, fm.q * stride, fm.channels), dtype=np.float32)
        up[::stride, ::stride] = fm.values
        ups.append(gather_conv(FeatureMap(up), next(kernels)).values)
    p, q = ups[0].shape[:2]
    return np.concatenate([u[:p, :q] for u in ups], axis=2)


def read_las_records(path):
    """The record-by-record LAS reader: one `struct` unpack per PRF3 record,
    yielding (x, y, z, intensity, t_us) tuples."""
    with open(path, "rb") as fh:
        header = fh.read(LAS_HEADER_SIZE)
        if len(header) < LAS_HEADER_SIZE:
            raise TruncatedFile(f"{path}: header shorter than {LAS_HEADER_SIZE} bytes")
        if header[0:4] != b"LASF":
            raise BadMagic(f"{path}: not a LAS file (bad signature)")
        if (header[24], header[25]) != (1, 2) or header[104] != 3:
            raise UnsupportedFormat(f"{path}: need LAS 1.2, point record format 3")
        rec_len = struct.unpack_from("<H", header, 105)[0]
        if rec_len < LAS_PRF3_RECORD_SIZE:
            raise UnsupportedFormat(f"{path}: record length {rec_len} < {LAS_PRF3_RECORD_SIZE}")
        count = struct.unpack_from("<I", header, 107)[0]
        data_offset = struct.unpack_from("<I", header, 96)[0]
        sx, sy, sz = struct.unpack_from("<ddd", header, 131)
        ox, oy, oz = struct.unpack_from("<ddd", header, 155)
        fh.seek(data_offset)
        for i in range(count):
            rec = fh.read(rec_len)
            if len(rec) < rec_len:
                raise TruncatedFile(f"{path}: record {i} truncated")
            xi, yi, zi, inten = struct.unpack_from("<iiiH", rec, 0)
            gps = struct.unpack_from("<d", rec, 20)[0]
            yield (xi * sx + ox, yi * sy + oy, zi * sz + oz, inten / 65535.0,
                   round(gps * 1e6))


def window_records(records, window_ms=100.0):
    """The list-append windower over (x, y, z, intensity, t_us) tuples:
    half-open windows anchored at the first timestamp, empty ones skipped."""
    window_us = int(round(window_ms * 1000))
    t0 = last_t = cur_index = None
    buf_p, buf_i, buf_t = [], [], []

    def flush():
        return ScanFrame(np.array(buf_p, dtype=np.float64).reshape(-1, 3),
                         np.array(buf_i, dtype=np.float64),
                         np.array(buf_t, dtype=np.int64),
                         t0 + cur_index * window_us, window_us)

    for x, y, z, intensity, t in records:
        if last_t is not None and t < last_t:
            raise NonMonotonicTimestamps(
                f"timestamp {t} after {last_t}; stream must be time ordered")
        last_t = t
        if t0 is None:
            t0 = t
        idx = (t - t0) // window_us
        if cur_index is None:
            cur_index = idx
        if idx != cur_index:
            yield flush()
            buf_p, buf_i, buf_t = [], [], []
            cur_index = idx
        buf_p.append((x, y, z))
        buf_i.append(intensity)
        buf_t.append(t)
    if buf_p:
        yield flush()


_SLAB = Bvh(box_mesh((1.0, 4.0, 4.0)))


def face_cosines(*angles, inside=False):
    """simulate_frame's Lambertian intensity for rays that meet the -x face of an
    axis-aligned box_mesh at (-0.5, 0, 0.5), each at its angle (radians)
    from the face normal, in the plane z = 0.5. The rays come from outside
    the box, or with inside=True from within it. The face's normal is
    exactly (-1, 0, 0), so |d . n| is the ray's x component, math.cos of
    its angle, bit for bit."""
    d = np.array([[math.cos(a), math.sin(a), 0.0] for a in angles])
    if inside:
        d[:, 0] = -d[:, 0]
    origins = np.array([-0.5, 0.0, 0.5]) - 0.5 * d
    _, tri = _SLAB.intersect(origins, d)
    assert set(tri.tolist()) <= {0, 1}   # every ray hits the -x face
    return _lambertian(d, _SLAB.mesh.normals[tri])


def cross_product_mt(origins, directions, v0, v1, v2):
    """moller_trumbore as written with np.cross, its dot products as np.sum
    over the length-3 axis."""
    e1 = v1 - v0
    e2 = v2 - v0
    pvec = np.cross(directions, e2)
    det = np.sum(e1 * pvec, axis=-1)
    valid = np.abs(det) > 1e-12
    inv_det = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
    tvec = origins - v0
    u = np.sum(tvec * pvec, axis=-1) * inv_det
    qvec = np.cross(tvec, e1)
    v = np.sum(directions * qvec, axis=-1) * inv_det
    t = np.sum(e2 * qvec, axis=-1) * inv_det
    valid &= (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (u + v <= 1.0) & (t > 1e-9)
    return valid, t, u, v


def index_array_intersect(bvh, origins, dirs):
    """Bvh.intersect as index-array traversal over bvh's nodes: every node
    gathers its rays' origins and inverse directions by index and reduces the
    slab test over the length-3 axis, every leaf tests its triangles and
    ranks their ids to send ties to the lowest. Returns (t, triangle) and
    the number of ray-triangle tests, leaving bvh.triangle_tests alone."""
    v0, v1, v2 = bvh.mesh.triangles()
    n = len(dirs)
    tests = 0
    best_t = np.full(n, np.inf)
    best_tri = np.full(n, -1, dtype=np.int64)
    denom = np.where(np.abs(dirs) < 1e-12, np.copysign(1e-12, dirs), dirs)
    inv = 1.0 / denom
    stack = [(0, np.arange(n))]
    while stack:
        node_id, rays = stack.pop()
        node = bvh.nodes[node_id]
        t0 = (node.lo[None, :] - origins[rays]) * inv[rays]
        t1 = (node.hi[None, :] - origins[rays]) * inv[rays]
        tn = np.minimum(t0, t1).max(axis=1)
        tf = np.maximum(t0, t1).min(axis=1)
        alive = (tf >= np.maximum(tn, 0.0)) & (tn <= best_t[rays])
        rays = rays[alive]
        if rays.size == 0:
            continue
        if node.leaf:
            tri_ids = node.leaf[0]
            tests += rays.size * tri_ids.size
            valid, t, _, _ = cross_product_mt(
                origins[rays][:, None, :], dirs[rays][:, None, :],
                v0[tri_ids][None], v1[tri_ids][None], v2[tri_ids][None])
            t = np.where(valid, t, np.inf)
            tri_rank = np.argsort(tri_ids, kind="stable")
            t_ranked = t[:, tri_rank]
            k = np.argmin(t_ranked, axis=1)
            tmin = t_ranked[np.arange(rays.size), k]
            better = tmin < best_t[rays]
            tie = (tmin == best_t[rays]) & (tmin < np.inf) \
                & (tri_ids[tri_rank][k] < best_tri[rays])
            upd = better | tie
            sel = rays[upd]
            best_t[sel] = tmin[upd]
            best_tri[sel] = tri_ids[tri_rank][k[upd]]
        else:
            stack.append((node.left, rays))
            stack.append((node.right, rays))
    return (best_t, best_tri), tests


def points_in_box_oracle(points, box: Box3D) -> np.ndarray:
    """Containment by one full-frame (n, 3) difference, every clause on every
    point; boundaries are inclusive."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    d = pts - box.center
    c, s = math.cos(-box.yaw), math.sin(-box.yaw)
    lx = c * d[:, 0] - s * d[:, 1]
    ly = s * d[:, 0] + c * d[:, 1]
    return ((np.abs(lx) <= box.l / 2.0 + 1e-12)
            & (np.abs(ly) <= box.w / 2.0 + 1e-12)
            & (np.abs(d[:, 2]) <= box.h / 2.0 + 1e-12))


def recenter_oracle(prev_box: Box3D, frame: ScanFrame, velocity, dt_s: float):
    """tracker.recenter on points_in_box_oracle, with the heading's
    degenerate-scatter test written as np.allclose."""
    predicted = prev_box if velocity is None else prev_box.translated(
        np.asarray(velocity) * dt_s)
    inside = points_in_box_oracle(frame.points, predicted)
    if not inside.any():
        return None
    pts = frame.points[inside]
    centroid = pts.mean(axis=0)
    yaw = predicted.yaw
    if pts.shape[0] >= 2:
        xy = pts[:, :2] - pts[:, :2].mean(axis=0)
        cov = xy.T @ xy
        if not np.allclose(cov, 0.0):
            evals, evecs = np.linalg.eigh(cov)
            axis = evecs[:, int(np.argmax(evals))]
            yaw = math.atan2(axis[1], axis[0])
            if yaw <= -math.pi / 2:
                yaw += math.pi
            elif yaw > math.pi / 2:
                yaw -= math.pi
    return Box3D(centroid[0], centroid[1], centroid[2],
                 predicted.l, predicted.w, predicted.h, yaw)


def admitted(lf) -> bool:
    """The dataset admission rule: every box of the labeled frame encloses at
    least MIN_CLUSTER_HITS of its returns."""
    return all(points_in_box(lf.frame.points, b).sum() >= MIN_CLUSTER_HITS for b in lf.boxes)


LOOP_BATCH = 1 << 13


def loop_directivity(pattern, mesh, window_ms, region):
    """directivity_analysis's counts as a per-voxel loop: one cone test per
    in-view voxel, the kept rays of whole voxels gathered with np.repeat and
    np.concatenate into traversals of at most LOOP_BATCH rays (a voxel with
    more rays than that gets a traversal of its own), and each traversal's
    hits counted back per voxel."""
    centers = region.centers()
    counts = np.zeros(len(centers), dtype=np.int64)
    voxels = np.nonzero(_in_fov(centers, pattern))[0]
    offset = mesh.center()
    shift = centers[voxels] - offset if np.any(offset) else centers[voxels]
    bvh = Bvh(mesh)
    dirs = gen_pattern(pattern, window_ms)[0]
    apexes = -shift
    center, radius = _root_sphere(bvh)

    def count_hits(batch):
        if not batch:
            return
        ids, origins, kept = zip(*batch)
        sizes = [len(d) for d in kept]
        _, tri = bvh.intersect(np.repeat(origins, sizes, axis=0), np.concatenate(kept))
        counts[:] += np.bincount(np.repeat(ids, sizes)[tri >= 0], minlength=len(counts))

    batch, size = [], 0
    for voxel, apex in zip(voxels, apexes):
        kept = dirs[_in_cone((center - apex)[None], radius, dirs)[0]]
        if size + len(kept) > LOOP_BATCH:
            count_hits(batch)
            batch, size = [], 0
        batch.append((voxel, apex, kept))
        size += len(kept)
    count_hits(batch)
    return counts


# The scalar yawed-box overlap: one Sutherland-Hodgman clip over Python
# lists per pair. The batched iou3d/iou_bev must agree with it bit for bit.

def bev_corners(box: Box3D) -> np.ndarray:
    """Footprint corners (4, 2) in counterclockwise order."""
    hl, hw = box.l / 2.0, box.w / 2.0
    local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([box.x, box.y])


def polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a counterclockwise polygon (n, 2)."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex subject polygon against a convex
    counterclockwise clip polygon. Returns the (possibly empty) intersection."""
    output = [tuple(p) for p in subject]
    n = len(clip)
    for i in range(n):
        if not output:
            break
        a = clip[i]
        b = clip[(i + 1) % n]
        edge = (b[0] - a[0], b[1] - a[1])
        inputs = output
        output = []

        def inside(p):
            return edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) >= -1e-12

        for j, cur in enumerate(inputs):
            prev = inputs[j - 1]
            cur_in, prev_in = inside(cur), inside(prev)
            if cur_in:
                if not prev_in:
                    output.append(_edge_intersect(prev, cur, a, b))
                output.append(cur)
            elif prev_in:
                output.append(_edge_intersect(prev, cur, a, b))
    return np.array(output).reshape(-1, 2)


def _edge_intersect(p, q, a, b):
    dpq = (q[0] - p[0], q[1] - p[1])
    dab = (b[0] - a[0], b[1] - a[1])
    denom = dpq[0] * dab[1] - dpq[1] * dab[0]
    if abs(denom) < 1e-15:
        return q
    t = ((a[0] - p[0]) * dab[1] - (a[1] - p[1]) * dab[0]) / denom
    return (p[0] + t * dpq[0], p[1] + t * dpq[1])


def _bev_intersection_area(a: Box3D, b: Box3D) -> float:
    return polygon_area(clip_polygon(bev_corners(a), bev_corners(b)))


def iou_bev_pair(a: Box3D, b: Box3D) -> float:
    inter = _bev_intersection_area(a, b)
    union = a.l * a.w + b.l * b.w - inter
    return inter / union if union > 0 else 0.0


def iou3d_pair(a: Box3D, b: Box3D) -> float:
    """Intersection volume over union volume of two yawed boxes."""
    return iou3d_from_area(a, b, _bev_intersection_area(a, b))


def iou3d_from_area(a: Box3D, b: Box3D, area: float) -> float:
    """iou3d_pair's float steps given a's footprint clipped to b's, so boxes
    that share a footprint can share one clip."""
    z_lo = max(a.z - a.h / 2.0, b.z - b.h / 2.0)
    z_hi = min(a.z + a.h / 2.0, b.z + b.h / 2.0)
    dz = max(0.0, z_hi - z_lo)
    if dz == 0.0:
        return 0.0
    inter = area * dz
    union = a.l * a.w * a.h + b.l * b.w * b.h - inter
    return inter / union if union > 0 else 0.0


def classify_pairs(dets, gts, iou_thr=0.30, use_bev=False):
    """Greedy best-overlap matching, one scalar IoU per pair."""
    overlap = iou_bev_pair if use_bev else iou3d_pair
    pairs = []
    for di, d in enumerate(dets):
        for gi, g in enumerate(gts):
            v = overlap(d, g)
            if v >= iou_thr:
                pairs.append((v, di, gi))
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_d, used_g = set(), set()
    tp = 0
    for v, di, gi in pairs:
        if di in used_d or gi in used_g:
            continue
        used_d.add(di)
        used_g.add(gi)
        tp += 1
    return tp, len(dets) - tp, len(gts) - tp


def nms_pairs(boxes, scores, iou_thr=0.5):
    """Greedy score-descending suppression, one scalar IoU per pair."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        if all(iou3d_pair(boxes[i], boxes[j]) <= iou_thr for j in kept):
            kept.append(i)
    return kept
