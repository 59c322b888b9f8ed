"""Nearest ray-triangle hits over a bounding volume hierarchy.

Bvh.intersect takes arrays of ray origins and unit directions and returns
each ray's nearest hit as a distance and a triangle id (inf and -1 for a
miss); what a hit means, its point and its return, is the caller's. The BVH
is built once per mesh, by one recursive median split of triangle centroids
along each box's longest axis, and is never rebuilt: posed queries move the
rays into the mesh rest frame instead. Each leaf keeps its triangle ids in
ascending order with their v0 and edges.

Traversal is batched: the rays' origins, directions and inverse directions
go down the tree as one (9, n) block of columns. Every node runs the slab
test one axis at a time, narrows the columns to the rays that reach its box
and hands them to its children; every leaf runs the Moller-Trumbore test on
components, rays against its triangles. The results are bit for bit those of
gathering each node's rays by index and reducing over the length-3 axis (the
index-array traversal the tests keep as an oracle): min and max are exact,
the dot products add in the same order, and nodes are visited in the same
order, so pruning and triangle_tests agree too.

The tree is shallow, with up to _LEAF_SIZE = 12 triangles a leaf, as shallow
BVHs serve SIMD tracers (Dammertz, Hanika and Keller, EGSR 2008): every node
a batch visits costs a fixed ~20 numpy calls however few rays reach it,
while one more triangle in a leaf costs only element work. The leaf size
changes the work, not the hits, on the simulator's rays; grazing and tied
rays can resolve differently when the node boxes move, since the pruning
test compares the slab's entry distance with a Moller-Trumbore distance
rounded another way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh

__all__ = ["Bvh"]

_EPS_DET = 1e-12
_T_MIN = 1e-9
# Most triangles a leaf holds, sized for the batched traversal (module
# docstring). Medians of 41 interleaved rounds on 2 vCPUs, against leaf 4:
# simulate_frame over 8 rosette poses 10-35 m out (a 24,000-ray window) on
# the drone, icosphere(0.8, 2) and icosphere(0.8, 3), and the offline
# benchmark's 50-voxel directivity block on the drone:
#
#   leaf   drone (36)   ico 2 (320)   ico 3 (1280)   block     worst
#      4   19.4 ms      75.1 ms       160.7 ms       16.8 ms
#      8   -11 %        -30 %         -28 %          -1 %      -1 %
#     12   -23 %        -52 %         -53 %          -10 %     -10 %
#     16   -27 %        -54 %         -55 %          -10 %     -10 %
#     24   -34 %        -63 %         -67 %          +1 %      +1 %
#
# 12 and 16 build the same trees on these meshes (the drone's is 7 nodes and
# 4 leaves of 9, from 23 nodes and 12 leaves at 4), so the smaller bound is
# kept; at 24 the block is no faster than at 4. Leaf 12 against 4 in 81 more
# rounds: the block -11.7 % (72/81), the CLI-default 900-voxel region -6.9 %
# (18/21).
_LEAF_SIZE = 12


def _moller_trumbore(o, d, v0, e1, e2):
    """The Moller-Trumbore test on components: each argument is an x, y, z
    sequence of mutually broadcasting arrays, e1 and e2 the triangles' edges
    from v0. Returns (valid, t, u, v). Boundary hits (u or v at 0 or 1)
    count as hits so shared edges of a watertight mesh never leak. The dot
    products add left to right, which gives the bits of np.sum over a
    length-3 axis except for the sign of an exact zero sum; no comparison
    below and no hit (t > _T_MIN) depends on that sign."""
    px, py, pz = _cross(d, e2)
    det = e1[0] * px + e1[1] * py + e1[2] * pz
    valid = np.abs(det) > _EPS_DET
    inv_det = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
    tvec = (o[0] - v0[0], o[1] - v0[1], o[2] - v0[2])
    u = (tvec[0] * px + tvec[1] * py + tvec[2] * pz) * inv_det
    qx, qy, qz = _cross(tvec, e1)
    v = (d[0] * qx + d[1] * qy + d[2] * qz) * inv_det
    t = (e2[0] * qx + e2[1] * qy + e2[2] * qz) * inv_det
    valid &= (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (u + v <= 1.0) & (t > _T_MIN)
    return valid, t, u, v


def _cross(a, b):
    """Cross product of x, y, z component sequences. Each component is the
    same product difference that np.cross forms, so the bits agree."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


@dataclass
class _Node:
    lo: np.ndarray
    hi: np.ndarray
    left: int = -1
    right: int = -1
    # leaves: triangle ids in ascending order, then v0, e1 and e2 of those
    # triangles as (3, count, 1) columns; empty for inner nodes
    leaf: tuple = ()


class Bvh:
    """Median-split hierarchy over triangle centroids, at most _LEAF_SIZE
    triangles per leaf. Triangle test counts are tracked to make traversal
    pruning observable in tests."""

    def __init__(self, mesh: TriangleMesh):
        if mesh.num_triangles == 0:
            raise ValueError("cannot build a hierarchy over an empty mesh")
        self.mesh = mesh
        self.nodes: list[_Node] = []
        self.triangle_tests = 0
        a, b, c = mesh.triangles()
        self._split(np.arange(mesh.num_triangles), (a, b, c),
                    np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c),
                    (a + b + c) / 3.0)

    def _split(self, ids, tris, tri_lo, tri_hi, centroids):
        """Append the node over triangles ids, then fill it as a leaf or sort
        ids by centroid along its box's longest axis and append the subtrees
        of the halves. Depth <= ceil(log2(n / _LEAF_SIZE)) + 1."""
        node = _Node(tri_lo[ids].min(axis=0), tri_hi[ids].max(axis=0))
        self.nodes.append(node)
        if ids.size <= _LEAF_SIZE:
            ids = np.sort(ids)
            v0, v1, v2 = (x[ids] for x in tris)
            node.leaf = (ids,) + tuple(x.T[:, :, None].copy() for x in (v0, v1 - v0, v2 - v0))
            return
        axis = int(np.argmax(node.hi - node.lo))
        ids = ids[np.argsort(centroids[ids, axis], kind="stable")]
        mid = ids.size // 2
        node.left = len(self.nodes)
        self._split(ids[:mid], tris, tri_lo, tri_hi, centroids)
        node.right = len(self.nodes)
        self._split(ids[mid:], tris, tri_lo, tri_hi, centroids)

    def intersect(self, origins, directions) -> tuple[np.ndarray, np.ndarray]:
        """Nearest hit of each ray given by origins and unit directions, (n, 3)
        each: its distance t along the ray and its triangle id, inf and -1
        where it misses; ties go to the lowest triangle id. Unequal counts,
        non-finite values or non-unit directions raise ValueError."""
        origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
        dirs = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
        if len(origins) != len(dirs):
            raise ValueError(f"origins and directions must share length, got "
                             f"{len(origins)} and {len(dirs)}")
        for name, rays in (("origins", origins), ("directions", dirs)):
            if not np.isfinite(rays).all():
                raise ValueError(f"{name} must be finite")
        if not (np.abs(np.linalg.norm(dirs, axis=1) - 1.0) <= 1e-9).all():
            raise ValueError("directions must be unit length")
        n = len(dirs)
        best_t = np.full(n, np.inf)
        best_tri = np.full(n, -1, dtype=np.int64)
        # clamp tiny components instead of letting 1/0 produce inf: keeps the
        # slab arithmetic finite (0 * inf would poison the interval with NaN)
        denom = np.where(np.abs(dirs) < 1e-12, np.copysign(1e-12, dirs), dirs)
        # rows 0-2 origin, 3-5 direction, 6-8 inverse direction; every node
        # hands its children the columns of the rays that reach its box
        cols = np.concatenate((origins.T, dirs.T, (1.0 / denom).T))
        del denom

        stack = [(0, np.arange(n), cols)]
        while stack:
            node_id, rays, cols = stack.pop()
            node = self.nodes[node_id]
            o, inv = cols[0:3], cols[6:9]
            t0 = (node.lo[:, None] - o) * inv
            t1 = (node.hi[:, None] - o) * inv
            near = np.minimum(t0, t1)
            far = np.maximum(t0, t1, out=t1)
            tn = np.maximum(np.maximum(near[0], near[1]), near[2])
            tf = np.minimum(np.minimum(far[0], far[1]), far[2])
            # freed before the narrowing take, which copies the columns
            del o, inv, t0, t1, near, far
            alive = (tf >= np.maximum(tn, 0.0)) & (tn <= best_t[rays])
            if not alive.all():
                keep = np.flatnonzero(alive)
                if keep.size == 0:
                    continue
                rays = rays[keep]
                cols = cols.take(keep, axis=1)
            if node.leaf:
                tri_ids, v0, e1, e2 = node.leaf
                self.triangle_tests += rays.size * tri_ids.size
                valid, t, _, _ = _moller_trumbore(cols[0:3, None], cols[3:6, None], v0, e1, e2)
                # (triangles, rays); nearest hit, ties to the lowest triangle id
                t = np.where(valid, t, np.inf)
                tmin = t.min(axis=0)
                first = tri_ids[np.argmax(t == tmin, axis=0)]
                best = best_t[rays]
                upd = (tmin < best) | ((tmin == best) & (tmin < np.inf)
                                       & (first < best_tri[rays]))
                if upd.any():
                    sel = rays[upd]
                    best_t[sel] = tmin[upd]
                    best_tri[sel] = first[upd]
            else:
                stack.append((node.left, rays, cols))
                stack.append((node.right, rays, cols))

        return best_t, best_tri
