"""Ray-triangle intersection over a bounding volume hierarchy.

The BVH is built once per mesh by median-splitting triangle centroids and is
never rebuilt: posed queries are handled upstream by transforming the rays
into the mesh rest frame. Traversal is batched, carrying the whole ray set
down the tree and narrowing it at every node, which keeps the inner loops in
vectorized code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh

__all__ = ["RayBundle", "HitBatch", "Bvh", "moller_trumbore"]

_EPS_DET = 1e-12
_T_MIN = 1e-9


@dataclass
class RayBundle:
    """Batch of rays sharing a timeline: origins (n, 3), unit directions
    (n, 3), timestamps (n,) int64 microseconds."""

    origins: np.ndarray
    directions: np.ndarray
    t_us: np.ndarray

    def __post_init__(self):
        self.origins = np.asarray(self.origins, dtype=np.float64).reshape(-1, 3)
        self.directions = np.asarray(self.directions, dtype=np.float64).reshape(-1, 3)
        self.t_us = np.asarray(self.t_us, dtype=np.int64).reshape(-1)
        if not (len(self.origins) == len(self.directions) == len(self.t_us)):
            raise ValueError("bundle arrays must share length")
        for name in ("origins", "directions"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        norms = np.linalg.norm(self.directions, axis=1)
        if not (np.abs(norms - 1.0) <= 1e-9).all():
            raise ValueError("directions must be unit length")

    def __len__(self) -> int:
        return self.origins.shape[0]


@dataclass
class HitBatch:
    """Per-ray nearest-hit results; cos_incidence is |d . n| of the hit
    triangle, in [0, 1]."""

    hit: np.ndarray           # (n,) bool
    t: np.ndarray             # (n,) float64, inf where no hit
    points: np.ndarray        # (n, 3) float64
    triangle: np.ndarray      # (n,) int64, -1 where no hit
    cos_incidence: np.ndarray # (n,) float64

    @property
    def count(self) -> int:
        return int(self.hit.sum())


def moller_trumbore(origins, directions, v0, v1, v2):
    """Vectorized ray-triangle test with broadcasting over rays x triangles.

    Returns (valid, t, u, v). Boundary hits (u or v at 0 or 1) count as hits
    so shared edges of a watertight mesh never leak.
    """
    e1 = v1 - v0
    e2 = v2 - v0
    pvec = _cross(directions, e2)
    det = np.sum(e1 * pvec, axis=-1)
    valid = np.abs(det) > _EPS_DET
    inv_det = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
    tvec = origins - v0
    u = np.sum(tvec * pvec, axis=-1) * inv_det
    qvec = _cross(tvec, e1)
    v = np.sum(directions * qvec, axis=-1) * inv_det
    t = np.sum(e2 * qvec, axis=-1) * inv_det
    valid &= (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (u + v <= 1.0) & (t > _T_MIN)
    return valid, t, u, v


def _cross(a, b):
    """Cross product over the last axis, broadcasting the rest. Each component
    is the same product difference that np.cross forms, so the bits agree;
    np.cross spends most of a small call on axis bookkeeping and copies."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


@dataclass
class _Node:
    lo: np.ndarray
    hi: np.ndarray
    left: int = -1
    right: int = -1
    start: int = 0
    count: int = 0


class Bvh:
    """Median-split hierarchy over triangle centroids, max 4 triangles per
    leaf. Triangle test counts are tracked to make traversal pruning
    observable in tests."""

    def __init__(self, mesh: TriangleMesh, leaf_size: int = 4):
        if mesh.num_triangles == 0:
            raise ValueError("cannot build a hierarchy over an empty mesh")
        self.mesh = mesh
        self.leaf_size = leaf_size
        a, b, c = mesh.triangles()
        self._v0, self._v1, self._v2 = a, b, c
        self._tri_lo = np.minimum(np.minimum(a, b), c)
        self._tri_hi = np.maximum(np.maximum(a, b), c)
        centroids = (a + b + c) / 3.0
        self.order = np.arange(mesh.num_triangles)
        self.nodes: list[_Node] = []
        self.triangle_tests = 0
        self._build(centroids)

    def _build(self, centroids):
        # iterative construction; each stack entry carries its slot index
        root = _Node(np.zeros(3), np.zeros(3))
        self.nodes.append(root)
        stack = [(0, 0, len(self.order))]
        while stack:
            slot, start, end = stack.pop()
            idx = self.order[start:end]
            lo = self._tri_lo[idx].min(axis=0)
            hi = self._tri_hi[idx].max(axis=0)
            node = self.nodes[slot]
            node.lo, node.hi = lo, hi
            if end - start <= self.leaf_size:
                node.start, node.count = start, end - start
                continue
            axis = int(np.argmax(hi - lo))
            mid = (start + end) // 2
            part = np.argsort(centroids[idx, axis], kind="stable")
            self.order[start:end] = idx[part]
            node.left = len(self.nodes)
            self.nodes.append(_Node(np.zeros(3), np.zeros(3)))
            node.right = len(self.nodes)
            self.nodes.append(_Node(np.zeros(3), np.zeros(3)))
            stack.append((node.left, start, mid))
            stack.append((node.right, mid, end))

    def intersect(self, bundle: RayBundle) -> HitBatch:
        n = len(bundle)
        best_t = np.full(n, np.inf)
        best_tri = np.full(n, -1, dtype=np.int64)
        origins = bundle.origins
        dirs = bundle.directions
        # clamp tiny components instead of letting 1/0 produce inf: keeps the
        # slab arithmetic finite (0 * inf would poison the interval with NaN)
        denom = np.where(np.abs(dirs) < 1e-12, np.copysign(1e-12, dirs), dirs)
        inv = 1.0 / denom

        stack = [(0, np.arange(n))]
        while stack:
            node_id, rays = stack.pop()
            node = self.nodes[node_id]
            t0 = (node.lo[None, :] - origins[rays]) * inv[rays]
            t1 = (node.hi[None, :] - origins[rays]) * inv[rays]
            tn = np.minimum(t0, t1).max(axis=1)
            tf = np.maximum(t0, t1).min(axis=1)
            alive = (tf >= np.maximum(tn, 0.0)) & (tn <= best_t[rays])
            rays = rays[alive]
            if rays.size == 0:
                continue
            if node.count > 0:
                tri_ids = self.order[node.start:node.start + node.count]
                self.triangle_tests += rays.size * tri_ids.size
                o = origins[rays][:, None, :]
                d = dirs[rays][:, None, :]
                valid, t, _, _ = moller_trumbore(
                    o, d, self._v0[tri_ids][None], self._v1[tri_ids][None], self._v2[tri_ids][None])
                t = np.where(valid, t, np.inf)
                # nearest hit; ties go to the lowest original triangle id
                tri_rank = np.argsort(tri_ids, kind="stable")
                t_ranked = t[:, tri_rank]
                k = np.argmin(t_ranked, axis=1)
                tmin = t_ranked[np.arange(rays.size), k]
                better = tmin < best_t[rays]
                tie = (tmin == best_t[rays]) & (tmin < np.inf) \
                    & (tri_ids[tri_rank][k] < best_tri[rays])
                upd = better | tie
                if upd.any():
                    sel = rays[upd]
                    best_t[sel] = tmin[upd]
                    best_tri[sel] = tri_ids[tri_rank][k[upd]]
            else:
                stack.append((node.left, rays))
                stack.append((node.right, rays))

        hit = np.isfinite(best_t)
        points = np.full((n, 3), np.nan)
        cosang = np.zeros(n)
        if hit.any():
            points[hit] = origins[hit] + best_t[hit, None] * dirs[hit]
            normals = self.mesh.normals[best_tri[hit]]
            cosang[hit] = np.abs(np.sum(dirs[hit] * normals, axis=1))
        return HitBatch(hit, best_t, points, best_tri, np.clip(cosang, 0.0, 1.0))
