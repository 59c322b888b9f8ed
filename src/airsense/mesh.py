"""Triangle meshes: validation, OFF-style and binary STL ingestion, and a few
procedural builders used as scan targets."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TriangleMesh",
    "MeshError",
    "load_off",
    "load_stl",
    "load_mesh",
    "box_mesh",
    "icosphere",
    "quadcopter_mesh",
]


class MeshError(Exception):
    pass


@dataclass
class TriangleMesh:
    """Indexed triangle soup with unit per-triangle normals.

    Zero-area triangles are dropped and counted in degenerate_skipped rather
    than poisoning the normals; a non-finite vertex raises MeshError.
    """

    vertices: np.ndarray          # (nv, 3) float64
    faces: np.ndarray             # (nf, 3) int64
    normals: np.ndarray = field(init=False)
    degenerate_skipped: int = field(init=False, default=0)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        f = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
        if bad.size:
            raise MeshError(f"vertex {bad[0]} is not finite: {v[bad[0]].tolist()}")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise MeshError("face index out of range")
        e1 = v[f[:, 1]] - v[f[:, 0]]
        e2 = v[f[:, 2]] - v[f[:, 0]]
        n = np.cross(e1, e2)
        norm = np.linalg.norm(n, axis=1)
        good = norm > 1e-12
        self.degenerate_skipped = int((~good).sum())
        f = f[good]
        n = n[good] / norm[good][:, None]
        self.vertices = v
        self.faces = f
        self.normals = n

    @property
    def num_triangles(self) -> int:
        return self.faces.shape[0]

    def triangles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.vertices[self.faces[:, 0]],
                self.vertices[self.faces[:, 1]],
                self.vertices[self.faces[:, 2]])

    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        used = self.vertices[np.unique(self.faces)]
        return used.min(axis=0), used.max(axis=0)

    def center(self) -> np.ndarray:
        lo, hi = self.aabb()
        return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# file formats

def _file_mesh(path, vertices, faces) -> TriangleMesh:
    """The loaders' TriangleMesh, its MeshError prefixed with the path."""
    try:
        return TriangleMesh(vertices, faces)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc


def load_off(path) -> TriangleMesh:
    """Indexed-triangle text format: OFF header, counts, vertices, faces."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens or tokens[0] != "OFF":
        raise MeshError(f"{path}: missing OFF header")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        pos = 4  # skip edge count
        verts = np.array(tokens[pos:pos + 3 * nv], dtype=np.float64).reshape(nv, 3)
        pos += 3 * nv
        faces = []
        for _ in range(nf):
            cnt = int(tokens[pos])
            if cnt != 3:
                raise MeshError(f"{path}: only triangles supported, got {cnt}-gon")
            faces.append([int(tokens[pos + 1]), int(tokens[pos + 2]), int(tokens[pos + 3])])
            pos += cnt + 1
    except (IndexError, ValueError) as exc:
        raise MeshError(f"{path}: malformed OFF file: {exc}") from exc
    return _file_mesh(path, verts, np.array(faces, dtype=np.int64))


def load_stl(path) -> TriangleMesh:
    """Binary STL reader; vertices are deduplicated exactly."""
    with open(path, "rb") as fh:
        header = fh.read(80)
        if len(header) < 80:
            raise MeshError(f"{path}: truncated STL header")
        raw = fh.read(4)
        if len(raw) < 4:
            raise MeshError(f"{path}: truncated STL count")
        (count,) = struct.unpack("<I", raw)
        body = fh.read(count * 50)
        if len(body) < count * 50:
            raise MeshError(f"{path}: truncated STL body")
    tris = np.frombuffer(body, dtype=np.uint8).reshape(count, 50)
    coords = tris[:, 12:48].copy().view("<f4").reshape(count, 3, 3).astype(np.float64)
    flat = coords.reshape(-1, 3)
    verts, inverse = np.unique(flat, axis=0, return_inverse=True)
    return _file_mesh(path, verts, inverse.reshape(count, 3))


def load_mesh(path) -> TriangleMesh:
    p = str(path)
    if p.lower().endswith(".stl"):
        return load_stl(path)
    return load_off(path)


# ---------------------------------------------------------------------------
# procedural builders

def box_mesh(size=(1.0, 1.0, 1.0)) -> TriangleMesh:
    sx, sy, sz = (s / 2.0 for s in size)
    verts = np.array([[x, y, z] for x in (-sx, sx) for y in (-sy, sy) for z in (-sz, sz)])
    faces = np.array([
        [0, 1, 3], [0, 3, 2],  # -x
        [4, 6, 7], [4, 7, 5],  # +x
        [0, 4, 5], [0, 5, 1],  # -y
        [2, 3, 7], [2, 7, 6],  # +y
        [0, 2, 6], [0, 6, 4],  # -z
        [1, 5, 7], [1, 7, 3],  # +z
    ], dtype=np.int64)
    return TriangleMesh(verts, faces)


def icosphere(radius: float = 0.5, subdivisions: int = 1) -> TriangleMesh:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(v / np.linalg.norm(v)) for v in verts]
    cache: dict[tuple[int, int], int] = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = np.array(verts[i]) + np.array(verts[j])
            m /= np.linalg.norm(m)
            verts.append(tuple(m))
            cache[key] = len(verts) - 1
        return cache[key]

    for _ in range(subdivisions):
        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return TriangleMesh(np.array(verts) * radius, np.array(faces, dtype=np.int64))


def quadcopter_mesh() -> TriangleMesh:
    """Crude quadcopter stand-in: a body box plus two crossed arm boxes.
    Fits inside the 1.6 x 1.6 x 1.0 m anchor footprint."""
    parts = [
        box_mesh((0.5, 0.5, 0.25)),
        box_mesh((1.1, 0.12, 0.12)),
        box_mesh((0.12, 1.1, 0.12)),
    ]
    verts = []
    faces = []
    base = 0
    for part in parts:
        verts.append(part.vertices)
        faces.append(part.faces + base)
        base += len(part.vertices)
    return TriangleMesh(np.vstack(verts), np.vstack(faces))
