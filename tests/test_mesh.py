import struct

import numpy as np
import pytest

from airsense.mesh import (
    MeshError,
    TriangleMesh,
    box_mesh,
    icosphere,
    load_mesh,
    load_off,
    load_stl,
    quadcopter_mesh,
)


def save_off(path, mesh: TriangleMesh):
    """The OFF text load_off reads, vertices to nine significant digits."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {mesh.num_triangles} 0\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for f in mesh.faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


def save_stl(path, v0, v1, v2):
    """A binary STL of the triangles (v0[i], v1[i], v2[i]), zero normals."""
    with open(path, "wb") as fh:
        fh.write(b"\0" * 80)
        fh.write(struct.pack("<I", len(v0)))
        for tri in zip(v0, v1, v2):
            fh.write(struct.pack("<fff", 0.0, 0.0, 0.0))
            for v in tri:
                fh.write(struct.pack("<fff", *v))
            fh.write(struct.pack("<H", 0))


class TestBuilders:
    def test_box_has_twelve_triangles(self):
        mesh = box_mesh((2.0, 1.0, 0.5))
        assert mesh.num_triangles == 12
        lo, hi = mesh.aabb()
        np.testing.assert_allclose(hi - lo, [2.0, 1.0, 0.5])

    def test_icosphere_subdivision_counts(self):
        assert icosphere(1.0, 0).num_triangles == 20
        assert icosphere(1.0, 1).num_triangles == 80
        assert icosphere(1.0, 2).num_triangles == 320

    def test_icosphere_vertices_on_radius(self):
        r = np.linalg.norm(icosphere(0.7, 2).vertices, axis=1)
        np.testing.assert_allclose(r, 0.7, atol=1e-12)

    def test_quadcopter_fits_anchor_footprint(self):
        lo, hi = quadcopter_mesh().aabb()
        assert (hi - lo <= [1.6, 1.6, 1.0]).all()

    def test_normals_unit_length(self):
        for mesh in (box_mesh(), icosphere(0.5, 1), quadcopter_mesh()):
            np.testing.assert_allclose(np.linalg.norm(mesh.normals, axis=1), 1.0,
                                       atol=1e-12)


class TestOff:
    def test_round_trip(self, tmp_path):
        mesh = icosphere(0.5, 1)
        path = tmp_path / "s.off"
        save_off(path, mesh)
        back = load_off(path)
        assert back.num_triangles == mesh.num_triangles
        np.testing.assert_allclose(back.vertices, mesh.vertices, atol=1e-8)
        assert np.array_equal(back.faces, mesh.faces)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        with pytest.raises(MeshError):
            load_off(path)

    def test_non_finite_vertex_rejected(self, tmp_path):
        path = tmp_path / "inf.off"
        path.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\ninf 1 0\n0 0 1\n3 0 1 2\n3 0 1 3\n")
        with pytest.raises(MeshError, match=r"vertex 2 is not finite: \[inf, 1\.0, 0\.0\]"):
            load_off(path)

    def test_non_triangle_face_rejected(self, tmp_path):
        path = tmp_path / "quad.off"
        path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
        with pytest.raises(MeshError):
            load_off(path)


class TestStl:
    def test_binary_stl_reader(self, tmp_path):
        mesh = box_mesh((1.0, 1.0, 1.0))
        path = tmp_path / "box.stl"
        save_stl(path, *mesh.triangles())
        back = load_stl(path)
        assert back.num_triangles == 12
        lo, hi = back.aabb()
        np.testing.assert_allclose(hi - lo, [1.0, 1.0, 1.0], atol=1e-6)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_vertex_rejected(self, tmp_path, bad):
        v0, v1, v2 = (np.array(x) for x in box_mesh().triangles())
        v1[3, 2] = np.float32(bad)
        path = tmp_path / "bad.stl"
        save_stl(path, v0, v1, v2)
        with pytest.raises(MeshError, match=r"vertex \d+ is not finite: \[.*(inf|nan)"):
            load_stl(path)

    def test_truncated_stl_rejected(self, tmp_path):
        path = tmp_path / "bad.stl"
        path.write_bytes(b"\0" * 80 + struct.pack("<I", 5) + b"\0" * 20)
        with pytest.raises(MeshError):
            load_stl(path)

    def test_dispatch_by_extension(self, tmp_path):
        mesh = box_mesh()
        off = tmp_path / "m.off"
        save_off(off, mesh)
        assert load_mesh(off).num_triangles == 12


class TestValidation:
    def test_face_index_out_of_range(self):
        with pytest.raises(MeshError):
            TriangleMesh(np.zeros((2, 3)), np.array([[0, 1, 2]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_vertex_rejected(self, bad):
        verts = np.eye(3)
        verts[1, 0] = bad
        with pytest.raises(MeshError, match="vertex 1 is not finite"):
            TriangleMesh(verts, np.array([[0, 1, 2]]))
        # an unused vertex is still a bad vertex
        with pytest.raises(MeshError, match="vertex 3 is not finite"):
            TriangleMesh(np.vstack([np.eye(3), verts[1]]), np.array([[0, 1, 2]]))
