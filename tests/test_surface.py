"""Surface reconstruction, fundamental forms on meshes, and OBJ round trips."""

import numpy as np
import pytest

import solsurf as ss
from solsurf import Grid1D, Grid2D
from solsurf.fixtures import (
    cylinder_patch,
    plane_patch,
    sphere_patch,
    traveling_circle,
)

from conftest import circle_grid


def unit_square(nx=2, nt=2):
    return Grid2D(Grid1D(0.0, 1.0, nx), Grid1D(0.0, 1.0, nt))


class TestReconstruct:
    def test_tangent_recovers_spin(self):
        g = circle_grid(65)
        series = ss.evolve_series(traveling_circle(g), g.dx / 4, 8)
        mesh = ss.reconstruct(series)
        assert mesh.r.shape == (g.n, 9, 3)
        r_x = ss.diff_x(mesh.r, series.grid2)
        assert np.max(np.abs(r_x - series.S)) < 5e-3

    def test_anchored_at_origin(self):
        g = circle_grid(33)
        series = ss.evolve_series(traveling_circle(g), 0.01, 2)
        mesh = ss.reconstruct(series)
        assert np.array_equal(mesh.r[0], np.zeros((3, 3)))

    def test_single_state_rejected(self):
        g = circle_grid(33)
        series = ss.evolve_series(traveling_circle(g), 0.01, 0)
        with pytest.raises(ss.ShapeError, match="single time level"):
            ss.reconstruct(series)

    def test_uneven_times_rejected(self):
        g = circle_grid(33)
        series = ss.evolve_series(traveling_circle(g), 0.01, 3)
        keep = [0, 1, 3]
        with pytest.raises(ss.GridError):
            ss.reconstruct(ss.SpinSeries(
                grid=g, times=series.times[keep], S=series.S[:, keep],
                u=series.u[:, keep], v=series.v[:, keep]))


class TestMeshGeometry:
    def test_sphere_normal_points_inward(self):
        g2 = Grid2D(Grid1D(0.0, 2 * np.pi / 64, 65, "periodic"),
                    Grid1D(0.3, (np.pi - 0.6) / 32, 33, "one_sided"))
        mesh = sphere_patch(g2, radius=1.0)
        normal, mask = ss.mesh_normal(mesh)
        assert not mask.any()
        assert np.max(np.abs(normal + mesh.r)) < 5e-4

    def test_sphere_first_form(self):
        g2 = Grid2D(Grid1D(0.0, 2 * np.pi / 64, 65, "periodic"),
                    Grid1D(0.3, (np.pi - 0.6) / 32, 33, "one_sided"))
        forms = ss.mesh_forms(sphere_patch(g2, radius=1.0))
        _, T = g2.meshes()
        assert np.max(np.abs(forms.E - np.sin(T) ** 2)) < 5e-3
        assert np.max(np.abs(forms.G - 1.0)) < 5e-3
        assert np.max(np.abs(forms.F)) < 5e-3

    def test_sphere_curvatures(self):
        g2 = Grid2D(Grid1D(0.0, 2 * np.pi / 128, 129, "periodic"),
                    Grid1D(0.3, (np.pi - 0.6) / 64, 65, "one_sided"))
        K, H = ss.mesh_curvatures(sphere_patch(g2, radius=1.0))
        assert np.nanmax(np.abs(K - 1.0)) < 5e-3
        assert np.nanmax(np.abs(H - 1.0)) < 5e-3

    def test_cylinder_curvatures(self):
        g2 = Grid2D(Grid1D(0.0, 1.0 / 16, 17, "one_sided"),
                    Grid1D(0.0, 2 * np.pi / 64, 65, "periodic"))
        K, H = ss.mesh_curvatures(cylinder_patch(g2, radius=2.0))
        assert np.nanmax(np.abs(K)) < 1e-10
        assert np.nanmax(np.abs(H - 1.0 / 4.0)) < 1e-3

    def test_plane_is_flat_and_regular(self):
        g2 = unit_square(9, 9)
        forms = ss.mesh_forms(plane_patch(g2))
        assert not (~np.isfinite(forms.L)).any()
        K, H = ss.mesh_curvatures(plane_patch(g2))
        assert np.nanmax(np.abs(K)) < 1e-12
        assert np.nanmax(np.abs(H)) < 1e-12

    def test_degenerate_points_flagged_not_raised(self):
        # r depends only on x+t, so the tangent plane collapses everywhere
        g2 = unit_square(5, 5)
        X, T = g2.meshes()
        r = np.stack([X + T, np.zeros_like(X), np.zeros_like(X)], axis=2)
        mesh = ss.SurfaceMesh(r=r, grid=g2)
        normal, mask = ss.mesh_normal(mesh)
        assert mask.all()
        assert np.all(np.isnan(normal[mask]))
        forms = ss.mesh_forms(mesh)
        assert np.all(np.isnan(forms.L[mask]))
        K, H = ss.mesh_curvatures(mesh)
        assert np.all(np.isnan(K)) and np.all(np.isnan(H))


class TestMeshIndexing:
    def test_vertex_index_x_major(self):
        mesh = ss.SurfaceMesh(r=np.zeros((3, 4, 3)), grid=unit_square(3, 4))
        assert mesh.vertex_index(0, 0) == 0
        assert mesh.vertex_index(0, 3) == 3
        assert mesh.vertex_index(2, 1) == 9

    def test_faces_are_grid_quads(self):
        mesh = ss.SurfaceMesh(r=np.zeros((2, 3, 3)), grid=unit_square(2, 3))
        assert np.array_equal(mesh.faces(), [[0, 3, 4, 1], [1, 4, 5, 2]])


class TestObjRoundTrip:
    def test_two_by_two_golden_bytes(self, tmp_path):
        r = np.zeros((2, 2, 3))
        r[1, 0] = (1.0, 0.0, 0.0)
        r[0, 1] = (0.0, 1.0, 0.0)
        r[1, 1] = (1.0, 1.0, 0.5)
        mesh = ss.SurfaceMesh(r=r, grid=unit_square())
        path = tmp_path / "m.obj"
        ss.export_obj(mesh, path)
        expected = b"v 0 0 0\nv 0 1 0\nv 1 0 0\nv 1 1 0.5\nf 1 3 4 2\n"
        assert path.read_bytes() == expected

    def test_full_precision_round_trip(self, tmp_path):
        g2 = unit_square(4, 5)
        rng = np.random.default_rng(3)
        mesh = ss.SurfaceMesh(r=rng.normal(size=(4, 5, 3)) / 3.0, grid=g2)
        path = tmp_path / "m.obj"
        ss.export_obj(mesh, path)
        back = ss.import_obj(path, grid=g2)
        assert np.array_equal(back.r, mesh.r)

    def test_reexport_is_byte_identical(self, tmp_path):
        g2 = unit_square(4, 5)
        rng = np.random.default_rng(4)
        mesh = ss.SurfaceMesh(r=rng.normal(size=(4, 5, 3)), grid=g2)
        p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
        ss.export_obj(mesh, p1)
        ss.export_obj(ss.import_obj(p1, grid=g2), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_import_synthesizes_grid(self, tmp_path):
        mesh = ss.SurfaceMesh(r=np.zeros((3, 4, 3)), grid=unit_square(3, 4))
        path = tmp_path / "m.obj"
        ss.export_obj(mesh, path)
        back = ss.import_obj(path)
        assert back.grid.shape == (3, 4)

    def test_import_grid_mismatch_rejected(self, tmp_path):
        mesh = ss.SurfaceMesh(r=np.zeros((3, 4, 3)), grid=unit_square(3, 4))
        path = tmp_path / "m.obj"
        ss.export_obj(mesh, path)
        with pytest.raises((ss.ShapeError, ss.GridError)):
            ss.import_obj(path, grid=unit_square(4, 4))
