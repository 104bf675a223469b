"""Surface reconstruction, fundamental forms on meshes, and OBJ round trips."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import solsurf as ss
from solsurf import Grid1D, Grid2D
from solsurf import _floattext as ft
from solsurf.fixtures import (
    cylinder_patch,
    plane_patch,
    sphere_patch,
    traveling_circle,
)

from conftest import circle_grid, layouts, polar_band


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

    def test_translated_cylinder_keeps_its_curvatures(self):
        # far from the origin the straight x direction's r_xx is round-off
        # (eps*1e5/dx**2 = 2.4e-8), yet the patch is only about 1 across, so
        # r_xx is judged against that size and H stays resolved through r_tt
        g2 = Grid2D(Grid1D(0.0, 0.03, 17), Grid1D(0.0, 2 * np.pi / 32, 33))
        m = cylinder_patch(g2)
        forms = ss.mesh_forms(ss.SurfaceMesh(r=m.r + 1e5, grid=g2))
        assert np.isfinite(forms.L).all() and np.isfinite(forms.N).all()
        K, H = ss.curvatures(forms)
        assert np.max(np.abs(K)) < 1e-6
        assert np.max(np.abs(H - 0.5)) < 5e-3

    def test_plane_is_flat_and_regular(self):
        g2 = unit_square(9, 9)
        forms = ss.mesh_forms(plane_patch(g2))
        assert not (~np.isfinite(forms.L)).any()
        K, H = ss.mesh_curvatures(plane_patch(g2))
        assert np.nanmax(np.abs(K)) < 1e-12
        assert np.nanmax(np.abs(H)) < 1e-12

    @pytest.mark.parametrize("x0", [1e5, 1e9])
    def test_far_plane_is_flat_and_regular(self, x0):
        # far from the origin along its own plane the round-off of x is large
        # against dx**2, but none of it lies along the normal
        g2 = Grid2D(Grid1D(x0, 1.0 / 32, 33), Grid1D(0.0, 1.0 / 32, 33))
        K, H = ss.curvatures(ss.mesh_forms(plane_patch(g2)))
        assert np.array_equal(K, np.zeros_like(K)) and np.array_equal(H, np.zeros_like(H))

    def test_degenerate_points_flagged_not_raised(self):
        # r depends only on x+t, so the tangent plane collapses everywhere
        g2 = unit_square(5, 5)
        X, T = g2.meshes()
        r = np.stack([X + T, np.zeros_like(X), np.zeros_like(X)], axis=2)
        mesh = ss.SurfaceMesh(r=r, grid=g2)
        forms = ss.mesh_forms(mesh)
        for name in ("E", "F", "G"):
            assert np.all(np.isfinite(getattr(forms, name)))
        for name in ("L", "M", "N"):
            assert np.all(np.isnan(getattr(forms, name)))
        K, H = ss.mesh_curvatures(mesh)
        assert np.all(np.isnan(K)) and np.all(np.isnan(H))

    def test_mesh_constant_in_t_is_degenerate(self):
        # r_t = 0 everywhere makes the bound 0; 0 <= 0 still flags the points
        g2 = unit_square(5, 5)
        X, _ = g2.meshes()
        r = np.stack([X, X * X, np.zeros_like(X)], axis=2)
        forms = ss.mesh_forms(ss.SurfaceMesh(r=r, grid=g2))
        assert np.all(np.isnan(forms.L))

    @pytest.mark.parametrize("radius", [1e-6, 1e-4, 1.0, 1e6])
    def test_degeneracy_is_scale_free(self, radius):
        # an absolute bound on |r_x ^ r_t| flagged every point at radius 1e-6
        K, H = ss.mesh_curvatures(sphere_patch(polar_band(33), radius))
        assert np.all(np.isfinite(K)) and np.all(np.isfinite(H))
        assert np.max(np.abs(K * radius ** 2 - 1.0)) < 2e-2

    @pytest.mark.parametrize("dt, unresolved", [(1e-120, True), (1e-9, True), (1e-7, True),
                                                 (1e-5, False), (1e-2, False)])
    def test_second_differences_below_roundoff_flag_every_point(self, dt, unresolved):
        # t runs from the pole: r_t resolves at any dt, r_tt only while its
        # round-off floor eps*max|r|/dt**2 stays small against the unit sphere
        g2 = Grid2D(Grid1D(0.0, np.pi / 32, 33), Grid1D(0.0, dt, 33))
        forms = ss.mesh_forms(sphere_patch(g2))
        resolved = np.isfinite(forms.L)
        if unresolved:
            assert not resolved.any()
            return
        assert np.array_equal(resolved, np.isfinite(forms.N))
        assert resolved[:, 1:].all()  # the pole row is degenerate on its own
        K, _ = ss.curvatures(forms)
        assert np.max(np.abs(K[resolved] - 1.0)) < 5e-3

    def test_sweep_anchor_and_closure_rows_degenerate(self):
        # r_t is exactly 0 on the anchor row and round-off on the closure
        # row, where the closed circle returns to the origin
        g = circle_grid(33)
        mesh = ss.reconstruct(ss.evolve_series(traveling_circle(g), g.dx / 4, 8))
        assert np.max(np.abs(mesh.r[-1])) < 1e-14
        forms = ss.mesh_forms(mesh)
        assert np.all(np.isnan(forms.L[[0, -1]]))
        assert np.all(np.isfinite(forms.L[1:-1, 0]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(nx=st.integers(4, 40), nt=st.integers(4, 24), bump=st.floats(0.0, 0.1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mesh_forms_bits_do_not_depend_on_the_layout_of_r(nx, nt, bump, seed):
    """C-ordered, Fortran-ordered and component-strided r of a bumped sphere
    patch give the same bytes of E, F, G, L, M and N."""
    g2 = Grid2D(Grid1D(0.0, 0.1, nx), Grid1D(0.3, 0.1, nt))
    r = sphere_patch(g2).r + bump * np.random.default_rng(seed).normal(size=(nx, nt, 3))
    results = set()
    for r_layout in layouts(r).values():
        forms = ss.mesh_forms(ss.SurfaceMesh(r=r_layout, grid=g2))
        results.add(b"".join(getattr(forms, name).tobytes() for name in "EFGLMN"))
    assert len(results) == 1


def face_text(nx: int, nt: int) -> bytes:
    """The face rows of an nx by nt grid mesh in SurfaceMesh.faces() order,
    each index %-formatted: export_obj's earlier face generator."""
    rows = []
    lo = list(map(b"%d".__mod__, range(1, nt + 1)))
    for i in range(1, nx):
        hi = list(map(b"%d".__mod__, range(i * nt + 1, (i + 1) * nt + 1)))
        rows += [b"f %s %s %s %s\n" % quad for quad in zip(lo[:-1], hi[:-1], hi[1:], lo[1:])]
        lo = hi
    return b"".join(rows)


class TestMeshIndexing:
    def test_faces_are_grid_quads(self):
        mesh = ss.SurfaceMesh(r=np.zeros((2, 3, 3)), grid=unit_square(2, 3))
        assert np.array_equal(mesh.faces(), [[0, 3, 4, 1], [1, 4, 5, 2]])

    @pytest.mark.parametrize("lines_per_write", [ss.surface.LINES_PER_WRITE, 7])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (101, 101)])
    def test_face_rows_match_the_percent_format(self, tmp_path, monkeypatch, shape,
                                                lines_per_write):
        """(101, 101) crosses 10^4 vertices, where the index text widens."""
        monkeypatch.setattr(ss.surface, "LINES_PER_WRITE", lines_per_write)
        mesh = ss.SurfaceMesh(r=np.zeros(shape + (3,)), grid=unit_square(*shape))
        ss.export_obj(mesh, tmp_path / "m.obj")
        data = (tmp_path / "m.obj").read_bytes()
        assert data[data.index(b"f "):] == face_text(*shape)

    @pytest.mark.parametrize("top, width", [
        (9, 4), (9999, 4), (10 ** 4, 8), (10 ** 8 - 1, 8), (10 ** 8, 16),
        (10 ** 12 - 1, 16), (10 ** 12, 16), (10 ** 12 + 1, 16), (10 ** 16 - 1, 16)])
    def test_index_text_is_percent_d(self, top, width):
        """Each row is %d of its integer; the rows hold as many 4-char words
        as the largest integer needs."""
        m = np.array([1, 10, 999, 1000, 10 ** 4 - 1, 10 ** 4, 10 ** 4 + 1, 10 ** 8 - 1,
                      10 ** 8, 10 ** 8 + 1, 10 ** 12 - 1, 10 ** 12, 10 ** 12 + 1, 10 ** 16 - 1])
        m = np.append(m[m < top], top)
        rows = ft.index_text(m)
        assert rows.shape == (m.size, width)
        assert ft.text([rows, b"\n"]) == b"".join(b"%d\n" % k for k in m.tolist())


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

    def test_vertex_text_pads_narrower_chunks(self, tmp_path, monkeypatch):
        """Chunks of two vertices get 28-, 32- and 40-byte rows; the shared
        vertex text holds them all at the widest, and both writers give
        '%.17g' of each coordinate."""
        monkeypatch.setattr(ss.surface, "LINES_PER_WRITE", 2)
        r = np.zeros((3, 2, 3))
        r[0, 0, 0], r[1, 1, 2], r[2, 0, 1] = -0.5, 12345.678, -123456789012.25
        mesh = ss.SurfaceMesh(r=r, grid=unit_square(3, 2))
        verts = ss.surface.vertex_text(mesh)
        assert verts.shape == (6, 3, 40)
        ss.export_obj(mesh, tmp_path / "m.obj", verts)
        ss.fieldio.save_mesh_csv(mesh, tmp_path / "m.csv", verts)
        coords = [b" ".join(b"%.17g" % c for c in v) for v in r.reshape(-1, 3).tolist()]
        assert (tmp_path / "m.obj").read_bytes().startswith(
            b"".join(b"v %s\n" % c for c in coords))
        rows = (tmp_path / "m.csv").read_bytes().splitlines()[1:]
        assert [row.split(b",", 2)[2] for row in rows] == [c.replace(b" ", b",") for c in coords]

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

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(nx=st.integers(2, 5), nt=st.integers(2, 5), data=st.data())
    def test_round_trip_is_bit_exact(self, nx, nt, data):
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=nx * nt * 3, max_size=nx * nt * 3))
        g2 = unit_square(nx, nt)
        mesh = ss.SurfaceMesh(r=np.reshape(values, (nx, nt, 3)), grid=g2)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.obj")
            ss.export_obj(mesh, path)
            back = ss.import_obj(path, grid=g2)
        assert back.r.tobytes() == mesh.r.tobytes()

    # A 3x2 grid's OBJ text with one token made non-numeric, and the line named.
    @pytest.mark.parametrize("good,bad", [("v 1 1 0.5", "v 0 0 x"), ("f 1 3 4 2", "f 1 a 3 4"),
                                          ("f 3 5 6 4", "f 3 5 6 d")],
                             ids=["vertex", "face", "later_face"])
    def test_non_numeric_token_rejected(self, tmp_path, good, bad):
        r = np.zeros((3, 2, 3))
        r[1, 1] = (1.0, 1.0, 0.5)
        path = tmp_path / "m.obj"
        ss.export_obj(ss.SurfaceMesh(r=r, grid=unit_square(3, 2)), path)
        text = path.read_text()
        assert text.count(good + "\n") == 1
        path.write_text(text.replace(good + "\n", bad + "\n"))
        kind = "vertex" if bad[0] == "v" else "face"
        with pytest.raises(ss.ShapeError, match=f"^malformed {kind} line: '{bad}'$"):
            ss.import_obj(path)

    @pytest.mark.parametrize("bad", ["f 9 9 9 9", "f 3 5 4 6"])
    def test_wrong_later_face_rejected(self, tmp_path, bad):
        """Every face is checked, not only the first one the layout is read from."""
        path = tmp_path / "m.obj"
        ss.export_obj(ss.SurfaceMesh(r=np.zeros((3, 2, 3)), grid=unit_square(3, 2)), path)
        text = path.read_text()
        assert text.endswith("f 1 3 4 2\nf 3 5 6 4\n")
        path.write_text(text.replace("f 3 5 6 4\n", bad + "\n"))
        with pytest.raises(ss.ShapeError, match=f"^face line '{bad}' is not face 2 of a 3x2 grid$"):
            ss.import_obj(path)

    # A 3x2 grid's OBJ text rewritten, and the error it must give ({path}: the file).
    @pytest.mark.parametrize("case,message", [
        ("triangle", "expected quad faces, got: 'f 1 3 4'"),
        ("empty", "no grid mesh found in {path}"),
        ("row_of_one", "vertex count 6 does not fit row length 1"),
        ("face_missing", "face count 1 does not match a 3x2 grid"),
    ])
    def test_malformed_obj_rejected(self, tmp_path, case, message):
        path = tmp_path / "m.obj"
        ss.export_obj(ss.SurfaceMesh(r=np.zeros((3, 2, 3)), grid=unit_square(3, 2)), path)
        text = path.read_text()
        path.write_text({"triangle": text.replace("f 1 3 4 2", "f 1 3 4"), "empty": "",
                         "row_of_one": text.replace("f 1 3 4 2", "f 1 2 4 3"),
                         "face_missing": text.replace("f 3 5 6 4\n", "")}[case])
        with pytest.raises(ss.ShapeError) as exc:
            ss.import_obj(path)
        assert str(exc.value) == message.format(path=path)

    def test_blank_lines_skipped(self, tmp_path):
        mesh = ss.SurfaceMesh(r=np.arange(18.0).reshape(3, 2, 3), grid=unit_square(3, 2))
        path = tmp_path / "m.obj"
        ss.export_obj(mesh, path)
        path.write_text("\n" + path.read_text().replace("\nf", "\n  \nf"))
        assert ss.import_obj(path).r.tobytes() == mesh.r.tobytes()

    def test_import_grid_mismatch_rejected(self, tmp_path):
        mesh = ss.SurfaceMesh(r=np.zeros((3, 4, 3)), grid=unit_square(3, 4))
        path = tmp_path / "m.obj"
        ss.export_obj(mesh, path)
        with pytest.raises((ss.ShapeError, ss.GridError)):
            ss.import_obj(path, grid=unit_square(4, 4))
