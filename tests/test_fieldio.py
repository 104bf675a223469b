"""JSON and CSV serialization round trips."""

import json

import numpy as np
import pytest

import solsurf as ss
from solsurf import fieldio as fio
from solsurf.fixtures import sphere_ct, sphere_forms, sphere_gc, traveling_circle

from conftest import circle_grid


def small_band():
    return ss.Grid2D(ss.Grid1D(0.0, np.pi / 8, 9, "one_sided"),
                     ss.Grid1D(0.3, (np.pi - 0.6) / 8, 9, "one_sided"))


class TestJsonRoundTrips:
    def test_grid1d(self, tmp_path):
        g = circle_grid(17)
        fio.save_json(g, tmp_path / "g.json")
        g2 = fio.load_json(tmp_path / "g.json")
        assert g2 == g

    def test_grid2d(self, tmp_path):
        g = small_band()
        fio.save_json(g, tmp_path / "g.json")
        assert fio.load_json(tmp_path / "g.json") == g

    def test_spin_field(self, tmp_path):
        f = traveling_circle(circle_grid(17))
        fio.save_json(f, tmp_path / "f.json")
        back = fio.load_json(tmp_path / "f.json")
        assert np.array_equal(back.S, f.S)
        assert np.array_equal(back.u, f.u)
        assert back.t == f.t and back.grid == f.grid

    def test_spin_series(self, tmp_path):
        series = ss.evolve_series(traveling_circle(circle_grid(17)), 0.01, 3)
        fio.save_json(series, tmp_path / "s.json")
        back = fio.load_json(tmp_path / "s.json")
        assert np.array_equal(back.S, series.S)
        assert np.array_equal(back.times, series.times)
        assert np.array_equal(back.v, series.v)

    def test_ct_fields(self, tmp_path):
        ct = sphere_ct(small_band())
        fio.save_json(ct, tmp_path / "ct.json")
        back = fio.load_json(tmp_path / "ct.json")
        for name in ("k", "tau", "omega2", "omega3"):
            assert np.array_equal(getattr(back, name), getattr(ct, name))

    def test_gc_data(self, tmp_path):
        d, _ = sphere_gc(small_band())
        fio.save_json(d, tmp_path / "d.json")
        back = fio.load_json(tmp_path / "d.json")
        for name in ("psi1", "psi2", "tpsi1", "tpsi2", "p", "q"):
            assert np.array_equal(getattr(back, name), getattr(d, name))

    def test_fundamental_forms_diagonal(self, tmp_path):
        ff = sphere_forms(small_band(), radius=2.0)
        fio.save_json(ff, tmp_path / "ff.json")
        back = fio.load_json(tmp_path / "ff.json")
        assert back.kind == "diagonal"
        assert np.array_equal(back.g11, ff.g11)
        assert np.array_equal(back.d22, ff.d22)

    def test_fundamental_forms_general_with_nans(self, tmp_path):
        shp = (3, 3)
        L = np.full(shp, np.nan)
        ff = ss.FundamentalForms.general(E=np.ones(shp), F=np.zeros(shp),
                                         G=np.ones(shp), L=L, M=np.zeros(shp),
                                         N=np.ones(shp))
        fio.save_json(ff, tmp_path / "ff.json")
        back = fio.load_json(tmp_path / "ff.json")
        assert np.all(np.isnan(back.L))

    def test_surface_mesh(self, tmp_path):
        g2 = small_band()
        rng = np.random.default_rng(0)
        mesh = ss.SurfaceMesh(r=rng.normal(size=(*g2.shape, 3)), grid=g2)
        fio.save_json(mesh, tmp_path / "m.json")
        back = fio.load_json(tmp_path / "m.json")
        assert np.array_equal(back.r, mesh.r)
        assert back.grid == g2

    def test_lax_pair(self, tmp_path):
        L = ss.build_lax(sphere_ct(small_band()))
        fio.save_json(L, tmp_path / "L.json")
        back = fio.load_json(tmp_path / "L.json")
        assert np.array_equal(back.U, L.U)
        assert np.array_equal(back.V, L.V)

    def test_eigenfunction(self, tmp_path):
        L = ss.build_lax(sphere_ct(small_band()))
        ef = ss.eigenfunction_field(L, np.eye(2, dtype=complex))
        fio.save_json(ef, tmp_path / "e.json")
        back = fio.load_json(tmp_path / "e.json")
        assert np.array_equal(back.phi, ef.phi)

    def test_plain_arrays(self):
        real = np.arange(6.0).reshape(2, 3)
        cplx = real + 1j * real[::-1]
        assert np.array_equal(fio.from_jsonable(fio.to_jsonable(real)), real)
        assert np.array_equal(fio.from_jsonable(fio.to_jsonable(cplx)), cplx)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ss.ConfigError, match="bogus"):
            fio.from_jsonable({"kind": "bogus"})


def _spin_docs():
    f = traveling_circle(circle_grid(17))
    return [fio.to_jsonable(f), fio.to_jsonable(ss.evolve_series(f, 0.01, 3))]


class TestSpinDocuments:
    @pytest.mark.parametrize("doc", _spin_docs(), ids=["field", "series"])
    def test_legacy_beta_one_loads(self, doc):
        back = fio.from_jsonable(dict(doc, beta=1))
        assert np.array_equal(back.S, fio.from_jsonable(doc).S)
        assert "beta" not in fio.to_jsonable(back)

    @pytest.mark.parametrize("doc", _spin_docs(), ids=["field", "series"])
    def test_other_beta_rejected(self, doc):
        with pytest.raises(ss.ConfigError, match="beta"):
            fio.from_jsonable(dict(doc, beta=-1))

    def test_nonuniform_times_rejected(self, tmp_path):
        doc = _spin_docs()[1]
        doc["times"][2] += 0.003
        (tmp_path / "s.json").write_text(json.dumps(doc))
        with pytest.raises(ss.GridError, match="uniformly"):
            fio.load_json(tmp_path / "s.json")


class TestJsonDeterminism:
    def test_repeat_dumps_identical(self):
        f = traveling_circle(circle_grid(17))
        assert fio.dump_json_str(f) == fio.dump_json_str(f)

    def test_keys_sorted_and_newline_terminated(self):
        s = fio.dump_json_str(circle_grid(9))
        assert s.endswith("\n")
        keys = list(json.loads(s).keys())
        assert keys == sorted(keys)


class TestCsv:
    def test_spin_csv_columns(self, tmp_path):
        f = traveling_circle(circle_grid(9))
        path = tmp_path / "f.csv"
        fio.save_spin_csv(f, path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.dtype.names == ("x", "S1", "S2", "S3", "u", "v")
        assert np.max(np.abs(data["S1"] - f.S[:, 0])) == 0.0

    def test_series_csv_is_x_major(self, tmp_path):
        series = ss.evolve_series(traveling_circle(circle_grid(9)), 0.01, 2)
        path = tmp_path / "s.csv"
        fio.save_series_csv(series, path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        nt = series.nt
        assert data.shape[0] == 9 * nt
        # first nt rows share the first x value
        assert np.all(data["x"][:nt] == data["x"][0])
        assert np.array_equal(data["t"][:nt], series.times)

    def test_ct_csv(self, tmp_path):
        ct = sphere_ct(small_band())
        fio.save_ct_csv(ct, tmp_path / "ct.csv")
        data = np.genfromtxt(tmp_path / "ct.csv", delimiter=",", names=True)
        assert "k" in data.dtype.names and "omega3" in data.dtype.names
        assert data.shape[0] == 81

    def test_gc_csv(self, tmp_path):
        d, _ = sphere_gc(small_band())
        fio.save_gc_csv(d, tmp_path / "d.csv")
        data = np.genfromtxt(tmp_path / "d.csv", delimiter=",", names=True)
        assert "psi1" in data.dtype.names and "q" in data.dtype.names

    def test_mesh_csv(self, tmp_path):
        g2 = small_band()
        mesh = ss.SurfaceMesh(r=np.zeros((*g2.shape, 3)), grid=g2)
        fio.save_mesh_csv(mesh, tmp_path / "m.csv")
        data = np.genfromtxt(tmp_path / "m.csv", delimiter=",", names=True)
        assert data.dtype.names == ("x", "t", "rx", "ry", "rz")

    def test_scalars_csv_2d(self, tmp_path):
        g2 = small_band()
        X, T = g2.meshes()
        fio.save_scalars_csv({"a": X, "b": T}, g2, tmp_path / "s.csv")
        data = np.genfromtxt(tmp_path / "s.csv", delimiter=",", names=True)
        assert data.dtype.names == ("x", "t", "a", "b")

    def test_scalars_csv_1d(self, tmp_path):
        g = circle_grid(9)
        fio.save_scalars_csv({"w": g.points() ** 2}, g, tmp_path / "s.csv")
        data = np.genfromtxt(tmp_path / "s.csv", delimiter=",", names=True)
        assert data.dtype.names == ("x", "w")
        assert np.max(np.abs(data["w"] - g.points() ** 2)) < 1e-15

    def test_full_precision_values(self, tmp_path):
        g = ss.Grid1D(0.0, 1.0, 3)
        vals = np.array([1.0 / 3.0, np.pi, 2.0 ** -40])
        fio.save_scalars_csv({"w": vals}, g, tmp_path / "s.csv")
        data = np.genfromtxt(tmp_path / "s.csv", delimiter=",", names=True)
        assert np.array_equal(data["w"], vals)
