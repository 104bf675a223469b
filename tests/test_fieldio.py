"""JSON and CSV serialization round trips."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
        assert back.grid == ff.grid
        for name in ("E", "F", "G", "L", "M", "N"):
            assert np.array_equal(getattr(back, name), getattr(ff, name))

    def test_fundamental_forms_general_with_nans(self, tmp_path):
        g2 = small_band()
        shp = g2.shape
        L = np.full(shp, np.nan)
        ff = ss.FundamentalForms(E=np.ones(shp), F=np.zeros(shp),
                                 G=np.ones(shp), L=L, M=np.zeros(shp),
                                 N=np.ones(shp), grid=g2)
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


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def grids1d(draw):
    boundary = draw(st.sampled_from(ss.BOUNDARIES))
    n = draw(st.integers(4 if boundary == "periodic" else 2, 4))
    return ss.Grid1D(draw(FINITE), draw(POSITIVE), n, boundary)


GRIDS2D = st.builds(ss.Grid2D, grids1d(), grids1d())


def _on_grid2(cls, names, elements=FINITE, extra=()):
    """Objects of cls with named arrays of shape grid.shape + extra."""
    return GRIDS2D.flatmap(lambda g2: st.builds(cls, grid=st.just(g2), **{
        name: arrays(float, g2.shape + extra, elements=elements) for name in names}))


def _complex(shape):
    return st.builds(lambda re, im: np.asarray(re + 1j * im),
                     arrays(float, shape, elements=FINITE),
                     arrays(float, shape, elements=FINITE))


def _traceless(shape):
    def assemble(a, b, c):
        return np.stack([np.stack([a, b], -1), np.stack([c, -a], -1)], -2)
    return st.builds(assemble, _complex(shape), _complex(shape), _complex(shape))


@st.composite
def spin_fields(draw):
    g = draw(grids1d())
    S, u, v = (draw(arrays(float, shape, elements=st.floats(-1e3, 1e3)))
               for shape in ((g.n, 3), (g.n,), (g.n,)))
    assume(np.all(np.linalg.norm(S, axis=1) > 1e-3))
    if g.boundary == "periodic":
        S[-1], u[-1], v[-1] = S[0], u[0], v[0]
    # The constructor renormalizes S, which can move the last bit of a row
    # already of unit norm.  Keep states whose S is a fixed point of that
    # (a second pass settles most rows), as decoding constructs once more.
    f = dataclasses.replace(ss.SpinField(S=S, u=u, v=v, grid=g, t=draw(FINITE)))
    assume(np.array_equal(dataclasses.replace(f).S, f.S))
    return f


@st.composite
def spin_series(draw):
    g = draw(grids1d())
    nt = draw(st.integers(1, 3))
    times = draw(st.floats(-1e3, 1e3)) + draw(st.floats(1e-3, 1e3)) * np.arange(nt)
    S, u, v = (draw(arrays(float, shape, elements=st.floats()))
               for shape in ((g.n, nt, 3), (g.n, nt), (g.n, nt)))
    return ss.SpinSeries(grid=g, times=times, S=S, u=u, v=v)


SHAPES = st.lists(st.integers(0, 3), max_size=3).map(tuple)

# One generator per fieldio kind.  Forms allow NaN (and inf) everywhere, as
# mesh_forms writes NaN into L, M, N at degenerate points.
OBJECTS = {
    "grid1d": grids1d(),
    "grid2d": GRIDS2D,
    "spin_field": spin_fields(),
    "spin_series": spin_series(),
    "ct_fields": _on_grid2(ss.CTFields, ("k", "tau", "omega2", "omega3")),
    "gc_data": GRIDS2D.flatmap(lambda g2: st.builds(
        ss.GCData, grid=st.just(g2),
        **{name: arrays(float, g2.shape, elements=FINITE)
           for name in ("psi1", "psi2", "p", "q")},
        **{name: arrays(float, g2.shape, elements=POSITIVE)
           for name in ("tpsi1", "tpsi2")})),
    "fundamental_forms": _on_grid2(ss.FundamentalForms, ("E", "F", "G", "L", "M", "N"),
                                   elements=st.just(np.nan) | st.floats()),
    "surface_mesh": _on_grid2(ss.SurfaceMesh, ("r",), extra=(3,)),
    "lax_pair": GRIDS2D.flatmap(lambda g2: st.builds(
        ss.LaxPairField, U=_traceless(g2.shape), V=_traceless(g2.shape),
        grid=st.just(g2))),
    "eigenfunction": GRIDS2D.flatmap(lambda g2: st.builds(
        ss.Eigenfunction, phi=_complex(g2.shape + (2, 2)), grid=st.just(g2))),
    "array": st.one_of(SHAPES.flatmap(lambda s: arrays(float, s, elements=st.floats())),
                       SHAPES.flatmap(_complex)),
}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.shape == b.shape
                and np.array_equal(a, b, equal_nan=True))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return a == b


@pytest.mark.parametrize("kind", sorted(fio._CODECS))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_every_kind_round_trips_exactly(kind, data):
    obj = data.draw(OBJECTS[kind])
    text = fio.dump_json_str(obj)
    assert json.loads(text)["kind"] == kind
    assert _same(fio.from_jsonable(json.loads(text)), obj)


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
