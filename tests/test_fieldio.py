"""JSON and CSV serialization round trips."""

import dataclasses
import json
import math
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import solsurf as ss
from solsurf import fieldio as fio
from solsurf.cli import main
from solsurf.fixtures import (random_smooth_spin, sphere_gc,
                              traveling_circle)

from conftest import circle_grid, json_text


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

    def test_surface_mesh(self, tmp_path):
        g2 = small_band()
        rng = np.random.default_rng(0)
        mesh = ss.SurfaceMesh(r=rng.normal(size=(*g2.shape, 3)), grid=g2)
        fio.save_json(mesh, tmp_path / "m.json")
        back = fio.load_json(tmp_path / "m.json")
        assert np.array_equal(back.r, mesh.r)
        assert back.grid == g2

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


@st.composite
def grids1d(draw):
    boundary = draw(st.sampled_from(ss.BOUNDARIES))
    n = draw(st.integers(4 if boundary == "periodic" else 2, 4))
    x0 = draw(FINITE)
    # a spacing the points resolve: Grid1D needs dx > 1e-12 * max|x|
    dx = draw(st.floats(min_value=1e-11 * abs(x0), exclude_min=True,
                        allow_infinity=False))
    try:
        return ss.Grid1D(x0, dx, n, boundary)
    except ss.GridError:  # the last point overflows, or dx*dx underflows
        assume(False)


GRIDS2D = st.builds(ss.Grid2D, grids1d(), grids1d())


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


# One generator per fieldio kind.
OBJECTS = {
    "grid1d": grids1d(),
    "grid2d": GRIDS2D,
    "spin_field": spin_fields(),
    "spin_series": spin_series(),
    "surface_mesh": GRIDS2D.flatmap(lambda g2: st.builds(
        ss.SurfaceMesh, r=arrays(float, g2.shape + (3,), elements=FINITE),
        grid=st.just(g2))),
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
    text = json_text(obj)
    assert json.loads(text)["kind"] == kind
    assert _same(fio.from_jsonable(json.loads(text)), obj)


# Every type with a LAYOUT, under its document kind's name (the five types
# fieldio no longer encodes keep theirs), and what a NaN entry in its arrays
# raises; None: it is kept.
FIELD_TYPES = {
    "spin_field": ss.SpinField, "spin_series": ss.SpinSeries, "ct_fields": ss.CTFields,
    "gc_data": ss.GCData, "fundamental_forms": ss.FundamentalForms,
    "surface_mesh": ss.SurfaceMesh, "lax_pair": ss.LaxPairField,
    "eigenfunction": ss.Eigenfunction,
}
NONFINITE = {
    "spin_field": ss.NonFiniteFieldError, "spin_series": None,
    "ct_fields": ss.ShapeError, "gc_data": ss.ShapeError,
    "fundamental_forms": None, "surface_mesh": ss.NonFiniteFieldError,
    "lax_pair": ss.NonFiniteFieldError, "eigenfunction": ss.NonFiniteFieldError,
}
FIELD_ARRAYS = [(kind, name) for kind, cls in FIELD_TYPES.items()
                for name in cls.LAYOUT.shapes]


def _valid_field(kind):
    band = small_band()
    gc = sphere_gc(band)[0]
    ct = ss.map_gc_to_frame(gc)
    lax_pair = ss.build_lax(ct)
    f = traveling_circle(circle_grid(9))
    return {
        "spin_field": f, "spin_series": ss.evolve_series(f, 0.01, 2), "ct_fields": ct,
        "gc_data": gc, "fundamental_forms": ss.fundamental_forms(gc),
        "surface_mesh": ss.fixtures.sphere_patch(band), "lax_pair": lax_pair,
        "eigenfunction": ss.eigenfunction_field(lax_pair, np.eye(2, dtype=complex)),
    }[kind]


def test_every_field_kind_has_a_nonfinite_rule():
    assert set(FIELD_TYPES) == set(NONFINITE)
    assert {cls for cls, _, _ in fio._CODECS.values() if hasattr(cls, "LAYOUT")} \
        <= set(FIELD_TYPES.values())


@pytest.mark.parametrize("kind,name", FIELD_ARRAYS, ids=[f"{k}-{n}" for k, n in FIELD_ARRAYS])
def test_constructor_checks_declared_arrays(kind, name):
    """Each declared array: a wrong trailing shape raises ShapeError naming
    it, and a NaN entry raises the type's class or is kept."""
    obj = _valid_field(kind)
    assert type(obj) is FIELD_TYPES[kind]
    a = getattr(obj, name)
    with pytest.raises(ss.ShapeError, match=f"^{name} must have shape"):
        dataclasses.replace(obj, **{name: np.stack([a, a], axis=-1)})
    bad = a.copy()
    spot = (1,) * bad.ndim
    bad[spot] = np.nan
    if NONFINITE[kind] is None:
        assert np.isnan(getattr(dataclasses.replace(obj, **{name: bad}), name)[spot])
    else:
        with pytest.raises(NONFINITE[kind], match=f"^{name} contains non-finite values$"):
            dataclasses.replace(obj, **{name: bad})


def _short_S():
    doc = fio.to_jsonable(traveling_circle(circle_grid(9)))
    doc["S"] = doc["S"][:-1]
    return doc


# A value or document the codecs cannot take, and the typed error it must raise.
@pytest.mark.parametrize("call,error,message", [
    (lambda: fio.to_jsonable(object()), ss.ConfigError,
     "cannot serialize object of type object"),
    (lambda: fio.from_jsonable([]), ss.ConfigError, "document has no 'kind' tag"),
    (lambda: fio.from_jsonable({"kind": "spin_field"}), ss.ConfigError,
     "document of kind 'spin_field' is missing key 'grid'"),
    (lambda: fio.from_jsonable(_short_S()), ss.ShapeError, "S holds 26 values, expected 27"),
], ids=["unknown_type", "no_kind", "missing_key", "short_array"])
def test_bad_inputs_raise_typed_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


class TestJsonDeterminism:
    def test_repeat_dumps_identical(self):
        f = traveling_circle(circle_grid(17))
        assert json_text(f) == json_text(f)

    def test_keys_sorted_and_newline_terminated(self):
        s = json_text(circle_grid(9))
        assert s.endswith("\n")
        keys = list(json.loads(s).keys())
        assert keys == sorted(keys)


class TestCsv:
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

    def test_full_precision_values(self, tmp_path):
        g2 = ss.Grid2D(ss.Grid1D(0.0, 1.0, 3), ss.Grid1D(0.0, 1.0, 2))
        vals = np.array([[1.0 / 3.0, np.pi], [2.0 ** -40, np.e], [0.1, -1e300]])
        fio.save_scalars_csv({"w": vals}, g2, tmp_path / "s.csv")
        data = np.genfromtxt(tmp_path / "s.csv", delimiter=",", names=True)
        assert np.array_equal(data["w"], vals.ravel())


# Floats the emitter must spell as float.__repr__ or a NaN/Infinity token.
JSON_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072e-309, 1e308,
     1.7976931348623157e308])
JSON_TEXT = st.text() | st.sampled_from(
    ["", '"quoted"', "back\\slash", "tab\there\nline", "\x00\x1f\x7f", "caf\u00e9",
     "\u2028\ud800", "\U0001f600", ", "])
JSON_VALUES = st.recursive(
    JSON_FLOATS | st.integers() | st.booleans() | st.none() | JSON_TEXT,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(JSON_FLOATS, max_size=6)
                  | st.dictionaries(JSON_TEXT, kids, max_size=4)),
    max_leaves=25)


# A field document: nested dicts whose leaves are kind tags, boundary names
# and other strings (none of them the NUL string the writer hollows float
# lists into), ints, floats, empty lists and float lists.
FIELD_LEAVES = (st.sampled_from(sorted(fio._CODECS) + list(ss.BOUNDARIES))
                | JSON_TEXT.filter(lambda s: s != "\0") | st.integers() | JSON_FLOATS
                | st.just([]) | st.lists(JSON_FLOATS, min_size=1, max_size=20))
FIELD_DOCS = st.recursive(st.dictionaries(JSON_TEXT, FIELD_LEAVES, max_size=4),
                          lambda kids: st.dictionaries(JSON_TEXT, kids | FIELD_LEAVES,
                                                       max_size=4),
                          max_leaves=12)


def _arrays(o):
    """o with each list made a float array, as a field's document holds them."""
    if isinstance(o, dict):
        return {key: _arrays(value) for key, value in o.items()}
    return np.array(o, dtype=float) if isinstance(o, list) else o


def _field_text(doc, lines_per_write: int) -> str:
    """The text save_json writes for a field object whose document is doc
    with its lists as arrays."""
    with mock.patch.object(fio, "_document", lambda box: _arrays(box[0])), \
            mock.patch.object(fio, "LINES_PER_WRITE", lines_per_write):
        return "".join(fio._pieces((doc,)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=FIELD_DOCS)
def test_emitter_matches_json_dumps(doc):
    """A field document's pieces are json.dumps(sort_keys=True, indent=2) text,
    also when a float list spans several LINES_PER_WRITE chunks."""
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    for lines_per_write in (fio.LINES_PER_WRITE, 7, 1):
        assert _field_text(doc, lines_per_write) == expected


@settings(derandomize=True, max_examples=100, deadline=None)
@given(doc=st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=4))
def test_plain_dict_text_is_strict_json_dumps(doc):
    try:
        expected = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            json_text(doc)
    else:
        assert json_text(doc) == expected


def test_emitter_rejects_what_json_dumps_rejects():
    with pytest.raises(TypeError, match="^Object of type int64 is not JSON serializable$"):
        _field_text({"grid": {"n": np.int64(1)}, "S": [0.5]}, 7)


def test_strict_summary_leaves_no_file(tmp_path):
    """A summary json.dumps rejects raises its ValueError before the file is opened."""
    with pytest.raises(ValueError) as raised:
        json.dumps({"x": math.nan}, sort_keys=True, indent=2, allow_nan=False)
    with pytest.raises(ValueError, match=f"^{re.escape(str(raised.value))}$"):
        fio.save_json({"x": math.nan}, tmp_path / "s.json")
    assert not (tmp_path / "s.json").exists()


# A document entry of a JSON type other than a number: none may be coerced.
WRONG_ENTRIES = [("S", 4, "0.5", "string"), ("v", 2, False, "boolean"),
                 ("u", 0, None, "null"), ("S", 0, [0.5], "array")]


@pytest.mark.parametrize("key,index,value,word", WRONG_ENTRIES,
                         ids=[w for *_, w in WRONG_ENTRIES])
def test_wrong_typed_array_entry_rejected(key, index, value, word):
    doc = fio.to_jsonable(traveling_circle(circle_grid(9)))
    doc[key][index] = value
    with pytest.raises(ss.ConfigError, match=f"could not convert {word} entries of {key}"):
        fio.from_jsonable(doc)


def test_string_time_rejected():
    doc = _spin_docs()[1]
    doc["times"][1] = str(doc["times"][1])
    with pytest.raises(ss.ConfigError, match="could not convert string entries of times"):
        fio.from_jsonable(doc)


def oracle_csv(path, header, columns) -> None:
    """The CSV writer fieldio had before its row formatter: one f-string a cell."""
    cols = [np.asarray(c, dtype=float).ravel(order="C") for c in columns]
    lines = [",".join(header)]
    for i in range(cols[0].size):
        lines.append(",".join(f"{c[i]:.17g}" for c in cols))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def oracle_obj(m, path) -> None:
    """The OBJ writer surface had before its row formatter."""
    lines = []
    nx, nt = m.grid.shape
    for p in m.r.reshape(nx * nt, 3):
        lines.append(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
    for quad in m.faces():
        a, b, c, d = (int(i) + 1 for i in quad)
        lines.append(f"f {a} {b} {c} {d}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def oracle_json(obj, path) -> None:
    """The JSON writer fieldio had before its emitter."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(fio.to_jsonable(obj), sort_keys=True, indent=2) + "\n")


def oracle_series_csv(s, path) -> None:
    nx, nt = s.grid.n, s.nt
    oracle_csv(path, ["x", "t", "S1", "S2", "S3", "u", "v"],
               [np.repeat(s.grid.points(), nt), np.tile(s.times, nx),
                s.S[..., 0], s.S[..., 1], s.S[..., 2], s.u, s.v])


def oracle_mesh_csv(m, path) -> None:
    X, T = m.grid.meshes()
    oracle_csv(path, ["x", "t", "rx", "ry", "rz"],
               [X, T, m.r[..., 0], m.r[..., 1], m.r[..., 2]])


def oracle_scalars_csv(fields, grid, path) -> None:
    X, T = grid.meshes()
    oracle_csv(path, ["x", "t"] + list(fields), [X, T] + list(fields.values()))


def _writer_pairs(series, mesh, fields):
    """(name, writer, oracle) for every JSON, CSV and OBJ artifact."""
    return [
        ("series.json", lambda p: fio.save_json(series, p), lambda p: oracle_json(series, p)),
        ("mesh.json", lambda p: fio.save_json(mesh, p), lambda p: oracle_json(mesh, p)),
        ("series.csv", lambda p: fio.save_series_csv(series, p),
         lambda p: oracle_series_csv(series, p)),
        ("mesh.csv", lambda p: fio.save_mesh_csv(mesh, p),
         lambda p: oracle_mesh_csv(mesh, p)),
        ("curvature.csv", lambda p: fio.save_scalars_csv(fields, mesh.grid, p),
         lambda p: oracle_scalars_csv(fields, mesh.grid, p)),
        ("mesh.obj", lambda p: ss.export_obj(mesh, p), lambda p: oracle_obj(mesh, p)),
    ]


def _assert_writers_match_oracles(series, mesh, fields, directory):
    for name, write, oracle in _writer_pairs(series, mesh, fields):
        write(directory / name)
        oracle(directory / f"oracle_{name}")
        assert (directory / name).read_bytes() == (directory / f"oracle_{name}").read_bytes(), name


class TestWritersAgainstOracle:
    @pytest.mark.parametrize("lines_per_write", [ss.surface.LINES_PER_WRITE, 7, 1])
    def test_trajectory_artifacts(self, tmp_path, monkeypatch, lines_per_write):
        """A 65x33 random_smooth run: every artifact but the summaries equals
        the old writers' bytes, NaN (degenerate points) and +-inf cells
        included, whether a file takes one write or thousands."""
        for module in (ss.surface, fio):
            monkeypatch.setattr(module, "LINES_PER_WRITE", lines_per_write)
        grid = ss.Grid1D(0.0, 2.0 * np.pi / 64, 65, "one_sided")
        series = ss.evolve_series(random_smooth_spin(grid, seed=3), grid.dx / 4.0, 32)
        mesh = ss.reconstruct(series)
        K, H = ss.mesh_curvatures(mesh)
        assert np.isnan(K).any()
        K[5, 7], H[9, 3], H[10, 4] = np.inf, -np.inf, -0.0
        fields = {"K": K, "H": H, "degenerate": (~np.isfinite(K)).astype(float)}
        _assert_writers_match_oracles(series, mesh, fields, tmp_path)

    def test_unequal_columns_rejected(self, tmp_path):
        g2 = small_band()
        with pytest.raises(ss.ShapeError, match="equal length"):
            fio.save_scalars_csv({"a": np.zeros(3)}, g2, tmp_path / "s.csv")


def _traced_peak(write, *args) -> int:
    write(*args)  # leaves out what a first call sets up once
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("writer", [fio.save_json, fio.save_series_csv],
                         ids=["json", "csv"])
def test_writers_list_one_chunk_at_a_time(tmp_path, monkeypatch, writer):
    """At two sizes the writers' peak stays under a quarter of what listing the
    smaller series' five float arrays costs (a pointer and a float object per
    value), so a peak that grows with the series fails at the larger one."""
    for module in (ss.surface, fio):
        monkeypatch.setattr(module, "LINES_PER_WRITE", 64)
    sizes = [(65, 33), (129, 65)]
    bound = 5 * math.prod(sizes[0]) * (8 + sys.getsizeof(1.0)) / 4
    rng = np.random.default_rng(2)
    for n, nt in sizes:
        series = ss.SpinSeries(grid=ss.Grid1D(0.0, 0.1, n, "one_sided"),
                               times=0.1 * np.arange(nt), S=rng.normal(size=(n, nt, 3)),
                               u=rng.normal(size=(n, nt)), v=rng.normal(size=(n, nt)))
        peak = _traced_peak(writer, series, tmp_path / "series")
        assert peak < bound, (n, nt, peak)


def test_shared_vertex_text_follows_the_mesh(tmp_path):
    """export_obj and save_mesh_csv share one formatted vertex text, yet a mesh
    changed in place (a 0.0 turned -0.0 as well) and another mesh of the same
    shape are each written with their own values, whichever writer runs first."""
    writers = [("mesh.obj", ss.export_obj, oracle_obj),
               ("mesh.csv", fio.save_mesh_csv, oracle_mesh_csv)]
    g2 = small_band()
    rng = np.random.default_rng(11)
    a = ss.SurfaceMesh(r=rng.normal(size=g2.shape + (3,)), grid=g2)
    a.r[2, 3, 1] = 0.0
    b = ss.SurfaceMesh(r=rng.normal(size=g2.shape + (3,)), grid=g2)
    for i, mesh in enumerate([a, a, a, b]):
        if i == 1:
            a.r[2, 3, 1] = -0.0  # only the sign bit changes
        elif i == 2:
            a.r[4] *= 3.0
        for name, write, oracle in writers[::-1] if i % 2 else writers:
            write(mesh, tmp_path / name)
            oracle(mesh, tmp_path / f"oracle_{name}")
            assert (tmp_path / name).read_bytes() == \
                (tmp_path / f"oracle_{name}").read_bytes(), (i, name)
        assert (" -0 " in (tmp_path / "mesh.obj").read_text()) == (mesh is a and i > 0)


class _CountingMemo(list):
    """A surface vertex_text memo that counts the texts stored in it."""

    stores = 0

    def __setitem__(self, index, value):
        self.stores += 1
        super().__setitem__(index, value)


def test_surface_run_formats_vertex_text_once(tmp_path, monkeypatch, capsys):
    """A default-format surface run writes mesh.obj and mesh.csv from one text."""
    memo = _CountingMemo([(None, ())])
    monkeypatch.setattr(ss.surface, "_vertex_memo", memo)
    assert main(["surface", "--scenario", "sphere", "--n", "9", "--steps", "4",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {"mesh.obj", "mesh.csv"} <= {p.name for p in tmp_path.iterdir()}
    assert memo.stores == 1


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_writers_match_oracles_on_drawn_values(tmp_path_factory, data):
    """Drawn series (NaN and inf allowed), meshes and scalar fields."""
    series = data.draw(spin_series())
    g2 = data.draw(GRIDS2D)
    mesh = ss.SurfaceMesh(r=data.draw(arrays(float, g2.shape + (3,), elements=FINITE)),
                          grid=g2)
    fields = {f"c{i}": data.draw(arrays(float, g2.shape, elements=JSON_FLOATS))
              for i in range(data.draw(st.integers(0, 3)))}
    _assert_writers_match_oracles(series, mesh, fields, tmp_path_factory.mktemp("w"))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, NaN at the same places and every other entry bit-equal."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


@pytest.mark.parametrize("kind", ["spin_series", "surface_mesh"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_files_round_trip_bit_for_bit(tmp_path_factory, kind, data):
    """save_json -> load_json, and for a mesh export_obj -> import_obj, give
    back every array bit for bit (series may hold NaN and +-inf)."""
    obj = data.draw(OBJECTS[kind])
    path = tmp_path_factory.mktemp("rt")
    fio.save_json(obj, path / "doc.json")
    back = fio.load_json(path / "doc.json")
    for name in type(obj).LAYOUT.shapes:
        assert _same_bits(getattr(obj, name), getattr(back, name)), name
    if kind == "surface_mesh":
        ss.export_obj(obj, path / "mesh.obj")
        assert ss.import_obj(path / "mesh.obj", obj.grid).r.tobytes() == obj.r.tobytes()
