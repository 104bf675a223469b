"""JSON and CSV serialization for grids, fields, meshes, and matrix fields.

JSON documents are tagged with a "kind" key and hold arrays as flat C-order
(x-major) lists, complex data as paired _re/_im lists.  Writing is
deterministic: sorted keys, two-space indent, trailing newline, no
timestamps.  CSV exports cover trajectories, meshes and scalar fields on a
Grid2D; they use one header row and 17-significant-digit values, rows in
x-major order.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError, ShapeError
from .frames import CTFields
from .gauss_codazzi import FundamentalForms, GCData
from .lax import Eigenfunction, LaxPairField
from .numgrid import Grid1D, Grid2D
from .spin import SpinField, SpinSeries
from .surface import SurfaceMesh


def _flat(a: np.ndarray) -> list:
    return np.asarray(a, dtype=float).ravel(order="C").tolist()


def _unflat(data, shape, name: str) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    expected = int(np.prod(shape))
    if a.size != expected:
        raise ShapeError(f"{name} holds {a.size} values, expected {expected}")
    return a.reshape(shape)


def _encode_arrays(obj) -> dict:
    """The grid and the arrays of obj's LAYOUT, complex ones as _re/_im pairs."""
    layout = type(obj).LAYOUT
    doc = {"grid": to_jsonable(obj.grid)}
    for name in layout.shapes:
        a = getattr(obj, name)
        if layout.dtype is complex:
            doc[f"{name}_re"], doc[f"{name}_im"] = _flat(a.real), _flat(a.imag)
        else:
            doc[name] = _flat(a)
    return doc


def _decode_arrays(cls, doc: dict, lead: tuple) -> dict:
    """The arrays cls.LAYOUT declares, each of shape lead + its own."""
    layout = cls.LAYOUT
    if layout.dtype is complex:
        return {name: _unflat(doc[f"{name}_re"], lead + trail, f"{name}_re")
                + 1j * _unflat(doc[f"{name}_im"], lead + trail, f"{name}_im")
                for name, trail in layout.shapes.items()}
    return {name: _unflat(doc[name], lead + trail, name)
            for name, trail in layout.shapes.items()}


def _on_grid2(cls):
    """Codec of a type holding its LAYOUT's arrays over a Grid2D."""
    def decode(doc):
        g2 = from_jsonable(doc["grid"])
        return cls(grid=g2, **_decode_arrays(cls, doc, g2.shape))

    return cls, _encode_arrays, decode


def _spin_arrays(cls, doc: dict, lead: tuple) -> dict:
    # Spin documents written before the beta option was removed carry
    # "beta": 1; any other value describes a branch this package never ran.
    if doc.get("beta", 1) != 1:
        raise ConfigError(f"{doc['kind']} document has beta={doc['beta']!r}; "
                          f"only beta = 1 is supported")
    return _decode_arrays(cls, doc, lead)


def _decode_spin_field(doc):
    grid = from_jsonable(doc["grid"])
    return SpinField(grid=grid, t=float(doc["t"]),
                     **_spin_arrays(SpinField, doc, (grid.n,)))


def _decode_spin_series(doc):
    grid = from_jsonable(doc["grid"])
    times = np.asarray(doc["times"], dtype=float)
    return SpinSeries(grid=grid, times=times,
                      **_spin_arrays(SpinSeries, doc, (grid.n, times.size)))


def _encode_array(obj):
    if np.iscomplexobj(obj):
        return {"shape": list(obj.shape), "re": _flat(obj.real), "im": _flat(obj.imag)}
    return {"shape": list(obj.shape), "data": _flat(obj)}


def _decode_array(doc):
    shape = tuple(doc["shape"])
    if "re" in doc:
        return _unflat(doc["re"], shape, "re") + 1j * _unflat(doc["im"], shape, "im")
    return _unflat(doc["data"], shape, "data")


# kind tag -> (type, encode, decode).  encode returns the document without
# its "kind" key; decode receives the whole document.
_CODECS = {
    "grid1d": (Grid1D,
               lambda g: {"x0": g.x0, "dx": g.dx, "n": g.n, "boundary": g.boundary},
               lambda doc: Grid1D(x0=float(doc["x0"]), dx=float(doc["dx"]),
                                  n=int(doc["n"]), boundary=doc["boundary"])),
    "grid2d": (Grid2D,
               lambda g: {"gx": to_jsonable(g.gx), "gt": to_jsonable(g.gt)},
               lambda doc: Grid2D(gx=from_jsonable(doc["gx"]),
                                  gt=from_jsonable(doc["gt"]))),
    "spin_field": (SpinField, lambda f: {"t": f.t, **_encode_arrays(f)},
                   _decode_spin_field),
    "spin_series": (SpinSeries,
                    lambda s: {"times": _flat(s.times), **_encode_arrays(s)},
                    _decode_spin_series),
    "ct_fields": _on_grid2(CTFields),
    "gc_data": _on_grid2(GCData),
    "fundamental_forms": _on_grid2(FundamentalForms),
    "surface_mesh": _on_grid2(SurfaceMesh),
    "lax_pair": _on_grid2(LaxPairField),
    "eigenfunction": _on_grid2(Eigenfunction),
    "array": (np.ndarray, _encode_array, _decode_array),
}


def to_jsonable(obj) -> dict:
    """Tagged plain-dict form of a supported object."""
    for kind, (cls, encode, _) in _CODECS.items():
        if isinstance(obj, cls):
            return {"kind": kind, **encode(obj)}
    raise ConfigError(f"cannot serialize object of type {type(obj).__name__}")


def from_jsonable(doc: dict):
    """Inverse of to_jsonable; dispatches on the "kind" tag."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("document has no 'kind' tag")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _CODECS:
        raise ConfigError(f"unknown document kind {kind!r}")
    try:
        return _CODECS[kind][2](doc)
    except KeyError as e:
        raise ConfigError(f"document of kind {kind!r} is missing key {e}") from e


def dump_json_str(obj) -> str:
    """Deterministic JSON text for a supported object, strict for a plain dict."""
    plain = isinstance(obj, dict)
    doc = obj if plain else to_jsonable(obj)
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=not plain) + "\n"


def save_json(obj, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_json_str(obj))


def load_json(path):
    """Load a tagged JSON document and rebuild the object it describes."""
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    return from_jsonable(doc)


def _write_csv(path, header, columns) -> None:
    cols = [np.asarray(c, dtype=float).ravel(order="C") for c in columns]
    n = cols[0].size
    for c in cols:
        if c.size != n:
            raise ShapeError("CSV columns must have equal length")
    lines = [",".join(header)]
    for i in range(n):
        lines.append(",".join(f"{c[i]:.17g}" for c in cols))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def save_series_csv(s: SpinSeries, path) -> None:
    nx, nt = s.grid.n, s.nt
    X = np.repeat(s.grid.points(), nt)
    T = np.tile(s.times, nx)
    _write_csv(path, ["x", "t", "S1", "S2", "S3", "u", "v"],
               [X, T, s.S[..., 0], s.S[..., 1], s.S[..., 2], s.u, s.v])


def save_mesh_csv(m: SurfaceMesh, path) -> None:
    X, T = m.grid.meshes()
    _write_csv(path, ["x", "t", "rx", "ry", "rz"],
               [X, T, m.r[..., 0], m.r[..., 1], m.r[..., 2]])


def save_scalars_csv(fields: dict, grid: Grid2D, path) -> None:
    """Named scalar fields over a Grid2D, one column each."""
    X, T = grid.meshes()
    _write_csv(path, ["x", "t"] + list(fields.keys()),
               [X, T] + list(fields.values()))
