"""JSON and CSV serialization for grids, fields, meshes, and matrix fields.

JSON documents are tagged with a "kind" key and hold arrays as flat C-order
(x-major) lists, complex data as paired _re/_im lists.  Writing is
deterministic: sorted keys, two-space indent, trailing newline, no
timestamps.  CSV exports use one header row and 17-significant-digit
values, rows in x-major order.
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


def _encode_arrays(obj, names, cplx: bool = False) -> dict:
    doc = {}
    for name in names:
        a = getattr(obj, name)
        if cplx:
            doc[f"{name}_re"], doc[f"{name}_im"] = _flat(a.real), _flat(a.imag)
        else:
            doc[name] = _flat(a)
    return doc


def _decode_arrays(doc: dict, shapes: dict, cplx: bool = False) -> dict:
    if cplx:
        return {name: _unflat(doc[f"{name}_re"], shape, f"{name}_re")
                + 1j * _unflat(doc[f"{name}_im"], shape, f"{name}_im")
                for name, shape in shapes.items()}
    return {name: _unflat(doc[name], shape, name) for name, shape in shapes.items()}


def _on_grid2(cls, names, extra=(), cplx: bool = False):
    """Codec of a type holding named arrays of shape grid.shape + extra."""
    def encode(obj):
        return {"grid": to_jsonable(obj.grid), **_encode_arrays(obj, names, cplx)}

    def decode(doc):
        g2 = from_jsonable(doc["grid"])
        shapes = {name: g2.shape + extra for name in names}
        return cls(grid=g2, **_decode_arrays(doc, shapes, cplx))

    return cls, encode, decode


def _spin_arrays(doc: dict, shape: tuple) -> dict:
    # Spin documents written before the beta option was removed carry
    # "beta": 1; any other value describes a branch this package never ran.
    if doc.get("beta", 1) != 1:
        raise ConfigError(f"{doc['kind']} document has beta={doc['beta']!r}; "
                          f"only beta = 1 is supported")
    return _decode_arrays(doc, {"S": shape + (3,), "u": shape, "v": shape})


def _decode_spin_field(doc):
    grid = from_jsonable(doc["grid"])
    return SpinField(grid=grid, t=float(doc["t"]), **_spin_arrays(doc, (grid.n,)))


def _decode_spin_series(doc):
    grid = from_jsonable(doc["grid"])
    times = np.asarray(doc["times"], dtype=float)
    return SpinSeries(grid=grid, times=times,
                      **_spin_arrays(doc, (grid.n, times.size)))


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
    "spin_field": (SpinField,
                   lambda f: {"grid": to_jsonable(f.grid), "t": f.t,
                              **_encode_arrays(f, ("S", "u", "v"))},
                   _decode_spin_field),
    "spin_series": (SpinSeries,
                    lambda s: {"grid": to_jsonable(s.grid),
                               **_encode_arrays(s, ("times", "S", "u", "v"))},
                    _decode_spin_series),
    "ct_fields": _on_grid2(CTFields, ("k", "tau", "omega2", "omega3")),
    "gc_data": _on_grid2(GCData, ("psi1", "psi2", "tpsi1", "tpsi2", "p", "q")),
    "fundamental_forms": _on_grid2(FundamentalForms, ("E", "F", "G", "L", "M", "N")),
    "surface_mesh": _on_grid2(SurfaceMesh, ("r",), extra=(3,)),
    "lax_pair": _on_grid2(LaxPairField, ("U", "V"), extra=(2, 2), cplx=True),
    "eigenfunction": _on_grid2(Eigenfunction, ("phi",), extra=(2, 2), cplx=True),
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
    """Deterministic JSON text for a supported object or plain dict."""
    doc = obj if isinstance(obj, dict) else to_jsonable(obj)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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


def save_spin_csv(f: SpinField, path) -> None:
    x = f.grid.points()
    _write_csv(path, ["x", "S1", "S2", "S3", "u", "v"],
               [x, f.S[:, 0], f.S[:, 1], f.S[:, 2], f.u, f.v])


def save_series_csv(s: SpinSeries, path) -> None:
    nx, nt = s.grid.n, s.nt
    X = np.repeat(s.grid.points(), nt)
    T = np.tile(s.times, nx)
    _write_csv(path, ["x", "t", "S1", "S2", "S3", "u", "v"],
               [X, T, s.S[..., 0], s.S[..., 1], s.S[..., 2], s.u, s.v])


def save_ct_csv(ct: CTFields, path) -> None:
    X, T = ct.grid.meshes()
    _write_csv(path, ["x", "t", "k", "tau", "omega2", "omega3"],
               [X, T, ct.k, ct.tau, ct.omega2, ct.omega3])


def save_gc_csv(d: GCData, path) -> None:
    X, T = d.grid.meshes()
    _write_csv(path, ["x", "t", "psi1", "psi2", "tpsi1", "tpsi2", "p", "q"],
               [X, T, d.psi1, d.psi2, d.tpsi1, d.tpsi2, d.p, d.q])


def save_mesh_csv(m: SurfaceMesh, path) -> None:
    X, T = m.grid.meshes()
    _write_csv(path, ["x", "t", "rx", "ry", "rz"],
               [X, T, m.r[..., 0], m.r[..., 1], m.r[..., 2]])


def save_scalars_csv(fields: dict, grid, path) -> None:
    """Named scalar fields over a Grid1D or Grid2D, one column each."""
    if isinstance(grid, Grid2D):
        X, T = grid.meshes()
        header = ["x", "t"] + list(fields.keys())
        columns = [X, T] + list(fields.values())
    else:
        header = ["x"] + list(fields.keys())
        columns = [grid.points()] + list(fields.values())
    _write_csv(path, header, columns)
