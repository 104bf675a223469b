"""JSON and CSV serialization for grids, fields, meshes, and matrix fields.

JSON documents are tagged with a "kind" key and hold arrays as flat C-order
(x-major) lists, complex data as paired _re/_im lists.  CSV exports cover
trajectories, meshes and scalar fields on a Grid2D: one header row, then one
x-major row per grid point.

The writers keep a byte contract.  JSON text equals
``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline: floats by
float.__repr__, NaN/Infinity/-Infinity tokens in field documents and the
same ValueError for them in a plain dict (run summaries stay strict).  A
small emitter makes that text and hands each all-float list to the C
encoder.  CSV (and OBJ, see surface.export_obj) values are ``%.17g``, one
``%`` format per row through surface.write_rows, written in chunks.  A
writer change must keep the sha256 digests in tests/test_golden.py.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigError, ShapeError
from .frames import CTFields
from .gauss_codazzi import FundamentalForms, GCData
from .lax import Eigenfunction, LaxPairField
from .numgrid import Grid1D, Grid2D
from .spin import SpinField, SpinSeries
from .surface import LINES_PER_WRITE, SurfaceMesh, write_rows


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


def _number(doc: dict, key: str) -> float:
    """doc[key] as a float if it is a JSON number; a bool or a string is a TypeError."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return float(value)


def _decode_spin_field(doc):
    grid = from_jsonable(doc["grid"])
    return SpinField(grid=grid, t=_number(doc, "t"),
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
               lambda doc: Grid1D(x0=_number(doc, "x0"), dx=_number(doc, "dx"),
                                  n=doc["n"], boundary=doc["boundary"])),
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
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"document of kind {kind!r} holds a bad value: {e}") from e


# float.__repr__ of the non-finite values -> their JSON tokens
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _emit(o, pad: str, allow_nan: bool, write) -> None:
    """Pass the text of o, its nested lines indented from pad, to write."""
    if isinstance(o, str):
        write(encode_basestring_ascii(o))
    elif o is None:
        write("null")
    elif o is True:
        write("true")
    elif o is False:
        write("false")
    elif isinstance(o, int):
        write(int.__repr__(o))
    elif isinstance(o, float):
        text = float.__repr__(o)
        if text in _NONFINITE:
            if not allow_nan:
                raise ValueError(
                    f"Out of range float values are not JSON compliant: {o!r}")
            text = _NONFINITE[text]
        write(text)
    elif isinstance(o, (list, tuple, dict)):
        if not o:
            write("{}" if isinstance(o, dict) else "[]")
            return
        inner = pad + "  "
        if isinstance(o, dict):
            sep = "{\n" + inner
            for key, value in sorted(o.items()):
                write(sep + encode_basestring_ascii(key) + ": ")
                _emit(value, inner, allow_nan, write)
                sep = ",\n" + inner
            write("\n" + pad + "}")
        elif allow_nan and set(map(type, o)) == {float}:
            # The C encoder writes float.__repr__ and NaN/Infinity tokens
            # joined by ", ", which no float token contains.
            sep = ",\n" + inner
            write("[\n" + inner)
            for i in range(0, len(o), LINES_PER_WRITE):
                if i:
                    write(sep)
                write(json.dumps(o[i:i + LINES_PER_WRITE])[1:-1].replace(", ", sep))
            write("\n" + pad + "]")
        else:
            sep = "[\n" + inner
            for item in o:
                write(sep)
                _emit(item, inner, allow_nan, write)
                sep = ",\n" + inner
            write("\n" + pad + "]")
    else:
        raise TypeError(
            f"Object of type {type(o).__name__} is not JSON serializable")


def _document(obj):
    """The document of obj and whether it may hold NaN/Infinity: a plain
    dict (a run summary) is strict, to_jsonable(obj) is not."""
    if isinstance(obj, dict):
        return obj, False
    return to_jsonable(obj), True


def dump_json_str(obj) -> str:
    """Deterministic JSON text for a supported object, strict for a plain dict."""
    doc, allow_nan = _document(obj)
    out = []
    _emit(doc, "", allow_nan, out.append)
    return "".join(out) + "\n"


def save_json(obj, path) -> None:
    doc, allow_nan = _document(obj)
    with open(path, "w", encoding="ascii") as fh:
        _emit(doc, "", allow_nan, fh.write)
        fh.write("\n")


def load_json(path):
    """Load a tagged JSON document and rebuild the object it describes.

    A file that is not ASCII JSON raises ConfigError naming the path.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:
            raise ConfigError(f"{path} is not an ASCII JSON document: {e}") from e
    return from_jsonable(doc)


def _write_csv(path, header, x, t, columns) -> None:
    """One x-major row per point of the x by t grid: x, t, then columns.

    Each distinct x and t value is formatted once.
    """
    cols = [np.asarray(c, dtype=float).ravel(order="C").tolist() for c in columns]
    nx, nt = len(x), len(t)
    if any(len(c) != nx * nt for c in cols):
        raise ShapeError("CSV columns must have equal length")
    xs = ["%.17g" % v for v in x.tolist()]
    ts = ["%.17g" % v for v in t.tolist()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        write_rows(fh, "%s,%s" + ",%.17g" * len(cols) + "\n",
                   [[v for v in xs for _ in range(nt)], ts * nx, *cols])


def save_series_csv(s: SpinSeries, path) -> None:
    _write_csv(path, ["x", "t", "S1", "S2", "S3", "u", "v"], s.grid.points(), s.times,
               [s.S[..., 0], s.S[..., 1], s.S[..., 2], s.u, s.v])


def save_mesh_csv(m: SurfaceMesh, path) -> None:
    _write_csv(path, ["x", "t", "rx", "ry", "rz"], m.grid.gx.points(),
               m.grid.gt.points(), [m.r[..., 0], m.r[..., 1], m.r[..., 2]])


def save_scalars_csv(fields: dict, grid: Grid2D, path) -> None:
    """Named scalar fields over a Grid2D, one column each."""
    _write_csv(path, ["x", "t", *fields], grid.gx.points(), grid.gt.points(),
               fields.values())
