"""JSON and CSV serialization of what the commands read and write.

JSON documents are tagged with a "kind" key: a Grid1D or Grid2D, a spin
field (--ic), a spin series (series.json) or a surface mesh (mesh.json).
Arrays are flat C-order (x-major) lists of floats.  CSV exports cover
trajectories, meshes and scalar fields on a Grid2D: one header row, then one
x-major row per grid point.

The writers keep a byte contract.  JSON text is json.dumps(doc,
sort_keys=True, indent=2) plus a newline, with allow_nan=False for a plain
dict (run summaries stay strict).  CSV (and OBJ, see surface.export_obj)
values are ``'%.17g' % v``.  Field documents dump their structure through
the C encoder with each float array hollowed out; the arrays' values, like
every CSV and OBJ value, are formatted by _floattext, LINES_PER_WRITE values
or rows a write.  Its digits are exact: TwoProduct gives v 10^p exactly,
the decade is checked exactly, the 17-digit integer is rounded half-even,
and a repr's 15- and 16-digit candidates are read back by Clinger's exact
fast path, or above 2^53 by the TwoProduct's exact remainder.  Python
formats each value that path cannot prove: NaN, +-inf, |v| < 1e-4 or
>= 1e15, a decade log10 misses, and a repr whose 15-digit candidate reads
back and ends in 0.  A chunk's rows are only as wide as its digits, and a
CSV chunk formats all its float columns in one call.  A caller writing both
mesh.csv and mesh.obj formats the vertices once (surface.vertex_text) and
hands the text to each.  A writer change must keep the sha256 digests in
tests/test_golden.py.
"""

from __future__ import annotations

import json

import numpy as np

from ._floattext import slots, text
from .errors import ConfigError, ShapeError
from .numgrid import Grid1D, Grid2D
from .spin import SpinField, SpinSeries
from .surface import LINES_PER_WRITE, SurfaceMesh, vertex_text


def _flat(a) -> np.ndarray:
    """a's values in C order as a 1-d float array, a view where the strides
    allow one (a component of a contiguous (..., 3) array is one)."""
    return np.asarray(a, dtype=float).reshape(-1)


def _unflat(data, shape, name: str) -> np.ndarray:
    """data, a list of JSON numbers, as a float array of shape."""
    bad = set(map(type, data)) - {int, float}
    if bad:
        json_types = {str: "string", bool: "boolean", type(None): "null", list: "array"}
        names = "/".join(sorted(json_types.get(t, t.__name__) for t in bad))
        raise TypeError(f"could not convert {names} entries of {name} to float")
    a = np.asarray(data, dtype=float)
    expected = int(np.prod(shape))
    if a.size != expected:
        raise ShapeError(f"{name} holds {a.size} values, expected {expected}")
    return a.reshape(shape)


def _encode_arrays(obj) -> dict:
    """The grid and the arrays of obj's LAYOUT."""
    return {"grid": _document(obj.grid),
            **{name: _flat(getattr(obj, name)) for name in type(obj).LAYOUT.shapes}}


def _decode_arrays(cls, doc: dict, lead: tuple) -> dict:
    """The arrays cls.LAYOUT declares, each of shape lead + its own."""
    return {name: _unflat(doc[name], lead + trail, name)
            for name, trail in cls.LAYOUT.shapes.items()}


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


def _nested(doc: dict, key: str, kind: str):
    """doc[key] decoded; ConfigError unless it is a document of kind."""
    obj = from_jsonable(doc[key])
    if not isinstance(obj, _CODECS[kind][0]):
        raise ConfigError(f"a {doc['kind']}'s {key} must be {kind}, got {doc[key]['kind']}")
    return obj


def _decode_spin_field(doc):
    grid = _nested(doc, "grid", "grid1d")
    return SpinField(grid=grid, t=_number(doc, "t"),
                     **_spin_arrays(SpinField, doc, (grid.n,)))


def _decode_spin_series(doc):
    grid = _nested(doc, "grid", "grid1d")
    times = _unflat(doc["times"], (len(doc["times"]),), "times")
    return SpinSeries(grid=grid, times=times,
                      **_spin_arrays(SpinSeries, doc, (grid.n, times.size)))


def _decode_surface_mesh(doc):
    g2 = _nested(doc, "grid", "grid2d")
    return SurfaceMesh(grid=g2, **_decode_arrays(SurfaceMesh, doc, g2.shape))


# kind tag -> (type, encode, decode).  encode returns the document without
# its "kind" key, its arrays as _flat views; decode receives the whole
# document, its arrays as lists.
_CODECS = {
    "grid1d": (Grid1D,
               lambda g: {"x0": g.x0, "dx": g.dx, "n": g.n, "boundary": g.boundary},
               lambda doc: Grid1D(x0=_number(doc, "x0"), dx=_number(doc, "dx"),
                                  n=doc["n"], boundary=doc["boundary"])),
    "grid2d": (Grid2D,
               lambda g: {"gx": _document(g.gx), "gt": _document(g.gt)},
               lambda doc: Grid2D(gx=_nested(doc, "gx", "grid1d"),
                                  gt=_nested(doc, "gt", "grid1d"))),
    "spin_field": (SpinField, lambda f: {"t": f.t, **_encode_arrays(f)},
                   _decode_spin_field),
    "spin_series": (SpinSeries,
                    lambda s: {"times": _flat(s.times), **_encode_arrays(s)},
                    _decode_spin_series),
    "surface_mesh": (SurfaceMesh, _encode_arrays, _decode_surface_mesh),
}


def _document(obj) -> dict:
    """Tagged document of a supported object, its arrays 1-d float ndarrays."""
    for kind, (cls, encode, _) in _CODECS.items():
        if isinstance(obj, cls):
            return {"kind": kind, **encode(obj)}
    raise ConfigError(f"cannot serialize object of type {type(obj).__name__}")


def _listed(o):
    """o with each ndarray made a list of Python floats."""
    if isinstance(o, dict):
        return {key: _listed(value) for key, value in o.items()}
    return o.tolist() if isinstance(o, np.ndarray) else o


def to_jsonable(obj) -> dict:
    """Tagged plain-dict form of a supported object."""
    return _listed(_document(obj))


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


# Stands in for a float array in a dumped document, whose only strings are
# kind tags and boundary names.
_SLOT = ": " + json.dumps("\0")


def _hollow(o, floats: list, inner: str = "\n  "):
    """o with each nonempty array, in sorted-key order, replaced by the string
    in _SLOT and moved to floats along with inner, its values' line start; an
    empty array becomes []."""
    if isinstance(o, dict):
        return {key: _hollow(o[key], floats, inner + "  ") for key in sorted(o)}
    if isinstance(o, np.ndarray):
        if not o.size:
            return []
        floats.append((o, inner))
        return "\0"
    return o


def _pieces(obj):
    """obj's JSON text in pieces.  A plain dict (a run summary) is dumped whole
    and strict.  Any other obj's document is dumped with its arrays hollowed
    out, then each slot gets its values' JSON text, one a line, LINES_PER_WRITE
    values a piece."""
    if isinstance(obj, dict):
        yield json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
        return
    floats = []
    parts = json.dumps(_hollow(_document(obj), floats), sort_keys=True,
                       indent=2).split(_SLOT)
    yield parts[0]
    for (values, inner), after in zip(floats, parts[1:]):
        sep = ("," + inner).encode("ascii")
        yield ": ["
        for i in range(0, values.size, LINES_PER_WRITE):
            lines = text([sep, slots(values[i:i + LINES_PER_WRITE], shortest=True)])
            yield (lines if i else lines[1:]).decode("ascii")  # the first has no comma
        yield inner[:-2] + "]" + after
    yield "\n"


def save_json(obj, path) -> None:
    """Write obj's JSON text; a document that cannot be dumped leaves no file."""
    pieces = _pieces(obj)
    first = next(pieces)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(first)
        fh.writelines(pieces)


def load_json(path):
    """Load a tagged JSON document and rebuild the object it describes.

    A file that is not ASCII JSON, or nests too deep to decode, raises
    ConfigError naming the path.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as e:
            raise ConfigError(f"{path} is not an ASCII JSON document: {e}") from e
    return from_jsonable(doc)


def _write_csv(path, header, x, t, columns, verts=None) -> None:
    """One x-major row per point of the x by t grid: x, t, columns, then the
    three cells of verts (a surface.vertex_text) where given.

    Each distinct x and t value is formatted once, the columns'
    LINES_PER_WRITE rows at a time in one slots call, so they share their
    widest column's row width.
    """
    cols = [_flat(c) for c in columns]
    nx, nt = len(x), len(t)
    if any(c.size != nx * nt for c in cols) or (verts is not None and len(verts) != nx * nt):
        raise ShapeError("CSV columns must have equal length")
    xs, ts = slots(x), slots(t)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for i in range(0, nx * nt, LINES_PER_WRITE):
            j = min(i + LINES_PER_WRITE, nx * nt)
            ix, it = divmod(np.arange(i, j), nt)
            cells = [xs.take(ix, axis=0), ts.take(it, axis=0)]
            if cols:
                cells += list(slots(np.concatenate([c[i:j] for c in cols]))
                              .reshape(len(cols), j - i, -1))
            if verts is not None:
                cells += list(verts[i:j].transpose(1, 0, 2))
            fh.write(text([piece for cell in cells for piece in (cell, b",")][:-1] + [b"\n"]))


def save_series_csv(s: SpinSeries, path) -> None:
    _write_csv(path, ["x", "t", "S1", "S2", "S3", "u", "v"], s.grid.points(), s.times,
               [s.S[..., 0], s.S[..., 1], s.S[..., 2], s.u, s.v])


def save_mesh_csv(m: SurfaceMesh, path, verts: np.ndarray | None = None) -> None:
    """The mesh's vertices, one row each; verts is their vertex_text, else
    formatted here."""
    _write_csv(path, ["x", "t", "rx", "ry", "rz"], m.grid.gx.points(),
               m.grid.gt.points(), [], vertex_text(m) if verts is None else verts)


def save_scalars_csv(fields: dict, grid: Grid2D, path) -> None:
    """Named scalar fields over a Grid2D, one column each."""
    _write_csv(path, ["x", "t", *fields], grid.gx.points(), grid.gt.points(),
               fields.values())
