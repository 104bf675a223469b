"""Surface reconstruction from spin trajectories, mesh forms, OBJ export.

The spin vector is the unit x-tangent of the swept curve, so each time
level integrates to a curve r(., t) = integral of S dx with r(x0, t) = 0.
The zero anchor is a gauge choice: the result is faithful up to a rigid
translation per time level, which leaves all pointwise form and curvature
quantities unchanged.

Swept surfaces can degenerate (r_x parallel to r_t); such points are
flagged with NaN in the normal-dependent quantities rather than raised,
so curvature reporting stays honest on meshes that are fine elsewhere.

OBJ vertex text is ``'%.17g' % v`` of each coordinate, byte for byte, made
by the _floattext kernel a chunk of vertices at a time: TwoProduct gives
|v| 10^p exactly, the decade is checked exactly and the 17-digit integer is
rounded half-even.  Python formats the coordinates it cannot prove: NaN,
+-inf, |v| < 1e-4 or >= 1e15, and a decade log10 misses.  Face rows come
from the same kernel's word table: the index text 1..N is formatted once and
each chunk of faces is laid out from its rows.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from ._floattext import index_text, slots, text, width
from .errors import NonFiniteFieldError, ShapeError
from .gauss_codazzi import FundamentalForms, curvatures
from .numgrid import (Grid1D, Grid2D, GridFields, Layout, diff_t, diff_tt, diff_x,
                      diff_xx, integrate_x)
from .spin import SpinSeries

DEGENERATE_TOL = 1e-10
ROUNDOFF_TOL = 1e-3  # of the normal curvature, for a second difference's round-off
# Lines of text per write call in every writer: a few hundred kB, so a
# large file is never held as one string.
LINES_PER_WRITE = 4096


@dataclass
class SurfaceMesh(GridFields):
    """Positions r over a Grid2D; quad connectivity follows the grid."""

    r: np.ndarray
    grid: Grid2D

    LAYOUT = Layout({"r": (3,)}, nonfinite=NonFiniteFieldError)

    def faces(self) -> np.ndarray:
        """(nfaces, 4) 0-based quad indices, one per grid cell."""
        nx, nt = self.grid.shape
        base = (np.arange(nx - 1)[:, None] * nt + np.arange(nt - 1)).reshape(-1, 1)
        return base + np.array([0, nt, nt + 1, 1])


def reconstruct(series: SpinSeries) -> SurfaceMesh:
    """Integrate the spin field in x at every time level (trapezoid, anchor 0).

    The series needs two or more time levels; SpinSeries checks that they
    are uniformly spaced.
    """
    g2 = series.grid2
    return SurfaceMesh(r=integrate_x(series.S, g2), grid=g2)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def mesh_forms(m: SurfaceMesh) -> FundamentalForms:
    """First and second form coefficients by finite differences.

    E, F, G are defined everywhere; L, M, N are NaN (mask ~isfinite(L)) where
    |r_x ^ r_t| <= DEGENERATE_TOL max|r_x| max|r_t|, a bound that scales with
    the surface: at r_t = 0, or at round-off on that scale (closure rows),
    and where E G - F^2, which K and H divide by, cancels to <= 0.  Where it
    overflows (round-off at a tiny spacing), so does the bound: none passes it.
    Every point is degenerate where the round-off eps*max|r.n|/(h**2 max(E or
    G)) of the curvature along x or t (h = dx, dt) is not below ROUNDOFF_TOL
    times the largest normal curvature max|L|/max E, max|N|/max G (noise alone
    is at most about twice its floor), or 1/max|r| for a patch too flat to
    show one: the samples of a small cap of a sphere about the origin are a
    plane's.  |r.n| is taken coordinate by coordinate, as the largest
    sum_j max|r_j| |n_j| over every point where r_x ^ r_t has a direction n,
    regular or not (round-off in r_x can give every regular point a false
    normal), so a flat patch far from the origin along its own plane keeps
    its zero curvature.
    """
    r_x, r_t = diff_x(m.r, m.grid), diff_t(m.r, m.grid)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        E, F, G = _dot(r_x, r_x), _dot(r_x, r_t), _dot(r_t, r_t)
        unit = np.cross(r_x, r_t)
        mag = np.linalg.norm(unit, axis=-1)
        good = (mag > DEGENERATE_TOL * np.sqrt(np.max(E) * np.max(G))) & (E * G - F ** 2 > 0)
        unit /= mag[..., None]  # NaN where r_x ^ r_t is 0
    n = np.where(good[..., None], unit, np.nan)
    L, N = _dot(diff_xx(m.r, m.grid), n), _dot(diff_tt(m.r, m.grid), n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r_max, E_max, G_max = np.max(np.abs(m.r)), np.max(E), np.max(G)
        kappa = np.fmax.reduce([np.fmax.reduce(np.abs(L), axis=None) / E_max,
                                np.fmax.reduce(np.abs(N), axis=None) / G_max, 1.0 / r_max])
        h2_metric = np.minimum(m.grid.gx.dx ** 2 * E_max, m.grid.gt.dx ** 2 * G_max)
        reach = _dot(np.abs(unit, out=unit), np.max(np.abs(m.r), axis=(0, 1)))
        r_n = np.fmax.reduce(reach, axis=None)
        if not np.finfo(float).eps * r_n / h2_metric <= ROUNDOFF_TOL * kappa:
            n[...] = L[...] = N[...] = np.nan
    return FundamentalForms(E=E, F=F, G=G, L=L, M=_dot(diff_t(r_x, m.grid), n), N=N, grid=m.grid)


def mesh_curvatures(m: SurfaceMesh):
    """(K, H) per grid point, NaN where the tangent plane degenerates."""
    return curvatures(mesh_forms(m))


def vertex_text(m: SurfaceMesh) -> np.ndarray:
    """Each vertex's x, y, z as '%.17g' text, in grid order: a (vertices, 3,
    width(m.r)) array of _floattext slots, the vertex text of export_obj and
    fieldio.save_mesh_csv, which a caller of both can format once and hand
    to each."""
    r = m.r.reshape(-1, 3)
    w = width(r)
    out = np.zeros((len(r), 3, w), dtype=np.uint8)
    for i in range(0, len(r), LINES_PER_WRITE):
        rows = slots(r[i:i + LINES_PER_WRITE])  # a narrower chunk's rows start further in
        out[i:i + LINES_PER_WRITE, :, w - rows.shape[1]:] = rows.reshape(-1, 3, rows.shape[1])
    return out


def export_obj(m: SurfaceMesh, path, verts: np.ndarray | None = None) -> None:
    """Wavefront OBJ: vertices in grid order (x-major), 1-based quad faces.

    Formatting is deterministic (17 significant digits), so identical
    meshes export byte-identically.  A vertex row is "v", then its
    vertex_text (verts, else formatted here); a face row is "f", then the
    index text of its m.faces() row, each index formatted once.  Either
    takes LINES_PER_WRITE rows a write.
    """
    if verts is None:
        verts = vertex_text(m)
    with open(path, "wb") as fh:
        for i in range(0, len(verts), LINES_PER_WRITE):
            x, y, z = verts[i:i + LINES_PER_WRITE].transpose(1, 0, 2)
            fh.write(text([b"v ", x, b" ", y, b" ", z, b"\n"]))
        indices, faces = index_text(np.arange(1, len(verts) + 1)), m.faces()
        for i in range(0, len(faces), LINES_PER_WRITE):
            a, b, c, d = indices[faces[i:i + LINES_PER_WRITE].T]
            fh.write(text([b"f ", a, b" ", b, b" ", c, b" ", d, b"\n"]))


def import_obj(path, grid: Grid2D | None = None) -> SurfaceMesh:
    """Read a grid-shaped OBJ written by export_obj.

    The grid layout is inferred from the first face (vertices are x-major),
    and every face must be the grid's, in export_obj's order.  Unit-spacing
    axes are synthesized when no grid is supplied.
    """
    verts, indices = [], array("q")  # every face's indices, 8 bytes each
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            parts = raw.split()
            if not parts:
                continue
            if parts[0] == "v":
                try:
                    _, x, y, z = parts
                    verts.append([float(x), float(y), float(z)])
                except ValueError:
                    raise ShapeError(f"malformed vertex line: {raw.rstrip()!r}") from None
            elif parts[0] == "f":
                if len(parts) != 5:
                    raise ShapeError(f"expected quad faces, got: {raw.rstrip()!r}")
                try:
                    indices.extend(map(int, parts[1:]))
                except (ValueError, OverflowError):
                    raise ShapeError(f"malformed face line: {raw.rstrip()!r}") from None
    if not verts or not indices:
        raise ShapeError(f"no grid mesh found in {path}")
    nt = indices[1] - indices[0]
    if nt < 2 or len(verts) % nt != 0:
        raise ShapeError(f"vertex count {len(verts)} does not fit row length {nt}")
    nx = len(verts) // nt
    faces = np.frombuffer(indices, dtype=np.int64).reshape(-1, 4)
    if len(faces) != (nx - 1) * (nt - 1):
        raise ShapeError(
            f"face count {len(faces)} does not match a {nx}x{nt} grid")
    if grid is None:
        grid = Grid2D(Grid1D(0.0, 1.0, nx), Grid1D(0.0, 1.0, nt))
    elif grid.shape != (nx, nt):
        raise ShapeError(f"supplied grid shape {grid.shape} does not match ({nx}, {nt})")
    mesh = SurfaceMesh(r=np.asarray(verts, dtype=float).reshape(nx, nt, 3), grid=grid)
    wrong = np.flatnonzero((faces != mesh.faces() + 1).any(axis=1))
    if wrong.size:
        k = wrong[0]
        raise ShapeError(f"face line 'f {' '.join(map(str, faces[k]))}' is not face {k + 1} "
                         f"of a {nx}x{nt} grid")
    return mesh
