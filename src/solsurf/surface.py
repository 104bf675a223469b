"""Surface reconstruction from spin trajectories, mesh forms, OBJ export.

The spin vector is the unit x-tangent of the swept curve, so each time
level integrates to a curve r(., t) = integral of S dx with r(x0, t) = 0.
The zero anchor is a gauge choice: the result is faithful up to a rigid
translation per time level, which leaves all pointwise form and curvature
quantities unchanged.

Swept surfaces can degenerate (r_x parallel to r_t); such points are
flagged with NaN in the normal-dependent quantities rather than raised,
so curvature reporting stays honest on meshes that are fine elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteFieldError, ShapeError
from .gauss_codazzi import FundamentalForms, _gauss_mean
from .numgrid import Grid1D, Grid2D, diff_t, diff_tt, diff_x, diff_xx, integrate_x
from .spin import SpinSeries

DEGENERATE_TOL = 1e-10


@dataclass
class SurfaceMesh:
    """Positions r over a Grid2D; quad connectivity follows the grid."""

    r: np.ndarray
    grid: Grid2D

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.shape != self.grid.shape + (3,):
            raise ShapeError(
                f"r must have shape {self.grid.shape + (3,)}, got {r.shape}")
        if not np.all(np.isfinite(r)):
            raise NonFiniteFieldError("mesh positions contain non-finite values")
        self.r = r

    def vertex_index(self, ix: int, it: int) -> int:
        """0-based vertex index in grid order (x-major)."""
        return ix * self.grid.gt.n + it

    def faces(self) -> np.ndarray:
        """(nfaces, 4) 0-based quad indices, one per grid cell."""
        nx, nt = self.grid.shape
        base = (np.arange(nx - 1)[:, None] * nt + np.arange(nt - 1)).ravel()
        return np.stack([base, base + nt, base + nt + 1, base + 1], axis=1)


def reconstruct(series: SpinSeries) -> SurfaceMesh:
    """Integrate the spin field in x at every time level (trapezoid, anchor 0).

    The series needs two or more time levels; SpinSeries checks that they
    are uniformly spaced.
    """
    g2 = series.grid2
    return SurfaceMesh(r=integrate_x(series.S, g2, anchor=0.0), grid=g2)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def _unit_normal(r_x: np.ndarray, r_t: np.ndarray, tol: float):
    cross = np.cross(r_x, r_t)
    mag = np.linalg.norm(cross, axis=-1)
    degenerate = mag < tol
    n = np.full_like(cross, np.nan)
    good = ~degenerate
    n[good] = cross[good] / mag[good][..., None]
    return n, degenerate


def mesh_normal(m: SurfaceMesh, tol: float = DEGENERATE_TOL):
    """Unit normal field and the degenerate-point mask.

    Points with |r_x ^ r_t| < tol get NaN normals and a True mask entry.
    """
    return _unit_normal(diff_x(m.r, m.grid), diff_t(m.r, m.grid), tol)


def mesh_forms(m: SurfaceMesh, tol: float = DEGENERATE_TOL) -> FundamentalForms:
    """First and second form coefficients by finite differences.

    E, F, G are defined everywhere; L, M, N are NaN where the tangent plane
    degenerates (mask recoverable as ~isfinite(L)).
    """
    r_x = diff_x(m.r, m.grid)
    r_t = diff_t(m.r, m.grid)
    n, _ = _unit_normal(r_x, r_t, tol)
    r_xx = diff_xx(m.r, m.grid)
    r_tt = diff_tt(m.r, m.grid)
    r_xt = diff_t(r_x, m.grid)
    return FundamentalForms(
        E=_dot(r_x, r_x), F=_dot(r_x, r_t), G=_dot(r_t, r_t),
        L=_dot(r_xx, n), M=_dot(r_xt, n), N=_dot(r_tt, n), grid=m.grid)


def _form_curvatures(f: FundamentalForms):
    with np.errstate(invalid="ignore", divide="ignore"):
        return _gauss_mean(f, f.E * f.G - f.F ** 2)


def mesh_curvatures(m: SurfaceMesh, tol: float = DEGENERATE_TOL):
    """(K, H) per grid point, NaN where the tangent plane degenerates."""
    return _form_curvatures(mesh_forms(m, tol))


def export_obj(m: SurfaceMesh, path) -> None:
    """Wavefront OBJ: vertices in grid order (x-major), 1-based quad faces.

    Formatting is deterministic (17 significant digits), so identical
    meshes export byte-identically.
    """
    lines = []
    nx, nt = m.grid.shape
    flat = m.r.reshape(nx * nt, 3)
    for p in flat:
        lines.append(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
    for quad in m.faces():
        a, b, c, d = (int(i) + 1 for i in quad)
        lines.append(f"f {a} {b} {c} {d}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def import_obj(path, grid: Grid2D | None = None) -> SurfaceMesh:
    """Read a grid-shaped OBJ written by export_obj.

    The grid layout is inferred from the first face (vertices are x-major),
    and unit-spacing axes are synthesized when no grid is supplied.
    """
    verts = []
    first_face = None
    n_faces = 0
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            parts = raw.split()
            if not parts:
                continue
            if parts[0] == "v":
                if len(parts) != 4:
                    raise ShapeError(f"malformed vertex line: {raw.rstrip()!r}")
                verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
            elif parts[0] == "f":
                if len(parts) != 5:
                    raise ShapeError(f"expected quad faces, got: {raw.rstrip()!r}")
                n_faces += 1
                if first_face is None:
                    first_face = [int(p) for p in parts[1:]]
    if not verts or first_face is None:
        raise ShapeError(f"no grid mesh found in {path}")
    nt = first_face[1] - first_face[0]
    if nt < 2 or len(verts) % nt != 0:
        raise ShapeError(f"vertex count {len(verts)} does not fit row length {nt}")
    nx = len(verts) // nt
    if n_faces != (nx - 1) * (nt - 1):
        raise ShapeError(
            f"face count {n_faces} does not match a {nx}x{nt} grid")
    if grid is None:
        grid = Grid2D(Grid1D(0.0, 1.0, nx), Grid1D(0.0, 1.0, nt))
    elif grid.shape != (nx, nt):
        raise ShapeError(f"supplied grid shape {grid.shape} does not match ({nx}, {nt})")
    r = np.asarray(verts, dtype=float).reshape(nx, nt, 3)
    return SurfaceMesh(r=r, grid=grid)
