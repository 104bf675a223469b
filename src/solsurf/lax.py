"""2x2 linear representation of the frame compatibility system.

U carries (tau, k) and V carries (omega2, omega3), its diagonal zero as omega1
is; both are traceless and i*U, i*V are Hermitian for real inputs.  The
curvature orientation is frozen by symbolic expansion against the frame
compatibility residuals (r1, r2, r3) of ``frames.compatibility_residual``:

    R = U_t - V_x - [U, V]

    2i*R[0,0] =  r2            2i*R[0,1] = r1 - i*r3
    2i*R[1,1] = -r2            2i*R[1,0] = r1 + i*r3

so R vanishes exactly when the compatibility residuals do, and pointwise

    ||R||_F = sqrt((r1^2 + r2^2 + r3^2) / 2).

The commutator orientation pairs with right-multiplication transport,
phi_x = phi U and phi_t = phi V, whose cross-derivative condition is exactly
R = 0; transport therefore multiplies increments on the right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import GridError, NonFiniteFieldError, ShapeError
from .frames import CTFields
from .numgrid import Grid2D, GridFields, Layout, as_shape, diff_t, diff_x, walk_linear

_HALF_OVER_I = 1.0 / 2.0j   # exactly -0.5i


@dataclass
class LaxPairField(GridFields):
    """Traceless complex 2x2 matrices U, V per grid point."""

    U: np.ndarray
    V: np.ndarray
    grid: Grid2D

    LAYOUT = Layout({"U": (2, 2), "V": (2, 2)}, complex, NonFiniteFieldError)

    def __post_init__(self):
        super().__post_init__()
        for name in ("U", "V"):
            tr = np.abs(np.trace(getattr(self, name), axis1=-2, axis2=-1))
            if np.max(tr) > 1e-12:
                raise ShapeError(
                    f"{name} is not traceless: max |trace| = {np.max(tr):.3e}")


@dataclass
class Eigenfunction(GridFields):
    """Fundamental 2x2 solution matrix per grid point (right transport)."""

    phi: np.ndarray
    grid: Grid2D

    LAYOUT = Layout({"phi": (2, 2)}, complex, NonFiniteFieldError)


def build_lax(ct: CTFields) -> LaxPairField:
    """Assemble U from (tau, k) and V from (omega2, omega3) (omega1 = 0)."""
    shape = ct.grid.shape
    a = _HALF_OVER_I
    U = np.zeros(shape + (2, 2), dtype=complex)
    U[..., 0, 0] = a * ct.tau
    U[..., 0, 1] = a * ct.k
    U[..., 1, 0] = a * ct.k
    U[..., 1, 1] = -a * ct.tau
    V = np.zeros(shape + (2, 2), dtype=complex)
    V[..., 0, 1] = a * (ct.omega3 + 1j * ct.omega2)
    V[..., 1, 0] = a * (ct.omega3 - 1j * ct.omega2)
    return LaxPairField(U=U, V=V, grid=ct.grid)


def zero_curvature_matrix(L: LaxPairField) -> np.ndarray:
    """R = U_t - V_x - [U, V] per grid point (see module docstring)."""
    comm = L.U @ L.V - L.V @ L.U
    return diff_t(L.U, L.grid) - diff_x(L.V, L.grid) - comm


def zero_curvature_residual(L: LaxPairField) -> np.ndarray:
    """Pointwise Frobenius norm of the curvature matrix."""
    R = zero_curvature_matrix(L)
    return np.sqrt(np.sum(np.abs(R) ** 2, axis=(-2, -1)))


def _initial_phi(phi0) -> np.ndarray:
    """phi0 as a complex 2x2 matrix; NonFiniteFieldError for a NaN or Inf
    entry, ShapeError unless it is invertible."""
    phi = as_shape(phi0, (2, 2), "phi0", complex)
    if not np.isfinite(phi).all():
        raise NonFiniteFieldError("phi0 contains non-finite values")
    # entries near 1e154 and up overflow the determinant, not the matrix
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(phi)
    if abs(det) < 1e-300:
        raise ShapeError("phi0 must be invertible")
    return phi


def eigenfunction_field(L: LaxPairField, phi0: np.ndarray) -> Eigenfunction:
    """Fill the grid from phi0 at node (0, 0): walk x along t = t0, then walk
    t up every column at once.

    Off-solution data makes the result path dependent; the construction
    order above is part of the contract.
    """
    nx, nt = L.grid.shape
    row = walk_linear(_initial_phi(phi0), L.U[:-1, 0], L.U[1:, 0],
                      np.full(nx - 1, L.grid.gx.dx))
    V = np.swapaxes(L.V, 0, 1)   # t leads: the walk's step axis
    cols = walk_linear(row, V[:-1], V[1:], np.full(nt - 1, L.grid.gt.dx))
    return Eigenfunction(phi=np.ascontiguousarray(np.swapaxes(cols, 0, 1)), grid=L.grid)


def holonomy_defect(L: LaxPairField, corner: Tuple[int, int] = (0, 0),
                    sizes: Tuple[int, int] = (1, 1)) -> float:
    """Frobenius defect of transport around a rectangle of grid cells.

    The loop runs sizes[0] cells in +x, sizes[1] in +t, then back, starting
    from the identity at corner; the defect is ||phi_loop - I||_F, which
    scales like loop area times the local curvature residual for small cells.
    Each edge is one RK4 step with the generator (U on x edges, V on t edges)
    linear between its end nodes; the whole loop is one numgrid.walk_linear
    call, whose NonFiniteFieldError names the first step to blow up.
    """
    mx, mt = int(sizes[0]), int(sizes[1])
    if mx < 1 or mt < 1:
        raise GridError(f"loop sizes must be >= 1, got {sizes!r}")
    nx, nt = L.grid.shape
    ix, it = int(corner[0]), int(corner[1])
    far = (ix + mx, it + mt)
    # checked here: a negative index would wrap round in the fancy indexing below
    if min(ix, it) < 0 or far[0] >= nx or far[1] >= nt:
        raise GridError(f"loop from corner {corner!r} to {far!r} leaves the {nx}x{nt} grid")
    sides = (mx, mt, mx, mt)
    step_x, step_t = np.repeat([1, 0, -1, 0], sides), np.repeat([0, 1, 0, -1], sides)
    node_x = np.concatenate(([ix], ix + np.cumsum(step_x)))
    node_t = np.concatenate(([it], it + np.cumsum(step_t)))
    U, V = L.U[node_x, node_t], L.V[node_x, node_t]
    on_x = step_x != 0
    h = np.where(on_x, L.grid.gx.dx * step_x, L.grid.gt.dx * step_t)
    x_edge = on_x[:, None, None]
    eye = np.eye(2, dtype=complex)
    phi = walk_linear(eye, np.where(x_edge, U[:-1], V[:-1]), np.where(x_edge, U[1:], V[1:]),
                      h)[-1]
    return float(np.sqrt(np.sum(np.abs(phi - eye) ** 2)))
