"""2x2 linear representation of the frame compatibility system.

U carries (tau, k) and V carries (omega1, omega2, omega3); both are traceless
and i*U, i*V are Hermitian for real inputs.  The curvature orientation is
frozen by symbolic expansion against the frame compatibility residuals
(r1, r2, r3) of ``frames.compatibility_residual``:

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
from typing import Sequence, Tuple

import numpy as np

from .errors import GridError, NonFiniteFieldError, ShapeError
from .frames import CTFields
from .numgrid import Grid2D, diff_t, diff_x, step_rk4

_HALF_OVER_I = 1.0 / 2.0j   # exactly -0.5i

# move -> (axis, sign): axis 0 steps in x with U, axis 1 in t with V
MOVES = {"+x": (0, 1), "-x": (0, -1), "+t": (1, 1), "-t": (1, -1)}


def _check_mat2(name: str, a: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.shape != shape + (2, 2):
        raise ShapeError(f"{name} must have shape {shape + (2, 2)}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteFieldError(f"{name} contains non-finite values")
    tr = np.abs(a[..., 0, 0] + a[..., 1, 1])
    if np.max(tr) > 1e-12:
        raise ShapeError(f"{name} is not traceless: max |trace| = {np.max(tr):.3e}")
    return a


@dataclass
class LaxPairField:
    """Traceless complex 2x2 matrices U, V per grid point."""

    U: np.ndarray
    V: np.ndarray
    grid: Grid2D

    def __post_init__(self):
        self.U = _check_mat2("U", self.U, self.grid.shape)
        self.V = _check_mat2("V", self.V, self.grid.shape)


@dataclass
class Eigenfunction:
    """Fundamental 2x2 solution matrix per grid point (right transport)."""

    phi: np.ndarray
    grid: Grid2D

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=complex)
        if phi.shape != self.grid.shape + (2, 2):
            raise ShapeError(
                f"phi must have shape {self.grid.shape + (2, 2)}, got {phi.shape}")
        if not np.all(np.isfinite(phi)):
            raise NonFiniteFieldError("phi contains non-finite values")
        self.phi = phi


def build_lax(ct: CTFields) -> LaxPairField:
    """Assemble U from (tau, k) and V from (omega1, omega2, omega3)."""
    shape = ct.grid.shape
    a = _HALF_OVER_I
    U = np.zeros(shape + (2, 2), dtype=complex)
    U[..., 0, 0] = a * ct.tau
    U[..., 0, 1] = a * ct.k
    U[..., 1, 0] = a * ct.k
    U[..., 1, 1] = -a * ct.tau
    V = np.zeros(shape + (2, 2), dtype=complex)
    w1 = ct.omega1
    V[..., 0, 0] = a * w1
    V[..., 0, 1] = a * (ct.omega3 + 1j * ct.omega2)
    V[..., 1, 0] = a * (ct.omega3 - 1j * ct.omega2)
    V[..., 1, 1] = -a * w1
    return LaxPairField(U=U, V=V, grid=ct.grid)


def zero_curvature_matrix(L: LaxPairField) -> np.ndarray:
    """R = U_t - V_x - [U, V] per grid point (see module docstring)."""
    comm = L.U @ L.V - L.V @ L.U
    return diff_t(L.U, L.grid) - diff_x(L.V, L.grid) - comm


def zero_curvature_residual(L: LaxPairField) -> np.ndarray:
    """Pointwise Frobenius norm of the curvature matrix."""
    R = zero_curvature_matrix(L)
    return np.sqrt(np.sum(np.abs(R) ** 2, axis=(-2, -1)))


def _edge_step(phi: np.ndarray, m_from: np.ndarray, m_to: np.ndarray,
               h: float) -> np.ndarray:
    """One RK4 step of phi' = phi*M(s) along an edge, M linear from m_from to m_to."""
    dm = m_to - m_from

    def rhs(s, y):
        return y @ (m_from + (s / h) * dm)

    return step_rk4(phi, rhs, h)


def propagate_phi(L: LaxPairField, phi0: np.ndarray, path: Sequence[str],
                  start: Tuple[int, int] = (0, 0)) -> np.ndarray:
    """Transport phi0 along a list of grid moves ("+x", "-x", "+t", "-t").

    One RK4 step per edge with the generator interpolated linearly between
    the edge endpoints; x-moves use U, t-moves use V, increments multiply on
    the right.  Returns the 2x2 value at the endpoint.
    """
    phi = np.asarray(phi0, dtype=complex)
    if phi.shape != (2, 2):
        raise ShapeError(f"phi0 must be a 2x2 matrix, got shape {phi.shape}")
    if abs(np.linalg.det(phi)) < 1e-300:
        raise ShapeError("phi0 must be invertible")
    nx, nt = L.grid.shape
    ix, it = int(start[0]), int(start[1])
    if not (0 <= ix < nx and 0 <= it < nt):
        raise GridError(f"start {start!r} is outside the grid")
    gens = (L.U, L.V)
    hs = (L.grid.gx.dx, L.grid.gt.dx)
    for step, move in enumerate(path):
        if not isinstance(move, str) or move not in MOVES:
            raise GridError(f"unknown move {move!r} at path position {step}")
        axis, sign = MOVES[move]
        jx, jt = (ix + sign, it) if axis == 0 else (ix, it + sign)
        if not (0 <= jx < nx and 0 <= jt < nt):
            raise GridError(
                f"move {move!r} at path position {step} leaves the grid "
                f"(from node ({ix}, {it}))")
        gen = gens[axis]
        phi = _edge_step(phi, gen[ix, it], gen[jx, jt], sign * hs[axis])
        if not np.all(np.isfinite(phi)):
            raise NonFiniteFieldError(
                f"phi became non-finite after path position {step}")
        ix, it = jx, jt
    return phi


def eigenfunction_field(L: LaxPairField, phi0: np.ndarray,
                        start: Tuple[int, int] = (0, 0)) -> Eigenfunction:
    """Fill the whole grid: march x along the start row, then t up each column.

    Off-solution data makes the result path dependent; the construction
    order above is part of the contract.
    """
    nx, nt = L.grid.shape
    ix0, it0 = int(start[0]), int(start[1])
    phi = np.empty((nx, nt, 2, 2), dtype=complex)
    phi[ix0, it0] = np.asarray(phi0, dtype=complex)
    dx = L.grid.gx.dx
    dt = L.grid.gt.dx
    for ix in range(ix0 + 1, nx):
        phi[ix, it0] = _edge_step(phi[ix - 1, it0], L.U[ix - 1, it0],
                                  L.U[ix, it0], dx)
    for ix in range(ix0 - 1, -1, -1):
        phi[ix, it0] = _edge_step(phi[ix + 1, it0], L.U[ix + 1, it0],
                                  L.U[ix, it0], -dx)
    for ix in range(nx):
        for it in range(it0 + 1, nt):
            phi[ix, it] = _edge_step(phi[ix, it - 1], L.V[ix, it - 1],
                                     L.V[ix, it], dt)
        for it in range(it0 - 1, -1, -1):
            phi[ix, it] = _edge_step(phi[ix, it + 1], L.V[ix, it + 1],
                                     L.V[ix, it], -dt)
    if not np.all(np.isfinite(phi)):
        raise NonFiniteFieldError("phi became non-finite while filling the grid")
    return Eigenfunction(phi=phi, grid=L.grid)


def holonomy_defect(L: LaxPairField, corner: Tuple[int, int] = (0, 0),
                    sizes: Tuple[int, int] = (1, 1),
                    phi0: np.ndarray | None = None) -> float:
    """Frobenius defect of transport around a rectangle of grid cells.

    The loop runs sizes[0] cells in +x, sizes[1] in +t, then back; the
    defect is ||phi_loop - phi0||_F, which scales like loop area times the
    local curvature residual for small cells.
    """
    mx, mt = int(sizes[0]), int(sizes[1])
    if mx < 1 or mt < 1:
        raise GridError(f"loop sizes must be >= 1, got {sizes!r}")
    if phi0 is None:
        phi0 = np.eye(2, dtype=complex)
    path = ["+x"] * mx + ["+t"] * mt + ["-x"] * mx + ["-t"] * mt
    phi = propagate_phi(L, phi0, path, start=corner)
    return float(np.sqrt(np.sum(np.abs(phi - np.asarray(phi0, dtype=complex)) ** 2)))
