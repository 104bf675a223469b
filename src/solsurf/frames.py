"""Moving-frame linear systems, frame transport, and compatibility residuals.

A frame is the row-stack E = (e1; e2; e3) of an orthonormal triad.  In space
it obeys E_x = A E with A built from curvature k and torsion tau; in time it
obeys E_t = B E with rotation rates omega1, omega2, omega3.  The mixed
derivative of E gives the compatibility system whose residuals are computed
here.  omega1 is fixed to zero throughout the curvature/torsion data type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GramDriftError, ShapeError
from .numgrid import Grid1D, Grid2D, diff_t, diff_x, step_rk4


@dataclass
class FrameState:
    """Orthonormal triad per grid point plus the scalar frame data.

    e1, e2, e3 have shape (n, 3); k and tau have shape (n,).  The omegas are
    time-rotation rates. They are None when unknown (pure spatial transport
    does not determine them).  gram_drift records, per grid point, the
    orthonormality deviation observed during transport before any
    re-orthonormalization; it is None for frames built directly from data.

    k is nonnegative for frames built from spin fields (positive square
    root convention); raw user data with signed k is accepted.
    """

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    k: np.ndarray
    tau: np.ndarray
    grid: Grid1D
    omega1: np.ndarray | None = None
    omega2: np.ndarray | None = None
    omega3: np.ndarray | None = None
    gram_drift: np.ndarray | None = None

    def __post_init__(self):
        n = self.grid.n
        for name, shape, optional in (
                ("e1", (n, 3), False), ("e2", (n, 3), False),
                ("e3", (n, 3), False), ("k", (n,), False), ("tau", (n,), False),
                ("omega1", (n,), True), ("omega2", (n,), True),
                ("omega3", (n,), True), ("gram_drift", (n,), True)):
            value = getattr(self, name)
            if optional and value is None:
                continue
            value = np.asarray(value, dtype=float)
            if value.shape != shape:
                raise ShapeError(f"{name} must have shape {shape}, got {value.shape}")
            setattr(self, name, value)

    def triad(self, i: int) -> np.ndarray:
        """Row-stack (3, 3) of the triad at grid point i."""
        return np.stack([self.e1[i], self.e2[i], self.e3[i]])


def matrix_a(k: float, tau: float) -> np.ndarray:
    """Spatial coefficient matrix of the frame system."""
    return np.array([
        [0.0, k, 0.0],
        [-k, 0.0, tau],
        [0.0, -tau, 0.0],
    ])


def matrix_b(omega1: float, omega2: float, omega3: float) -> np.ndarray:
    """Temporal coefficient matrix of the frame system."""
    return np.array([
        [0.0, omega3, -omega2],
        [-omega3, 0.0, omega1],
        [omega2, -omega1, 0.0],
    ])


def gram_deviation(triad: np.ndarray) -> float:
    """Max-abs deviation of triad @ triad.T from the identity."""
    e = np.asarray(triad, dtype=float)
    if e.shape != (3, 3):
        raise ShapeError(f"triad must be a 3x3 row-stack, got shape {e.shape}")
    return float(np.max(np.abs(e @ e.T - np.eye(3))))


def _reorthonormalize(triad: np.ndarray) -> np.ndarray:
    e1 = triad[0] / np.linalg.norm(triad[0])
    e2 = triad[1] - (triad[1] @ e1) * e1
    e2 = e2 / np.linalg.norm(e2)
    e3 = np.cross(e1, e2)
    return np.stack([e1, e2, e3])


def _coefficient(c, grid: Grid1D) -> np.ndarray:
    """A scalar or per-point coefficient as its (n,) values at the nodes."""
    arr = np.array(c, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.n, float(arr))
    if arr.shape != (grid.n,):
        raise ShapeError(f"coefficient must be scalar or shape ({grid.n},), "
                         f"got {arr.shape}")
    return arr


def transport_frame_x(frame0: np.ndarray, k, tau, grid: Grid1D,
                      reorthonormalize: bool = True,
                      gram_tol: float = 1e-4) -> FrameState:
    """Integrate the spatial frame system E_x = A(x) E across the grid by RK4.

    frame0 is the (3, 3) row-stack at grid.x0 and must be orthonormal within
    1e-8.  k and tau may be scalars or per-point arrays; per-point values are
    linearly interpolated at stage points.  The orthonormality deviation is
    recorded at every point before re-orthonormalization; exceeding gram_tol
    raises GramDriftError (integration blow-up).
    """
    e0 = np.asarray(frame0, dtype=float)
    dev0 = gram_deviation(e0)
    if dev0 > 1e-8:
        raise GramDriftError(f"initial triad is not orthonormal (deviation {dev0:.3e})",
                             deviation=dev0)
    k = _coefficient(k, grid)
    tau = _coefficient(tau, grid)
    xs = grid.points()

    def rhs(x, e):
        return matrix_a(np.interp(x, xs, k), np.interp(x, xs, tau)) @ e

    n = grid.n
    frames = np.empty((n, 3, 3))
    drift = np.zeros(n)
    frames[0] = e0
    cur = e0
    for i in range(n - 1):
        nxt = step_rk4(cur, rhs, grid.dx, t=xs[i])
        dev = gram_deviation(nxt)
        drift[i + 1] = dev
        if dev > gram_tol:
            raise GramDriftError(
                f"frame transport lost orthonormality at x index {i + 1} "
                f"(deviation {dev:.3e} > {gram_tol:.1e})", deviation=dev)
        if reorthonormalize:
            nxt = _reorthonormalize(nxt)
        frames[i + 1] = nxt
        cur = nxt
    return FrameState(
        e1=frames[:, 0], e2=frames[:, 1], e3=frames[:, 2],
        k=k, tau=tau, grid=grid, gram_drift=drift)


@dataclass
class CTFields:
    """Curvature/torsion data (k, tau, omega2, omega3) on a 2-D grid.

    omega1 is identically zero for this data type.  k may change sign here:
    curvature-type fields imported from surface data are signed, and the
    compatibility equations are polynomial in k, so no positivity is
    enforced.
    """

    k: np.ndarray
    tau: np.ndarray
    omega2: np.ndarray
    omega3: np.ndarray
    grid: Grid2D

    def __post_init__(self):
        shape = self.grid.shape
        for name in ("k", "tau", "omega2", "omega3"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != shape:
                raise ShapeError(f"{name} must have shape {shape}, got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ShapeError(f"{name} contains non-finite values")
            setattr(self, name, a)

    @property
    def omega1(self) -> np.ndarray:
        return np.zeros(self.grid.shape)


def compatibility_residual(ct: CTFields, g2: Grid2D | None = None):
    """Residuals of the curvature/torsion compatibility system.

    r1 = k_t - omega3_x - tau*omega2
    r2 = tau_t + k*omega2
    r3 = omega2_x - tau*omega3

    All three vanish exactly when (k, tau, omega2, omega3) comes from a
    common frame field.  Returns three arrays on the grid.
    """
    g = ct.grid if g2 is None else g2
    r1 = diff_t(ct.k, g) - diff_x(ct.omega3, g) - ct.tau * ct.omega2
    r2 = diff_t(ct.tau, g) + ct.k * ct.omega2
    r3 = diff_x(ct.omega2, g) - ct.tau * ct.omega3
    return r1, r2, r3


def torsion_transport_residual(e1: np.ndarray, tau: np.ndarray, g2: Grid2D,
                               omega1: np.ndarray | None = None) -> np.ndarray:
    """Residual tau_t - omega1_x - e1 . (e1_x ^ e1_t) on a frame time-series.

    e1 has shape (nx, nt, 3), tau has shape (nx, nt).  On trajectories of the
    spin system (tau identified with v, omega1 = 0) the triple-product term
    equals tau_t, so the residual converges to zero under grid refinement.
    """
    e1 = np.asarray(e1, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if e1.shape != g2.shape + (3,):
        raise ShapeError(f"e1 must have shape {g2.shape + (3,)}, got {e1.shape}")
    if tau.shape != g2.shape:
        raise ShapeError(f"tau must have shape {g2.shape}, got {tau.shape}")
    e1x = diff_x(e1, g2)
    e1t = diff_t(e1, g2)
    triple = np.einsum("xtc,xtc->xt", e1, np.cross(e1x, e1t))
    res = diff_t(tau, g2) - triple
    if omega1 is not None:
        res = res - diff_x(np.asarray(omega1, dtype=float), g2)
    return res
