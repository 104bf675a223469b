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

from .errors import ConfigError, GramDriftError, NonFiniteFieldError, ShapeError
from .numgrid import Grid1D, Grid2D, GridFields, Layout, as_shape, diff_t, diff_x, walk_linear

# Transport whose triad drifts further than this from orthonormal has blown up.
GRAM_TOL = 1e-4


@dataclass
class FrameState:
    """Orthonormal triad per grid point plus the scalar frame data.

    gram_drift, per grid point, is the orthonormality deviation of the
    transported triad; None for frames built from data.

    k is nonnegative for frames built from spin fields (positive square
    root convention); raw user data with signed k is accepted.
    """

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    k: np.ndarray
    tau: np.ndarray
    grid: Grid1D
    gram_drift: np.ndarray | None = None

    LAYOUT = Layout({"e1": (3,), "e2": (3,), "e3": (3,), "k": (), "tau": ()})

    def __post_init__(self):
        self.LAYOUT.check(self, (self.grid.n,))
        if self.gram_drift is not None:
            Layout({"gram_drift": ()}).check(self, (self.grid.n,))

    def triad(self, i: int) -> np.ndarray:
        """Row-stack (3, 3) of the triad at grid point i."""
        return np.stack([self.e1[i], self.e2[i], self.e3[i]])


def matrix_a(k, tau) -> np.ndarray:
    """Spatial coefficient matrix of the frame system; array k and tau give a
    stack of shape k.shape + (3, 3)."""
    k, tau = np.broadcast_arrays(k, tau)
    a = np.zeros(k.shape + (3, 3))
    a[..., 0, 1], a[..., 1, 0] = k, -k
    a[..., 1, 2], a[..., 2, 1] = tau, -tau
    return a


def gram_deviation(triad: np.ndarray) -> float:
    """Max-abs deviation of triad @ triad.T from the identity."""
    e = as_shape(triad, (3, 3), "triad")
    return float(np.max(np.abs(e @ e.T - np.eye(3))))


def _coefficient(c, grid: Grid1D, name: str) -> np.ndarray:
    """A scalar or per-point coefficient as its (n,) values at the nodes."""
    arr = np.array(c, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.n, float(arr))
    return as_shape(arr, (grid.n,), name)


def _checked_drift(frames: np.ndarray, first: int) -> np.ndarray:
    """max|E E^T - I| of transported triads, frames[j] at x index first + j.

    The first index that is non-finite or over GRAM_TOL raises: a non-finite
    triad NonFiniteFieldError (its step blew up), else GramDriftError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.max(np.abs(frames @ np.swapaxes(frames, -1, -2) - np.eye(3)), axis=(-2, -1))
    finite = np.isfinite(frames).all(axis=(-2, -1))
    bad = np.flatnonzero(~finite | (dev > GRAM_TOL))
    if bad.size:
        i = bad[0]
        if not finite[i]:
            raise NonFiniteFieldError(f"frame transport went non-finite at x index {first + i}")
        raise GramDriftError(
            f"frame transport lost orthonormality at x index {first + i} "
            f"(deviation {dev[i]:.3e} > {GRAM_TOL:.1e})")
    return dev


def transport_frame_x(frame0: np.ndarray, k, tau, grid: Grid1D,
                      reorthonormalize: bool = False) -> FrameState:
    """Integrate the spatial frame system E_x = A(x) E across the grid by RK4.

    frame0 is the (3, 3) row-stack at grid.x0 and must be finite and
    orthonormal within 1e-8.  k and tau may be scalars or per-point arrays; A
    is linear in x between the points.  The row is one numgrid.walk_linear
    chain.  One check after the walk reads the orthonormality deviation at
    every point: over GRAM_TOL raises GramDriftError (integration blow-up),
    unless a NaN or Inf comes at or before that point; NonFiniteFieldError
    names its index.
    """
    # kept as a keyword only because perfbench/readings.py passes it, as False
    if reorthonormalize:
        raise ConfigError("transport_frame_x has no re-orthonormalizing mode")
    e0 = np.array(frame0, dtype=float, order="C")
    if not np.isfinite(e0).all():
        raise NonFiniteFieldError("frame0 contains non-finite values")
    dev0 = gram_deviation(e0)
    if dev0 > 1e-8:
        raise GramDriftError(f"initial triad is not orthonormal (deviation {dev0:.3e})")
    k = _coefficient(k, grid, "k")
    tau = _coefficient(tau, grid, "tau")
    # E_x = A E is (E^T)_x = E^T A^T, the right-multiplied form walk_linear takes
    a_t = np.swapaxes(matrix_a(k, tau), -1, -2)
    walked = np.swapaxes(walk_linear(e0.T, a_t[:-1], a_t[1:], np.full(grid.n - 1, grid.dx),
                                     check=False), -1, -2)
    drift = np.concatenate(([0.0], _checked_drift(walked[1:], 1)))
    frames = np.ascontiguousarray(walked)
    return FrameState(
        e1=frames[:, 0], e2=frames[:, 1], e3=frames[:, 2],
        k=k, tau=tau, grid=grid, gram_drift=drift)


@dataclass
class CTFields(GridFields):
    """Curvature/torsion data (k, tau, omega2, omega3) on a 2-D grid.

    k may change sign here: curvature-type fields imported from surface data
    are signed, and the compatibility equations are polynomial in k, so no
    positivity is enforced.
    """

    k: np.ndarray
    tau: np.ndarray
    omega2: np.ndarray
    omega3: np.ndarray
    grid: Grid2D

    LAYOUT = Layout({"k": (), "tau": (), "omega2": (), "omega3": ()}, nonfinite=ShapeError)


def compatibility_residual(ct: CTFields):
    """Residuals of the curvature/torsion compatibility system.

    r1 = k_t - omega3_x - tau*omega2
    r2 = tau_t + k*omega2
    r3 = omega2_x - tau*omega3

    All three vanish exactly when (k, tau, omega2, omega3) comes from a
    common frame field.  Returns three arrays on the grid.
    """
    r1 = diff_t(ct.k, ct.grid) - diff_x(ct.omega3, ct.grid) - ct.tau * ct.omega2
    r2 = diff_t(ct.tau, ct.grid) + ct.k * ct.omega2
    r3 = diff_x(ct.omega2, ct.grid) - ct.tau * ct.omega3
    return r1, r2, r3


def torsion_transport_residual(e1: np.ndarray, tau: np.ndarray,
                               g2: Grid2D) -> np.ndarray:
    """Residual tau_t - e1 . (e1_x ^ e1_t) on a frame time-series.

    e1 has shape (nx, nt, 3), tau has shape (nx, nt).  On trajectories of the
    spin system (tau identified with v, omega1 = 0) the triple-product term
    equals tau_t, so the residual converges to zero under grid refinement.
    """
    e1 = as_shape(e1, g2.shape + (3,), "e1")
    tau = as_shape(tau, g2.shape, "tau")
    return diff_t(tau, g2) - np.einsum("xtc,xtc->xt", e1, np.cross(diff_x(e1, g2), diff_t(e1, g2)))
