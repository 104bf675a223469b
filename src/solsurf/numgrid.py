"""Grids, finite-difference stencils, quadrature, and the RK4 stepper.

Conventions used throughout the package:

* Fields are numpy arrays whose leading axes match the grid: axis 0 is x,
  axis 1 (when present) is t, trailing axes are components.
* A periodic grid stores the closure sample: ``n`` points where the last
  duplicates the first, so the period is ``(n - 1) * dx``.  Stencils act on
  the ``n - 1`` unique samples and the closure row is copied afterwards.
* All stencils are second order, including the one-sided rows of one_sided
  grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError, NonFiniteFieldError, ShapeError

BOUNDARIES = ("one_sided", "periodic")


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid: points x0 + i*dx for i in 0..n-1."""

    x0: float
    dx: float
    n: int
    boundary: str = "one_sided"

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise GridError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise GridError(f"need at least 2 points, got n={self.n}")
        if not np.isfinite(self.dx) or self.dx <= 0:
            raise GridError(f"dx must be finite and positive, got {self.dx!r}")
        if not np.isfinite(self.x0):
            raise GridError(f"x0 must be finite, got {self.x0!r}")
        if self.boundary not in BOUNDARIES:
            raise GridError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if self.boundary == "periodic" and self.n < 4:
            raise GridError("periodic grids need n >= 4 (3 unique samples plus closure)")

    @property
    def span(self) -> float:
        return (self.n - 1) * self.dx

    @property
    def n_unique(self) -> int:
        return self.n - 1 if self.boundary == "periodic" else self.n

    def points(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def refined(self) -> "Grid1D":
        """Same span and boundary, halved spacing (2n-1 points)."""
        return Grid1D(self.x0, self.dx / 2.0, 2 * self.n - 1, self.boundary)


@dataclass(frozen=True)
class Grid2D:
    """Tensor grid: gx is the x axis (axis 0), gt the t axis (axis 1)."""

    gx: Grid1D
    gt: Grid1D

    @property
    def shape(self) -> tuple:
        return (self.gx.n, self.gt.n)

    def meshes(self):
        """X, T coordinate arrays of shape (nx, nt)."""
        return np.meshgrid(self.gx.points(), self.gt.points(), indexing="ij")

    def refined(self) -> "Grid2D":
        return Grid2D(self.gx.refined(), self.gt.refined())


def _axis_grid(grid, axis: int) -> Grid1D:
    if isinstance(grid, Grid2D):
        return grid.gx if axis == 0 else grid.gt
    if isinstance(grid, Grid1D):
        if axis != 0:
            raise ShapeError("1-D grid has no t axis")
        return grid
    raise TypeError(f"expected Grid1D or Grid2D, got {type(grid).__name__}")


def _check_leading(f: np.ndarray, g: Grid1D, axis_name: str):
    if f.shape[0] != g.n:
        raise ShapeError(
            f"field has {f.shape[0]} samples along {axis_name}, grid has {g.n}"
        )


def _as_field(f) -> np.ndarray:
    a = np.asarray(f)
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(float)
    return a


def _d1_axis0(f: np.ndarray, g: Grid1D) -> np.ndarray:
    h = g.dx
    out = np.empty_like(f)
    if g.boundary == "periodic":
        u = f[:-1]
        out[:-1] = (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) / (2 * h)
        out[-1] = out[0]
        return out
    if g.n < 3:
        raise GridError("one_sided first derivative needs n >= 3")
    out[1:-1] = (f[2:] - f[:-2]) / (2 * h)
    out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
    out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
    return out


def _d2_axis0(f: np.ndarray, g: Grid1D) -> np.ndarray:
    # Dedicated second-derivative stencils: composing _d1 twice drops to
    # first order next to one_sided boundaries.
    h2 = g.dx * g.dx
    out = np.empty_like(f)
    if g.boundary == "periodic":
        u = f[:-1]
        out[:-1] = (np.roll(u, -1, axis=0) - 2 * u + np.roll(u, 1, axis=0)) / h2
        out[-1] = out[0]
        return out
    if g.n < 4:
        raise GridError("one_sided second derivative needs n >= 4")
    out[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / h2
    out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h2
    out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h2
    return out


def _along_x(f, grid):
    a = _as_field(f)
    g = _axis_grid(grid, 0)
    _check_leading(a, g, "x")
    return a, g


def _along_t(f, g2: Grid2D, op):
    f = _as_field(f)
    if not isinstance(g2, Grid2D):
        raise TypeError("t-derivatives need a Grid2D")
    if f.ndim < 2:
        raise ShapeError("t-derivatives need a field with a t axis")
    _check_leading(f, g2.gx, "x")
    if f.shape[1] != g2.gt.n:
        raise ShapeError(f"field has {f.shape[1]} samples along t, grid has {g2.gt.n}")
    swapped = np.moveaxis(f, 1, 0)
    return np.moveaxis(op(swapped, g2.gt), 0, 1)


def diff_x(f, grid) -> np.ndarray:
    """Second-order d/dx along axis 0."""
    return _d1_axis0(*_along_x(f, grid))


def diff_t(f, grid) -> np.ndarray:
    """Second-order d/dt along axis 1 of a field on a Grid2D."""
    return _along_t(f, grid, _d1_axis0)


def diff_xx(f, grid) -> np.ndarray:
    """Second-order d2/dx2 along axis 0."""
    return _d2_axis0(*_along_x(f, grid))


def diff_tt(f, grid) -> np.ndarray:
    """Second-order d2/dt2 along axis 1 of a field on a Grid2D."""
    return _along_t(f, grid, _d2_axis0)


def integrate_x(f, grid, anchor=0.0) -> np.ndarray:
    """Cumulative trapezoid along axis 0; result[0] = anchor.

    anchor may be a scalar or an array matching the trailing shape.
    """
    a, g = _along_x(f, grid)
    out = np.empty_like(a)
    out[0] = anchor
    steps = 0.5 * g.dx * (a[1:] + a[:-1])
    out[1:] = np.asarray(out[0]) + np.cumsum(steps, axis=0)
    return out


def _check_finite(y: np.ndarray, stage: str):
    if not np.all(np.isfinite(y)):
        raise NonFiniteFieldError(f"non-finite value in integration state ({stage})",
                                  stage=stage)


def step_rk4(y: np.ndarray, rhs, dt: float, t: float = 0.0) -> np.ndarray:
    """One classical RK4 step for y' = rhs(t, y) on an ndarray state.

    Each stage is checked for NaN/Inf.  Deterministic: identical inputs give
    bit-identical outputs.
    """
    k1 = rhs(t, y)
    _check_finite(k1, "k1")
    k2 = rhs(t + dt / 2, y + k1 * (dt / 2))
    _check_finite(k2, "k2")
    k3 = rhs(t + dt / 2, y + k2 * (dt / 2))
    _check_finite(k3, "k3")
    k4 = rhs(t + dt, y + k3 * dt)
    _check_finite(k4, "k4")
    out = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    _check_finite(out, "update")
    return out


def fit_order(hs, errors, floor: float = 0.0) -> float:
    """Least-squares slope of log(error) vs log(h).

    Samples at or below ``floor`` are dropped (they sit in round-off, not in
    the asymptotic regime).  If fewer than two samples survive, the data is
    treated as converged and +inf is returned.  A NaN or infinite error
    raises NonFiniteFieldError: it is a failed measurement, not a converged one.
    """
    h = np.asarray(hs, dtype=float)
    e = np.asarray(errors, dtype=float)
    if h.shape != e.shape or h.ndim != 1 or h.size < 2:
        raise ShapeError("fit_order needs matching 1-D arrays of length >= 2")
    if not np.all(np.isfinite(e)):
        raise NonFiniteFieldError(f"fit_order got non-finite errors {e.tolist()}")
    if np.any(h <= 0):
        raise ValueError("step sizes must be positive")
    if np.any(e < 0):
        raise ValueError("errors must be non-negative")
    mask = e > max(floor, 0.0)
    if np.count_nonzero(mask) < 2:
        return float("inf")
    slope = np.polyfit(np.log(h[mask]), np.log(e[mask]), 1)[0]
    return float(slope)
