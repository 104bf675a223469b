"""Grids, finite-difference stencils, quadrature and the linear RK4 walk.

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

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridError, NonFiniteFieldError, ShapeError

BOUNDARIES = ("one_sided", "periodic")


def as_shape(a, shape: tuple, name: str, dtype=float) -> np.ndarray:
    """a as a C-ordered array of dtype, so its layout never reaches the bits of
    a result; ShapeError naming it unless its shape is shape."""
    a = np.asarray(a, dtype=dtype, order="C")
    if a.shape != shape:
        raise ShapeError(f"{name} must have shape {shape}, got {a.shape}")
    return a


class Layout(NamedTuple):
    """A field type's arrays: name -> shape after the grid's, their dtype, and
    the error class a NaN or Inf entry raises (None allows them)."""

    shapes: dict
    dtype: type = float
    nonfinite: type | None = None

    def check(self, obj, lead: tuple) -> None:
        """Convert obj's arrays to dtype in place and check them against lead."""
        for name, trail in self.shapes.items():
            a = as_shape(getattr(obj, name), lead + trail, name, self.dtype)
            if self.nonfinite is not None and not np.all(np.isfinite(a)):
                raise self.nonfinite(f"{name} contains non-finite values")
            setattr(obj, name, a)


class GridFields:
    """Base of a dataclass of LAYOUT arrays over a Grid2D; the constructor checks them."""

    def __post_init__(self):
        self.LAYOUT.check(self, self.grid.shape)


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
        # a normal dx*dx keeps the second-difference weight 1/dx**2 finite
        if float(self.dx) * float(self.dx) < sys.float_info.min:
            raise GridError(f"grid spacing {self.dx!r} is too small: its square underflows")
        if not np.isfinite(self.x0):
            raise GridError(f"x0 must be finite, got {self.x0!r}")
        # Python floats overflow to inf without a numpy warning
        last = float(self.x0) + float(self.dx) * (int(self.n) - 1)
        if not math.isfinite(last):
            raise GridError(f"last point x0 + dx*(n-1) overflows for x0={self.x0!r}, "
                            f"dx={self.dx!r}, n={self.n}")
        # SpinSeries' spacing tolerance: a finer spacing is lost in the points' rounding
        if self.dx <= 1e-12 * max(abs(float(self.x0)), abs(last)):
            raise GridError(f"grid spacing {self.dx!r} is below the resolution of the "
                            f"points from {self.x0!r} to {last!r}")
        if self.boundary not in BOUNDARIES:
            raise GridError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if self.boundary == "periodic" and self.n < 4:
            raise GridError("periodic grids need n >= 4 (3 unique samples plus closure)")

    @property
    def span(self) -> float:
        return (self.n - 1) * self.dx

    def points(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)


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


def _check_axis(f: np.ndarray, axis: int, g: Grid1D, name: str):
    if f.shape[axis] != g.n:
        raise ShapeError(f"field has {f.shape[axis]} samples along {name}, grid has {g.n}")


def _as_field(f) -> np.ndarray:
    a = np.asarray(f)
    if a.dtype.kind not in "fc":  # np.inexact, without issubdtype's cost
        a = a.astype(float)
    return a


# one_sided boundary rows (-3 f0 + 4 f1) - f2 and (3 f[-1] - 4 f[-2]) + f[-3], each
# from weights of its own: negating the left row would flip an exact zero's sign
_EDGE_ROWS, _EDGE_WEIGHTS = np.array([0, -1, 1, -2, 2, -3]), np.array([[-3.0, 4, -1], [3, -4, 1]])


def _d1_axis0(f: np.ndarray, g: Grid1D) -> np.ndarray:
    # both boundary rows in one set of calls; every entry is divided by 2*dx last
    n, out = g.n, np.empty_like(f)
    if g.boundary == "periodic":  # rows 0 and n-2 wrap round; the closure row copies row 0
        np.subtract(f[2:-1], f[:-3], out=out[1:-2])
        np.subtract(f[1::-1], f[-2:-4:-1], out=out[:-1:n - 2])
        out[-1] = out[0]
    elif n < 3:
        raise GridError("one_sided first derivative needs n >= 3")
    else:
        np.subtract(f[2:], f[:-2], out=out[1:-1])
        w = _EDGE_WEIGHTS.astype(f.real.dtype, copy=False)  # keep a 32-bit field 32-bit
        p = (f[_EDGE_ROWS].reshape((3, 2) + f.shape[1:]).T * w).T
        np.add(p[0] + p[1], p[2], out=out[::n - 1])
    out /= 2 * g.dx
    return out


def _d2_axis0(f: np.ndarray, g: Grid1D) -> np.ndarray:
    # Dedicated second-derivative stencils: composing _d1 twice drops to
    # first order next to one_sided boundaries.  Every entry is divided by dx*dx last.
    n, out = g.n, np.empty_like(f)
    if g.boundary == "periodic":  # rows 0 and n-2 wrap round; the closure row copies row 0
        out[1:-2] = f[2:-1] - 2 * f[1:-2] + f[:-3]
        out[:-1:n - 2] = f[1::-1] - 2 * f[:-1:n - 2] + f[-2:-4:-1]
        out[-1] = out[0]
    elif n < 4:
        raise GridError("one_sided second derivative needs n >= 4")
    else:
        out[1:-1] = f[2:] - 2 * f[1:-1] + f[:-2]
        out[0] = 2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]
        out[-1] = 2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]
    out /= g.dx * g.dx
    return out


def _along_x(f, grid):
    a = _as_field(f)
    if isinstance(grid, Grid2D):
        grid = grid.gx
    elif not isinstance(grid, Grid1D):
        raise TypeError(f"expected Grid1D or Grid2D, got {type(grid).__name__}")
    _check_axis(a, 0, grid, "x")
    return a, grid


def _along_t(f, g2: Grid2D, op):
    f = _as_field(f)
    if not isinstance(g2, Grid2D):
        raise TypeError("t-derivatives need a Grid2D")
    if f.ndim < 2:
        raise ShapeError("t-derivatives need a field with a t axis")
    _check_axis(f, 0, g2.gx, "x")
    _check_axis(f, 1, g2.gt, "t")
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


def integrate_x(f, grid) -> np.ndarray:
    """Cumulative trapezoid along axis 0; result[0] = 0."""
    a, g = _along_x(f, grid)
    out = np.zeros_like(a)
    # adding out[0] turns a -0.0 sum into +0.0
    out[1:] = out[0] + np.cumsum(0.5 * g.dx * (a[1:] + a[:-1]), axis=0)
    return out


def walk_linear(y: np.ndarray, m0: np.ndarray, m1: np.ndarray, h, *,
                check: bool = True) -> np.ndarray:
    """RK4 chain of y' = y M(s): step e runs s over [0, h[e]] with M linear
    from m0[e] to m1[e], starting from the state step e - 1 ended in.

    m0, m1 and h carry a leading step axis; further batch axes of m0 and m1
    must match y's.  Returns every state, shape (len(h) + 1,) + y.shape, with
    y first.  The three stage generators of every step are built at once.

    Overflow is silenced inside the chain.  Each update adds the state it
    starts from, so a NaN or Inf stays in every later state, and one check
    of the last state covers the walk: it raises NonFiniteFieldError naming
    the first step that produced one (step 0 for a non-finite y).  With check
    off, the states come back as they are, for a caller that tests something
    else first.  Deterministic: identical inputs give bit-identical outputs.
    """
    h = np.asarray(h, dtype=float)
    states = np.empty((len(h) + 1,) + np.shape(y), dtype=np.result_type(y, m0))
    states[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        # the generator at the stage points s = 0, h/2, h
        dm = m1 - m0
        g1 = m0 + 0.5 * dm
        g2 = m0 + dm
        for e, (a, b, c) in enumerate(zip((h / 2).tolist(), h.tolist(), (h / 6).tolist())):
            k1 = y @ m0[e]
            k2 = (y + k1 * a) @ g1[e]
            k3 = (y + k2 * a) @ g1[e]
            k4 = (y + k3 * b) @ g2[e]
            y = states[e + 1] = y + c * (k1 + 2 * k2 + 2 * k3 + k4)
    if check and not np.isfinite(states[-1]).all():
        finite = np.isfinite(states).reshape(len(states), -1).all(axis=1)
        step = max(int(np.argmin(finite)) - 1, 0)
        raise NonFiniteFieldError(f"non-finite value in linear walk at step {step}")
    return states


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
