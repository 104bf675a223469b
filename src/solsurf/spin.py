"""The spin system: state, right-hand side, time evolution, frame extraction.

State is a unit 3-vector field S with scalar fields u and v on a 1-D grid.
S and v are evolved in time; u carries no time derivative and is re-solved
for each integration stage by marching its spatial constraint

    u_x = v * sqrt(k^2 - u^2),        k = |S_x|

from a left-boundary value, u(x0) = 0 during evolution.  The square root
uses the on-shell identity |S_t|^2 = k^2 (a consequence of the evolution
law), which avoids a circular dependence of u on S_t.

Discretization note: the centered difference S_x picks up an O(dx^2)
component along S that the continuum field does not have.  The tangent
direction used to build rates and frames is S_x projected against S and
normalized, which keeps rates exactly tangent and triads orthonormal to
round-off without changing the continuum limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateFrameError, GridError,
                     NonFiniteFieldError, ShapeError, SqrtDomainError)
from .frames import CTFields, FrameState
from .numgrid import Grid1D, Grid2D, Layout, as_shape, diff_x, step_rk4

# |S_x| below K_MIN has no frame; k^2 - u^2 down to -CLAMP_SLACK clamps to 0.
K_MIN = 1e-8
CLAMP_SLACK = 1e-12


@dataclass
class SpinField:
    """Spin state at one time level. The constructor renormalizes S row-wise
    and copies u and v.

    On periodic grids the closure sample must match the first sample (within
    1e-9 on input); it is then identified with it exactly.
    """

    S: np.ndarray
    u: np.ndarray
    v: np.ndarray
    grid: Grid1D
    t: float = 0.0

    LAYOUT = Layout({"S": (3,), "u": (), "v": ()}, nonfinite=NonFiniteFieldError)

    def __post_init__(self):
        self.LAYOUT.check(self, (self.grid.n,))
        norms = np.linalg.norm(self.S, axis=1)
        if np.any(norms < 1e-8):
            i = int(np.argmax(norms < 1e-8))
            raise ShapeError(f"spin vector vanishes at index {i}")
        self.S = self.S / norms[:, None]
        self.u, self.v = self.u.copy(), self.v.copy()
        if self.grid.boundary == "periodic":
            arrays = (self.S, self.u, self.v)
            gap = max(float(np.max(np.abs(a[-1] - a[0]))) for a in arrays)
            if gap > 1e-9:
                raise ShapeError(
                    f"periodic field does not close: closure sample differs from "
                    f"first sample by {gap:.3e}")
            for a in arrays:
                a[-1] = a[0]


@dataclass
class SpinRates:
    """Rates and constraint residual produced by spin_rhs.

    dS is the time rate of S and dv the time rate of v.  u has no time rate;
    u_residual holds r_u = u_x - v*sqrt(k^2 - u^2), which vanishes on
    constraint-satisfying states.
    """

    dS: np.ndarray
    u_residual: np.ndarray
    dv: np.ndarray


def _clamped_radicand(k: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Where |u| passes ~1e154, u*u overflows to inf; the radicand is then
    # -inf, which the check below reports as a domain error.
    with np.errstate(over="ignore"):
        rad = k * k - u * u
    flat = np.ravel(rad)
    bad = flat < -CLAMP_SLACK
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SqrtDomainError(
            f"radicand k^2 - u^2 = {flat[i]:.6e} below -{CLAMP_SLACK:.1e} at index {i}",
            index=i, value=float(flat[i]))
    return np.maximum(rad, 0.0)


def u_constraint_residual(k, u, v, grid) -> np.ndarray:
    """r_u = u_x - v*sqrt(max(k^2 - u^2, 0)) on grid, zero where u meets its
    constraint; where u overflows it holds inf or NaN, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return diff_x(u, grid) - v * np.sqrt(np.maximum(k * k - u * u, 0.0))


def _curvature(S: np.ndarray, grid: Grid1D):
    """S_x and k = |S_x| over any leading shape; k below K_MIN has no frame."""
    S_x = diff_x(S, grid)
    k = np.linalg.norm(S_x, axis=-1)
    if np.any(k < K_MIN):
        i = int(np.argmax(k < K_MIN))
        raise DegenerateFrameError(
            f"|S_x| = {k.flat[i]:.3e} below k_min = {K_MIN:.1e} at index {i}")
    return S_x, k


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b of (n, 3) arrays, the same products and differences as np.cross."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.column_stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def _tangent_frame(S: np.ndarray, grid: Grid1D):
    """S_x, k = |S_x|, and the orthonormal triad (e1, e2, e3) built from S."""
    S_x, k = _curvature(S, grid)
    e1 = S / np.linalg.norm(S, axis=1)[:, None]
    along = np.einsum("ij,ij->i", e1, S_x)
    proj = S_x - along[:, None] * e1
    pn = np.linalg.norm(proj, axis=1)
    if np.any(pn < K_MIN):
        i = int(np.argmax(pn < K_MIN))
        raise DegenerateFrameError(
            f"tangential part of S_x is {pn[i]:.3e} below k_min at index {i}")
    e2 = proj / pn[:, None]
    e3 = _cross(e1, e2)
    return S_x, k, e1, e2, e3


def _rates(S, u, v, frame):
    """dS and dv, given _tangent_frame(S)."""
    S_x, k, _, e2, e3 = frame
    root = np.sqrt(_clamped_radicand(k, u))
    dS = -root[:, None] * e2 + u[:, None] * e3
    dv = -np.einsum("ij,ij->i", S, _cross(dS, S_x))
    return dS, dv


def spin_rhs(f: SpinField) -> SpinRates:
    """Rates of the spin system at the given state, with u taken as stored."""
    frame = _tangent_frame(f.S, f.grid)
    dS, dv = _rates(f.S, f.u, f.v, frame)
    return SpinRates(dS, u_constraint_residual(frame[1], f.u, f.v, f.grid), dv)


def solve_u_constraint(k: np.ndarray, v: np.ndarray, grid: Grid1D,
                       u_left: float = 0.0) -> np.ndarray:
    """March u_x = v*sqrt(k^2 - u^2) from u(x0) = u_left (Heun, second order).

    The march runs on Python floats.  Its radicands are clamped as max(r, 0.0)
    clamps: negatives to 0.0, while NaN and -0.0 pass unchanged.  The returned
    field is then verified against the k^2 - u^2 >= -CLAMP_SLACK contract.
    A NaN or Inf entry of k or v raises NonFiniteFieldError.  On periodic
    grids the closure sample is identified with the first one (any seam
    mismatch surfaces in the reported constraint residual).
    """
    n = grid.n
    k = as_shape(k, (n,), "k")
    v = as_shape(v, (n,), "v")
    for name, a in (("k", k), ("v", v)):
        if not np.isfinite(a).all():
            raise NonFiniteFieldError(f"{name} contains non-finite values")
    h, half, sqrt = grid.dx, 0.5 * grid.dx, math.sqrt

    # Python floats: an overflowing trial radicand is -inf and clamps silently
    kk, vs = (k * k).tolist(), v.tolist()
    ui = float(u_left)
    us = [ui]
    for kk_i, v_i, kk_j, v_j in zip(kk, vs, kk[1:], vs[1:]):
        r = kk_i - ui * ui
        f1 = v_i * sqrt(0.0 if r < 0.0 else r)
        trial = ui + h * f1
        r = kk_j - trial * trial
        ui = ui + half * (f1 + v_j * sqrt(0.0 if r < 0.0 else r))
        us.append(ui)
    u = np.array(us)
    if grid.boundary == "periodic":
        u[-1] = u[0]
    _clamped_radicand(k, u)
    return u


@dataclass
class SpinSeries:
    """Trajectory of the spin system: x-major arrays over (x, time level).

    With two or more levels the times must be strictly increasing and
    uniformly spaced, since grid2 takes its t spacing from the first step.
    """

    grid: Grid1D
    times: np.ndarray
    S: np.ndarray
    u: np.ndarray
    v: np.ndarray

    LAYOUT = Layout({"S": (3,), "u": (), "v": ()})

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        nt = self.times.shape[0]
        if nt >= 2:
            steps = np.diff(self.times)
            dt = float(steps[0])
            if not np.all(steps > 0):
                raise GridError("time levels must be strictly increasing")
            # t0 + j*dt carries rounding of order |t| * eps, so the tolerance
            # scales with the largest time as well as with dt.
            scale = max(abs(dt), float(np.max(np.abs(self.times))), 1.0)
            if not np.max(np.abs(steps - dt)) <= 1e-12 * scale:
                raise GridError("time levels must be uniformly spaced")
        self.LAYOUT.check(self, (self.grid.n, nt))

    @property
    def nt(self) -> int:
        return self.times.shape[0]

    @property
    def grid2(self) -> Grid2D:
        if self.nt < 2:
            raise ShapeError("series with a single time level has no t axis")
        dt = float(self.times[1] - self.times[0])
        return Grid2D(self.grid, Grid1D(float(self.times[0]), dt, self.nt, "one_sided"))

    def slice(self, j: int) -> SpinField:
        return SpinField(S=self.S[:, j], u=self.u[:, j], v=self.v[:, j],
                         grid=self.grid, t=float(self.times[j]))


def evolve_series(f: SpinField, dt: float, steps: int,
                  renorm: bool = True) -> SpinSeries:
    """RK4 advance of (S, v) over steps*dt, recording every time level.

    u is marched from u(x0) = 0 for every stage; stage 1 of each step after the
    first reuses the u recorded for the level it starts from, so steps >= 1
    make 4*steps + 1 marches.  With renorm on, S is projected back to the unit
    sphere after each step.  Level 0 stores the input u as given, later levels
    the re-solved constraint field.  dt = 0 or steps = 0 gives the one-level
    series of the input.  A breakdown in step j, or in the march of the level
    it records, reads "step j: ...".
    """
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool):
        raise ConfigError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    if not np.isfinite(dt) or dt < 0:
        raise ConfigError(f"dt must be finite and >= 0, got {dt!r}")
    if dt == 0:
        steps = 0
    grid = f.grid

    carried = None  # the last recorded u, marched from the y that stage 1 gets

    def rhs(t, y):
        nonlocal carried
        S, v = y[:, :3], y[:, 3]
        frame = _tangent_frame(S, grid)
        u = solve_u_constraint(frame[1], v, grid) if carried is None else carried
        carried = None
        return np.column_stack(_rates(S, u, v, frame))

    y = np.column_stack((f.S, f.v))
    levels = [(f.S, f.u, f.v)]
    for j in range(steps):
        try:
            y = step_rk4(y, rhs, dt, t=f.t + j * dt)
            S, v = y[:, :3], y[:, 3]
            if renorm:
                S /= np.linalg.norm(S, axis=1)[:, None]
            if grid.boundary == "periodic":
                y[-1] = y[0]
            carried = solve_u_constraint(np.linalg.norm(diff_x(S, grid), axis=1), v, grid)
        except (SqrtDomainError, DegenerateFrameError, NonFiniteFieldError) as e:
            e.args = (f"step {j}: {e}",)
            raise
        levels.append((S, carried, v))
    S, u, v = (np.stack(a, axis=1) for a in zip(*levels))
    return SpinSeries(grid=f.grid, times=f.t + dt * np.arange(steps + 1), S=S, u=u, v=v)


def build_frame(f: SpinField) -> FrameState:
    """Orthonormal triad and scalar frame data read off one spin state.

    e1 = S, e2 = unit tangential part of S_x, e3 = e1 ^ e2, k = |S_x|
    (positive root), and tau extracted geometrically as (e2_x . e3).
    """
    _, k, e1, e2, e3 = _tangent_frame(f.S, f.grid)
    tau = np.einsum("ij,ij->i", diff_x(e2, f.grid), e3)
    return FrameState(e1=e1, e2=e2, e3=e3, k=k, tau=tau, grid=f.grid)


def ct_from_spin_series(series: SpinSeries) -> CTFields:
    """Curvature/torsion fields along a trajectory, with tau identified as v.

    k = |S_x|, tau = v, omega2 = -u, omega3 = -sqrt(k^2 - u^2) per level.
    """
    g2 = series.grid2
    _, k = _curvature(series.S, g2)
    return CTFields(k=k, tau=series.v.copy(), omega2=-series.u,
                    omega3=-np.sqrt(_clamped_radicand(k, series.u)), grid=g2)
