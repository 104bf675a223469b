"""The spin system: state, right-hand side, time evolution, frame extraction.

State is a unit 3-vector field S with scalar fields u and v on a 1-D grid.
S and v are evolved in time; u carries no time derivative and is re-solved
each integration stage by marching its spatial constraint

    u_x = v * sqrt(k^2 - u^2),        k = |S_x|

from a user-supplied left-boundary value.  The square root uses the on-shell
identity |S_t|^2 = k^2 (a consequence of the evolution law), which avoids a
circular dependence of u on S_t; both radicand variants are reported by
``constraint_radicands``.

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
from .numgrid import Grid1D, Grid2D, diff_x, step_rk4

K_MIN_DEFAULT = 1e-8
CLAMP_SLACK_DEFAULT = 1e-12


@dataclass
class SpinField:
    """Spin state at one time level. The constructor renormalizes S row-wise.

    On periodic grids the closure sample must match the first sample (within
    1e-9 on input); it is then identified with it exactly.
    """

    S: np.ndarray
    u: np.ndarray
    v: np.ndarray
    grid: Grid1D
    t: float = 0.0

    def __post_init__(self):
        n = self.grid.n
        S = np.array(self.S, dtype=float)
        if S.shape != (n, 3):
            raise ShapeError(f"S must have shape ({n}, 3), got {S.shape}")
        if not np.all(np.isfinite(S)):
            raise NonFiniteFieldError("S contains non-finite values")
        norms = np.linalg.norm(S, axis=1)
        if np.any(norms < 1e-8):
            i = int(np.argmax(norms < 1e-8))
            raise ShapeError(f"spin vector vanishes at index {i}")
        self.S = S / norms[:, None]
        for name in ("u", "v"):
            a = np.array(getattr(self, name), dtype=float)
            if a.shape != (n,):
                raise ShapeError(f"{name} must have shape ({n},), got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise NonFiniteFieldError(f"{name} contains non-finite values")
            setattr(self, name, a)
        if self.grid.boundary == "periodic":
            gap = max(float(np.max(np.abs(self.S[-1] - self.S[0]))),
                      abs(float(self.u[-1] - self.u[0])),
                      abs(float(self.v[-1] - self.v[0])))
            if gap > 1e-9:
                raise ShapeError(
                    f"periodic field does not close: closure sample differs from "
                    f"first sample by {gap:.3e}")
            self.S[-1] = self.S[0]
            self.u[-1] = self.u[0]
            self.v[-1] = self.v[0]


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


def _clamped_radicand(k: np.ndarray, u: np.ndarray, slack: float) -> np.ndarray:
    # Where |u| passes ~1e154, u*u overflows to inf; the radicand is then
    # -inf, which the check below reports as a domain error.
    with np.errstate(over="ignore"):
        rad = k * k - u * u
    flat = np.ravel(rad)
    bad = flat < -slack
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SqrtDomainError(
            f"radicand k^2 - u^2 = {flat[i]:.6e} below -{slack:.1e} at index {i}",
            index=i, value=float(flat[i]))
    return np.maximum(rad, 0.0)


def _tangent_frame(S: np.ndarray, grid: Grid1D, k_min: float):
    """S_x, k = |S_x|, and the orthonormal triad (e1, e2, e3) built from S."""
    S_x = diff_x(S, grid)
    k = np.linalg.norm(S_x, axis=1)
    if np.any(k < k_min):
        i = int(np.argmax(k < k_min))
        raise DegenerateFrameError(
            f"|S_x| = {k[i]:.3e} below k_min = {k_min:.1e} at index {i}", index=i)
    e1 = S / np.linalg.norm(S, axis=1)[:, None]
    along = np.einsum("ij,ij->i", e1, S_x)
    proj = S_x - along[:, None] * e1
    pn = np.linalg.norm(proj, axis=1)
    if np.any(pn < k_min):
        i = int(np.argmax(pn < k_min))
        raise DegenerateFrameError(
            f"tangential part of S_x is {pn[i]:.3e} below k_min at index {i}", index=i)
    e2 = proj / pn[:, None]
    e3 = np.cross(e1, e2)
    return S_x, k, e1, e2, e3


def _rates(S, u, v, frame, slack):
    """dS, dv and the clamped radicand k^2 - u^2, given _tangent_frame(S)."""
    S_x, k, _, e2, e3 = frame
    rad = _clamped_radicand(k, u, slack)
    root = np.sqrt(rad)
    dS = -root[:, None] * e2 + u[:, None] * e3
    dv = -np.einsum("ij,ij->i", S, np.cross(dS, S_x))
    return dS, dv, rad


def spin_rhs(f: SpinField, k_min: float = K_MIN_DEFAULT,
             clamp_slack: float = CLAMP_SLACK_DEFAULT) -> SpinRates:
    """Rates of the spin system at the given state, with u taken as stored."""
    frame = _tangent_frame(f.S, f.grid, k_min)
    dS, dv, rad = _rates(f.S, f.u, f.v, frame, clamp_slack)
    u_x = diff_x(f.u, f.grid)
    u_residual = u_x - f.v * np.sqrt(rad)
    return SpinRates(dS=dS, u_residual=u_residual, dv=dv)


def constraint_radicands(f: SpinField, k_min: float = K_MIN_DEFAULT,
                         clamp_slack: float = CLAMP_SLACK_DEFAULT):
    """(k^2 - u^2, |S_t|^2 - u^2): the on-shell and literal radicands.

    The two agree on states produced by the evolution law; the pair is
    exposed so the off-shell discrepancy is observable.
    """
    frame = _tangent_frame(f.S, f.grid, k_min)
    dS, _, _ = _rates(f.S, f.u, f.v, frame, clamp_slack)
    k = frame[1]
    on_shell = k * k - f.u * f.u
    literal = np.einsum("ij,ij->i", dS, dS) - f.u * f.u
    return on_shell, literal


def solve_u_constraint(k: np.ndarray, v: np.ndarray, grid: Grid1D,
                       u_left: float = 0.0,
                       clamp_slack: float = CLAMP_SLACK_DEFAULT) -> np.ndarray:
    """March u_x = v*sqrt(k^2 - u^2) from u(x0) = u_left (Heun, second order).

    Radicands of internal trial values are clamped at zero; the returned
    field is then verified against the k^2 - u^2 >= -clamp_slack contract.
    On periodic grids the closure sample is identified with the first one
    (any seam mismatch surfaces in the reported constraint residual).
    """
    k = np.asarray(k, dtype=float)
    v = np.asarray(v, dtype=float)
    n = grid.n
    if k.shape != (n,) or v.shape != (n,):
        raise ShapeError(f"k and v must have shape ({n},)")
    h = grid.dx

    # Python floats: an overflowing trial radicand is -inf and clamps silently
    def slope(ki, vi, ui):
        return vi * math.sqrt(max(ki * ki - ui * ui, 0.0))

    ks, vs = k.tolist(), v.tolist()
    us = [float(u_left)]
    for i in range(n - 1):
        f1 = slope(ks[i], vs[i], us[i])
        trial = us[i] + h * f1
        f2 = slope(ks[i + 1], vs[i + 1], trial)
        us.append(us[i] + 0.5 * h * (f1 + f2))
    u = np.array(us)
    if grid.boundary == "periodic":
        u[-1] = u[0]
    _clamped_radicand(k, u, clamp_slack)
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
        shape = (self.grid.n, nt)
        for name, extra in (("S", (3,)), ("u", ()), ("v", ())):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != shape + extra:
                raise ShapeError(f"{name} must have shape {shape + extra}, got {a.shape}")
            setattr(self, name, a)

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
        return SpinField(S=self.S[:, j].copy(), u=self.u[:, j].copy(),
                         v=self.v[:, j].copy(), grid=self.grid,
                         t=float(self.times[j]))


def _advance(f: SpinField, dt: float, steps: int, renorm: bool, u_left: float,
             k_min: float, clamp_slack: float, record: bool) -> list:
    """RK4 march of the (n, 4) state [S | v] with u re-solved at every stage.

    Returns the (S, u, v) levels: every level from the input on when
    recording, otherwise the input and the final level only.
    """
    grid = f.grid

    def rhs(t, y):
        S, v = y[:, :3], y[:, 3]
        frame = _tangent_frame(S, grid, k_min)
        u = solve_u_constraint(frame[1], v, grid, u_left=u_left, clamp_slack=clamp_slack)
        dS, dv, _ = _rates(S, u, v, frame, clamp_slack)
        return np.column_stack((dS, dv))

    y = np.column_stack((f.S, f.v))
    levels = [(f.S, f.u, f.v)]
    for j in range(steps):
        try:
            y = step_rk4(y, rhs, dt, t=f.t + j * dt)
        except (SqrtDomainError, DegenerateFrameError, NonFiniteFieldError) as e:
            e.args = (f"step {j}: {e}",)
            raise
        S, v = y[:, :3], y[:, 3]
        if renorm:
            S /= np.linalg.norm(S, axis=1)[:, None]
        if grid.boundary == "periodic":
            y[-1] = y[0]
        if record or j == steps - 1:
            k = np.linalg.norm(diff_x(S, grid), axis=1)
            u = solve_u_constraint(k, v, grid, u_left=u_left, clamp_slack=clamp_slack)
            levels.append((S, u, v))
    return levels


def _check_evolve_args(dt, steps):
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool):
        raise ConfigError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    if not np.isfinite(dt) or dt < 0:
        raise ConfigError(f"dt must be finite and >= 0, got {dt!r}")


def evolve(f: SpinField, dt: float, steps: int, renorm: bool = True,
           u_left: float = 0.0, k_min: float = K_MIN_DEFAULT,
           clamp_slack: float = CLAMP_SLACK_DEFAULT) -> SpinField:
    """RK4 advance of (S, v) over steps*dt, re-solving u every stage.

    With renorm on, S is projected back to the unit sphere after each step.
    dt = 0 or steps = 0 returns the input unchanged.
    """
    _check_evolve_args(dt, steps)
    if steps == 0 or dt == 0:
        return f
    S, u, v = _advance(f, dt, steps, renorm, u_left, k_min, clamp_slack, record=False)[-1]
    return SpinField(S=S, u=u, v=v, grid=f.grid, t=f.t + steps * dt)


def evolve_series(f: SpinField, dt: float, steps: int, renorm: bool = True,
                  u_left: float = 0.0, k_min: float = K_MIN_DEFAULT,
                  clamp_slack: float = CLAMP_SLACK_DEFAULT) -> SpinSeries:
    """Like evolve, but records every time level (including the input).

    Level 0 stores the input u as given; later levels store the re-solved
    constraint field.
    """
    _check_evolve_args(dt, steps)
    if dt == 0:
        steps = 0
    levels = _advance(f, dt, steps, renorm, u_left, k_min, clamp_slack, record=True)
    S, u, v = (np.stack(a, axis=1) for a in zip(*levels))
    return SpinSeries(grid=f.grid, times=f.t + dt * np.arange(steps + 1), S=S, u=u, v=v)


def build_frame(f: SpinField, k_min: float = K_MIN_DEFAULT,
                clamp_slack: float = CLAMP_SLACK_DEFAULT) -> FrameState:
    """Orthonormal triad and scalar frame data read off one spin state.

    e1 = S, e2 = unit tangential part of S_x, e3 = e1 ^ e2, k = |S_x|
    (positive root).  tau is extracted geometrically as (e2_x . e3), and the
    time-rotation rates follow from the evolution law:
    omega1 = 0, omega2 = -u, omega3 = -sqrt(k^2 - u^2).
    """
    S_x, k, e1, e2, e3 = _tangent_frame(f.S, f.grid, k_min)
    tau = np.einsum("ij,ij->i", diff_x(e2, f.grid), e3)
    rad = _clamped_radicand(k, f.u, clamp_slack)
    return FrameState(e1=e1, e2=e2, e3=e3, k=k, tau=tau, grid=f.grid,
                      omega1=np.zeros(f.grid.n), omega2=-f.u, omega3=-np.sqrt(rad))


def ct_from_spin_series(series: SpinSeries, k_min: float = K_MIN_DEFAULT,
                        clamp_slack: float = CLAMP_SLACK_DEFAULT) -> CTFields:
    """Curvature/torsion fields along a trajectory, with tau identified as v.

    k = |S_x|, tau = v, omega2 = -u, omega3 = -sqrt(k^2 - u^2) per level.
    """
    g2 = series.grid2
    S_x = diff_x(series.S, g2)
    k = np.linalg.norm(S_x, axis=-1)
    if np.any(k < k_min):
        flat = int(np.argmax(k < k_min))
        raise DegenerateFrameError(
            f"|S_x| below k_min = {k_min:.1e} at flat index {flat}", index=flat)
    rad = _clamped_radicand(k, series.u, clamp_slack)
    return CTFields(k=k, tau=series.v.copy(), omega2=-series.u,
                    omega3=-np.sqrt(rad), grid=g2)
