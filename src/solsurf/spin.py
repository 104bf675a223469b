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
from .numgrid import Grid1D, Grid2D, Layout, as_shape, diff_x

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


def _clamped_radicand(kk: np.ndarray, u: np.ndarray) -> np.ndarray:
    """max(kk - u*u, 0) for kk = k*k, checked against -CLAMP_SLACK.  Callers
    silence overflow: where |u| passes ~1e154, u*u overflows to inf, and the
    radicand is then -inf, which the check reports as a domain error."""
    rad = kk - u * u
    if np.fmin.reduce(rad, axis=None) < -CLAMP_SLACK:  # fmin skips NaN, as < does
        flat = np.ravel(rad)
        i = int(np.argmax(flat < -CLAMP_SLACK))
        raise SqrtDomainError(
            f"radicand k^2 - u^2 = {flat[i]:.6e} below -{CLAMP_SLACK:.1e} at index {i}")
    return np.maximum(rad, 0.0)


def u_constraint_residual(k, u, v, grid) -> np.ndarray:
    """r_u = u_x - v*sqrt(max(k^2 - u^2, 0)) on grid, zero where u meets its
    constraint; where u overflows it holds inf or NaN, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return diff_x(u, grid) - v * np.sqrt(np.maximum(k * k - u * u, 0.0))


def _norm(a: np.ndarray) -> np.ndarray:
    """|a| of (3, ...) component rows: p = a*a summed as np.linalg.norm does, (p0 + p1) + p2."""
    p = a * a
    return np.sqrt((p[0] + p[1]) + p[2])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b of (3, ...) component rows: p = a*b in one call, summed as einsum does,
    ((0.0 + p0) + p2) + p1; the +0.0 added last only turns a -0.0 sum into +0.0."""
    p = a * b
    return ((p[0] + p[2]) + p[1]) + 0.0


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b of (3, ...) component rows, with np.cross's products and differences:
    row i is A[i+1]*B[i+2] - A[i+2]*B[i+1] of the doubled rows A = (a, a), B = (b, b)."""
    a, b = np.concatenate((a, a)), np.concatenate((b, b))
    return a[1:4] * b[2:5] - a[2:5] * b[1:4]


def _curvature(S: np.ndarray, grid):
    """S_x as (3, ...) component rows and k = |S_x|, unchecked, of x-major S (n, ..., 3)."""
    S_x = diff_x(S, grid)
    S_x = S_x.transpose(-1, *range(S_x.ndim - 1))  # np.moveaxis(S_x, -1, 0), faster
    return S_x, _norm(S_x)


def _check_curvature(k: np.ndarray) -> None:
    """k = |S_x| below K_MIN has no frame."""
    if np.fmin.reduce(k, axis=None) < K_MIN:
        i = int(np.argmax(k < K_MIN))
        raise DegenerateFrameError(
            f"|S_x| = {k.flat[i]:.3e} below k_min = {K_MIN:.1e} at index {i}")


def _frame(S: np.ndarray, S_x: np.ndarray, k: np.ndarray):
    """Orthonormal triad (e1, e2, e3) of S as (3, n) rows, with its S_x and k."""
    _check_curvature(k)
    e1 = S / _norm(S)
    e2 = _dot(e1, S_x) * e1
    np.subtract(S_x, e2, out=e2)  # the tangential part of S_x
    pn = _norm(e2)
    if np.fmin.reduce(pn) < K_MIN:
        i = int(np.argmax(pn < K_MIN))
        raise DegenerateFrameError(
            f"tangential part of S_x is {pn[i]:.3e} below k_min at index {i}")
    e2 /= pn
    return e1, e2, _cross(e1, e2)


def _rates(S, S_x, frame, u, rad) -> np.ndarray:
    """Rate rows dS0, dS1, dS2, dv at (3, n) S, given its frame and rad = max(k^2 - u^2, 0)."""
    _, e2, e3 = frame
    out = np.empty((4, u.shape[0]))
    dS = np.multiply(-np.sqrt(rad), e2, out=out[:3])
    dS += u * e3
    np.negative(_dot(S, _cross(dS, S_x)), out=out[3])
    return out


def spin_rhs(f: SpinField) -> SpinRates:
    """Rates of the spin system at the given state, with u taken as stored."""
    S_x, k = _curvature(f.S, f.grid)
    frame = _frame(f.S.T, S_x, k)
    with np.errstate(over="ignore"):
        rad = _clamped_radicand(k * k, f.u)
    rates = _rates(f.S.T, S_x, frame, f.u, rad)
    return SpinRates(rates[:3].T.copy(), u_constraint_residual(k, f.u, f.v, f.grid), rates[3])


def solve_u_constraint(k: np.ndarray, v: np.ndarray, grid: Grid1D) -> np.ndarray:
    """March u_x = v*sqrt(k^2 - u^2) from u(x0) = 0 (Heun, second order).

    The march runs on Python floats.  Its radicands are clamped as max(r, 0.0)
    clamps: negatives to 0.0, while NaN and -0.0 pass unchanged.  The returned
    field is then verified against the k^2 - u^2 >= -CLAMP_SLACK contract.
    A NaN or Inf entry of k or v raises NonFiniteFieldError, and so does a
    non-finite u that passes that check (where k*k overflows, the march forms
    inf - inf).  On periodic grids the closure sample is identified with the
    first one (any seam mismatch surfaces in the reported constraint residual).
    """
    n = grid.n
    with np.errstate(over="ignore"):
        u = _march(as_shape(k, (n,), "k"), as_shape(v, (n,), "v"), grid)[0]
    # evolve_series needs no such check: its finite-checked rates end this case
    finite = np.isfinite(u)
    if not finite.all():
        raise NonFiniteFieldError(
            f"march overflowed: u is non-finite at index {int(np.argmin(finite))}")
    return u


def _march(k: np.ndarray, v: np.ndarray, grid: Grid1D):
    """solve_u_constraint's u and the clamped radicand it was verified with;
    the caller silences overflow."""
    for name, a in (("k", k), ("v", v)):
        if not np.isfinite(a).all():
            raise NonFiniteFieldError(f"{name} contains non-finite values")
    kk = k * k
    u = np.fromiter(_heun(memoryview(kk), memoryview(v), grid.dx), float, grid.n)
    if grid.boundary == "periodic":
        u[-1] = u[0]
    return u, _clamped_radicand(kk, u)


def _heun(kk, vs, h: float):
    """The march's u_0 = 0, u_1, ... from k^2 and v as Python floats, radicands clamped."""
    half, sqrt, ui = 0.5 * h, math.sqrt, 0.0
    yield ui
    kk_i, v_i = next(pairs := zip(kk, vs))
    for kk_j, v_j in pairs:
        r = kk_i - ui * ui
        f1 = v_i * sqrt(0.0 if r < 0.0 else r)
        trial = ui + h * f1
        r = kk_j - trial * trial
        ui = ui + half * (f1 + v_j * sqrt(0.0 if r < 0.0 else r))
        yield ui
        kk_i, v_i = kk_j, v_j


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
    first reuses the S_x, k and u of the level it starts from, so steps >= 1
    make 4*steps + 1 marches.  With renorm on, S is projected back to the unit
    sphere after each step.  Level 0 stores the input u as given, later levels
    the re-solved constraint field.  dt = 0 or steps = 0 gives the one-level
    series of the input.  A breakdown in step j, or in the march of the level
    it records, reads "step j: ..."; |S_x| below K_MIN in a recorded level is
    reported by the step that starts from it.  Each level of evolve_levels is
    copied into the series' x-major layout.
    """
    nt, levels = evolve_levels(f, dt, steps, renorm)
    n = f.grid.n
    S_out, u_out, v_out = np.empty((n, nt, 3)), np.empty((n, nt)), np.empty((n, nt))
    for j, (S, u, v) in enumerate(levels):
        S_out[:, j], u_out[:, j], v_out[:, j] = S, u, v
    return SpinSeries(grid=f.grid, times=f.t + dt * np.arange(nt), S=S_out, u=u_out, v=v_out)


def evolve_levels(f: SpinField, dt: float, steps: int, renorm: bool = True):
    """evolve_series' arguments checked, then its number of levels and an
    iterator that makes them one step at a time: (S (n, 3), u, v) of the input,
    then of each step, none of them written to again."""
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool):
        raise ConfigError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    if not np.isfinite(dt) or dt < 0:
        raise ConfigError(f"dt must be finite and >= 0, got {dt!r}")
    if dt == 0:
        steps = 0
    return steps + 1, _rk4_levels(f, dt, steps, renorm)


def _rk4_levels(f: SpinField, dt: float, steps: int, renorm: bool):
    """evolve_levels' iterator.  The RK4 state is (4, n), rows S0, S1, S2, v;
    the rates take the radicand the march checked.  Each step runs in its own
    np.errstate and its level is yielded outside it: numpy keeps errstate in a
    context variable, so a generator paused inside one would lend its
    settings to the consumer."""
    grid = f.grid
    yield f.S, f.u, f.v
    y = np.empty((4, grid.n))
    y[:3], y[3] = f.S.T, f.v
    for j in range(steps):
        # every stage is finite-checked, so an overflow ends in a typed error
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                ks = []
                for stage, h in enumerate((0.0, dt / 2, dt / 2, dt), 1):
                    # stage 1 of step j > 0 takes S_x, k, u and rad of the level y holds
                    fresh = j == 0 or stage > 1
                    x = y + ks[-1] * h if ks else y
                    S = x[:3]
                    if fresh:
                        S_x, k = _curvature(S.T, grid)
                    frame = _frame(S, S_x, k)  # its checks come before the march's
                    if fresh:
                        u, rad = _march(k, x[3], grid)
                    ks.append(_rates(S, S_x, frame, u, rad))
                    if not np.isfinite(ks[-1]).all():
                        raise NonFiniteFieldError(
                            f"non-finite value in integration state (k{stage})")
                k1, k2, k3, k4 = ks
                y = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
                if not np.isfinite(y).all():
                    raise NonFiniteFieldError("non-finite value in integration state (update)")
                S, v = y[:3], y[3]
                if renorm:
                    S /= _norm(S)
                if grid.boundary == "periodic":
                    y[:, -1] = y[:, 0]
                S_x, k = _curvature(S.T, grid)
                u, rad = _march(k, v, grid)
            except (SqrtDomainError, DegenerateFrameError, NonFiniteFieldError) as e:
                e.args = (f"step {j}: {e}",)
                raise
        yield S.T, u, v


def build_frame(f: SpinField) -> FrameState:
    """Orthonormal triad and scalar frame data read off one spin state.

    e1 = S, e2 = unit tangential part of S_x, e3 = e1 ^ e2, k = |S_x|
    (positive root), and tau extracted geometrically as (e2_x . e3).
    """
    S_x, k = _curvature(f.S, f.grid)
    frame = _frame(f.S.T, S_x, k)
    tau = _dot(diff_x(frame[1].T, f.grid).T, frame[2])
    return FrameState(*(e.T.copy() for e in frame), k=k, tau=tau, grid=f.grid)


def ct_from_spin_series(series: SpinSeries) -> CTFields:
    """Curvature/torsion fields along a trajectory, with tau identified as v.

    k = |S_x|, tau = v, omega2 = -u, omega3 = -sqrt(k^2 - u^2) per level.
    """
    g2 = series.grid2
    _, k = _curvature(series.S, g2)
    _check_curvature(k)
    with np.errstate(over="ignore"):
        rad = _clamped_radicand(k * k, series.u)
    return CTFields(k=k, tau=series.v.copy(), omega2=-series.u, omega3=-np.sqrt(rad),
                    grid=g2)
