"""Reference fields with known closed forms, used by tests and CLI presets.

Sphere conventions used throughout: the polar angle lives on the t axis and
the azimuth on the x axis (fields constant in x), for sphere_gc, sphere_ct,
sphere_frame_series, and sphere_patch alike.  Polar ranges must stay inside
(0, pi), where the metric roots are positive; a full-turn azimuth may use a
periodic x axis.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .frames import CTFields
from .gauss_codazzi import FundamentalForms, GCAnalytic, GCData
from .numgrid import Grid1D, Grid2D, diff_t, diff_x
from .spin import SpinField, build_frame, solve_u_constraint
from .surface import SurfaceMesh


def expm_skew3(W: np.ndarray) -> np.ndarray:
    """Matrix exponential of stacked 3x3 skew matrices (closed form).

    With angle phi = |axis(W)|, e^W = I + sin(phi)/phi W + (1-cos(phi))/phi^2 W^2;
    the small-angle branch switches to series coefficients below 1e-8.
    """
    W = np.asarray(W, dtype=float)
    if W.shape[-2:] != (3, 3):
        raise ShapeError(f"W must be stacked 3x3 matrices, got shape {W.shape}")
    w1 = W[..., 2, 1]
    w2 = W[..., 0, 2]
    w3 = W[..., 1, 0]
    ang = np.sqrt(w1 * w1 + w2 * w2 + w3 * w3)
    small = ang < 1e-8
    safe = np.where(small, 1.0, ang)
    a = np.where(small, 1.0 - ang * ang / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - ang * ang / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    eye = np.broadcast_to(np.eye(3), W.shape)
    return eye + a[..., None, None] * W + b[..., None, None] * (W @ W)


def traveling_circle(grid: Grid1D, w: float = 1.0) -> SpinField:
    """Planar circle profile S = (cos wx, sin wx, 0) with u = v = 0.

    Under the evolution law this profile translates rigidly at unit speed;
    on periodic grids w must be an integer multiple of 2 pi / span.
    """
    return traveling_circle_exact(grid, w, t=0.0)


def traveling_circle_exact(grid: Grid1D, w: float = 1.0, t: float = 0.0) -> SpinField:
    """The translated profile S(x, t) = S0(x - t), the exact trajectory."""
    x = grid.points() - t
    S = np.stack([np.cos(w * x), np.sin(w * x), np.zeros_like(x)], axis=1)
    return SpinField(S=S, u=np.zeros(grid.n), v=np.zeros(grid.n), grid=grid, t=t)


def random_smooth_spin(grid: Grid1D, seed: int = 0, n_modes: int = 3,
                       theta_amp: float = 0.1, v_amp: float = 0.0,
                       winding: int = 1) -> SpinField:
    """Smooth band-limited random state with a consistent constraint field.

    Polar/azimuth angles are low-harmonic perturbations of the equatorial
    circle (harmonics of the grid span, so periodic grids close).  v is set
    to the discrete geometric torsion of the curve, which keeps the state on
    the manifold where the moving-frame identities hold (v and the torsion
    then evolve by the same rate k*u, so they stay matched); v_amp > 0 adds
    random harmonics on top for deliberately off-manifold states.  u is
    marched from the constraint so the state is ready for evolve.

    Amplitudes are deliberately small.  The marched u accumulates along x
    while the evolved k can dip locally, and once |u| catches k somewhere
    the constraint has no solution and evolve raises SqrtDomainError.
    """
    if n_modes > (grid.n - 1) // 2:
        raise ConfigError(f"n_modes must be <= (n - 1) // 2 = {(grid.n - 1) // 2}, "
                          f"got {n_modes}; higher harmonics alias on the grid")
    rng = np.random.default_rng(seed)
    x = grid.points()
    xi = 2.0 * np.pi * (x - grid.x0) / grid.span

    def harmonics(amp):
        out = np.zeros_like(x)
        for m in range(1, n_modes + 1):
            c, s = rng.uniform(-1.0, 1.0, size=2)
            out += (c * np.cos(m * xi) + s * np.sin(m * xi)) / m
        return amp * out

    theta = 0.5 * np.pi + harmonics(theta_amp)
    phi = winding * xi + harmonics(theta_amp)
    extra = harmonics(v_amp) if v_amp != 0.0 else np.zeros_like(x)
    S = np.stack([np.sin(theta) * np.cos(phi),
                  np.sin(theta) * np.sin(phi),
                  np.cos(theta)], axis=1)
    zero = np.zeros(grid.n)
    frame = build_frame(SpinField(S=S, u=zero, v=zero, grid=grid))
    v = frame.tau + extra
    u = solve_u_constraint(frame.k, v, grid)
    return SpinField(S=S, u=u, v=v, grid=grid)


def sphere_gc(g2: Grid2D, radius: float = 1.0):
    """Round-sphere data (polar angle on the t axis) plus exact derivatives.

    psi1 = 1, psi2 = sin(theta), metric roots R and R sin(theta), p = 0,
    q = cos(theta).  All residuals vanish identically, so the numerical
    residual isolates the differentiation error.
    """
    _, T = g2.meshes()
    theta = T
    s = np.sin(theta)
    c = np.cos(theta)
    ones = np.ones_like(theta)
    zeros = np.zeros_like(theta)
    data = GCData(psi1=ones, psi2=s, tpsi1=radius * ones, tpsi2=radius * s,
                  p=zeros, q=c, grid=g2)
    exact = GCAnalytic(psi1_x=zeros, psi2_t=c, p_x=zeros, q_t=-s,
                       tpsi1_x=zeros, tpsi2_t=radius * c)
    return data, exact


def sphere_ct(g2: Grid2D) -> CTFields:
    """Frame fields of the unit sphere: k = cos(theta), tau = sin(theta),
    omega2 = -1, omega3 = 0 (polar angle on the t axis)."""
    _, T = g2.meshes()
    return CTFields(k=np.cos(T), tau=np.sin(T),
                    omega2=-np.ones_like(T), omega3=np.zeros_like(T), grid=g2)


def sphere_frame_series(g2: Grid2D):
    """Exact orthonormal frames over the sphere grid, plus the CTFields.

    Rows of E are (e1, e2, e3): E(x, t) = expm(A(t) dx) @ expm(B dt) with
    A(t) the spatial coefficient matrix at k = cos t, tau = sin t and B the
    constant temporal matrix for omega = (0, -1, 0); this product satisfies
    both frame equations exactly, so residuals on it probe only the
    differencing error.
    """
    X, T = g2.meshes()
    nx, nt = g2.shape
    ct = sphere_ct(g2)
    WA = np.zeros((nx, nt, 3, 3))
    dxs = X - g2.gx.x0
    WA[..., 0, 1] = ct.k * dxs
    WA[..., 1, 0] = -ct.k * dxs
    WA[..., 1, 2] = ct.tau * dxs
    WA[..., 2, 1] = -ct.tau * dxs
    WB = np.zeros((nt, 3, 3))
    dts = T[0] - g2.gt.x0
    WB[..., 0, 2] = dts
    WB[..., 2, 0] = -dts
    E = expm_skew3(WA) @ expm_skew3(WB)[None, :, :, :]
    return E, ct


def random_ct(g2: Grid2D, seed: int = 0, amplitude: float = 0.5) -> CTFields:
    """Smooth random frame coefficients, generically incompatible.

    k stays near 1.5 so it is bounded away from zero; the fields do not
    satisfy the compatibility system, which makes them useful for holonomy
    scaling and residual-identity tests.
    """
    rng = np.random.default_rng(seed)
    X, T = g2.meshes()
    sx = 2.0 * np.pi / g2.gx.span
    st = 2.0 * np.pi / g2.gt.span

    def field(offset=0.0):
        out = np.full_like(X, offset)
        for mx in (1, 2):
            for mt in (1, 2):
                cc, cs, sc, ss = rng.uniform(-1.0, 1.0, size=4)
                ax = mx * sx * (X - g2.gx.x0)
                at = mt * st * (T - g2.gt.x0)
                # a huge amplitude overflows to inf, which CTFields rejects
                with np.errstate(over="ignore"):
                    out += amplitude / (mx * mt) * (
                        cc * np.cos(ax) * np.cos(at) + cs * np.cos(ax) * np.sin(at)
                        + sc * np.sin(ax) * np.cos(at) + ss * np.sin(ax) * np.sin(at))
        return out

    return CTFields(k=field(1.5), tau=field(), omega2=field(), omega3=field(),
                    grid=g2)


def consistent_random_ct(g2: Grid2D, seed: int = 0, amplitude: float = 0.2):
    """(CTFields, tpsi1, tpsi2) tuned so the frame-to-surface map accepts them.

    The metric roots are smooth positive random fields and k, omega3 are
    DEFINED from their finite-difference ratios, so the map's consistency
    check sees a bit-exact match at default tolerance.
    """
    rng = np.random.default_rng(seed)
    X, T = g2.meshes()
    sx = 2.0 * np.pi / g2.gx.span
    st = 2.0 * np.pi / g2.gt.span

    def positive_field():
        out = np.full_like(X, 1.5)
        for mx, mt in ((1, 1), (1, 2), (2, 1)):
            cc, ss = rng.uniform(-1.0, 1.0, size=2)
            out += amplitude / (mx + mt) * (
                cc * np.cos(mx * sx * (X - g2.gx.x0)) * np.cos(mt * st * (T - g2.gt.x0))
                + ss * np.sin(mx * sx * (X - g2.gx.x0)) * np.sin(mt * st * (T - g2.gt.x0)))
        return out

    tpsi1 = positive_field()
    tpsi2 = positive_field()
    k = diff_t(tpsi2, g2) / tpsi1
    omega3 = -diff_x(tpsi1, g2) / tpsi2
    tau = 1.0 + 0.3 * np.sin(sx * (X - g2.gx.x0))
    omega2 = 0.4 * np.cos(st * (T - g2.gt.x0))
    ct = CTFields(k=k, tau=tau, omega2=omega2, omega3=omega3, grid=g2)
    return ct, tpsi1, tpsi2


def sphere_patch(g2: Grid2D, radius: float = 1.0) -> SurfaceMesh:
    """Embedded sphere patch, azimuth on the x axis, polar angle on the t
    axis (matching the sphere field fixtures)."""
    phi, theta = g2.meshes()
    r = radius * np.stack([np.sin(theta) * np.cos(phi),
                           np.sin(theta) * np.sin(phi),
                           np.cos(theta)], axis=-1)
    return SurfaceMesh(r=r, grid=g2)


def cylinder_patch(g2: Grid2D, radius: float = 1.0) -> SurfaceMesh:
    """Cylinder with the axis coordinate on x and the angle on t.

    The grid normal points inward, giving mean curvature +1/(2 radius) and
    zero Gaussian curvature.
    """
    z, phi = g2.meshes()
    r = np.stack([radius * np.cos(phi), radius * np.sin(phi), z], axis=-1)
    return SurfaceMesh(r=r, grid=g2)


def plane_patch(g2: Grid2D) -> SurfaceMesh:
    """Flat patch r = (x, t, 0)."""
    X, T = g2.meshes()
    return SurfaceMesh(r=np.stack([X, T, np.zeros_like(X)], axis=-1), grid=g2)


def plane_gc(g2: Grid2D) -> GCData:
    """Flat data: unit metric roots, vanishing second-form densities."""
    shape = g2.shape
    return GCData(psi1=np.zeros(shape), psi2=np.zeros(shape),
                  tpsi1=np.ones(shape), tpsi2=np.ones(shape),
                  p=np.zeros(shape), q=np.zeros(shape), grid=g2)


def sphere_forms(g2: Grid2D, radius: float = 1.0) -> FundamentalForms:
    """Analytic form pair of the round sphere (t axis polar), F = M = 0."""
    _, T = g2.meshes()
    s = np.sin(T)
    return FundamentalForms(
        E=np.full_like(T, radius ** 2), F=np.zeros_like(T), G=(radius * s) ** 2,
        L=np.full_like(T, radius), M=np.zeros_like(T), N=radius * s * s, grid=g2)
