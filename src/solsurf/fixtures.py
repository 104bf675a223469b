"""Reference fields with known closed forms, used by tests and CLI presets.

Sphere conventions used throughout: the polar angle lives on the t axis and
the azimuth on the x axis (fields constant in x), for sphere_gc,
sphere_frame_series, and sphere_patch alike.  The sphere's frame fields are
map_gc_to_frame(sphere_gc(g2)[0]).  Polar ranges must stay inside (0, pi),
where the metric roots are positive; a full-turn azimuth may use a periodic
x axis.  The seeded fixtures draw numpy's default_rng(seed).uniform(-1, 1)
stream, computed here: runs never load numpy's random package or its Generator.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError, ShapeError
from .frames import CTFields, matrix_a
from .gauss_codazzi import GCAnalytic, GCData, map_gc_to_frame
from .numgrid import Grid1D, Grid2D
from .spin import K_MIN, SpinField, build_frame, solve_u_constraint
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
    on periodic grids w must be an integer multiple of 2 pi / span.  Its
    curvature k = |w| must be at least K_MIN, or the frame is undefined, and
    the phase w*x must be finite.
    """
    if not abs(w) >= K_MIN:
        raise ConfigError(f"curvature k = |w| = {abs(w):.3e} is below K_MIN = {K_MIN:.1e}")
    if not math.isfinite(w * max(abs(grid.x0), abs(grid.x0 + grid.span))):
        raise ConfigError(f"curvature k = |w| = {abs(w):.3e} is too large: w*x overflows")
    return traveling_circle_exact(grid, w, t=0.0)


def traveling_circle_exact(grid: Grid1D, w: float = 1.0, t: float = 0.0) -> SpinField:
    """The translated profile S(x, t) = S0(x - t), the exact trajectory."""
    x = grid.points() - t
    S = np.stack([np.cos(w * x), np.sin(w * x), np.zeros_like(x)], axis=1)
    return SpinField(S=S, u=np.zeros(grid.n), v=np.zeros(grid.n), grid=grid, t=t)


def _uniforms(seed):
    """Iterator over numpy's default_rng(seed).uniform(-1.0, 1.0) doubles, bit for bit.

    SeedSequence hashes the seed's 32-bit words into a 4-word pool, which
    seeds PCG64; each double is the top 53 bits of one XSL-RR output.
    """
    n = int(seed) if isinstance(seed, numbers.Integral) else -1
    if n < 0:
        raise ConfigError(f"seed must be an int >= 0, got {seed!r}")
    hc = [0x43B0D7E5, 0x931E8875]  # SeedSequence's hash constant and its multiplier

    def hashmix(value):
        value ^= hc[0]
        hc[0] = hc[0] * hc[1] % 2**32
        value = value * hc[0] % 2**32
        return value ^ value >> 16

    words = [(n >> s) % 2**32 for s in range(0, max(n.bit_length(), 1), 32)]
    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]] + words[4:]
    for src in range(len(pool)):  # words past the 4th stay raw and mix in last
        for dst in range(4):
            if src != dst:
                mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])) % 2**32
                pool[dst] = mixed ^ mixed >> 16
    hc[:] = 0x8B51F9DD, 0x58F38DED  # generate_state's constant and multiplier
    v = [hashmix(pool[i]) | hashmix(pool[i + 1]) << 32 for i in (0, 2, 0, 2)]
    mult = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
    inc = ((v[2] << 64 | v[3]) << 1 | 1) % 2**128
    state = ((inc + (v[0] << 64 | v[1])) * mult + inc) % 2**128

    def stream(state):
        while True:
            state = (state * mult + inc) % 2**128
            out, rot = (state >> 64 ^ state) % 2**64, state >> 122
            out = (out >> rot | out << (64 - rot)) % 2**64
            yield -1.0 + 2.0 * ((out >> 11) * 2.0 ** -53)
    return stream(state)


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
    marched from the constraint so the state is ready for evolve_series.

    Amplitudes are deliberately small.  The marched u accumulates along x
    while the evolved k can dip locally, and once |u| catches k somewhere
    the constraint has no solution and evolve_series raises SqrtDomainError.
    """
    if n_modes > (grid.n - 1) // 2:
        raise ConfigError(f"n_modes must be <= (n - 1) // 2 = {(grid.n - 1) // 2}, "
                          f"got {n_modes}; higher harmonics alias on the grid")
    draw = _uniforms(seed)
    x = grid.points()
    xi = 2.0 * np.pi * (x - grid.x0) / grid.span

    def harmonics(amp):
        out = np.zeros_like(x)
        for m in range(1, n_modes + 1):
            c, s = next(draw), next(draw)
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
    residual isolates the differentiation error.  ConfigError if 4 * radius
    (a one-sided difference weight) overflows.
    """
    if not math.isfinite(4.0 * float(radius)):
        raise ConfigError(f"radius={radius!r} is too large: 4 * radius overflows "
                          "the one-sided differences of the metric roots")
    _, theta = g2.meshes()
    s = np.sin(theta)
    c = np.cos(theta)
    ones = np.ones_like(theta)
    zeros = np.zeros_like(theta)
    data = GCData(psi1=ones, psi2=s, tpsi1=radius * ones, tpsi2=radius * s,
                  p=zeros, q=c, grid=g2)
    exact = GCAnalytic(psi1_x=zeros, psi2_t=c, p_x=zeros, q_t=-s,
                       tpsi1_x=zeros, tpsi2_t=radius * c)
    return data, exact


def sphere_frame_series(g2: Grid2D):
    """Exact orthonormal frames over the sphere grid, plus the CTFields.

    Rows of E are (e1, e2, e3): E(x, t) = expm(A(t) dx) @ expm(B dt) with
    A(t) the spatial coefficient matrix at k = cos t, tau = sin t and B the
    constant temporal matrix for omega = (0, -1, 0); this product satisfies
    both frame equations exactly, so residuals on it probe only the
    differencing error.
    """
    X, T = g2.meshes()
    ct = map_gc_to_frame(sphere_gc(g2)[0])
    dxs = X - g2.gx.x0
    WA = matrix_a(ct.k * dxs, ct.tau * dxs)
    WB = np.zeros((g2.gt.n, 3, 3))
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

    The residuals multiply up to four field values, so an amplitude whose
    largest field value M makes (4 M)^4 overflow raises ConfigError.
    """
    draw = _uniforms(seed)
    X, T = g2.meshes()
    sx = 2.0 * np.pi / g2.gx.span
    st = 2.0 * np.pi / g2.gt.span

    def field(offset=0.0):
        out = np.full_like(X, offset)
        for mx in (1, 2):
            for mt in (1, 2):
                cc, cs, sc, ss = (next(draw) for _ in range(4))
                ax = mx * sx * (X - g2.gx.x0)
                at = mt * st * (T - g2.gt.x0)
                # a huge amplitude overflows to inf, which the check below rejects
                with np.errstate(over="ignore"):
                    out += amplitude / (mx * mt) * (
                        cc * np.cos(ax) * np.cos(at) + cs * np.cos(ax) * np.sin(at)
                        + sc * np.sin(ax) * np.cos(at) + ss * np.sin(ax) * np.sin(at))
        return out

    fields = {"k": field(1.5), "tau": field(), "omega2": field(), "omega3": field()}
    _check_products("amplitude", amplitude, fields.values(), "residual")
    return CTFields(grid=g2, **fields)


def _check_products(name: str, value, arrays, products: str) -> None:
    """ConfigError naming name when (4 M)^4 overflows, M the largest |entry|.
    Python floats: an overflowing product is inf, without a numpy warning."""
    top = 4.0 * float(max(np.max(np.abs(a)) for a in arrays))
    if not math.isfinite((top * top) * (top * top)):
        raise ConfigError(f"{name}={value!r} is too large: the fields reach "
                          f"{top / 4.0:.3e} and the {products} products overflow")


def sphere_patch(g2: Grid2D, radius: float = 1.0) -> SurfaceMesh:
    """Embedded sphere patch, azimuth on the x axis, polar angle on the t
    axis (matching the sphere field fixtures).  A radius that overflows the
    forms, which multiply up to four coordinates, raises ConfigError."""
    phi, theta = g2.meshes()
    r = radius * np.stack([np.sin(theta) * np.cos(phi),
                           np.sin(theta) * np.sin(phi),
                           np.cos(theta)], axis=-1)
    _check_products("radius", radius, [r], "form")
    return SurfaceMesh(r=r, grid=g2)


def cylinder_patch(g2: Grid2D, radius: float = 1.0) -> SurfaceMesh:
    """Cylinder with the axis coordinate on x and the angle on t.

    The grid normal points inward, giving mean curvature +1/(2 radius) and
    zero Gaussian curvature.  A radius overflowing the forms raises ConfigError.
    """
    z, phi = g2.meshes()
    r = np.stack([radius * np.cos(phi), radius * np.sin(phi), z], axis=-1)
    _check_products("radius", radius, [r], "form")
    return SurfaceMesh(r=r, grid=g2)


def plane_patch(g2: Grid2D) -> SurfaceMesh:
    """Flat patch r = (x, t, 0)."""
    X, T = g2.meshes()
    return SurfaceMesh(r=np.stack([X, T, np.zeros_like(X)], axis=-1), grid=g2)

