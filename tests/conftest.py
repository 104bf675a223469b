"""Shared grid builders for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

from solsurf import Grid1D, Grid2D, NonFiniteFieldError, fieldio


def circle_grid(n=129, span=2.0 * np.pi):
    # last point duplicates the first on periodic grids, so dx = span/(n-1)
    return Grid1D(0.0, span / (n - 1), n, "periodic")


def polar_band(n=65, scale=1):
    """Sphere test window: azimuth on x, polar angle on t, poles excluded."""
    m = (n - 1) * scale + 1
    gx = Grid1D(0.0, np.pi / 64 / scale, m, "one_sided")
    gt = Grid1D(0.3, (np.pi - 0.6) / 64 / scale, m, "one_sided")
    return Grid2D(gx, gt)


def json_text(obj) -> str:
    """The text fieldio.save_json writes for obj."""
    return "".join(fieldio._pieces(obj))


@pytest.fixture
def grid_small():
    return Grid1D(0.0, 2.0 * np.pi / 32, 33, "periodic")


@pytest.fixture
def band_small():
    gx = Grid1D(0.0, np.pi / 16, 17, "one_sided")
    gt = Grid1D(0.3, (np.pi - 0.6) / 16, 17, "one_sided")
    return Grid2D(gx, gt)


# One classical RK4 step of y' = rhs(t, y) through a closure, every stage
# finite-checked under its name: the step the linear walk and the spin
# evolution must reproduce bit for bit, error messages included.
def ref_step_rk4(y, rhs, dt, t=0.0):
    def check(a, stage):
        if not np.isfinite(a).all():
            raise NonFiniteFieldError(f"non-finite value in integration state ({stage})")
        return a

    k1 = check(rhs(t, y), "k1")
    k2 = check(rhs(t + dt / 2, y + k1 * (dt / 2)), "k2")
    k3 = check(rhs(t + dt / 2, y + k2 * (dt / 2)), "k3")
    k4 = check(rhs(t + dt, y + k3 * dt), "k4")
    return check(y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4), "update")


def ref_step_linear(y, m0, m1, h):
    """One ref_step_rk4 step of y' = y M(s), M linear from m0 to m1 over [0, h]."""
    dm = m1 - m0

    def rhs(s, y):
        return y @ (m0 + (s / h) * dm)

    return ref_step_rk4(y, rhs, h)


# move -> (axis, sign): axis 0 steps in x with U, axis 1 in t with V
REF_MOVES = {"+x": (0, 1), "-x": (0, -1), "+t": (1, 1), "-t": (1, -1)}


def ref_propagate(L, phi0, path, start):
    """Transport phi0 along a list of REF_MOVES from node start of the Lax
    pair L, one ref_step_linear per edge: the walk every Lax transport must
    reproduce bit for bit."""
    phi = np.asarray(phi0, dtype=complex)
    ix, it = start
    gens, hs = (L.U, L.V), (L.grid.gx.dx, L.grid.gt.dx)
    for move in path:
        axis, sign = REF_MOVES[move]
        jx, jt = (ix + sign, it) if axis == 0 else (ix, it + sign)
        phi = ref_step_linear(phi, gens[axis][ix, it], gens[axis][jx, jt], sign * hs[axis])
        ix, it = jx, jt
    return phi


# Finite entries that stress bit-identity: signed zeros (an exact-zero sum
# keeps the sign its operation order gives), subnormals, and ~1e150, whose
# squares are still finite.
HOSTILE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e150, -1e150]),
    st.floats(-1e3, 1e3))
