"""The linear RK4 walk: bit for bit against the edge-at-a-time step it
replaced, pinned digests of the Lax readings, and its failure modes."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import solsurf as ss
from solsurf import Grid1D, Grid2D
from solsurf.fixtures import expm_skew3, random_ct

from conftest import polar_band, ref_propagate, ref_step_linear


def ref_eigenfunction(L, phi0):
    nx, nt = L.grid.shape
    phi = np.empty((nx, nt, 2, 2), dtype=complex)
    phi[0, 0] = phi0
    for ix in range(1, nx):
        phi[ix, 0] = ref_step_linear(phi[ix - 1, 0], L.U[ix - 1, 0], L.U[ix, 0], L.grid.gx.dx)
    for it in range(1, nt):
        phi[:, it] = ref_step_linear(phi[:, it - 1], L.V[:, it - 1], L.V[:, it], L.grid.gt.dx)
    return phi


def ref_transport(frame0, k, tau, grid):
    n = grid.n
    k = np.full(n, float(k)) if np.ndim(k) == 0 else np.asarray(k, dtype=float)
    tau = np.full(n, float(tau)) if np.ndim(tau) == 0 else np.asarray(tau, dtype=float)
    a_t = np.swapaxes(ss.matrix_a(k, tau), -1, -2)
    frames, drift = np.empty((n, 3, 3)), np.zeros(n)
    frames[0] = frame0
    for i in range(n - 1):
        frames[i + 1] = ref_step_linear(frames[i].T, a_t[i], a_t[i + 1], grid.dx).T
        drift[i + 1] = float(np.max(np.abs(frames[i + 1] @ frames[i + 1].T - np.eye(3))))
        assert drift[i + 1] <= ss.frames.GRAM_TOL
    return frames, drift


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def lax_pair(nx, nt, dx, dt, seed, amplitude):
    g2 = Grid2D(Grid1D(0.0, dx, nx, "one_sided"), Grid1D(0.3, dt, nt, "one_sided"))
    return ss.build_lax(random_ct(g2, seed=seed, amplitude=amplitude))


lax_pairs = st.builds(lax_pair, nx=st.integers(3, 9), nt=st.integers(3, 9),
                      dx=st.floats(0.01, 0.5), dt=st.floats(0.01, 0.5),
                      seed=st.integers(0, 2 ** 32 - 1), amplitude=st.floats(0.1, 2.0))


@st.composite
def invertible_phi0(draw):
    parts = draw(st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8))
    phi = np.array(parts).view(complex).reshape(2, 2)
    return phi if abs(np.linalg.det(phi)) > 1e-3 else np.eye(2, dtype=complex)


class TestWalkMatchesEdgeSteps:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(L=lax_pairs, data=st.data())
    def test_holonomy_defect(self, L, data):
        nx, nt = L.grid.shape
        mx, mt = data.draw(st.integers(1, nx - 1)), data.draw(st.integers(1, nt - 1))
        corner = (data.draw(st.integers(0, nx - 1 - mx)), data.draw(st.integers(0, nt - 1 - mt)))
        eye = np.eye(2, dtype=complex)
        path = ["+x"] * mx + ["+t"] * mt + ["-x"] * mx + ["-t"] * mt
        phi = ref_propagate(L, eye, path, corner)
        expected = float(np.sqrt(np.sum(np.abs(phi - eye) ** 2)))
        assert same_bits(ss.holonomy_defect(L, corner, (mx, mt)), expected)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(L=lax_pairs, phi0=invertible_phi0())
    def test_eigenfunction_field(self, L, phi0):
        got = ss.eigenfunction_field(L, phi0).phi
        assert same_bits(got, ref_eigenfunction(L, phi0))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), dx=st.floats(1e-3, 0.05),
           coeffs=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           turn=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
           per_point=st.booleans())
    def test_transport_frame_x(self, n, dx, coeffs, turn, per_point):
        g = Grid1D(0.0, dx, n, "one_sided")
        k0, k1, t0, t1 = coeffs
        if per_point:
            x = g.points()
            k, tau = k0 + k1 * np.sin(3 * x + 1.0), t0 + t1 * np.cos(5 * x)
        else:
            k, tau = k0, t0
        frame0 = expm_skew3(ss.matrix_a(*turn))
        fr = ss.transport_frame_x(frame0, k, tau, g)
        frames, drift = ref_transport(frame0, k, tau, g)
        assert same_bits(np.stack([fr.e1, fr.e2, fr.e3], axis=1), frames)
        assert same_bits(fr.gram_drift, drift)


# sha256 of the readings below, recorded with the edge-at-a-time step that the
# walk replaced (numpy 2.4.6); the walk must keep every bit.
HOLONOMY_SHA256 = "0ad7269f0ee22d1c6f4e6d2ab73740bb04a1ce1233bd96d9b7f70343674a7918"
EIGENFUNCTION_SHA256 = "d29585855a16dd76d5169aeac3e2220177acae41a7a520bfed59cfd0a6ac3317"


def pinned_pair():
    return ss.build_lax(random_ct(polar_band(17), seed=5, amplitude=1.0))


def test_holonomy_defects_pinned():
    L = pinned_pair()
    nx, nt = L.grid.shape
    defects = [ss.holonomy_defect(L, corner=(ix, it), sizes=(m, m))
               for m in (1, 2, 4) for ix in range(nx - m) for it in range(nt - m)]
    assert len(defects) == 16 * 16 + 15 * 15 + 13 * 13
    assert hashlib.sha256(np.array(defects).tobytes()).hexdigest() == HOLONOMY_SHA256


def test_eigenfunction_pinned():
    phi = ss.eigenfunction_field(pinned_pair(), np.eye(2, dtype=complex)).phi
    assert hashlib.sha256(phi.tobytes()).hexdigest() == EIGENFUNCTION_SHA256


class TestWalkLinear:
    def test_returns_every_state(self):
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        states = ss.walk_linear(np.eye(2), np.stack([m] * 3), np.stack([m] * 3), [0.1] * 3)
        assert states.shape == (4, 2, 2)
        assert same_bits(states[0], np.eye(2))
        y = np.eye(2)
        for e in range(3):
            y = ref_step_linear(y, m, m, 0.1)
            assert same_bits(states[e + 1], y)

    def test_batch_axes_follow_the_state(self):
        rng = np.random.default_rng(0)
        m0, m1 = rng.normal(size=(2, 5, 4, 2, 2))
        y = rng.normal(size=(4, 2, 2))
        states = ss.walk_linear(y, m0, m1, np.full(5, 0.05))
        assert states.shape == (6, 4, 2, 2)
        for b in range(4):
            assert same_bits(states[:, b], ss.walk_linear(y[b], m0[:, b], m1[:, b],
                                                          np.full(5, 0.05)))

    def test_overflow_raises_naming_the_step_without_warning(self):
        big = np.array([[0.0, 1e200], [0.0, 0.0]])
        m = np.stack([np.zeros((2, 2))] * 2 + [big] * 3)   # the state overflows in step 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ss.NonFiniteFieldError, match="linear walk at step 2$"):
                ss.walk_linear(np.full((2, 2), 1e200), m, m, np.full(5, 1.0))

    def test_overflowing_holonomy_loop_raises(self, band_small):
        U = np.zeros(band_small.shape + (2, 2), dtype=complex)
        U[..., 0, 1] = U[..., 1, 0] = 1e300
        L = ss.LaxPairField(U=U, V=np.zeros_like(U), grid=band_small)
        with pytest.raises(ss.NonFiniteFieldError, match="step 0$"):
            ss.holonomy_defect(L, corner=(2, 3), sizes=(2, 1))


class TestInitialPhi:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_nonfinite_phi0_is_a_typed_error(self, bad):
        phi0 = np.eye(2, dtype=complex)
        phi0[1, 0] = bad
        with pytest.raises(ss.NonFiniteFieldError, match="phi0"):
            ss.eigenfunction_field(pinned_pair(), phi0)

    def test_huge_finite_phi0_passes_without_warning(self, band_small):
        # the determinant check overflows; a zero pair keeps phi0 at every node
        Z = np.zeros(band_small.shape + (2, 2), dtype=complex)
        L = ss.LaxPairField(U=Z, V=Z.copy(), grid=band_small)
        phi0 = 1e300 * np.eye(2, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = ss.eigenfunction_field(L, phi0).phi
        assert same_bits(phi, np.broadcast_to(phi0, phi.shape))

    def test_singular_phi0_still_rejected(self):
        with pytest.raises(ss.ShapeError, match="invertible"):
            ss.eigenfunction_field(pinned_pair(), np.ones((2, 2)))


class TestTransportFailures:
    def test_long_unstable_transport_drifts_before_it_overflows(self):
        # the drift passes GRAM_TOL many steps before the state overflows
        g = Grid1D(0.0, 0.8, 400, "one_sided")
        with pytest.raises(ss.GramDriftError, match="orthonormality at x index 1 "):
            ss.transport_frame_x(np.eye(3), 8.0, 4.0, g)
        a_t = np.broadcast_to(ss.matrix_a(8.0, 4.0).T, (399, 3, 3))
        walked = ss.walk_linear(np.eye(3), a_t, a_t, np.full(399, 0.8), check=False)
        assert not np.isfinite(walked[-1]).all()

    def test_step_that_overflows_at_once_is_non_finite(self):
        g = Grid1D(0.0, 0.1, 5, "one_sided")
        k = np.array([1.0, 1.0, 1e308, 1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ss.NonFiniteFieldError, match="non-finite at x index 2$"):
                ss.transport_frame_x(np.eye(3), k, 0.0, g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_frame0_is_a_typed_error(self, bad):
        frame0 = np.eye(3)
        frame0[2, 1] = bad
        with pytest.raises(ss.NonFiniteFieldError, match="frame0"):
            ss.transport_frame_x(frame0, 1.0, 0.5, Grid1D(0.0, 0.1, 5))
