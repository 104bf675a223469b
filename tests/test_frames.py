"""Moving-frame coefficient matrices, transport, and compatibility residuals."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import solsurf as ss
from solsurf import Grid1D, Grid2D
from solsurf import cli
from solsurf.frames import GRAM_TOL
from solsurf.fixtures import (
    expm_skew3,
    sphere_frame_series,
    sphere_gc,
    traveling_circle,
)

from conftest import circle_grid, layouts, polar_band, ref_step_rk4


class TestCoefficientMatrices:
    def test_matrix_a_layout(self):
        A = ss.matrix_a(2.0, 3.0)
        expected = np.array([[0.0, 2.0, 0.0],
                             [-2.0, 0.0, 3.0],
                             [0.0, -3.0, 0.0]])
        assert np.array_equal(A, expected)

    @pytest.mark.parametrize("maker,args", [
        (ss.matrix_a, (0.7, -1.3)),
        (ss.matrix_a, (np.array([0.7, 0.0, -2.5, 1e-300]),
                       np.array([-1.3, 4.0, 0.0, -0.0]))),
    ])
    def test_antisymmetry(self, maker, args):
        M = maker(*args)
        assert np.array_equal(M, -np.swapaxes(M, -1, -2))
        # array arguments give the stack of the scalar calls
        rows = [maker(*row) for row in zip(*map(np.atleast_1d, args))]
        assert np.stack(rows).tobytes() == M.reshape(-1, 3, 3).tobytes()


class TestTransport:
    def test_constant_coefficients_match_exponential(self):
        # E' = A E with frozen A integrates to expm(A x) E0
        k, tau = 1.0, 0.5
        g = Grid1D(0.0, 1e-3, 1001, "one_sided")
        fr = ss.transport_frame_x(np.eye(3), k, tau, g)
        A = ss.matrix_a(k, tau)
        exact = expm_skew3(A * 1.0)
        final = np.stack([fr.e1[-1], fr.e2[-1], fr.e3[-1]])
        assert np.max(np.abs(final - exact)) < 1e-8

    def test_gram_drift_small_without_renorm(self):
        g = Grid1D(0.0, 1e-2, 1001, "one_sided")
        fr = ss.transport_frame_x(np.eye(3), 1.0, 0.5, g)
        assert fr.gram_drift.max() < 1e-6

    def test_per_step_drift_order(self):
        # one step of E' = A E: drift should fall much faster than h^3.7
        hs, drifts = [], []
        for h in (1e-1, 5e-2, 2.5e-2):
            g = Grid1D(0.0, h, 3, "one_sided")
            fr = ss.transport_frame_x(np.eye(3), 1.0, 0.5, g)
            hs.append(h)
            drifts.append(fr.gram_drift[1])
        assert ss.fit_order(hs, drifts) >= 3.7

    def test_unstable_step_raises(self):
        # one step of size 0.8 at k = 8 drifts by about 1e4, far above GRAM_TOL
        g = Grid1D(0.0, 0.8, 30, "one_sided")
        with pytest.raises(ss.GramDriftError, match="orthonormality"):
            ss.transport_frame_x(np.eye(3), 8.0, 4.0, g)

    def test_varying_coefficients_accepted(self):
        g = Grid1D(0.0, 0.01, 101, "one_sided")
        x = g.points()
        fr = ss.transport_frame_x(np.eye(3), 1.0 + 0.3 * np.sin(x), 0.2 * np.cos(x), g)
        assert fr.e1.shape == (101, 3)
        assert fr.gram_drift.max() < 1e-10


def reference_transport(frame0, k, tau, grid):
    """Frame transport as first written: E' = A(x) E stepped by ref_step_rk4, with
    A built at each stage point from np.interp of the node coefficients."""
    xs = grid.points()
    k = np.broadcast_to(np.asarray(k, dtype=float), xs.shape)
    tau = np.broadcast_to(np.asarray(tau, dtype=float), xs.shape)

    def rhs(x, e):
        return ss.matrix_a(np.interp(x, xs, k), np.interp(x, xs, tau)) @ e

    frames, drift = [np.asarray(frame0, dtype=float)], [0.0]
    for i in range(grid.n - 1):
        nxt = ref_step_rk4(frames[-1], rhs, grid.dx, t=xs[i])
        drift.append(ss.gram_deviation(nxt))
        assert drift[-1] <= GRAM_TOL
        frames.append(nxt)
    return np.stack(frames), np.array(drift)


class TestAgainstReferenceTransport:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), dx=st.floats(1e-3, 0.05),
           coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
           turn=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
    def test_matches_interpolated_scheme(self, n, dx, coeffs, turn):
        g = Grid1D(0.0, dx, n, "one_sided")
        x = g.points()
        k0, k1, kw, t0, t1, tw = coeffs
        k = k0 + k1 * np.sin(3 * kw * x + 1.0)
        tau = t0 + t1 * np.cos(3 * tw * x)
        frame0 = expm_skew3(ss.matrix_a(*turn))
        for kk, tt, tol in ((k, tau, 1e-12), (k0, t0, 0.0)):
            ref, ref_drift = reference_transport(frame0, kk, tt, g)
            fr = ss.transport_frame_x(frame0, kk, tt, g)
            got = np.stack([fr.e1, fr.e2, fr.e3], axis=1)
            if tol:
                assert np.max(np.abs(got - ref)) <= tol
                assert np.max(np.abs(fr.gram_drift - ref_drift)) <= tol
            else:
                # scalar coefficients: A is constant and the two schemes agree bit for bit
                assert got.tobytes() == ref.tobytes()
                assert fr.gram_drift.tobytes() == ref_drift.tobytes()


class TestGramDeviation:
    def test_identity_is_zero(self):
        assert ss.gram_deviation(np.eye(3)) == 0.0

    def test_scaled_triad(self):
        assert ss.gram_deviation(2.0 * np.eye(3)) == pytest.approx(3.0)


class TestCompatibilityResidual:
    def test_sphere_fields_converge(self):
        hs, errs = [], []
        for scale in (1, 2, 4):
            g2 = polar_band(17, scale)
            r = ss.compatibility_residual(ss.map_gc_to_frame(sphere_gc(g2)[0]))
            errs.append(max(np.max(np.abs(a)) for a in r))
            hs.append(g2.gx.dx)
        assert ss.fit_order(hs, errs, floor=1e-11) >= 1.7

    def test_traveling_circle_is_superconvergent(self, grid_small):
        # all fields are constant in t and x-differences stay in-plane; only
        # integrator round-off (divided by dt in k_t) survives
        series = ss.evolve_series(traveling_circle(grid_small), 0.01, 4)
        r = ss.compatibility_residual(ss.ct_from_spin_series(series))
        assert max(np.max(np.abs(a)) for a in r) < 1e-12


class TestTorsionTransport:
    def test_traveling_circle_exact_zero(self, grid_small):
        series = ss.evolve_series(traveling_circle(grid_small), 0.01, 4)
        r = ss.torsion_transport_residual(series.S, series.v, series.grid2)
        assert np.max(np.abs(r)) == 0.0

    def test_sphere_frames_second_order(self):
        hs, errs = [], []
        for scale in (1, 2, 4):
            g2 = polar_band(17, scale)
            E, ct = sphere_frame_series(g2)
            r = ss.torsion_transport_residual(E[:, :, 0, :], ct.tau, g2)
            errs.append(np.max(np.abs(r)))
            hs.append(g2.gx.dx)
        assert ss.fit_order(hs, errs, floor=1e-11) >= 1.7


def unblocked_torsion_residual(e1, tau, g2):
    """torsion_transport_residual's expression over the whole series at once."""
    e1x, e1t = ss.diff_x(e1, g2), ss.diff_t(e1, g2)
    return ss.diff_t(tau, g2) - np.einsum("xtc,xtc->xt", e1, np.cross(e1x, e1t))


def windowed_torsion_residual(e1, tau, g2, rows):
    """torsion_transport_residual over time windows that own rows >= 2 levels
    each, a single level left at the end joining the last window, with a halo
    level each side, read at their owned levels, as a study reads it."""
    nt, out = g2.gt.n, np.empty(g2.shape)
    a = 0
    while a < nt:
        b = nt if nt - a < rows + 2 else a + rows
        lo, hi = max(a - 1, 0), min(b + 1, nt)
        gw = Grid2D(g2.gx, Grid1D(g2.gt.x0, g2.gt.dx, hi - lo))
        r = ss.torsion_transport_residual(e1[:, lo:hi], tau[:, lo:hi], gw)
        out[:, a:b] = r[:, a - lo:b - lo]
        a = b
    return out


class TestBlockedTorsionResidual:
    """A study hands the residual one block of time levels at a time: every
    block's owned levels have the whole series' bits."""

    NT = 7

    @pytest.mark.parametrize("boundary", ["one_sided", "periodic"])
    @pytest.mark.parametrize("n", [4, 5, 11, 15])
    @pytest.mark.parametrize("nan", [None, "e1", "tau"])
    def test_matches_the_unblocked_expression(self, boundary, n, nan):
        """Windows of 2 to NT levels on x grids of either boundary: the whole
        series and every blocking give the unblocked bits, a NaN in e1 or tau
        reaches the same cells, and the result is C-ordered."""
        g2 = Grid2D(Grid1D(0.0, 0.3, n, boundary), Grid1D(0.1, 0.05, self.NT))
        rng = np.random.default_rng(n)
        e1 = rng.normal(size=(n, self.NT, 3))
        tau = rng.normal(size=(n, self.NT))
        if nan == "e1":
            e1[n // 2, 3, 1] = np.nan
        elif nan == "tau":
            tau[n - 1, 2] = np.nan
        r = ss.torsion_transport_residual(e1, tau, g2)
        expected = unblocked_torsion_residual(e1, tau, g2)
        assert np.isnan(r).any() == (nan is not None)
        assert r.tobytes() == expected.tobytes()
        assert r.flags.c_contiguous
        for rows in range(2, self.NT + 1):
            assert windowed_torsion_residual(e1, tau, g2, rows).tobytes() == r.tobytes(), rows

    def test_default_blocks_match_on_a_trajectory(self):
        """The study's default blocks (cli.BLOCK_VALUES, three of them here)."""
        series = ss.evolve_series(traveling_circle(circle_grid(65)), 0.01, 120)
        rows = cli.BLOCK_VALUES // (5 * 65)
        assert 2 * rows < series.grid2.gt.n <= 3 * rows
        r = windowed_torsion_residual(series.S, series.v, series.grid2, rows)
        expected = unblocked_torsion_residual(series.S, series.v, series.grid2)
        assert r.tobytes() == expected.tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(nx=st.integers(3, 40), nt=st.integers(3, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_torsion_residual_bits_do_not_depend_on_input_layout(nx, nt, seed):
    """C-ordered, Fortran-ordered and component-strided e1 and tau give the
    same bytes."""
    g2 = Grid2D(Grid1D(0.0, 0.3, nx), Grid1D(0.1, 0.05, nt))
    rng = np.random.default_rng(seed)
    e1, tau = layouts(rng.normal(size=(nx, nt, 3))), layouts(rng.normal(size=(nx, nt)))
    results = {ss.torsion_transport_residual(e1[a], tau[b], g2).tobytes()
               for a in e1 for b in tau}
    assert len(results) == 1


class TestSphereFrameSeries:
    def test_frames_are_orthonormal(self, band_small):
        E, _ = sphere_frame_series(band_small)
        gram = np.einsum("xtij,xtkj->xtik", E, E)
        assert np.max(np.abs(gram - np.eye(3))) < 1e-13

    def test_fields_match_construction(self, band_small):
        _, ct = sphere_frame_series(band_small)
        _, T = band_small.meshes()
        assert np.max(np.abs(ct.k - np.cos(T))) < 1e-14
        assert np.max(np.abs(ct.tau - np.sin(T))) < 1e-14
        assert np.max(np.abs(ct.omega2 + 1.0)) < 1e-14
        assert np.max(np.abs(ct.omega3)) < 1e-14


def _transported():
    return ss.transport_frame_x(np.eye(3), 1.0, 0.5, Grid1D(0.0, 0.1, 5))


@pytest.mark.parametrize("name", ["e1", "e2", "e3", "k", "tau", "gram_drift"])
def test_frame_state_checks_declared_arrays(name):
    """A wrong trailing shape raises ShapeError naming the array; a NaN entry is kept."""
    state = _transported()
    a = getattr(state, name)
    with pytest.raises(ss.ShapeError, match=f"^{name} must have shape"):
        dataclasses.replace(state, **{name: np.stack([a, a], axis=-1)})
    bad = a.copy()
    bad[1] = np.nan
    assert np.isnan(getattr(dataclasses.replace(state, **{name: bad}), name)[1]).all()


def test_triad_stacks_the_rows_at_a_point():
    state = _transported()
    for i in range(5):
        assert np.array_equal(state.triad(i), np.stack([state.e1[i], state.e2[i], state.e3[i]]))


# A bad transport start or skew stack, and the typed error it must raise.
@pytest.mark.parametrize("call,error,message", [
    (lambda: ss.transport_frame_x(np.diag([1.0, 1.0, 1.1]), 1.0, 0.0, Grid1D(0.0, 0.1, 5)),
     ss.GramDriftError, "initial triad is not orthonormal (deviation 2.100e-01)"),
    (lambda: ss.transport_frame_x(np.eye(3), 1.0, 0.0, Grid1D(0.0, 0.1, 5), reorthonormalize=True),
     ss.ConfigError, "transport_frame_x has no re-orthonormalizing mode"),
    (lambda: expm_skew3(np.zeros((2, 2))), ss.ShapeError,
     "W must be stacked 3x3 matrices, got shape (2, 2)"),
], ids=["frame0_not_orthonormal", "reorthonormalize", "skew_not_3x3"])
def test_bad_inputs_raise_typed_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message
