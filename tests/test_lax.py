"""Lax pair assembly, zero-curvature residuals, and eigenfunction transport."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import solsurf as ss
from solsurf.fixtures import random_ct, sphere_gc, traveling_circle

from conftest import polar_band, ref_propagate


def expm_traceless2(M):
    # closed form for traceless 2x2: M^2 = -det(M) I
    mu = np.sqrt(complex(-np.linalg.det(M)))
    if abs(mu) < 1e-12:
        return np.eye(2, dtype=complex) + M
    return np.cosh(mu) * np.eye(2) + (np.sinh(mu) / mu) * M


class TestBuildLax:
    def test_shapes_and_tracelessness(self, band_small):
        L = ss.build_lax(ss.map_gc_to_frame(sphere_gc(band_small)[0]))
        nx, nt = band_small.shape
        assert L.U.shape == L.V.shape == (nx, nt, 2, 2)
        assert np.max(np.abs(np.trace(L.U, axis1=2, axis2=3))) < 1e-14
        assert np.max(np.abs(np.trace(L.V, axis1=2, axis2=3))) < 1e-14

    def test_entries(self, band_small):
        ct = ss.map_gc_to_frame(sphere_gc(band_small)[0])
        L = ss.build_lax(ct)
        half_over_i = 1.0 / 2.0j
        assert np.max(np.abs(L.U[..., 0, 1] - half_over_i * ct.k)) < 1e-15
        assert np.max(np.abs(L.U[..., 0, 0] - half_over_i * ct.tau)) < 1e-15
        assert np.max(np.abs(L.V[..., 0, 1] - half_over_i * (ct.omega3 + 1j * ct.omega2))) < 1e-15
        assert np.max(np.abs(L.V[..., 1, 0] - half_over_i * (ct.omega3 - 1j * ct.omega2))) < 1e-15

    def test_v_diagonal_is_positive_zero(self, band_small):
        # omega1 = 0: build_lax leaves V's diagonal as np.zeros filled it
        V = ss.build_lax(random_ct(band_small, seed=3)).V
        diagonal = np.stack([V[..., 0, 0], V[..., 1, 1]])
        assert diagonal.tobytes() == np.zeros_like(diagonal).tobytes()

    def test_nonfinite_rejected(self, band_small):
        nx, nt = band_small.shape
        U = np.zeros((nx, nt, 2, 2), dtype=complex)
        U[0, 0, 0, 1] = np.nan
        with pytest.raises(ss.NonFiniteFieldError):
            ss.LaxPairField(U=U, V=np.zeros_like(U), grid=band_small)


class TestZeroCurvature:
    def test_matches_compatibility_residual(self, band_small):
        # the matrix residual packs (r1, r2, r3); Frobenius norms must agree
        ct = ss.map_gc_to_frame(sphere_gc(band_small)[0])
        r1, r2, r3 = ss.compatibility_residual(ct)
        expected = np.sqrt((r1 ** 2 + r2 ** 2 + r3 ** 2) / 2.0)
        got = ss.zero_curvature_residual(ss.build_lax(ct))
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_entrywise_identities(self, band_small):
        ct = ss.map_gc_to_frame(sphere_gc(band_small)[0])
        r1, r2, r3 = ss.compatibility_residual(ct)
        R = ss.zero_curvature_matrix(ss.build_lax(ct))
        assert np.max(np.abs(2j * R[..., 0, 0] - r2)) < 1e-14
        assert np.max(np.abs(2j * R[..., 0, 1] - (r1 - 1j * r3))) < 1e-14
        assert np.max(np.abs(2j * R[..., 1, 0] - (r1 + 1j * r3))) < 1e-14
        assert np.max(np.abs(2j * R[..., 1, 1] + r2)) < 1e-14

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), amplitude=st.floats(0.1, 2.0))
    def test_identities_on_random_fields(self, seed, amplitude):
        """2iR packs (r1, r2, r3) entrywise, and |R|_F matches their norm."""
        ct = random_ct(polar_band(17), seed=seed, amplitude=amplitude)
        r1, r2, r3 = ss.compatibility_residual(ct)
        L = ss.build_lax(ct)
        R2i = 2j * ss.zero_curvature_matrix(L)
        tol = 1e-13 * max(1.0, *(np.max(np.abs(r)) for r in (r1, r2, r3)))
        assert np.max(np.abs(R2i[..., 0, 0] - r2)) < tol
        assert np.max(np.abs(R2i[..., 0, 1] - (r1 - 1j * r3))) < tol
        assert np.max(np.abs(R2i[..., 1, 0] - (r1 + 1j * r3))) < tol
        assert np.max(np.abs(R2i[..., 1, 1] + r2)) < tol
        expected = np.sqrt((r1 ** 2 + r2 ** 2 + r3 ** 2) / 2.0)
        assert np.max(np.abs(ss.zero_curvature_residual(L) - expected)) < tol

    @pytest.mark.parametrize("layout", ["build_lax", "traceless"])
    def test_commutator_matches_matmul_on_hostile_values(self, band_small, layout):
        """Entries of +-0.0, of mixed scale and up to 6e153, whose products
        reach 1e307 and whose sums stay below overflow.  In build_lax's layout
        (U symmetric, V off-diagonal) R equals the U @ V - V @ U form, and
        only the signs of zeros may differ; in any other traceless one the
        two agree to the rounding of BLAS's fused products.  U is constant in
        t and V in x, so R is -[U, V] off the edge rows, at every pairing of
        a U row with a V column."""
        rng = np.random.default_rng(5)
        pool = np.array([0.0, -0.0, 6e153, -5e153, 3e153, 1e150, 1e-3, -2.5, 3.7])
        nx, nt = band_small.shape

        def entries(shape):
            return rng.choice(pool, shape) + 1j * rng.choice(pool, shape)

        a, b, e = entries((3, nx, 1))
        c, d, f = entries((3, 1, nt))
        if layout == "build_lax":
            e, f = b, np.zeros_like(f)
        a, b, e, c, d, f = np.broadcast_arrays(a, b, e, c, d, f)
        U = np.stack([np.stack([a, b], -1), np.stack([e, -a], -1)], -2)
        V = np.stack([np.stack([f, c], -1), np.stack([d, -f], -1)], -2)
        got = ss.zero_curvature_matrix(ss.LaxPairField(U=U, V=V, grid=band_small))
        want = ss.diff_t(U, band_small) - ss.diff_x(V, band_small) - (U @ V - V @ U)
        assert (want == 0).any() and np.max(np.abs(want)) > 1e307
        if layout == "build_lax":
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_sphere_residual_second_order(self):
        hs, errs = [], []
        for scale in (1, 2, 4):
            g2 = polar_band(17, scale)
            ct = ss.map_gc_to_frame(sphere_gc(g2)[0])
            errs.append(np.max(ss.zero_curvature_residual(ss.build_lax(ct))))
            hs.append(g2.gx.dx)
        assert ss.fit_order(hs, errs, floor=1e-11) >= 1.7

    def test_traveling_circle_residual_is_roundoff(self, grid_small):
        series = ss.evolve_series(traveling_circle(grid_small), 0.01, 4)
        L = ss.build_lax(ss.ct_from_spin_series(series))
        assert np.max(ss.zero_curvature_residual(L)) < 1e-12


class TestEigenfunctionField:
    def test_start_value_and_shape(self, band_small):
        L = ss.build_lax(ss.map_gc_to_frame(sphere_gc(band_small)[0]))
        phi0 = np.eye(2, dtype=complex)
        ef = ss.eigenfunction_field(L, phi0)
        assert isinstance(ef, ss.Eigenfunction)
        assert ef.phi.shape == (*band_small.shape, 2, 2)
        assert np.array_equal(ef.phi[0, 0], phi0)
        assert np.all(np.isfinite(ef.phi.view(float)))

    def test_zero_generator_is_identity_transport(self, band_small):
        Z = np.zeros(band_small.shape + (2, 2), dtype=complex)
        L = ss.LaxPairField(U=Z, V=Z.copy(), grid=band_small)
        phi0 = np.array([[1.0, 2.0], [0.5, -1.0]], dtype=complex)
        phi = ss.eigenfunction_field(L, phi0).phi
        assert np.array_equal(phi, np.broadcast_to(phi0, phi.shape))

    def test_constant_generator_matches_exponential(self, band_small):
        M = (1.0 / 2.0j) * np.array([[0.3, 0.8], [0.8, -0.3]], dtype=complex)
        U = np.broadcast_to(M, band_small.shape + (2, 2)).copy()
        L = ss.LaxPairField(U=U, V=np.zeros_like(U), grid=band_small)
        steps = 4   # node (4, 0) is four +x steps from node (0, 0)
        out = ss.eigenfunction_field(L, np.eye(2, dtype=complex)).phi[steps, 0]
        exact = expm_traceless2(M * steps * band_small.gx.dx)
        # RK4 truncation at this spacing dominates
        assert np.max(np.abs(out - exact)) < 1e-6

    def test_determinant_modulus_preserved(self):
        L = ss.build_lax(ss.map_gc_to_frame(sphere_gc(polar_band(17))[0]))
        phi0 = np.array([[1.0, 0.3j], [0.2, 1.0 - 0.1j]], dtype=complex)
        phi = ss.eigenfunction_field(L, phi0).phi
        assert np.max(np.abs(np.abs(np.linalg.det(phi)) - abs(np.linalg.det(phi0)))) < 1e-8

    @pytest.mark.parametrize("phi0,match", [
        (1.0, r"^phi0 must have shape \(2, 2\), got \(\)$"),
        ([1.0, 0.0], r"^phi0 must have shape \(2, 2\), got \(2,\)$"),
        ([[1.0, 0.0], [1.0, 0.0]], "^phi0 must be invertible$"),
    ])
    def test_phi0_checked_as_in_path_transport(self, band_small, phi0, match):
        # a scalar or row phi0 used to broadcast to a singular start value
        L = ss.build_lax(ss.map_gc_to_frame(sphere_gc(band_small)[0]))
        with pytest.raises(ss.ShapeError, match=match):
            ss.eigenfunction_field(L, phi0)

    def test_matches_path_transport(self):
        # every node equals transport along +x then +t, bit for bit, on a
        # solution field and on two incompatible ones, with nx != nt
        g2 = ss.Grid2D(ss.Grid1D(0.0, np.pi / 16, 11, "one_sided"),
                       ss.Grid1D(0.3, (np.pi - 0.6) / 16, 7, "one_sided"))
        phi0 = np.array([[1.0, 0.5j], [-0.25, 2.0 - 1.0j]])
        for ct in (ss.map_gc_to_frame(sphere_gc(g2)[0]), random_ct(g2, seed=1),
                   random_ct(g2, seed=2)):
            L = ss.build_lax(ct)
            ef = ss.eigenfunction_field(L, phi0)
            for ix in range(11):
                for it in range(7):
                    direct = ref_propagate(L, phi0, ["+x"] * ix + ["+t"] * it, (0, 0))
                    assert ef.phi[ix, it].tobytes() == direct.tobytes(), (ix, it)


class TestHolonomy:
    def test_defect_small_on_solution_fields(self, band_small):
        L = ss.build_lax(ss.map_gc_to_frame(sphere_gc(band_small)[0]))
        d = ss.holonomy_defect(L, corner=(2, 2))
        assert 0.0 <= d < 1e-3

    def test_defect_scales_with_area_on_violating_fields(self):
        # constant fields that do not satisfy compatibility: the defect per
        # cell tracks cell area with slope about one
        defects, areas = [], []
        for h in (0.1, 0.05, 0.025):
            g2 = ss.Grid2D(ss.Grid1D(0.0, h, 9, "one_sided"),
                           ss.Grid1D(0.0, h, 9, "one_sided"))
            shp = g2.shape
            ct = ss.CTFields(k=np.full(shp, 0.8), tau=np.full(shp, 0.5),
                             omega2=np.full(shp, 0.3), omega3=np.full(shp, -0.4),
                             grid=g2)
            defects.append(ss.holonomy_defect(ss.build_lax(ct), corner=(2, 2)))
            areas.append(h * h)
        slope = np.polyfit(np.log(areas), np.log(defects), 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_multi_cell_loop(self, band_small):
        L = ss.build_lax(ss.map_gc_to_frame(sphere_gc(band_small)[0]))
        d1 = ss.holonomy_defect(L, corner=(1, 1), sizes=(1, 1))
        d4 = ss.holonomy_defect(L, corner=(1, 1), sizes=(4, 4))
        assert d4 > d1


def _sphere_lax():
    return ss.build_lax(ss.map_gc_to_frame(sphere_gc(polar_band(5))[0]))


def _not_traceless():
    L = _sphere_lax()
    U = L.U.copy()
    U[1, 1, 0, 0] += 1e-9
    return ss.LaxPairField(U=U, V=L.V, grid=L.grid)


# A bad Lax pair, start or loop, and the typed error it must raise.
@pytest.mark.parametrize("call,error,message", [
    (_not_traceless, ss.ShapeError, "U is not traceless: max |trace| = 1.000e-09"),
    (lambda: ss.holonomy_defect(_sphere_lax(), corner=(3, 0), sizes=(2, 1)), ss.GridError,
     "loop from corner (3, 0) to (5, 1) leaves the 5x5 grid"),
    (lambda: ss.holonomy_defect(_sphere_lax(), corner=(-1, 0)), ss.GridError,
     "loop from corner (-1, 0) to (0, 1) leaves the 5x5 grid"),
    (lambda: ss.holonomy_defect(_sphere_lax(), sizes=(0, 1)), ss.GridError,
     "loop sizes must be >= 1, got (0, 1)"),
], ids=["not_traceless", "far_corner_outside", "negative_corner", "empty_loop"])
def test_bad_inputs_raise_typed_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message
