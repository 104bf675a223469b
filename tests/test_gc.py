"""Surface-data residuals, the frame map and its inverse, and curvatures."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import solsurf as ss
from solsurf.fixtures import random_ct, sphere_gc, traveling_circle

from conftest import polar_band


class TestSphereResiduals:
    def test_analytic_derivatives_vanish(self, band_small):
        d, exact = sphere_gc(band_small, radius=1.0)
        assert max(np.max(np.abs(a)) for a in ss.gc_residual(d, exact)) < 1e-15
        assert max(np.max(np.abs(a)) for a in ss.metric_residual(d, exact)) < 1e-15

    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_analytic_derivatives_vanish_other_radii(self, band_small, radius):
        d, exact = sphere_gc(band_small, radius=radius)
        assert max(np.max(np.abs(a)) for a in ss.gc_residual(d, exact)) < 1e-13
        assert max(np.max(np.abs(a)) for a in ss.metric_residual(d, exact)) < 1e-13

    def test_numeric_derivatives_second_order(self):
        hs, errs = [], []
        for scale in (1, 2, 4):
            g2 = polar_band(17, scale)
            d, _ = sphere_gc(g2)
            r = ss.gc_residual(d)
            errs.append(max(np.max(np.abs(a)) for a in r))
            hs.append(g2.gx.dx)
        assert ss.fit_order(hs, errs, floor=1e-11) >= 1.7

    def test_gc_closed_form_shape_checked(self, band_small):
        # a (1, 17) psi2_t broadcast silently to a residual of about 0.7
        d, exact = sphere_gc(band_small)
        bad = dataclasses.replace(exact, psi2_t=exact.psi2_t[:1])
        with pytest.raises(ss.ShapeError, match=r"^psi2_t must have shape \(17, 17\)"):
            ss.gc_residual(d, bad)

    def test_metric_closed_form_shape_checked(self, band_small):
        d, exact = sphere_gc(band_small)
        bad = dataclasses.replace(exact, tpsi1_x=0.0)
        with pytest.raises(ss.ShapeError, match=r"^tpsi1_x must have shape"):
            ss.metric_residual(d, bad)

    def test_plane_data_is_exact(self):
        g2 = ss.Grid2D(ss.Grid1D(0.0, 0.1, 9), ss.Grid1D(0.0, 0.1, 9))
        zero, one = np.zeros(g2.shape), np.ones(g2.shape)
        flat = ss.GCData(psi1=zero, psi2=zero, tpsi1=one, tpsi2=one, p=zero,
                         q=zero, grid=g2)
        r = ss.gc_residual(flat)
        assert max(np.max(np.abs(a)) for a in r) == 0.0


class TestFrameMap:
    def test_sphere_round_trip_is_exact(self, band_small):
        d, exact = sphere_gc(band_small)
        ct = ss.map_gc_to_frame(d)
        metric_derivs = (exact.tpsi1_x, exact.tpsi2_t)
        back = ss.map_frame_to_gc(ct, d.tpsi1, d.tpsi2, metric_derivs=metric_derivs)
        for name in ("psi1", "psi2", "p", "q"):
            assert np.array_equal(getattr(back, name), getattr(d, name)), name

    def test_metric_derivs_shape_checked(self, band_small):
        d, exact = sphere_gc(band_small)
        with pytest.raises(ss.ShapeError, match=r"^tpsi2_t must have shape"):
            ss.map_frame_to_gc(ss.map_gc_to_frame(d), d.tpsi1, d.tpsi2,
                               metric_derivs=(exact.tpsi1_x, exact.tpsi2_t[:, :1]))

    def test_mapped_fields(self, band_small):
        d, _ = sphere_gc(band_small)
        ct = ss.map_gc_to_frame(d)
        assert np.array_equal(ct.k, d.q)
        assert np.array_equal(ct.tau, d.psi2)
        assert np.array_equal(ct.omega2, -d.psi1)
        assert np.array_equal(ct.omega3, -d.p)

    def test_mapped_sphere_satisfies_compatibility(self):
        hs, errs = [], []
        for scale in (1, 2, 4):
            g2 = polar_band(17, scale)
            d, _ = sphere_gc(g2)
            r = ss.compatibility_residual(ss.map_gc_to_frame(d))
            errs.append(max(np.max(np.abs(a)) for a in r))
            hs.append(g2.gx.dx)
        assert ss.fit_order(hs, errs, floor=1e-11) >= 1.7

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_consistent_fields_pass_tight_tolerance(self, data):
        """Frame fields whose k and omega3 are defined from the metric roots
        map to surface data at tol 1e-12, and back to the same four fields."""
        n = st.integers(3, 9)
        h = st.floats(0.05, 1.0)
        g2 = ss.Grid2D(ss.Grid1D(0.0, data.draw(h), data.draw(n), "one_sided"),
                       ss.Grid1D(0.0, data.draw(h), data.draw(n), "one_sided"))
        root = arrays(float, g2.shape, elements=st.floats(0.5, 2.0))
        free = arrays(float, g2.shape, elements=st.floats(-10.0, 10.0))
        tpsi1, tpsi2 = data.draw(root), data.draw(root)
        ct = ss.CTFields(k=ss.diff_t(tpsi2, g2) / tpsi1, tau=data.draw(free),
                         omega2=data.draw(free),
                         omega3=-ss.diff_x(tpsi1, g2) / tpsi2, grid=g2)
        back = ss.map_gc_to_frame(ss.map_frame_to_gc(ct, tpsi1, tpsi2, tol=1e-12))
        for name in ("k", "tau", "omega2", "omega3"):
            assert getattr(back, name).tobytes() == getattr(ct, name).tobytes(), name

    def test_inconsistent_fields_rejected(self):
        g2 = ss.Grid2D(ss.Grid1D(0.0, 2 * np.pi / 16, 17, "one_sided"),
                       ss.Grid1D(0.0, 2 * np.pi / 16, 17, "one_sided"))
        ct = random_ct(g2, seed=0)
        with pytest.raises(ss.MapInconsistentError):
            ss.map_frame_to_gc(ct, np.ones(g2.shape), np.ones(g2.shape), tol=1e-6)


class TestForms:
    def test_diagonal_forms_needs_all_fields(self, band_small):
        ones = np.ones(band_small.shape)
        with pytest.raises(ss.ShapeError, match="N"):
            ss.FundamentalForms(E=ones, F=0 * ones, G=ones, L=ones, M=0 * ones,
                                N=None, grid=band_small)

    def test_shape_mismatch_rejected(self, band_small):
        ones = np.ones(band_small.shape)
        with pytest.raises(ss.ShapeError, match="N must have shape"):
            ss.FundamentalForms(E=ones, F=ones, G=ones, L=ones, M=ones,
                                N=np.ones((2, 2)), grid=band_small)

    def test_fundamental_forms_from_data(self, band_small):
        d, _ = sphere_gc(band_small, radius=2.0)
        _, T = band_small.meshes()
        ff = ss.fundamental_forms(d)
        assert ff.grid == band_small
        assert np.max(np.abs(ff.E - 4.0)) < 1e-14
        assert np.max(np.abs(ff.G - 4.0 * np.sin(T) ** 2)) < 1e-13
        assert np.max(np.abs(ff.L - 2.0)) < 1e-14
        assert np.all(ff.F == 0.0) and np.all(ff.M == 0.0)


class TestCurvatures:
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    def test_sphere_gaussian_curvature_exact(self, band_small, radius):
        K, H = ss.curvatures(ss.fundamental_forms(sphere_gc(band_small, radius)[0]))
        assert np.max(np.abs(K - 1.0 / radius ** 2)) / (1.0 / radius ** 2) <= 1e-12
        assert np.max(np.abs(H - 1.0 / radius)) < 1e-12

    def test_degenerate_metric_rejected(self, band_small):
        ff = dataclasses.replace(ss.fundamental_forms(sphere_gc(band_small)[0]),
                                 E=np.zeros(band_small.shape))
        with pytest.raises(ss.DegenerateMetricError):
            ss.curvatures(ff)

    def test_nan_marked_mesh_forms(self):
        """The planar sweep has points where mesh_forms NaN-marks L because
        E G - F^2 cancels to <= 0; curvatures gives NaN K, H there."""
        g = ss.Grid1D(0.0, 2.0 * np.pi / 32, 33, "periodic")
        series = ss.evolve_series(traveling_circle(g), g.dx / 4.0, 8, renorm=False)
        mesh = ss.reconstruct(series)
        forms = ss.mesh_forms(mesh)
        marked = np.isnan(forms.L)
        assert np.count_nonzero(marked) == 24
        assert np.any(forms.E * forms.G - forms.F ** 2 <= 0)
        K, H = ss.curvatures(forms)
        K_mesh, H_mesh = ss.mesh_curvatures(mesh)
        assert K.tobytes() == K_mesh.tobytes() and H.tobytes() == H_mesh.tobytes()
        assert np.array_equal(np.isnan(K), marked)
        assert np.array_equal(np.isnan(H), marked)

    def test_cross_terms_accepted(self, band_small):
        # sphere forms in sheared coordinates (a, b) = (x - t, t): the first
        # and second forms pick up the same cross terms, K and H stay put
        ff = ss.fundamental_forms(sphere_gc(band_small, 2.0)[0])
        sheared = ss.FundamentalForms(
            E=ff.E, F=ff.E, G=ff.E + ff.G, L=ff.L, M=ff.L, N=ff.L + ff.N,
            grid=band_small)
        K, H = ss.curvatures(sheared)
        assert np.max(np.abs(K - 0.25)) < 1e-13
        assert np.max(np.abs(H - 0.5)) < 1e-13


@pytest.mark.parametrize("name", ["tpsi1", "tpsi2"])
def test_nonpositive_metric_root_rejected(band_small, name):
    d = sphere_gc(band_small)[0]
    with pytest.raises(ss.DegenerateMetricError) as exc:
        dataclasses.replace(d, **{name: -getattr(d, name)})
    assert str(exc.value) == f"{name} must be strictly positive (min -1.000000e+00)"
