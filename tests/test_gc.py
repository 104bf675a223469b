"""Surface-data residuals, the frame map and its inverse, and curvatures."""

import dataclasses

import numpy as np
import pytest

import solsurf as ss
from solsurf.fixtures import (
    consistent_random_ct,
    plane_gc,
    random_ct,
    sphere_ct,
    sphere_forms,
    sphere_gc,
)

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

    def test_plane_data_is_exact(self):
        g2 = ss.Grid2D(ss.Grid1D(0.0, 0.1, 9), ss.Grid1D(0.0, 0.1, 9))
        r = ss.gc_residual(plane_gc(g2))
        assert max(np.max(np.abs(a)) for a in r) == 0.0


class TestFrameMap:
    def test_sphere_round_trip_is_exact(self, band_small):
        d, exact = sphere_gc(band_small)
        ct = ss.map_gc_to_frame(d)
        metric_derivs = (exact.tpsi1_x, exact.tpsi2_t)
        back = ss.map_frame_to_gc(ct, d.tpsi1, d.tpsi2, metric_derivs=metric_derivs)
        for name in ("psi1", "psi2", "p", "q"):
            assert np.array_equal(getattr(back, name), getattr(d, name)), name

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

    def test_consistent_fields_pass_tight_tolerance(self):
        g2 = ss.Grid2D(ss.Grid1D(0.0, 2 * np.pi / 16, 17, "one_sided"),
                       ss.Grid1D(0.0, 2 * np.pi / 16, 17, "one_sided"))
        ct, tpsi1, tpsi2 = consistent_random_ct(g2, seed=0)
        d = ss.map_frame_to_gc(ct, tpsi1, tpsi2, tol=1e-12)
        assert np.array_equal(d.q, ct.k)

    def test_inconsistent_fields_rejected(self):
        g2 = ss.Grid2D(ss.Grid1D(0.0, 2 * np.pi / 16, 17, "one_sided"),
                       ss.Grid1D(0.0, 2 * np.pi / 16, 17, "one_sided"))
        ct = random_ct(g2, seed=0)
        with pytest.raises(ss.MapInconsistentError):
            ss.map_frame_to_gc(ct, np.ones(g2.shape), np.ones(g2.shape), tol=1e-6)

    def test_sphere_ct_equals_mapped_gc(self, band_small):
        d, _ = sphere_gc(band_small)
        ct_direct = sphere_ct(band_small)
        ct_mapped = ss.map_gc_to_frame(d)
        assert np.array_equal(ct_direct.k, ct_mapped.k)
        assert np.array_equal(ct_direct.tau, ct_mapped.tau)


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
        K, H = ss.curvatures(sphere_forms(band_small, radius=radius))
        assert np.max(np.abs(K - 1.0 / radius ** 2)) / (1.0 / radius ** 2) <= 1e-12
        assert np.max(np.abs(H - 1.0 / radius)) < 1e-12

    def test_degenerate_metric_rejected(self, band_small):
        ff = dataclasses.replace(sphere_forms(band_small),
                                 E=np.zeros(band_small.shape))
        with pytest.raises(ss.DegenerateMetricError):
            ss.curvatures(ff)

    def test_cross_terms_accepted(self, band_small):
        # sphere forms in sheared coordinates (a, b) = (x - t, t): the first
        # and second forms pick up the same cross terms, K and H stay put
        ff = sphere_forms(band_small, radius=2.0)
        sheared = ss.FundamentalForms(
            E=ff.E, F=ff.E, G=ff.E + ff.G, L=ff.L, M=ff.L, N=ff.L + ff.N,
            grid=band_small)
        K, H = ss.curvatures(sheared)
        assert np.max(np.abs(K - 0.25)) < 1e-13
        assert np.max(np.abs(H - 0.5)) < 1e-13
