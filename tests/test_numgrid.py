"""Grids, stencils, quadrature, RK4, and order fitting."""

import numpy as np
import pytest

import solsurf as ss
from solsurf import Grid1D, Grid2D


class TestGrid1D:
    def test_points_and_span(self):
        g = Grid1D(1.0, 0.25, 5)
        assert np.array_equal(g.points(), [1.0, 1.25, 1.5, 1.75, 2.0])
        assert g.span == pytest.approx(1.0)

    def test_periodic_counts_duplicate_endpoint(self):
        g = Grid1D(0.0, 2.0 * np.pi / 8, 9, "periodic")
        assert g.n_unique == 8
        assert g.points()[-1] == pytest.approx(2.0 * np.pi)

    def test_refined_halves_spacing(self):
        g = Grid1D(0.0, 0.5, 5).refined()
        assert g.dx == pytest.approx(0.25)
        assert g.n == 9
        assert g.span == pytest.approx(2.0)

    @pytest.mark.parametrize("bad", [
        dict(x0=0.0, dx=0.0, n=5),
        dict(x0=0.0, dx=-0.1, n=5),
        dict(x0=0.0, dx=0.1, n=1),
        dict(x0=0.0, dx=0.1, n=5, boundary="wrap"),
    ])
    def test_rejects_bad_arguments(self, bad):
        with pytest.raises(ss.GridError):
            Grid1D(**bad)


class TestGrid2D:
    def test_shape_and_meshes(self):
        g2 = Grid2D(Grid1D(0.0, 0.1, 4), Grid1D(1.0, 0.2, 3))
        assert g2.shape == (4, 3)
        X, T = g2.meshes()
        assert X.shape == T.shape == (4, 3)
        assert np.array_equal(X[:, 0], g2.gx.points())
        assert np.array_equal(T[0, :], g2.gt.points())

    def test_refined(self):
        g2 = Grid2D(Grid1D(0.0, 0.1, 4), Grid1D(0.0, 0.2, 3)).refined()
        assert g2.shape == (7, 5)


class TestDerivatives:
    @pytest.mark.parametrize("boundary", ["periodic", "one_sided"])
    def test_diff_x_second_order(self, boundary):
        hs, errs = [], []
        for n in (33, 65, 129):
            span = 2.0 * np.pi
            g = Grid1D(0.0, span / (n - 1), n, boundary)
            x = g.points()
            err = np.max(np.abs(ss.diff_x(np.sin(3 * x), g) - 3 * np.cos(3 * x)))
            hs.append(g.dx)
            errs.append(err)
        assert ss.fit_order(hs, errs) >= 1.9

    def test_diff_xx_second_order(self):
        hs, errs = [], []
        for n in (33, 65, 129):
            g = Grid1D(0.0, 2.0 * np.pi / (n - 1), n, "periodic")
            x = g.points()
            err = np.max(np.abs(ss.diff_xx(np.sin(x), g) + np.sin(x)))
            hs.append(g.dx)
            errs.append(err)
        assert ss.fit_order(hs, errs) >= 1.9

    def test_diff_t_acts_on_second_axis(self):
        g2 = Grid2D(Grid1D(0.0, 0.1, 5), Grid1D(0.0, 0.05, 41))
        X, T = g2.meshes()
        f = X ** 2 * np.sin(T)
        df = ss.diff_t(f, g2)
        assert np.max(np.abs(df - X ** 2 * np.cos(T))) < 1e-3

    def test_diff_tt(self):
        g2 = Grid2D(Grid1D(0.0, 0.1, 5), Grid1D(0.0, 0.02, 101))
        X, T = g2.meshes()
        d2 = ss.diff_tt(np.sin(T) + 0 * X, g2)
        assert np.max(np.abs(d2 + np.sin(T))) < 1e-3

    def test_wrong_length_raises(self):
        g = Grid1D(0.0, 0.1, 11)
        with pytest.raises(ss.ShapeError):
            ss.diff_x(np.zeros(7), g)


class TestIntegrateX:
    def test_fundamental_theorem(self):
        g = Grid1D(0.0, 1.0 / 200, 201, "one_sided")
        x = g.points()
        f = np.exp(x)
        F = ss.integrate_x(ss.diff_x(f, g), g, anchor=f[0])
        assert np.max(np.abs(F - f)) < 1e-4

    def test_anchor_exact_at_first_point(self):
        g = Grid1D(0.0, 0.1, 21)
        F = ss.integrate_x(np.ones(21), g, anchor=3.5)
        assert F[0] == 3.5
        assert F[-1] == pytest.approx(3.5 + 2.0)

    def test_vector_field_integrates_componentwise(self):
        g = Grid1D(0.0, 0.01, 101)
        f = np.stack([np.ones(101), 2 * np.ones(101)], axis=1)
        F = ss.integrate_x(f, g)
        assert F[-1, 0] == pytest.approx(1.0)
        assert F[-1, 1] == pytest.approx(2.0)


class TestStepRK4:
    def test_scalar_fourth_order(self):
        # y' = y over [0, 1]; halving dt cuts error ~16x
        errs = []
        for steps in (10, 20):
            y, t = np.array(1.0), 0.0
            dt = 1.0 / steps
            for _ in range(steps):
                y = ss.step_rk4(y, lambda tt, yy: yy, dt, t)
                t += dt
            errs.append(abs(float(y) - np.e))
        assert 12.0 < errs[0] / errs[1] < 20.0

    def test_array_state(self):
        # harmonic oscillator [x, p] keeps energy to O(dt^4)
        state = np.array([1.0, 0.0])
        dt = 0.05
        for _ in range(200):
            state = ss.step_rk4(state, lambda t, s: np.array([s[1], -s[0]]), dt)
        energy = float(state[0]) ** 2 + float(state[1]) ** 2
        assert abs(energy - 1.0) < 1e-5

    def test_nonfinite_stage_raises(self):
        with pytest.raises(ss.NonFiniteFieldError):
            ss.step_rk4(np.array(1.0), lambda t, y: np.array(np.nan), 0.1)


class TestFitOrder:
    def test_exact_power(self):
        hs = [0.1, 0.05, 0.025]
        errs = [h ** 2 for h in hs]
        assert ss.fit_order(hs, errs) == pytest.approx(2.0)

    def test_floor_drops_converged_entries(self):
        order = ss.fit_order([0.1, 0.05, 0.025], [1e-3, 1e-16, 1e-16], floor=1e-11)
        assert order == np.inf

    @pytest.mark.parametrize("errors", [[1e-2, np.nan, np.nan], [np.nan, 1e-3, 1e-4],
                                        [1e-2, np.inf, 1e-4]])
    def test_non_finite_errors_raise(self, errors):
        # a NaN sample used to be dropped like a converged one, giving +inf
        with pytest.raises(ss.NonFiniteFieldError):
            ss.fit_order([0.1, 0.05, 0.025], errors)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ss.ShapeError):
            ss.fit_order([0.1, 0.05], [1.0])
