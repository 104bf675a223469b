"""Grids, stencils, quadrature, and order fitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import solsurf as ss
from solsurf import Grid1D, Grid2D

from conftest import HOSTILE

EPS = np.finfo(float).eps
COEF = st.floats(-10.0, 10.0)


class TestGrid1D:
    def test_points_and_span(self):
        g = Grid1D(1.0, 0.25, 5)
        assert np.array_equal(g.points(), [1.0, 1.25, 1.5, 1.75, 2.0])
        assert g.span == pytest.approx(1.0)

    def test_periodic_counts_duplicate_endpoint(self):
        g = Grid1D(0.0, 2.0 * np.pi / 8, 9, "periodic")
        assert g.points()[-1] == pytest.approx(2.0 * np.pi)

    @pytest.mark.parametrize("bad", [
        dict(x0=0.0, dx=0.0, n=5),
        dict(x0=0.0, dx=-0.1, n=5),
        dict(x0=0.0, dx=0.1, n=1),
        dict(x0=0.0, dx=0.1, n=5, boundary="wrap"),
        # the last point overflows; numpy scalars must not warn in the check
        dict(x0=0.0, dx=1e308, n=9),
        dict(x0=np.float64(-1e308), dx=np.float64(1e308), n=np.int64(3)),
    ])
    def test_rejects_bad_arguments(self, bad):
        with pytest.raises(ss.GridError):
            Grid1D(**bad)

    def test_largest_finite_last_point_accepted(self):
        g = Grid1D(-1e308, 1e308, 2)
        assert np.isfinite(g.points()).all()

    @pytest.mark.parametrize("dx", [5e-324, 1e-200, 1e-160, 1e-154])
    def test_rejects_dx_whose_square_underflows(self, dx):
        # dx*dx is subnormal or zero: 1/dx**2 overflows or has lost its precision
        with pytest.raises(ss.GridError, match="its square underflows"):
            Grid1D(0.0, dx, 9)

    def test_dx_with_a_normal_square_accepted(self):
        g = Grid1D(0.0, 1.5e-154, 9)
        assert np.isfinite(1.0 / (g.dx * g.dx))

    @pytest.mark.parametrize("x0, dx, n", [
        (0.3, 1e-120, 65), (1e300, 0.1, 17), (-1e6, 1e-7, 5), (1.0, 1e-12, 3),
        (-1.0, 5e-13, 3),
    ])
    def test_rejects_spacing_below_point_resolution(self, x0, dx, n):
        # the points x0 + i*dx round together or far from uniformly
        with pytest.raises(ss.GridError, match="below the resolution"):
            Grid1D(x0, dx, n)

    def test_spacing_just_above_point_resolution_accepted(self):
        g = Grid1D(1.0, 2e-12, 3)
        assert np.all(np.diff(g.points()) > 0)


class TestGrid2D:
    def test_shape_and_meshes(self):
        g2 = Grid2D(Grid1D(0.0, 0.1, 4), Grid1D(1.0, 0.2, 3))
        assert g2.shape == (4, 3)
        X, T = g2.meshes()
        assert X.shape == T.shape == (4, 3)
        assert np.array_equal(X[:, 0], g2.gx.points())
        assert np.array_equal(T[0, :], g2.gt.points())


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

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(a=COEF, b=COEF, c=COEF, x0=st.floats(-5.0, 5.0),
           h=st.floats(0.01, 1.0), n=st.integers(4, 12))
    def test_one_sided_stencils_exact_on_quadratics(self, a, b, c, x0, h, n):
        """Every row, the boundary rows included, is exact to round-off."""
        g = Grid1D(x0, h, n, "one_sided")
        x = g.points()
        f = a + b * x + c * x * x
        size = float(np.max(np.abs(a) + np.abs(b * x) + np.abs(c * x * x)))
        # the same quadratic along t, repeated over a 3-point x axis
        g2 = Grid2D(Grid1D(0.0, 1.0, 3), g)
        f2 = np.tile(f, (3, 1))
        for d1, d2, field, grid in ((ss.diff_x, ss.diff_xx, f, g),
                                    (ss.diff_t, ss.diff_tt, f2, g2)):
            assert np.max(np.abs(d1(field, grid) - (b + 2 * c * x))) <= 32 * EPS * size / h
            assert np.max(np.abs(d2(field, grid) - 2 * c)) <= 64 * EPS * size / h ** 2

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(unique=st.integers(3, 64), data=st.data())
    def test_periodic_stencils_on_harmonics(self, unique, data):
        """The centred stencils act on a harmonic by their symbols exactly."""
        m = data.draw(st.integers(1, unique // 2))
        g = Grid1D(0.0, 2.0 * np.pi / unique, unique + 1, "periodic")
        x, h = g.points(), g.dx
        tol = 64 * EPS * (1.0 + m * g.span)
        d1 = ss.diff_x(np.sin(m * x), g) - np.sin(m * h) / h * np.cos(m * x)
        d2 = (ss.diff_xx(np.cos(m * x), g)
              + (2.0 - 2.0 * np.cos(m * h)) / h ** 2 * np.cos(m * x))
        assert np.max(np.abs(d1)) <= tol / h
        assert np.max(np.abs(d2)) <= tol / h ** 2

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data(), boundary=st.sampled_from(ss.BOUNDARIES),
           trail=st.sampled_from([(), (3,), (2, 3)]), rows_first=st.booleans(),
           dx=st.sampled_from([1.0, 0.1, 2.0 * np.pi / 11]),
           dtype=st.sampled_from([np.float64, np.float32, np.complex64]))
    def test_d1_matches_row_by_row_oracle(self, data, boundary, trail, rows_first, dx, dtype):
        """diff_x and diff_t give the row-by-row stencil's bytes on arbitrary
        finite rows, in the field's own precision, the transposed layout of
        component rows included."""
        n = data.draw(st.integers(3 if boundary == "one_sided" else 4, 12))
        elements = {np.float64: HOSTILE, np.float32: HOSTILE32,
                    np.complex64: st.builds(complex, HOSTILE32, HOSTILE32)}[dtype]
        f = data.draw(arrays(dtype, (n,) + trail, elements=elements))
        if rows_first:  # x-major view of component-major memory, as spin passes S
            f = np.ascontiguousarray(np.moveaxis(f, 0, -1))
            f = np.moveaxis(f, -1, 0)
        g = Grid1D(0.0, dx, n, boundary)
        assert ss.diff_x(f, g).tobytes() == oracle_d1(f, g).tobytes()
        g2 = Grid2D(Grid1D(0.0, 1.0, 2), g)
        ft = np.stack((f, -f))
        assert ss.diff_t(ft, g2).tobytes() == np.stack(
            (oracle_d1(f, g), oracle_d1(-f, g))).tobytes()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data(), boundary=st.sampled_from(ss.BOUNDARIES),
           trail=st.sampled_from([(), (3,), (2, 3)]),
           dx=st.sampled_from([1.0, 0.1, 2.0 * np.pi / 11]),
           dtype=st.sampled_from([np.float64, np.float32, np.complex64]))
    def test_d2_matches_roll_oracle(self, data, boundary, trail, dx, dtype):
        """diff_xx and diff_tt give the np.roll stencil's bytes on arbitrary
        finite rows, in the field's own precision; the closure row need not
        equal row 0."""
        n = data.draw(st.integers(4, 12))
        elements = {np.float64: HOSTILE, np.float32: HOSTILE32,
                    np.complex64: st.builds(complex, HOSTILE32, HOSTILE32)}[dtype]
        f = data.draw(arrays(dtype, (n,) + trail, elements=elements))
        g = Grid1D(0.0, dx, n, boundary)
        assert ss.diff_xx(f, g).tobytes() == oracle_d2(f, g).tobytes()
        g2 = Grid2D(Grid1D(0.0, 1.0, 2), g)
        assert ss.diff_tt(np.stack((f, -f)), g2).tobytes() == np.stack(
            (oracle_d2(f, g), oracle_d2(-f, g))).tobytes()


# HOSTILE's kinds of entry, each exact in float32
HOSTILE32 = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 1.2e-38, -1e-40, 1e18, -1e18]).map(
        lambda x: float(np.float32(x))),
    st.floats(-1e3, 1e3, width=32))


def oracle_d1(f, g):
    """The first-derivative stencil row by row, as written before its boundary
    rows were batched."""
    h = g.dx
    out = np.empty_like(f)
    if g.boundary == "periodic":
        u = f[:-1]
        out[:-1] = (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) / (2 * h)
        out[-1] = out[0]
        return out
    out[1:-1] = (f[2:] - f[:-2]) / (2 * h)
    out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
    out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
    return out


def oracle_d2(f, g):
    """The second-derivative stencil as written before its periodic rows were
    sliced: np.roll copies of the unique rows."""
    h2 = g.dx * g.dx
    out = np.empty_like(f)
    if g.boundary == "periodic":
        u = f[:-1]
        out[:-1] = (np.roll(u, -1, axis=0) - 2 * u + np.roll(u, 1, axis=0)) / h2
        out[-1] = out[0]
        return out
    out[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / h2
    out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h2
    out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h2
    return out


class TestIntegrateX:
    def test_fundamental_theorem(self):
        g = Grid1D(0.0, 1.0 / 200, 201, "one_sided")
        x = g.points()
        f = np.exp(x)
        F = ss.integrate_x(ss.diff_x(f, g), g) + f[0]
        assert np.max(np.abs(F - f)) < 1e-4

    def test_anchor_exact_at_first_point(self):
        g = Grid1D(0.0, 0.1, 21)
        F = ss.integrate_x(np.ones(21), g)
        assert F[0] == 0.0
        assert F[-1] == pytest.approx(2.0)

    def test_vector_field_integrates_componentwise(self):
        g = Grid1D(0.0, 0.01, 101)
        f = np.stack([np.ones(101), 2 * np.ones(101)], axis=1)
        F = ss.integrate_x(f, g)
        assert F[-1, 0] == pytest.approx(1.0)
        assert F[-1, 1] == pytest.approx(2.0)


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

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(p=st.floats(0.5, 6.0), C=st.floats(1e-3, 1e3), h0=st.floats(0.01, 1.0),
           k=st.integers(2, 6), data=st.data())
    def test_recovers_power_law_above_floor(self, p, C, h0, k, data):
        """C h^p gives p back; samples at or below floor are dropped, and
        fewer than two survivors read as converged (inf)."""
        hs = h0 * 0.5 ** np.arange(k)
        errs = C * hs ** p
        assert ss.fit_order(hs, errs) == pytest.approx(p, abs=1e-9)
        j = data.draw(st.integers(0, k - 1))
        order = ss.fit_order(hs, errs, floor=float(errs[j]))
        if j >= 2:
            assert order == pytest.approx(p, abs=1e-9)
        else:
            assert order == np.inf

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ss.ShapeError):
            ss.fit_order([0.1, 0.05], [1.0])


G5 = Grid1D(0.0, 0.1, 5)


# A bad grid, stencil or order-fit input, and the typed error it must raise.
@pytest.mark.parametrize("call,error,message", [
    (lambda: Grid1D(np.nan, 0.1, 5), ss.GridError, "x0 must be finite, got nan"),
    (lambda: Grid1D(0.0, 0.1, 3, "periodic"), ss.GridError,
     "periodic grids need n >= 4 (3 unique samples plus closure)"),
    (lambda: ss.diff_x(np.zeros(2), Grid1D(0.0, 0.1, 2)), ss.GridError,
     "one_sided first derivative needs n >= 3"),
    (lambda: ss.diff_xx(np.zeros(3), Grid1D(0.0, 0.1, 3)), ss.GridError,
     "one_sided second derivative needs n >= 4"),
    (lambda: ss.diff_x(np.zeros(5), 0.1), TypeError, "expected Grid1D or Grid2D, got float"),
    (lambda: ss.diff_t(np.zeros(5), G5), TypeError, "t-derivatives need a Grid2D"),
    (lambda: ss.diff_t(np.zeros(5), Grid2D(G5, G5)), ss.ShapeError,
     "t-derivatives need a field with a t axis"),
    (lambda: ss.fit_order([0.1, 0.0], [1.0, 2.0]), ValueError, "step sizes must be positive"),
    (lambda: ss.fit_order([0.1, 0.05], [1.0, -2.0]), ValueError,
     "errors must be non-negative"),
], ids=["x0_nan", "periodic_n3", "d1_n2", "d2_n3", "not_a_grid", "t_on_grid1d",
        "t_without_t_axis", "zero_step", "negative_error"])
def test_bad_inputs_raise_typed_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_integer_field_differentiates_as_float():
    assert ss.diff_x(np.arange(5), G5).tobytes() == ss.diff_x(np.arange(5.0), G5).tobytes()
