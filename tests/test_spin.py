"""Spin field construction, rates, the constraint march, and evolution."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import solsurf as ss
from solsurf import Grid1D, spin
from solsurf.fixtures import random_smooth_spin, traveling_circle, traveling_circle_exact

from conftest import HOSTILE, circle_grid, ref_step_rk4


class TestSpinField:
    def test_rows_are_normalized(self, grid_small):
        n = grid_small.n
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(n, 3)) * 3.0
        raw[-1] = raw[0]
        f = ss.SpinField(S=raw, u=np.zeros(n), v=np.zeros(n), grid=grid_small)
        assert np.max(np.abs(np.linalg.norm(f.S, axis=1) - 1.0)) < 1e-14

    def test_defaults(self, grid_small):
        f = traveling_circle(grid_small)
        assert f.t == 0.0

    def test_rejects_nan(self, grid_small):
        n = grid_small.n
        with pytest.raises(ss.NonFiniteFieldError):
            ss.SpinField(S=np.full((n, 3), np.nan), u=np.zeros(n),
                         v=np.zeros(n), grid=grid_small)

    def test_rejects_vanishing_row(self, grid_small):
        n = grid_small.n
        S = np.tile([1.0, 0.0, 0.0], (n, 1))
        S[4] = 0.0
        with pytest.raises(ss.ShapeError, match="index 4"):
            ss.SpinField(S=S, u=np.zeros(n), v=np.zeros(n), grid=grid_small)

    def test_rejects_open_loop_on_periodic_grid(self, grid_small):
        n = grid_small.n
        x = grid_small.points()
        # x/span winds the azimuth by half a turn, so the ends do not meet
        S = np.stack([np.cos(x / 2), np.sin(x / 2), np.zeros(n)], axis=1)
        with pytest.raises(ss.ShapeError):
            ss.SpinField(S=S, u=np.zeros(n), v=np.zeros(n), grid=grid_small)


class TestSpinRhs:
    def test_traveling_circle_translates(self, grid_small):
        f = traveling_circle(grid_small)
        rates = ss.spin_rhs(f)
        S_x = ss.diff_x(f.S, grid_small)
        assert np.max(np.abs(rates.dS + S_x)) < 1e-13
        assert np.max(np.abs(rates.dv)) < 1e-13
        assert np.max(np.abs(rates.u_residual)) < 1e-13

    def test_tangency(self):
        g = circle_grid(65)
        f = random_smooth_spin(g, seed=2)
        rates = ss.spin_rhs(f)
        assert np.max(np.abs(np.einsum("ij,ij->i", rates.dS, f.S))) < 1e-10

    def test_speed_matches_curvature(self):
        # |S_t|^2 = k^2 holds algebraically, not just to truncation error
        g = circle_grid(65)
        f = random_smooth_spin(g, seed=3)
        rates = ss.spin_rhs(f)
        k = np.linalg.norm(ss.diff_x(f.S, g), axis=1)
        assert np.max(np.abs(np.einsum("ij,ij->i", rates.dS, rates.dS) - k * k)) < 1e-12

    def test_constant_spin_is_degenerate(self, grid_small):
        n = grid_small.n
        S = np.tile([0.0, 0.0, 1.0], (n, 1))
        f = ss.SpinField(S=S, u=np.zeros(n), v=np.zeros(n), grid=grid_small)
        with pytest.raises(ss.DegenerateFrameError):
            ss.spin_rhs(f)

    def test_large_u_breaks_sqrt_domain(self, grid_small):
        f = traveling_circle(grid_small)
        u = np.zeros(grid_small.n)
        u[5] = 2.0  # k is about 1, so the radicand goes negative here
        bad = ss.SpinField(S=f.S, u=u, v=f.v, grid=grid_small)
        with pytest.raises(ss.SqrtDomainError, match=r"^radicand k\^2 - u\^2 = -\d\.\d{6}e\+00 "
                                                     r"below -1\.0e-12 at index 5$"):
            ss.spin_rhs(bad)

    @pytest.mark.parametrize("reading", ["spin_rhs", "ct_from_spin_series"])
    def test_overflowing_u_is_a_domain_error(self, grid_small, reading):
        # u*u overflows to inf past |u| ~ 1e154: the radicand is -inf, with no
        # overflow warning (warnings are errors here)
        series = ss.evolve_series(traveling_circle(grid_small), 0.01, 2)
        series.u[5, 1] = 1e200
        call = {"spin_rhs": lambda: ss.spin_rhs(series.slice(1)),
                "ct_from_spin_series": lambda: ss.ct_from_spin_series(series)}[reading]
        index = 5 if reading == "spin_rhs" else 5 * series.nt + 1
        with pytest.raises(ss.SqrtDomainError, match=r"^radicand k\^2 - u\^2 = -inf "
                                                     rf"below -1\.0e-12 at index {index}$"):
            call()

    def test_roundoff_radicand_is_clamped(self, grid_small):
        f = traveling_circle(grid_small)
        k = np.linalg.norm(ss.diff_x(f.S, grid_small), axis=1)
        u = np.sqrt(k * k + 5e-13)  # negative radicand, within the slack
        u[-1] = u[0]
        near = ss.SpinField(S=f.S, u=u, v=f.v, grid=grid_small)
        rates = ss.spin_rhs(near)
        assert np.all(np.isfinite(rates.dS))


class TestSolveUConstraint:
    def test_zero_v_keeps_u_at_anchor(self):
        g = Grid1D(0.0, 0.01, 101)
        k = 1.0 + 0.5 * np.sin(g.points())
        u = ss.solve_u_constraint(k, np.zeros(101), g)
        assert u.tobytes() == np.zeros(101).tobytes()

    def test_constant_coefficients_analytic(self):
        # u_x = V sqrt(K^2 - u^2) with u(0)=0 has solution K sin(V x)
        K, V = 2.0, 0.7
        hs, errs = [], []
        for n in (101, 201, 401):
            g = Grid1D(0.0, 1.0 / (n - 1), n, "one_sided")
            u = ss.solve_u_constraint(np.full(n, K), np.full(n, V), g)
            errs.append(np.max(np.abs(u - K * np.sin(V * g.points()))))
            hs.append(g.dx)
        assert ss.fit_order(hs, errs) >= 1.9

    def test_anchor_is_exact(self):
        # u(x0) = 0 is the anchor, +0.0 to the bit
        g = Grid1D(0.0, 0.05, 41)
        u = ss.solve_u_constraint(np.ones(41), np.full(41, 0.3), g)
        assert u[0] == 0.0 and not np.signbit(u[0])
        assert u[1] > 0.0

    def test_periodic_endpoint_copied(self):
        g = circle_grid(33)
        v = 0.1 * np.sin(g.points())
        u = ss.solve_u_constraint(np.ones(33), v, g)
        assert u[-1] == u[0]

    def test_impossible_march_raises(self):
        # the anchor's radicand is k^2 >= 0; a steep v overshoots u past k at
        # the next node: u = 1.5 there, so k^2 - u^2 = -1.25
        g = Grid1D(0.0, 0.01, 11)
        with pytest.raises(ss.SqrtDomainError) as exc:
            ss.solve_u_constraint(np.ones(11), np.full(11, 300.0), g)
        assert str(exc.value) == "radicand k^2 - u^2 = -1.250000e+00 below -1.0e-12 at index 1"

    def test_overflowing_k_squared_raises(self):
        # k*k is inf, so the Heun step forms inf - inf: u used to be [0, nan, ...]
        g = Grid1D(0.0, 0.1, 9, "one_sided")
        with pytest.raises(ss.NonFiniteFieldError) as exc:
            ss.solve_u_constraint(np.full(9, 1e200), np.ones(9), g)
        assert str(exc.value) == "march overflowed: u is non-finite at index 1"

    @pytest.mark.parametrize("k,v,name", [
        ([1.0, np.nan, 1.0, 1.0, 1.0], 0.3, "k"),        # used to return NaN u
        ([np.inf] * 5, 0.3, "k"),                        # used to return NaN u
        ([1.0] * 5, [0.3, 0.3, np.inf, 0.3, 0.3], "v"),  # used to blame the radicand
    ])
    def test_non_finite_coefficients_raise(self, k, v, name):
        g = Grid1D(0.0, 0.1, 5)
        with pytest.raises(ss.NonFiniteFieldError,
                           match=f"^{name} contains non-finite values$"):
            ss.solve_u_constraint(np.array(k), np.broadcast_to(v, (5,)), g)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(4, 24),
           boundary=st.sampled_from(["one_sided", "periodic"]),
           dx=st.floats(1e-3, 2.0), scale=st.floats(1e-3, 3.0))
    def test_matches_reference_march(self, data, n, boundary, dx, scale):
        # entries at and near a drawn scale, which the marched |u| can reach,
        # entries whose slope overflows the trial value (an inf - inf radicand
        # is NaN, which the clamp must pass through as max(r, 0.0) does), and
        # NaN/inf entries, which the march rejects
        entry = st.one_of(
            st.floats(-3.0, 3.0), st.just(scale),
            st.floats(0.999, 1.001).map(lambda s: s * scale),
            st.floats(1e150, 1e300), st.sampled_from([np.nan, np.inf, -np.inf, -0.0]))
        k = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
        v = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
        g = Grid1D(0.0, dx, n, boundary)
        if not (np.isfinite(k).all() and np.isfinite(v).all()):
            with pytest.raises(ss.NonFiniteFieldError, match="contains non-finite values"):
                ss.solve_u_constraint(k, v, g)
            return
        ref = reference_march(k, v, g)
        # inf - inf in the final radicand check is NaN, which numpy warns about
        with np.errstate(over="ignore", invalid="ignore"):
            rad = k * k - ref * ref
            bad = np.flatnonzero(rad < -spin.CLAMP_SLACK)
            if bad.size:
                with pytest.raises(ss.SqrtDomainError) as exc:
                    ss.solve_u_constraint(k, v, g)
                assert str(exc.value) == (f"radicand k^2 - u^2 = {rad[bad[0]]:.6e} below "
                                          f"-{spin.CLAMP_SLACK:.1e} at index {bad[0]}")
            elif not np.isfinite(ref).all():
                with pytest.raises(ss.NonFiniteFieldError) as exc:
                    ss.solve_u_constraint(k, v, g)
                first = np.flatnonzero(~np.isfinite(ref))[0]
                assert str(exc.value) == f"march overflowed: u is non-finite at index {first}"
            else:
                u = ss.solve_u_constraint(k, v, g)
                assert nan_blind_bytes(u) == nan_blind_bytes(ref)


def nan_blind_bytes(a):
    """a's bytes with every NaN written as the same NaN.  Where two NaNs of
    opposite sign meet in a float operation, the sign of the result can differ
    between calls of the same CPython code (it changes once the interpreter
    specializes the operation), so only where NaNs sit is reproducible; every
    other value keeps its bits."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


def reference_march(k, v, grid):
    """The Heun march as first written, from u(x0) = 0 with a slope closure
    clamped with max; unchecked, with the periodic closure sample copied."""
    def slope(ki, vi, ui):
        return vi * math.sqrt(max(ki * ki - ui * ui, 0.0))

    ks, vs = k.tolist(), v.tolist()
    h = grid.dx
    us = [0.0]
    for i in range(grid.n - 1):
        f1 = slope(ks[i], vs[i], us[i])
        trial = us[i] + h * f1
        f2 = slope(ks[i + 1], vs[i + 1], trial)
        us.append(us[i] + 0.5 * h * (f1 + f2))
    u = np.array(us)
    if grid.boundary == "periodic":
        u[-1] = u[0]
    return u


def evolved(f, dt, steps, **kwargs):
    """The last level of evolve_series."""
    return ss.evolve_series(f, dt, steps, **kwargs).slice(-1)


class TestEvolve:
    def test_zero_steps_returns_input_state(self, grid_small):
        f = traveling_circle(grid_small)
        series = ss.evolve_series(f, 0.01, 0)
        assert series.nt == 1
        assert np.array_equal(series.times, [f.t])
        for name in ("S", "u", "v"):
            assert np.array_equal(getattr(series, name)[:, 0], getattr(f, name))

    def test_translation_accuracy(self):
        g = circle_grid(65)
        dt = g.dx / 4
        steps = 32
        out = evolved(traveling_circle(g), dt, steps)
        exact = traveling_circle_exact(g, t=steps * dt)
        assert np.max(np.abs(out.S - exact.S)) < 5e-3
        assert out.t == pytest.approx(steps * dt)

    def test_second_order_in_h(self):
        errs = []
        for n, steps in ((65, 16), (129, 32)):
            g = circle_grid(n)
            dt = g.dx / 4
            out = evolved(traveling_circle(g), dt, steps)
            exact = traveling_circle_exact(g, t=steps * dt)
            errs.append(np.max(np.abs(out.S - exact.S)))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_renorm_pins_sphere(self):
        g = circle_grid(65)
        out = evolved(random_smooth_spin(g, seed=1), g.dx / 4, 32)
        assert np.max(np.abs(np.linalg.norm(out.S, axis=1) - 1.0)) < 1e-12

    def test_no_renorm_drift_small_but_nonzero(self):
        g = circle_grid(65)
        out = evolved(traveling_circle(g), g.dx / 4, 64, renorm=False)
        drift = np.max(np.abs(np.linalg.norm(out.S, axis=1) - 1.0))
        assert 0.0 < drift < 1e-8

    def test_deterministic(self):
        g = circle_grid(65)
        a = evolved(random_smooth_spin(g, seed=4), g.dx / 4, 16)
        b = evolved(random_smooth_spin(g, seed=4), g.dx / 4, 16)
        assert a.S.tobytes() == b.S.tobytes()
        assert a.u.tobytes() == b.u.tobytes()
        assert a.v.tobytes() == b.v.tobytes()

    @pytest.mark.parametrize("steps", [True, -1, 2.5])
    def test_bad_step_counts_rejected(self, grid_small, steps):
        with pytest.raises(ss.ConfigError):
            ss.evolve_series(traveling_circle(grid_small), 0.01, steps)

    @pytest.mark.parametrize("dt", [-1.0, np.nan, np.inf])
    def test_bad_dt_rejected(self, grid_small, dt):
        with pytest.raises(ss.ConfigError) as exc:
            ss.evolve_series(traveling_circle(grid_small), dt, 4)
        assert str(exc.value) == f"dt must be finite and >= 0, got {dt!r}"

    def test_zero_dt_gives_the_one_level_series(self, grid_small):
        f = traveling_circle(grid_small)
        f.t = 0.5
        series = ss.evolve_series(f, 0.0, 4)
        assert series.nt == 1 and series.times.tolist() == [0.5]
        for name in ("S", "u", "v"):
            assert getattr(series, name)[:, 0].tobytes() == getattr(f, name).tobytes()

    def test_overflowing_update_reports_step(self):
        """A quarter-turn polygon at the smallest spacing has k = 1/dx, k^2 near
        4.4e307, and dv near u*k: each stage rate is finite, their RK4 sum is not."""
        g = Grid1D(0.0, 1.5e-154, 5, "periodic")
        turn = np.arange(5) * np.pi / 2
        S = np.stack([np.cos(turn), np.sin(turn), np.zeros(5)], axis=1)
        S[-1] = S[0]
        v = np.full(5, 0.4 / g.dx)
        u = ss.solve_u_constraint(np.linalg.norm(ss.diff_x(S, g), axis=1), v, g)
        f = ss.SpinField(S=S, u=u, v=v, grid=g)
        with pytest.raises(ss.NonFiniteFieldError) as exc:
            ss.evolve_series(f, 1e-300, 1)
        assert str(exc.value) == "step 0: non-finite value in integration state (update)"

    def test_breakdown_reports_step(self):
        # the marched u eventually overtakes a dipping k; the error names the step
        g = Grid1D(0.0, 2.0 * np.pi / 128, 129, "one_sided")
        ic = random_smooth_spin(g, seed=5)
        with pytest.raises(ss.SqrtDomainError, match="step"):
            ss.evolve_series(ic, g.dx / 4, 128)

    def test_recorded_level_breakdown_reports_step(self):
        # step 141 completes, then the march of the level it records breaks down
        g = Grid1D(0.0, 2.0 * np.pi / 128, 129, "one_sided")
        ic = random_smooth_spin(g, seed=11)
        with pytest.raises(ss.SqrtDomainError, match="^step 141: radicand .* at index 123$"):
            ss.evolve_series(ic, g.dx / 4, 142)

    @pytest.mark.parametrize("renorm", [True, False])
    def test_fourth_order_in_time(self, renorm):
        # on a fixed grid the time error of RK4 falls 16x per halving of dt
        g = Grid1D(0.0, 2.0 * np.pi / 64, 65, "one_sided")
        ic, T = random_smooth_spin(g, seed=1), 0.5
        ref = evolved(ic, T / 256, 256, renorm=renorm).S
        errs = [np.max(np.abs(evolved(ic, T / m, m, renorm=renorm).S - ref))
                for m in (4, 8, 16)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 14.0 < coarse / fine < 18.0

    def test_nonfinite_stage_is_named(self, monkeypatch):
        monkeypatch.setattr(spin, "_rates", lambda S, *rest: np.full((4, S.shape[1]), np.nan))
        g = circle_grid(33)
        message = r"^step 0: non-finite value in integration state \(k1\)$"
        with pytest.raises(ss.NonFiniteFieldError, match=message):
            ss.evolve_series(random_smooth_spin(g, seed=1), g.dx / 4, 2)

    @pytest.mark.parametrize("boundary, renorm, digest", [
        ("one_sided", True, "384d1cbab4ac2443c82b93edf113de6bfc6354504e97fb44f4e399186f081750"),
        ("one_sided", False, "160b61b2e45abbf02b485699cc3c79a53bca2808b36f7e76f999cd6cdf0e8487"),
        ("periodic", True, "1a560ad3c0f9f47e7ea578286533d16c8eef2444fd631638a784debdfb4fd79c"),
        ("periodic", False, "0da5f0bb9a05f1dda6d70c7d1eeaaf67ee6049180624c58e8c6c5184dbce2d77"),
    ])
    def test_series_bits_pinned(self, boundary, renorm, digest):
        g = Grid1D(0.0, 2.0 * np.pi / 64, 65, boundary)
        ic = random_smooth_spin(g, seed=1)
        series = ss.evolve_series(ic, g.dx / 4, 16, renorm=renorm)
        h = hashlib.sha256()
        for a in (series.S, series.u, series.v):
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("steps", [0, 1, 5])
    def test_march_count(self, monkeypatch, steps):
        # a recorded level's u is the u that stage 1 of the next step needs;
        # every march, solve_u_constraint's too, runs spin._march
        g = circle_grid(33)
        ic = random_smooth_spin(g, seed=1)
        calls = []
        march = spin._march

        def counted(*args, **kwargs):
            calls.append(1)
            return march(*args, **kwargs)

        monkeypatch.setattr(spin, "_march", counted)
        ss.evolve_series(ic, g.dx / 4, steps)
        assert len(calls) == (4 * steps + 1 if steps else 0)

    @pytest.mark.parametrize("steps", [0, 1, 5])
    def test_one_radicand_check_per_march(self, monkeypatch, steps):
        # the rates take the radicand the march checked: one check per stage
        g = circle_grid(33)
        ic = random_smooth_spin(g, seed=1)
        calls = []
        check = spin._clamped_radicand

        def counted(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(spin, "_clamped_radicand", counted)
        ss.evolve_series(ic, g.dx / 4, steps)
        assert len(calls) == (4 * steps + 1 if steps else 0)

    @pytest.mark.parametrize("steps", [2, 3])
    def test_degenerate_level_is_named_by_the_next_step(self, monkeypatch, steps):
        # step 1 is made to record a constant S (|S_x| = 0); the level's
        # |S_x| is checked by stage 1 of step 2, so the final level of a
        # 2-step run is never checked
        curvature, step = spin._curvature, ref_step_rk4
        curvatures, steps_made = [], []

        def flattening_curvature(S, grid):
            # evolve_series takes level 0's curvature, then per step that of
            # stages 2-4 and of the level it records: call 9 is level 2's
            curvatures.append(1)
            if len(curvatures) == 9:
                S[:] = [0.0, 0.0, 1.0]  # a view of the (4, n) RK4 state
            return curvature(S, grid)

        def flattening_step(y, rhs, dt, t=0.0):  # the oracle's (n, 4) state
            out = step(y, rhs, dt, t)
            steps_made.append(t)
            if len(steps_made) == 2:
                out[:, :3] = [0.0, 0.0, 1.0]
            return out

        g = circle_grid(33)
        ic = random_smooth_spin(g, seed=1)
        monkeypatch.setattr(spin, "_curvature", flattening_curvature)
        monkeypatch.setitem(globals(), "ref_step_rk4", flattening_step)
        if steps == 2:
            series = ss.evolve_series(ic, g.dx / 4, steps)
            assert np.array_equal(series.S[:, 2], np.tile([0.0, 0.0, 1.0], (g.n, 1)))
            return
        message = r"^step 2: \|S_x\| = 0.000e\+00 below k_min = 1.0e-08 at index 0$"
        with pytest.raises(ss.DegenerateFrameError, match=message):
            ss.evolve_series(ic, g.dx / 4, steps)
        with pytest.raises(ss.DegenerateFrameError, match=message):
            oracle_evolve_series(ic, g.dx / 4, steps)

    def test_degenerate_input_is_named_by_step_zero(self):
        g = circle_grid(33)
        flat = ss.SpinField(S=np.tile([0.0, 0.0, 1.0], (g.n, 1)), u=np.zeros(g.n),
                            v=np.zeros(g.n), grid=g)
        with pytest.raises(ss.DegenerateFrameError, match=r"^step 0: \|S_x\| = 0.000e\+00"):
            ss.evolve_series(flat, g.dx / 4, 3)

    def test_u_left_threaded_through(self):
        # every level marches u from u(x0) = 0
        g = Grid1D(0.0, 2.0 * np.pi / 64, 65, "one_sided")
        series = ss.evolve_series(random_smooth_spin(g, seed=1), g.dx / 4, 4)
        assert np.array_equal(series.u[0], np.zeros(5))


class TestEvolveSeries:
    def test_shapes_and_levels(self, grid_small):
        steps = 8
        series = ss.evolve_series(traveling_circle(grid_small), 0.01, steps)
        assert series.S.shape == (grid_small.n, steps + 1, 3)
        assert series.u.shape == series.v.shape == (grid_small.n, steps + 1)
        assert series.nt == steps + 1
        assert np.array_equal(series.times, 0.01 * np.arange(steps + 1))

    def test_slice_zero_is_initial_state(self, grid_small):
        ic = traveling_circle(grid_small)
        series = ss.evolve_series(ic, 0.01, 4)
        assert np.array_equal(series.slice(0).S, ic.S)

    def test_grid2_property(self, grid_small):
        series = ss.evolve_series(traveling_circle(grid_small), 0.02, 3)
        g2 = series.grid2
        assert g2.shape == (grid_small.n, 4)
        assert g2.gt.dx == pytest.approx(0.02)

    def test_times_far_from_origin_accepted(self, grid_small):
        # t0 + j*dt rounds at the scale of |t0|, far above dt * 1e-12
        ic = traveling_circle_exact(grid_small, t=1e6)
        series = ss.evolve_series(ic, 1e-3, 3)
        assert series.grid2.gt.dx == pytest.approx(1e-3)

    @pytest.mark.parametrize("times", [[0.0, 0.1, 0.3], [0.0, 0.1, 0.1]])
    def test_uneven_or_repeated_times_rejected(self, grid_small, times):
        n = grid_small.n
        with pytest.raises(ss.GridError):
            ss.SpinSeries(grid=grid_small, times=times, S=np.ones((n, 3, 3)),
                          u=np.zeros((n, 3)), v=np.zeros((n, 3)))

    def test_single_level_grid2_rejected(self, grid_small):
        series = ss.evolve_series(traveling_circle(grid_small), 0.02, 0)
        assert series.nt == 1
        with pytest.raises(ss.ShapeError):
            series.grid2


class TestBuildFrame:
    def test_circle_frame(self, grid_small):
        fr = ss.build_frame(traveling_circle(grid_small))
        x = grid_small.points()
        assert np.max(np.abs(fr.e1 - np.stack([np.cos(x), np.sin(x), 0 * x], axis=1))) < 1e-14
        assert np.max(np.abs(fr.e3 - [0.0, 0.0, 1.0])) < 1e-12
        assert np.max(np.abs(fr.k - 1.0)) < 1e-2
        assert np.max(np.abs(fr.tau)) < 1e-12

    def test_frame_is_orthonormal(self):
        g = circle_grid(65)
        fr = ss.build_frame(random_smooth_spin(g, seed=6))
        triad = np.stack([fr.e1, fr.e2, fr.e3], axis=1)
        gram = np.einsum("nij,nkj->nik", triad, triad)
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_double_winding_doubles_curvature(self):
        g = circle_grid(257)
        fr = ss.build_frame(traveling_circle(g, w=2.0))
        assert np.max(np.abs(fr.k - 2.0)) < 1e-3


class TestCTFromSeries:
    def test_fields_and_shapes(self, grid_small):
        ic = traveling_circle(grid_small)
        series = ss.evolve_series(ic, 0.01, 4)
        ct = ss.ct_from_spin_series(series)
        assert ct.k.shape == (grid_small.n, 5)
        assert np.array_equal(ct.tau, series.v)
        assert np.array_equal(ct.omega2, -series.u)
        assert np.max(np.abs(ct.k - 1.0)) < 1e-2
        assert np.max(np.abs(ct.omega3 + ct.k)) < 1e-12


# The row-major frame kernel and evolution as they were before the RK4 state
# went component-major, kept as oracles: the (3, n) kernel must give the same
# bytes and the same errors.

def oracle_curvature(S, grid):
    S_x = ss.diff_x(S, grid)
    k = np.linalg.norm(S_x, axis=-1)
    if np.any(k < spin.K_MIN):
        i = int(np.argmax(k < spin.K_MIN))
        raise ss.DegenerateFrameError(
            f"|S_x| = {k.flat[i]:.3e} below k_min = {spin.K_MIN:.1e} at index {i}")
    return S_x, k


def oracle_cross(a, b):
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.column_stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def oracle_tangent_frame(S, grid):
    S_x, k = oracle_curvature(S, grid)
    e1 = S / np.linalg.norm(S, axis=1)[:, None]
    along = np.einsum("ij,ij->i", e1, S_x)
    proj = S_x - along[:, None] * e1
    pn = np.linalg.norm(proj, axis=1)
    if np.any(pn < spin.K_MIN):
        i = int(np.argmax(pn < spin.K_MIN))
        raise ss.DegenerateFrameError(
            f"tangential part of S_x is {pn[i]:.3e} below k_min at index {i}")
    e2 = proj / pn[:, None]
    return S_x, k, e1, e2, oracle_cross(e1, e2)


def oracle_rates(S, u, frame):
    S_x, k, _, e2, e3 = frame
    root = np.sqrt(spin._clamped_radicand(k * k, u))
    dS = -root[:, None] * e2 + u[:, None] * e3
    return dS, -np.einsum("ij,ij->i", S, oracle_cross(dS, S_x))


def oracle_spin_rhs(f):
    frame = oracle_tangent_frame(f.S, f.grid)
    dS, dv = oracle_rates(f.S, f.u, frame)
    return dS, spin.u_constraint_residual(frame[1], f.u, f.v, f.grid), dv


def oracle_build_frame(f):
    _, k, e1, e2, e3 = oracle_tangent_frame(f.S, f.grid)
    return e1, e2, e3, k, np.einsum("ij,ij->i", ss.diff_x(e2, f.grid), e3)


def oracle_evolve_series(f, dt, steps, renorm=True):
    """S, u and v of evolve_series on the row-major (n, 4) state."""
    grid = f.grid
    carried = None

    def rhs(t, y):
        nonlocal carried
        S, v = y[:, :3], y[:, 3]
        frame = oracle_tangent_frame(S, grid)
        u = ss.solve_u_constraint(frame[1], v, grid) if carried is None else carried
        carried = None
        return np.column_stack(oracle_rates(S, u, frame))

    y = np.column_stack((f.S, f.v))
    levels = [(f.S, f.u, f.v)]
    for j in range(steps):
        try:
            y = ref_step_rk4(y, rhs, dt, t=f.t + j * dt)
            S, v = y[:, :3], y[:, 3]
            if renorm:
                S /= np.linalg.norm(S, axis=1)[:, None]
            if grid.boundary == "periodic":
                y[-1] = y[0]
            carried = ss.solve_u_constraint(np.linalg.norm(ss.diff_x(S, grid), axis=1), v, grid)
        except (ss.SqrtDomainError, ss.DegenerateFrameError, ss.NonFiniteFieldError) as e:
            e.args = (f"step {j}: {e}",)
            raise
        levels.append((S, carried, v))
    return tuple(np.stack(a, axis=1) for a in zip(*levels))


def outcome(fn, *args, **kwargs):
    """The bytes of fn's arrays, or its error's type and text."""
    try:
        return [np.asarray(a).tobytes() for a in fn(*args, **kwargs)]
    except ss.SolsurfError as e:
        return type(e).__name__, str(e)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(9, 65), boundary=st.sampled_from(ss.BOUNDARIES),
       renorm=st.booleans(), seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 6),
       theta_amp=st.floats(0.0, 0.6), v_amp=st.sampled_from([0.0, 0.05, 0.5]),
       courant=st.floats(0.05, 1.0) | st.integers(3, 200).map(lambda e: 10.0 ** e),
       u_scale=st.sampled_from([1.0, -1.0, 3.0, 1e3]))
def test_component_major_kernel_matches_row_major_oracle(
        n, boundary, renorm, seed, steps, theta_amp, v_amp, courant, u_scale):
    """evolve_series, build_frame (tau included) and spin_rhs give the row-major
    oracle's bytes, or its error, on drawn smooth states.  Courant numbers of
    1e3 to 1e200 push the march out of its domain or overflow k: the same error."""
    g = Grid1D(0.0, 2.0 * np.pi / (n - 1), n, boundary)
    try:
        f = random_smooth_spin(g, seed=seed, n_modes=min(3, (n - 1) // 2),
                               theta_amp=theta_amp, v_amp=v_amp)
    except ss.SolsurfError:
        assume(False)
    dt = courant * g.dx

    def series(*args, **kwargs):
        s = ss.evolve_series(*args, **kwargs)
        assert np.array_equal(s.times, f.t + dt * np.arange(s.nt))
        return s.S, s.u, s.v

    with np.errstate(over="ignore", invalid="ignore"):  # as inside evolve_series
        expected = outcome(oracle_evolve_series, f, dt, steps, renorm=renorm)
    assert outcome(series, f, dt, steps, renorm=renorm) == expected

    def frame(f):
        fr = ss.build_frame(f)
        return fr.e1, fr.e2, fr.e3, fr.k, fr.tau

    assert outcome(frame, f) == outcome(oracle_build_frame, f)
    scaled = ss.SpinField(S=f.S, u=u_scale * f.u, v=f.v, grid=g)

    def rhs(f):
        r = ss.spin_rhs(f)
        return r.dS, r.u_residual, r.dv

    assert outcome(rhs, scaled) == outcome(oracle_spin_rhs, scaled)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), boundary=st.sampled_from(ss.BOUNDARIES),
       dx=st.sampled_from([0.5, 2.0 * np.pi / 11]))
def test_kernel_matches_row_major_oracle_on_hostile_rows(data, boundary, dx):
    """_curvature, _frame and _rates give the row-major oracles' bytes, or
    their error, on arbitrary finite rows: signed zeros, subnormals, ~1e150,
    and periodic closure rows that do not match the first row."""
    n = data.draw(st.integers(3 if boundary == "one_sided" else 4, 12))
    g = Grid1D(0.0, dx, n, boundary)
    S, S_x, e2, e3, k = data.draw(arrays(float, (5, n, 3), elements=HOSTILE))
    k = np.abs(k[:, 0])
    u = k * data.draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    rows = np.ascontiguousarray(S.T)  # evolve_series' component rows

    def curvature():
        S_x, k = spin._curvature(rows.T, g)
        spin._check_curvature(k)
        return S_x.T, k

    def frame():
        S_x, k = spin._curvature(rows.T, g)
        return (S_x.T, k) + tuple(e.T for e in spin._frame(rows, S_x, k))

    def rates():
        out = spin._rates(rows, np.ascontiguousarray(S_x.T),
                          (None, np.ascontiguousarray(e2.T), np.ascontiguousarray(e3.T)),
                          u, spin._clamped_radicand(k * k, u))
        return out[:3].T, out[3]

    with np.errstate(all="ignore"):  # 0/0 on a zero row is NaN in both
        assert outcome(curvature) == outcome(oracle_curvature, S, g)
        assert outcome(frame) == outcome(oracle_tangent_frame, S, g)
        assert outcome(rates) == outcome(oracle_rates, S, u, (S_x, k, None, e2, e3))
