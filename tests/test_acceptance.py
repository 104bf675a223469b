"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line under pytest -v.  Tolerances are
the contract values, not the (tighter) measured margins; unit tests pin the
sharper numbers.
"""

import json

import numpy as np

from solsurf import (CTFields, Grid1D, Grid2D, build_lax,
                     compatibility_residual, curvatures, diff_x, fit_order,
                     fundamental_forms, gc_residual, holonomy_defect, map_frame_to_gc,
                     map_gc_to_frame, mesh_curvatures, metric_residual,
                     spin_rhs, torsion_transport_residual, transport_frame_x,
                     zero_curvature_residual)
from solsurf.cli import main
from solsurf.fixtures import (random_smooth_spin, sphere_frame_series, sphere_gc,
                              sphere_patch, traveling_circle, traveling_circle_exact)
from solsurf.spin import evolve_series

from conftest import circle_grid, polar_band


def _max_abs(*arrays):
    return max(float(np.max(np.abs(a))) for a in arrays)


def test_c1_traveling_circle_oracle_second_order():
    # rigid translation of the unit circle profile, fixed final time
    errors = []
    for scale in (1, 2):
        g = circle_grid(128 * scale + 1)
        dt = g.dx / 4.0
        steps = 81 * scale
        series = evolve_series(traveling_circle(g), dt, steps)
        exact = traveling_circle_exact(g, t=float(series.times[-1]))
        errors.append(_max_abs(series.slice(-1).S - exact.S))
    assert errors[0] <= 5e-4
    ratio = errors[0] / errors[1]
    assert 3.2 <= ratio <= 4.8


def test_c2_sphere_residuals_analytic_and_numeric():
    hs, gc_num, met_num = [], [], []
    for scale in (1, 2, 4):
        g2 = polar_band(65, scale)
        data, exact = sphere_gc(g2)
        assert _max_abs(*gc_residual(data, derivs=exact)) <= 1e-10
        assert _max_abs(*metric_residual(data, derivs=exact)) <= 1e-10
        hs.append(g2.gx.dx)
        gc_num.append(_max_abs(*gc_residual(data)))
        met_num.append(_max_abs(*metric_residual(data)))
    assert fit_order(hs, gc_num, floor=1e-12) >= 1.7
    assert fit_order(hs, met_num, floor=1e-12) >= 1.7


def test_c3_forms_frame_equivalence_round_trip():
    hs, compat = [], []
    for scale in (1, 2, 4):
        g2 = polar_band(65, scale)
        data, exact = sphere_gc(g2)
        ct = map_gc_to_frame(data)
        compat.append(_max_abs(*compatibility_residual(ct)))
        hs.append(g2.gx.dx)
    assert fit_order(hs, compat, floor=1e-12) >= 1.7
    # round trip on the finest level, closed-form metric derivatives
    back = map_frame_to_gc(ct, data.tpsi1, data.tpsi2,
                           metric_derivs=(exact.tpsi1_x, exact.tpsi2_t))
    for name in ("psi1", "psi2", "tpsi1", "tpsi2"):
        a, b = getattr(back, name), getattr(data, name)
        scale_ref = max(_max_abs(b), 1e-300)
        assert _max_abs(a - b) / scale_ref <= 1e-12, name


def test_c4_zero_curvature_and_cell_holonomy():
    hs, res = [], []
    for scale in (1, 2, 4):
        g2 = polar_band(65, scale)
        ct = map_gc_to_frame(sphere_gc(g2)[0])
        res.append(_max_abs(zero_curvature_residual(build_lax(ct))))
        hs.append(g2.gx.dx)
    assert fit_order(hs, res, floor=1e-12) >= 1.7
    # the 2x2 residual norm carries exactly the frame residuals; round-off
    # in the two evaluation routes leaves a few ulp of the residual scale
    r1, r2, r3 = compatibility_residual(ct)
    expected = np.sqrt((r1 ** 2 + r2 ** 2 + r3 ** 2) / 2.0)
    norm = zero_curvature_residual(build_lax(ct))
    assert _max_abs(norm - expected) / _max_abs(expected) <= 1e-10
    # holonomy of one cell scales with cell area on a curvature-carrying field
    areas, defects = [], []
    for h in (0.1, 0.05, 0.025):
        axis = Grid1D(0.0, h, 9, "one_sided")
        g2 = Grid2D(axis, axis)
        ones = np.ones(g2.shape)
        ct = CTFields(k=0.8 * ones, tau=0.5 * ones, omega2=0.3 * ones,
                      omega3=-0.4 * ones, grid=g2)
        defects.append(holonomy_defect(build_lax(ct), corner=(2, 2)))
        areas.append(h * h)
    slope = np.polyfit(np.log(areas), np.log(defects), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_c5_frame_transport_gram_drift():
    g = Grid1D(0.0, 1e-2, 1001, "one_sided")
    state = transport_frame_x(np.eye(3), 1.0, 0.5, g, reorthonormalize=False)
    assert float(np.max(state.gram_drift)) <= 1e-6
    drifts, hs = [], (0.1, 0.05, 0.025)
    for h in hs:
        g = Grid1D(0.0, h, 2, "one_sided")
        st = transport_frame_x(np.eye(3), 1.0, 0.5, g)
        drifts.append(float(st.gram_drift[1]))
    assert fit_order(hs, drifts, floor=1e-14) >= 3.7


def test_c6_curvature_values_sphere():
    gt = Grid1D(0.3, (np.pi - 0.6) / 16, 17, "one_sided")
    g2 = Grid2D(Grid1D(0.0, np.pi / 16, 17, "one_sided"), gt)
    for radius in (0.5, 1.0, 2.0):
        K, _ = curvatures(fundamental_forms(sphere_gc(g2, radius)[0]))
        assert _max_abs(K - 1.0 / radius ** 2) * radius ** 2 <= 1e-12
    # discretized patch: mean Gaussian-curvature error under 1 percent
    h = np.pi / 256
    mesh_grid = Grid2D(Grid1D(0.0, h, 513, "periodic"),
                       Grid1D(0.3, h, 208, "one_sided"))
    K, _ = mesh_curvatures(sphere_patch(mesh_grid))
    assert float(np.mean(np.abs(K - 1.0))) <= 1e-2


def test_c7_torsion_transport_reduction():
    # planar circle: every term vanishes identically, including round-off
    series = evolve_series(traveling_circle(circle_grid(65)), np.pi / 128, 16)
    res = torsion_transport_residual(series.S, series.v, series.grid2)
    assert _max_abs(res) == 0.0
    # sphere frames: second-order decay
    hs, errs = [], []
    for scale in (1, 2, 4):
        g2 = polar_band(65, scale)
        frames, ct = sphere_frame_series(g2)
        errs.append(_max_abs(torsion_transport_residual(
            frames[..., 0, :], ct.tau, g2)))
        hs.append(g2.gx.dx)
    assert fit_order(hs, errs, floor=1e-12) >= 1.7


def test_c8_spin_identities_and_drift():
    # machine-level identities and sphere drift on evolved trajectories
    runs = []
    g = circle_grid(129)
    runs.append(evolve_series(traveling_circle(g), g.dx / 4, 32))
    go = Grid1D(0.0, 2 * np.pi / 128, 129, "one_sided")
    runs.append(evolve_series(random_smooth_spin(go, seed=1), go.dx / 4, 32))
    for series in runs:
        drift = _max_abs(np.linalg.norm(series.S, axis=-1) - 1.0)
        assert drift <= 1e-12
        for j in (0, series.nt // 2, series.nt - 1):
            st = series.slice(j)
            rates = spin_rhs(st)
            k2 = np.sum(diff_x(st.S, st.grid) ** 2, axis=1)
            speed2 = np.sum(rates.dS ** 2, axis=1)
            assert _max_abs(speed2 - k2) <= 1e-12
    # dv = k*u residual decays at least at second order
    hs, errs = [], []
    for scale in (1, 2, 4):
        n = 128 * scale + 1
        gs = Grid1D(0.0, 2 * np.pi / (128 * scale), n, "one_sided")
        series = evolve_series(random_smooth_spin(gs, seed=1), gs.dx / 4,
                               8 * scale)
        st = series.slice(-1)
        rates = spin_rhs(st)
        k = np.linalg.norm(diff_x(st.S, gs), axis=1)
        errs.append(_max_abs(rates.dv - k * st.u))
        hs.append(gs.dx)
    assert fit_order(hs, errs, floor=1e-12) >= 1.7


def test_c9_cli_rerun_determinism(tmp_path):
    commands = (
        ["simulate", "--n", "33", "--steps", "8"],
        ["simulate", "--scenario", "random_smooth", "--n", "65",
         "--steps", "16"],
        ["check", "--scenario", "sphere", "--which", "gc"],
        ["surface", "--scenario", "cylinder"],
    )
    for i, args in enumerate(commands):
        out = tmp_path / f"run{i}"
        assert main(args + ["--out", str(out)]) == 0, args
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert main(args + ["--out", str(out)]) == 0, args
        second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert second == first, args
