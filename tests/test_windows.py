"""check and convergence read each spin level's residuals off its RK4 steps a
time window at a time: the bits of the whole series, one window of memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import solsurf as ss
from solsurf import cli
from solsurf.cli import main, resolve_config


def _whole_fields(cfg, which, level):
    """The residual fields of the level's whole evolve_series trajectory, and its Grid2D."""
    source, _, residual = cli.RESIDUALS[which]
    _, _, dt, steps = cli._level_sizes(cfg, level)
    series = ss.evolve_series(cli._initial_field(cfg, level), dt, steps, cfg.renorm)
    fields, _ = residual(cli.SCENARIOS[cfg.scenario].sources[source](series, cfg.params))
    return fields, series.grid2


def _windowed(cfg, which, level, rows):
    """_eval_level's fields and Grid2D with windows that own rows levels each
    (at least two, the last window up to rows + 1)."""
    n = cli._level_sizes(cfg, level)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "BLOCK_VALUES", 5 * n * rows)
        _, fields, g2 = cli._eval_level(cfg, which, level)
        return fields, g2


@settings(derandomize=True, max_examples=80, deadline=None)
@given(scenario=st.sampled_from(["random_smooth", "traveling_circle"]),
       which=st.sampled_from(["torsion", "compat", "lax"]),
       n=st.integers(25, 40), t0=st.sampled_from([0.0, 0.3, 5.0]),
       rows=st.integers(2, 6), windows=st.integers(1, 4), tail=st.integers(0, 2),
       level=st.integers(0, 1))
def test_windowed_fields_match_the_whole_series(scenario, which, n, t0, rows, windows,
                                                tail, level):
    """Windows of 2 to 6 owned levels, on one_sided (random_smooth) and periodic
    (traveling_circle) x grids, with level 0 ending in a window of 0, 1 or 2
    levels past the full ones: every field has the whole series' bits, and
    the grid is the whole series' grid2 (its dt is times[1] - times[0])."""
    steps = max(rows * windows + tail - 1, 2)
    # theta_amp 0.05 keeps random_smooth clear of breakdown at these sizes
    params = {"theta_amp": 0.05} if scenario == "random_smooth" else {}
    cfg = resolve_config({"scenario": scenario, "n": n, "steps": steps, "t0": t0,
                          "params": params}, {})
    fields, g2 = _windowed(cfg, which, level, rows)
    whole, whole_g2 = _whole_fields(cfg, which, level)
    assert g2 == whole_g2
    assert list(fields) == list(whole)
    for name in whole:
        assert fields[name].tobytes() == whole[name].tobytes(), name


def test_level_peak_is_below_its_whole_series():
    """_eval_level at 257 x 129 holds one window, not the trajectory: its peak
    traced memory stays below the level's whole-series S, u and v."""
    cfg = resolve_config({"scenario": "random_smooth", "n": 257, "steps": 128}, {})
    whole = 257 * 129 * (3 + 1 + 1) * 8
    tracemalloc.start()
    try:
        cli._eval_level(cfg, "torsion", 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole, (peak, whole)


@pytest.mark.parametrize("which", ["torsion", "compat"])
def test_residuals_see_the_callers_errstate(monkeypatch, which):
    """The RK4 steps silence overflow in their own np.errstate; a residual
    run between two steps, and the caller after the stream, see the caller's."""
    source, threshold, residual = cli.RESIDUALS[which]
    seen = []

    def spy(base):
        seen.append(np.geterr())
        return residual(base)

    monkeypatch.setitem(cli.RESIDUALS, which, (source, threshold, spy))
    monkeypatch.setattr(cli, "BLOCK_VALUES", 5 * 17 * 2)
    cfg = resolve_config({"scenario": "random_smooth", "n": 17, "steps": 8}, {})
    for mode in ("raise", "warn"):
        seen.clear()
        with np.errstate(all=mode):
            expected = np.geterr()
            cli._eval_level(cfg, which, 0)
            assert np.geterr() == expected
        # windows [0, 2) [2, 4) [4, 6) [6, 9)
        assert len(seen) == 4 and all(s == expected for s in seen), seen


def test_ct_source_failure_keeps_its_type_and_exit_code(tmp_path, monkeypatch, capsys):
    """A ct-source breakdown in a window (here level 0's input u, which the
    RK4 steps never read, past |k|) ends check as before: SqrtDomainError,
    exit 3, one error line."""
    scenario = cli.SCENARIOS["traveling_circle"]

    def off_shell(grid, **params):
        field = scenario.spin(grid, **params)
        field.u = field.u + 2.0  # k = 1: k^2 - u^2 = -3
        return field

    monkeypatch.setitem(cli.SCENARIOS, "traveling_circle", scenario._replace(spin=off_shell))
    cfg = resolve_config({"scenario": "traveling_circle", "n": 17, "steps": 4}, {})
    with pytest.raises(ss.SqrtDomainError, match="radicand k\\^2 - u\\^2 = -3"):
        cli._eval_level(cfg, "compat", 0)
    assert main(["check", "--scenario", "traveling_circle", "--which", "compat",
                 "--n", "17", "--steps", "4", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: radicand k^2 - u^2 = ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["check", "--scenario", "random_smooth", "--steps", "1"],
    ["convergence", "--scenario", "traveling_circle", "--steps", "0"],
    ["check", "--scenario", "random_smooth", "--which", "gc"],
])
def test_rejected_studies_end_before_the_stream(tmp_path, monkeypatch, argv):
    """Too few steps for a t difference, or a residual the scenario lacks,
    exit 2 before any level is evolved."""
    def fail(*args, **kwargs):
        raise AssertionError("evolve_levels called")

    monkeypatch.setattr(cli, "evolve_levels", fail)
    assert main([*argv, "--out", str(tmp_path)]) == 2
