"""Command-line interface: config resolution, commands, exit codes, artifacts."""

import argparse
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import solsurf as ss
from solsurf import cli
from solsurf import fieldio as fio
from solsurf.cli import SCENARIOS, build_parser, main, resolve_config
from solsurf.fixtures import random_ct, random_smooth_spin, traveling_circle

from conftest import circle_grid, json_text


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestResolveConfig:
    def test_defaults(self):
        cfg = resolve_config({}, {})
        assert cfg.scenario == "traveling_circle"
        assert cfg.n == 129
        assert cfg.boundary == "periodic"
        assert cfg.dx == pytest.approx(2 * np.pi / 128)
        assert cfg.dt == pytest.approx(cfg.dx / 4)

    def test_scenario_layer_applies(self):
        cfg = resolve_config({}, {"scenario": "sphere"})
        assert cfg.n == 65
        assert cfg.boundary == "one_sided"
        assert cfg.t0 == pytest.approx(0.3)
        assert cfg.params["radius"] == 1.0

    def test_flags_override_file(self):
        cfg = resolve_config({"steps": 4, "levels": 5}, {"steps": 2})
        assert cfg.steps == 2
        assert cfg.levels == 5

    def test_params_union_across_layers(self):
        cfg = resolve_config({"scenario": "sphere", "params": {"radius": 2.0}}, {})
        assert cfg.params == {"radius": 2.0}

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ss.ConfigError, match="nonsense"):
            resolve_config({"nonsense": 1}, {})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ss.ConfigError):
            resolve_config({}, {"scenario": "klein_bottle"})

    def test_unknown_param_rejected(self):
        with pytest.raises(ss.ConfigError, match="radius"):
            resolve_config({"scenario": "traveling_circle",
                            "params": {"radius": 1.0}}, {})

    def test_which_alias_m0(self):
        # the m0 alias of torsion is gone: it is an unknown which now
        with pytest.raises(ss.ConfigError, match="which"):
            resolve_config({}, {"which": "m0"})

    def test_violations_reported_together(self):
        with pytest.raises(ss.ConfigError) as exc:
            resolve_config({"steps": -1, "boundary": "wrap"}, {})
        msg = str(exc.value)
        assert "steps" in msg and "boundary" in msg


class TestSimulate:
    def test_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        rc = main(["simulate", "--n", "33", "--steps", "8",
                   "--out", str(tmp_path)])
        assert rc == 0
        for name in ("series.json", "series.csv", "simulate_summary.json"):
            assert (tmp_path / name).exists(), name
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert summary["max_sphere_drift"] <= 1e-12
        assert summary["steps"] == 8
        out = capsys.readouterr().out
        assert "simulate" in out and "drift" in out

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "--n", "33", "--steps", "8", "--out", str(tmp_path)]
        assert main(args) == 0
        first = read_tree(tmp_path)
        assert main(args) == 0
        assert read_tree(tmp_path) == first

    def test_ic_file_round_trip(self, tmp_path):
        ic = traveling_circle(circle_grid(33))
        fio.save_json(ic, tmp_path / "ic.json")
        rc = main(["simulate", "--ic", str(tmp_path / "ic.json"), "--steps", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        series = fio.load_json(tmp_path / "series.json")
        assert np.array_equal(series.slice(0).S, ic.S)

    def test_ic_keeps_its_own_time(self, tmp_path):
        ic = traveling_circle(circle_grid(17))
        ic.t = 2.0
        fio.save_json(ic, tmp_path / "ic.json")
        assert main(["simulate", "--ic", str(tmp_path / "ic.json"), "--steps", "4",
                     "--t0", "5", "--format", "json", "--out", str(tmp_path)]) == 0
        assert fio.load_json(tmp_path / "series.json").times[0] == 2.0

    def test_format_selection(self, tmp_path):
        rc = main(["simulate", "--n", "33", "--steps", "2", "--format", "json",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "series.json").exists()
        assert not (tmp_path / "series.csv").exists()

    def test_constraint_breakdown_exits_three(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", "random_smooth", "--param", "seed=5",
                   "--steps", "128", "--out", str(tmp_path)])
        assert rc == 3
        assert "step" in capsys.readouterr().err


class TestCheck:
    def test_sphere_gc_passes(self, tmp_path, capsys):
        rc = main(["check", "--scenario", "sphere", "--which", "gc",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "check_gc.json").read_text())
        assert report["pass"] is True
        assert report["finest_residual"] <= 1e-10
        assert len(report["levels"]) == 2
        assert "PASS" in capsys.readouterr().out

    def test_sphere_metric_passes(self, tmp_path):
        rc = main(["check", "--scenario", "sphere", "--which", "metric",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_random_fields_fail_compatibility(self, tmp_path, capsys):
        rc = main(["check", "--scenario", "random_ct", "--which", "compat",
                   "--out", str(tmp_path)])
        assert rc == 1
        report = json.loads((tmp_path / "check_compat.json").read_text())
        assert report["pass"] is False
        assert "FAIL" in capsys.readouterr().out

    def test_spin_scenario_default_diagnostic(self, tmp_path):
        rc = main(["check", "--scenario", "random_smooth", "--n", "65",
                   "--steps", "32", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "check_torsion.json").exists()

    def test_gc_check_needs_field_scenario(self, tmp_path):
        rc = main(["check", "--scenario", "traveling_circle", "--which", "gc",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_ic_rejected_for_checks(self, tmp_path):
        ic = traveling_circle(circle_grid(33))
        fio.save_json(ic, tmp_path / "ic.json")
        for scenario in ("traveling_circle", "sphere", "random_ct"):
            rc = main(["check", "--scenario", scenario,
                       "--ic", str(tmp_path / "ic.json"), "--out", str(tmp_path)])
            assert rc == 2, scenario
        assert not list(tmp_path.glob("check_*.json"))

    def test_undefined_which_exits_before_evolving(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("evolve_series called")

        monkeypatch.setattr(cli, "evolve_series", fail)
        rc = main(["check", "--scenario", "random_smooth", "--which", "gc",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_nonuniform_series_ic_exits_two(self, tmp_path):
        series = ss.evolve_series(traveling_circle(circle_grid(17)), 0.01, 3)
        doc = fio.to_jsonable(series)
        doc["times"][2] += 0.003
        (tmp_path / "ic.json").write_text(json.dumps(doc))
        rc = main(["simulate", "--ic", str(tmp_path / "ic.json"),
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_threshold_flag_respected(self, tmp_path):
        # an absurdly tight threshold turns a passing check into a failure
        rc = main(["check", "--scenario", "traveling_circle", "--which", "compat",
                   "--n", "33", "--steps", "8", "--threshold", "1e-300",
                   "--out", str(tmp_path)])
        assert rc == 1


class TestConvergence:
    def test_three_level_study(self, tmp_path):
        rc = main(["convergence", "--scenario", "sphere", "--which", "gc",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "convergence_gc.json").read_text())
        assert len(report["levels"]) == 3
        assert report["order"] >= 1.7
        assert (tmp_path / "residuals_gc.csv").exists()

    def test_levels_flag(self, tmp_path):
        rc = main(["convergence", "--scenario", "traveling_circle",
                   "--which", "torsion", "--n", "33", "--steps", "4",
                   "--levels", "2", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "convergence_torsion.json").read_text())
        assert len(report["levels"]) == 2

    def test_level_zero_is_the_simulated_trajectory(self, tmp_path):
        """Level 0 of a study evolves the trajectory simulate writes: its
        torsion residual is the one read off simulate's series.json."""
        size = ["--scenario", "random_smooth", "--n", "33", "--steps", "8", "--t0", "5",
                "--format", "json"]
        assert main(["simulate", *size, "--out", str(tmp_path / "sim")]) == 0
        main(["convergence", *size, "--which", "torsion", "--levels", "2",
              "--out", str(tmp_path / "conv")])
        series = fio.load_json(tmp_path / "sim" / "series.json")
        residual = ss.torsion_transport_residual(series.S, series.v, series.grid2)
        report = json.loads((tmp_path / "conv" / "convergence_torsion.json").read_text())
        assert report["levels"][0]["residual_numeric"] == float(np.max(np.abs(residual)))


class TestSurface:
    def test_sphere_patch(self, tmp_path):
        rc = main(["surface", "--scenario", "sphere", "--out", str(tmp_path)])
        assert rc == 0
        for name in ("mesh.obj", "mesh.json", "mesh.csv", "curvature.csv",
                     "surface_summary.json"):
            assert (tmp_path / name).exists(), name
        summary = json.loads((tmp_path / "surface_summary.json").read_text())
        assert abs(summary["K_mean"] - 1.0) < 1e-2
        assert summary["degenerate_count"] == 0

    def test_reconstructed_trajectory(self, tmp_path):
        rc = main(["surface", "--scenario", "traveling_circle", "--n", "33",
                   "--steps", "8", "--out", str(tmp_path)])
        assert rc == 0
        mesh = fio.load_json(tmp_path / "mesh.json")
        assert mesh.r.shape == (33, 9, 3)

    def test_forms_computed_once(self, tmp_path, monkeypatch):
        from solsurf import surface
        calls = {}
        for name in ("mesh_forms", "diff_x", "diff_t", "diff_xx", "diff_tt"):
            def counted(*args, _fn=getattr(surface, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(surface, name, counted)
        monkeypatch.setattr(cli, "mesh_forms", surface.mesh_forms)
        rc = main(["surface", "--scenario", "sphere", "--out", str(tmp_path)])
        assert rc == 0
        assert calls == {"mesh_forms": 1, "diff_x": 1, "diff_t": 2,
                         "diff_xx": 1, "diff_tt": 1}

    def test_degenerate_mask_matches_curvatures(self, tmp_path):
        """Points where E G - F^2 cancels to 0 are degenerate, so the K/H
        statistics of the planar sweep stay numbers."""
        rc = main(["surface", "--scenario", "traveling_circle", "--no-renorm",
                   "--n", "33", "--steps", "8", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "surface_summary.json").read_text())
        mesh = fio.load_json(tmp_path / "mesh.json")
        degenerate = ~np.isfinite(ss.mesh_forms(mesh).L)
        K, _ = ss.mesh_curvatures(mesh)
        assert np.array_equal(degenerate, ~np.isfinite(K))
        assert summary["degenerate_count"] == np.count_nonzero(degenerate)
        assert isinstance(summary["K_mean"], float)

    def test_surface_ic_label(self, tmp_path, capsys):
        """surface names the --ic file on stdout, as simulate does, not the
        scenario it never ran."""
        ic = tmp_path / "ic.json"
        fio.save_json(traveling_circle(circle_grid(33)), ic)
        for command in ("simulate", "surface"):
            assert main([command, "--ic", str(ic), "--steps", "4",
                         "--out", str(tmp_path)]) == 0
            assert capsys.readouterr().out.startswith(f"{command} ic:{ic}: ")

    def test_obj_reexport_stable(self, tmp_path):
        rc = main(["surface", "--scenario", "cylinder", "--out", str(tmp_path)])
        assert rc == 0
        data = (tmp_path / "mesh.obj").read_bytes()
        back = ss.import_obj(tmp_path / "mesh.obj")
        ss.export_obj(back, tmp_path / "again.obj")
        assert (tmp_path / "again.obj").read_bytes() == data


class TestConfigFileAndEnv:
    def test_config_file_drives_run(self, tmp_path):
        cfg = {"scenario": "traveling_circle", "n": 33, "steps": 4,
               "out": str(tmp_path / "from_file")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(cfg_path)])
        assert rc == 0
        assert (tmp_path / "from_file" / "series.json").exists()

    def test_flag_beats_config_file(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"n": 33, "steps": 4}))
        rc = main(["simulate", "--config", str(cfg_path), "--steps", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert summary["steps"] == 2

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"stepz": 4}))
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 2
        assert "stepz" in capsys.readouterr().err

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOLSURF_OUT", str(tmp_path / "env_dir"))
        rc = main(["simulate", "--n", "33", "--steps", "2"])
        assert rc == 0
        assert (tmp_path / "env_dir" / "series.json").exists()

    def test_out_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOLSURF_OUT", str(tmp_path / "env_dir"))
        rc = main(["simulate", "--n", "33", "--steps", "2",
                   "--out", str(tmp_path / "flag_dir")])
        assert rc == 0
        assert (tmp_path / "flag_dir" / "series.json").exists()
        assert not (tmp_path / "env_dir").exists()

    @pytest.mark.parametrize("out", [5, False, ["out"]])
    def test_config_out_not_a_string_exits_two(self, tmp_path, monkeypatch, capsys, out):
        """A config file's out that is not a string, with no --out or SOLSURF_OUT
        to override it: exit 2, one error line, no file written.  --out overrides it."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SOLSURF_OUT", raising=False)
        (tmp_path / "run.json").write_text(json.dumps({"n": 33, "steps": 2, "out": out}))
        assert main(["simulate", "--config", "run.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid config: out must be a directory path, got {out!r}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
        assert main(["simulate", "--config", "run.json", "--out", "flag_dir"]) == 0
        assert (tmp_path / "flag_dir" / "series.json").exists()

    def test_map_tol_config_key_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"n": 33, "steps": 2, "map_tol": 1e-6}))
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 2
        assert "map_tol" in capsys.readouterr().err

    def test_legacy_ic_with_other_beta_exits_two(self, tmp_path):
        doc = fio.to_jsonable(traveling_circle(circle_grid(33)))
        doc["beta"] = -1
        (tmp_path / "ic.json").write_text(json.dumps(doc))
        rc = main(["simulate", "--ic", str(tmp_path / "ic.json"), "--steps", "2",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_missing_config_file_exits_two(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path)])
        assert rc == 2


class TestArgumentErrors:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_no_subcommand(self):
        assert main([]) == 2

    def test_unknown_flag(self):
        assert main(["simulate", "--frobnicate"]) == 2

    def test_beta_flag_removed(self, tmp_path):
        assert main(["simulate", "--beta", "1", "--out", str(tmp_path)]) == 2

    def test_unknown_scenario(self, tmp_path):
        rc = main(["simulate", "--scenario", "torus", "--out", str(tmp_path)])
        assert rc == 2

    def test_bad_param_for_scenario(self, tmp_path):
        rc = main(["simulate", "--param", "radius=2.0", "--out", str(tmp_path)])
        assert rc == 2


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "solsurf", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


SPIN_SIZE = ["--n", "33", "--steps", "8"]


def _first_t(path) -> float:
    """The t column of a CSV artifact's first data row."""
    return float(path.read_text().splitlines()[1].split(",")[1])


@pytest.mark.parametrize("scenario", ["traveling_circle", "random_smooth"])
def test_t0_starts_a_spin_scenario_run(tmp_path, scenario):
    """--t0 is the first time of a spin scenario's series, mesh and residuals,
    as it is the first t of a patch scenario's grid."""
    argv = ["--scenario", scenario, "--n", "17", "--steps", "4", "--t0", "5"]
    for command in ("simulate", "surface", "check"):
        assert main([command, *argv, "--out", str(tmp_path / command)]) in (0, 1)
    series = fio.load_json(tmp_path / "simulate" / "series.json")
    summary = json.loads((tmp_path / "simulate" / "simulate_summary.json").read_text())
    assert series.times[0] == 5.0 and summary["config"]["t0"] == 5.0
    # 4 steps of the default dt = dx/4
    assert summary["final_time"] == series.times[-1] == pytest.approx(5.0 + series.grid.dx)
    assert _first_t(tmp_path / "simulate" / "series.csv") == 5.0
    assert _first_t(tmp_path / "surface" / "mesh.csv") == 5.0
    which = SCENARIOS[scenario].defaults.get("which", cli.KEYS["which"][0])
    assert _first_t(tmp_path / "check" / f"residuals_{which}.csv") == 5.0


# Exit code and finest residual of `check` for every scenario and residual
# family.  Spin scenarios run at SPIN_SIZE, field scenarios at their
# defaults; exit 2 writes no summary.
CHECK_MATRIX = [
    ("traveling_circle", "compat", 0, 3.958023603599043e-14),
    ("traveling_circle", "gc", 2, None),
    ("traveling_circle", "metric", 2, None),
    ("traveling_circle", "lax", 0, 2.7987453302012987e-14),
    ("traveling_circle", "torsion", 0, 0.0),
    ("random_smooth", "compat", 1, 0.006057902996622622),
    ("random_smooth", "gc", 2, None),
    ("random_smooth", "metric", 2, None),
    ("random_smooth", "lax", 1, 0.004369732881637583),
    ("random_smooth", "torsion", 0, 0.00012446075662359002),
    ("sphere", "compat", 0, 0.00012495732223294365),
    ("sphere", "gc", 0, 0.0),
    ("sphere", "metric", 0, 0.0),
    ("sphere", "lax", 0, 9.292743059317799e-05),
    ("sphere", "torsion", 0, 0.00019239239327539792),
    ("random_ct", "compat", 1, 2.3369896128767342),
    ("random_ct", "gc", 2, None),
    ("random_ct", "metric", 2, None),
    ("random_ct", "lax", 1, 1.6721391075825467),
    ("random_ct", "torsion", 2, None),
] + [(scenario, which, 2, None) for scenario in ("plane", "cylinder")
     for which in ("compat", "gc", "metric", "lax", "torsion")]


@pytest.mark.parametrize("scenario,which,code,finest", CHECK_MATRIX)
def test_check_dispatch_matrix(tmp_path, scenario, which, code, finest):
    size = SPIN_SIZE if scenario in ("traveling_circle", "random_smooth") else []
    rc = main(["check", "--scenario", scenario, "--which", which,
               "--format", "json", *size, "--out", str(tmp_path)])
    assert rc == code
    summary = tmp_path / f"check_{which}.json"
    if finest is None:
        assert not summary.exists()
    else:
        report = json.loads(summary.read_text())
        assert report["finest_residual"] == pytest.approx(finest, rel=1e-9, abs=1e-13)


# Inputs that exit 2 with a message naming the offending key.
BAD_PARAMS = [
    (["surface", "--scenario", "sphere", "--param", "radius=0"], "radius"),
    (["surface", "--scenario", "cylinder", "--param", "radius=0"], "radius"),
    (["surface", "--scenario", "sphere", "--param", "radius=-2"], "radius"),
    (["surface", "--scenario", "sphere", "--param", "radius=true"], "radius"),
    (["surface", "--scenario", "sphere", "--param", "radius=NaN"], "radius"),
    (["simulate", "--scenario", "random_smooth", "--param", "n_modes=-1"],
     "n_modes"),
    # above (n - 1) // 2 = 16 harmonics alias; 1e8 modes used to loop for minutes
    (["simulate", "--scenario", "random_smooth", "--param", "n_modes=100000000"],
     "n_modes"),
    (["check", "--scenario", "random_smooth", "--param", "n_modes=17"], "n_modes"),
    (["simulate", "--scenario", "random_smooth", "--param", "seed=1.5"], "seed"),
    (["simulate", "--scenario", "random_smooth", "--param", "seed=-1"], "seed"),
    (["simulate", "--scenario", "random_smooth", "--seed", "-1"], "seed"),
    (["check", "--scenario", "random_ct", "--param", "seed=-1"], "seed"),
    # a zero curvature leaves the frame undefined
    (["simulate", "--scenario", "traveling_circle", "--param", "k=0"], "k"),
    (["simulate", "--scenario", "traveling_circle", "--param", "k=1e-300"], "k"),
    (["simulate", "--scenario", "random_smooth", "--param", "winding=1.5"],
     "winding"),
    (["simulate", "--scenario", "random_smooth", "--param", "theta_amp=abc"],
     "theta_amp"),
]


@pytest.mark.parametrize("argv,key", BAD_PARAMS,
                         ids=[" ".join(argv[2:]) for argv, _ in BAD_PARAMS])
def test_bad_param_values_exit_two(tmp_path, capsys, argv, key):
    assert main([*argv, *SPIN_SIZE, "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("argv,code", [
    (["simulate", "--scenario", "random_smooth", "--param", "v_amp=1e300",
      "--n", "33", "--steps", "4"], 3),
    (["check", "--scenario", "random_ct", "--param", "amplitude=1e308"], 2),
    (["check", "--scenario", "random_ct", "--param", "amplitude=1e200"], 2),
    (["check", "--scenario", "random_ct", "--param", "amplitude=1e80",
      "--which", "lax"], 2),
])
def test_overflowing_amplitude_prints_only_the_error(tmp_path, argv, code):
    """The overflow ends in the typed error; no numpy warning reaches stderr."""
    proc = subprocess.run([sys.executable, "-m", "solsurf", *argv,
                           "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["surface", "--scenario", "sphere", "--param", "radius=1e200"],
    ["surface", "--scenario", "sphere", "--param", "radius=1e80"],
    ["surface", "--scenario", "cylinder", "--param", "radius=1e300"],
    # 4 * radius overflows the one-sided differences of the metric roots
    *[["check", "--scenario", "sphere", "--which", which, "--param", "radius=4.5e307"]
      for which in ("metric", "gc")],
], ids=lambda argv: " ".join(argv[2:]))
def test_overflowing_radius_prints_only_the_error(tmp_path, argv):
    """A radius whose forms overflow exits 2 naming radius, with no warning."""
    proc = subprocess.run([sys.executable, "-m", "solsurf", *argv,
                           "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: radius=") and proc.stderr.count("\n") == 1


def test_overflowing_ic_gives_strict_json_summary(tmp_path):
    """A finite --ic state whose u residual overflows: no numpy warning, and
    the summary is strict JSON with a null residual."""
    f = random_smooth_spin(ss.Grid1D(0.0, 0.1, 17, "one_sided"), seed=1, n_modes=2)
    f.u = np.where(np.arange(17) % 2 == 0, 1e308, -1e308)
    fio.save_json(f, tmp_path / "ic.json")
    proc = subprocess.run([sys.executable, "-m", "solsurf", "simulate", "--ic",
                           str(tmp_path / "ic.json"), "--steps", "0", "--format", "json",
                           "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("simulate ") and proc.stdout.count("\n") == 1

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    summary = json.loads((tmp_path / "simulate_summary.json").read_text(),
                         parse_constant=reject)
    assert summary["max_u_residual"] is None


def _malformed_ic(case: str) -> bytes:
    text = json_text(traveling_circle(circle_grid(9)))
    if case == "ct_fields":  # a document kind fieldio no longer reads
        g2 = ss.Grid2D(circle_grid(9), ss.Grid1D(0.0, 0.1, 3))
        doc = dict.fromkeys(("k", "tau", "omega2", "omega3"), [1.0] * 27)
        return json.dumps({"kind": "ct_fields", "grid": fio.to_jsonable(g2), **doc}).encode()
    if case == "truncated":
        return text[:len(text) // 2].encode()
    if case == "non_ascii":
        return text.encode().replace(b"spin_field", b"spin_field\xe9")
    doc = json.loads(text)
    if case == "string_in_S":
        doc["S"][0] = "a"
    elif case == "t_string":
        doc["t"] = "0.5"
    elif case.startswith("grid_"):
        _, key, _ = case.split("_", 2)
        doc["grid"][key] = WRONG_TYPED[case]
    return json.dumps(doc).encode()


# Grid values of the wrong JSON type: none may be coerced.
WRONG_TYPED = {"grid_n_string": "x", "grid_n_float": 9.9, "grid_n_bool": True,
               "grid_x0_bool": False, "grid_dx_string": "0.7", "grid_x0_huge_int": 10 ** 400}

# Each malformed --ic case and words of the one error line it must give.
MALFORMED_IC = {
    "ct_fields": "unknown document kind 'ct_fields'",
    "truncated": "is not an ASCII JSON document: Expecting",
    "non_ascii": "is not an ASCII JSON document: 'ascii' codec",
    "string_in_S": "'spin_field' holds a bad value: could not convert string",
    "grid_n_string": "n must be an integer, got 'x'",
    "grid_n_float": "n must be an integer, got 9.9",
    "grid_n_bool": "n must be an integer, got True",
    "t_string": "'spin_field' holds a bad value: t must be a number, got '0.5'",
    "grid_x0_bool": "'grid1d' holds a bad value: x0 must be a number, got False",
    "grid_dx_string": "'grid1d' holds a bad value: dx must be a number, got '0.7'",
    "grid_x0_huge_int": "'grid1d' holds a bad value: int too large to convert to float",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_IC))
def test_malformed_ic_exits_two(tmp_path, capsys, case):
    """A malformed --ic file ends in one error line and exit 2, not a traceback."""
    (tmp_path / "ic.json").write_bytes(_malformed_ic(case))
    rc = main(["simulate", "--ic", str(tmp_path / "ic.json"), "--n", "9",
               "--steps", "2", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert MALFORMED_IC[case] in err


def test_overflowing_grid_is_a_config_error(tmp_path, capsys):
    """A dx whose last grid point overflows exits 2 with one line, no numpy warning."""
    rc = main(["simulate", "--dx", "1e308", "--n", "9", "--steps", "2",
               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: last point x0 + dx*(n-1) overflows") and err.count("\n") == 1


def test_large_radius_still_runs(tmp_path):
    """Below the overflow bound the sphere keeps K R^2 = 1 to truncation error."""
    assert main(["surface", "--scenario", "sphere", "--param", "radius=1e76",
                 "--format", "json", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "surface_summary.json").read_text())
    assert summary["degenerate_count"] == 0
    assert summary["K_mean"] * 1e152 == pytest.approx(1.0, abs=2e-3)


@pytest.mark.parametrize("which", ["metric", "gc"])
def test_sphere_check_below_the_radius_bound_passes(tmp_path, which):
    assert main(["check", "--scenario", "sphere", "--which", which, "--param",
                 "radius=4.4e307", "--format", "json", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("spacing", ["1.5e-154", "1e-120"])
def test_sphere_surface_at_tiny_spacing_prints_no_warning(tmp_path, spacing):
    """Round-off differences overflow the forms: every point is degenerate,
    and no numpy warning reaches stderr."""
    proc = subprocess.run([sys.executable, "-m", "solsurf", "surface", "--scenario",
                           "sphere", "--dx", spacing, "--dt", spacing, "--t0", "0",
                           "--steps", "8", "--format", "json", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "surface sphere: points=585 degenerate=585 K_mean=None\n"


@pytest.mark.parametrize("argv", [
    ["--scenario", "sphere", "--dx", "1.5e-154", "--dt", "1.5e-154", "--steps", "8"],
    ["--scenario", "sphere", "--dx", "1e-120", "--dt", "1e-120", "--steps", "8"],
    ["--scenario", "sphere", "--dt", "1e-120"],
    ["--scenario", "cylinder", "--n", "17", "--steps", "4", "--t0=1e300"],
], ids=["sphere-1.5e-154", "sphere-1e-120", "sphere-dt", "cylinder-t0"])
def test_collapsed_grid_axis_exits_two(tmp_path, capsys, argv):
    """An axis whose points t0 + j*dt round together has no curvature to report:
    one error line, no summary."""
    assert main(["surface", *argv, "--format", "json", "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: grid spacing") and err.count("\n") == 1
    assert not (tmp_path / "surface_summary.json").exists()


@pytest.mark.parametrize("argv", [
    ["--dt", "1e-120", "--t0", "0"],
    ["--dt", "1e-9", "--t0", "0"],
    ["--dx", "1e-120"],
], ids=["dt-1e-120", "dt-1e-9", "dx-1e-120"])
def test_unresolved_second_differences_are_degenerate(tmp_path, capsys, argv):
    """From the pole at a tiny dt, r_t resolves (sin t does) but r_tt does not:
    cos t rounds to 1, so the second difference reads 0 where the sphere has
    -1.  Every point is degenerate; no K_mean of 0.0 or 29.9 is reported."""
    assert main(["surface", "--scenario", "sphere", *argv, "--format", "json",
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "surface sphere: points=4225 degenerate=4225 K_mean=None\n"


@pytest.mark.parametrize("x0", ["1e5", "1e9"])
def test_far_plane_is_flat(tmp_path, capsys, x0):
    """A plane patch far from the origin along its own plane: its x samples
    carry round-off, none of it along the normal, so no point is degenerate."""
    assert main(["surface", "--scenario", "plane", "--x0", x0, "--format", "json",
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "surface plane: points=1089 degenerate=0 K_mean=0.0\n"


def test_random_ct_amplitude_bound():
    """(4 M)^4 of the largest field value M must be finite: 1e76 builds."""
    g2 = ss.Grid2D(ss.Grid1D(0.0, 0.5, 9), ss.Grid1D(0.0, 0.5, 9))
    assert np.all(np.isfinite(random_ct(g2, amplitude=1e76).k))
    with pytest.raises(ss.ConfigError, match="amplitude"):
        random_ct(g2, amplitude=1e77)


def test_edge_param_values_still_run(tmp_path):
    """Integral radius, integral-valued float winding, negative theta_amp."""
    for value in ("2", "2.0"):
        assert main(["surface", "--scenario", "sphere", "--param",
                     f"radius={value}", "--out", str(tmp_path / value)]) == 0
    assert ((tmp_path / "2" / "mesh.json").read_bytes()
            == (tmp_path / "2.0" / "mesh.json").read_bytes())
    summary = json.loads((tmp_path / "2" / "surface_summary.json").read_text())
    # the summary shows the value that ran, the float 2.0
    assert summary["config"]["params"] == {"radius": 2.0}
    assert type(summary["config"]["params"]["radius"]) is float
    for value in ("2", "2.0"):
        assert main(["simulate", "--scenario", "random_smooth", "--param",
                     f"winding={value}", "--param", "theta_amp=-0.05",
                     "--n", "129", "--steps", "8", "--format", "json",
                     "--out", str(tmp_path / f"w{value}")]) == 0
    assert ((tmp_path / "w2" / "series.json").read_bytes()
            == (tmp_path / "w2.0" / "series.json").read_bytes())


PARAM_NAMES = [(scenario, name) for scenario in sorted(SCENARIOS)
               for name in sorted(SCENARIOS[scenario].params)]
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.integers(min_value=10 ** 308, max_value=10 ** 400),
                         st.floats(), st.text(max_size=8))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(PARAM_NAMES), JSON_SCALARS)
def test_any_param_value_resolves_or_is_config_error(scenario_name, value):
    scenario, name = scenario_name
    try:
        cfg = resolve_config({"scenario": scenario, "params": {name: value}}, {})
    except ss.ConfigError as e:
        assert name in str(e)
    else:
        kind = SCENARIOS[scenario].params[name][0]
        assert type(cfg.params[name]) is kind and cfg.params[name] == kind(value)


JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=4), inner, max_size=3)), max_leaves=6)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(sorted(cli.KEYS)), JSON_VALUES)
def test_any_key_value_resolves_or_is_config_error(key, value):
    try:
        resolve_config({key: value}, {})
    except ss.ConfigError:
        pass


def test_readme_flags_match_parser():
    """The README's flag paragraph lists exactly the options the parser takes,
    and its scenario table lists each scenario's params with kind and bound."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \|.*\| ([^|]*) \|$", readme, re.MULTILINE)
    documented_params = dict(rows)
    assert set(documented_params) == set(SCENARIOS)
    for scenario, cell in documented_params.items():
        shown = []
        for name, (kind, bound) in SCENARIOS[scenario].params.items():
            rule = f" {bound[0]} {bound[1]}" if bound else ""
            shown.append(f"`{name}` ({'int' if kind is int else 'number'}{rule})")
        assert cell == (", ".join(shown) or "none"), scenario
    paragraph = readme.split("Common keys/flags:", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", paragraph))
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    accepted = {opt for command in sub.choices.values()
                for action in command._actions for opt in action.option_strings
                if opt not in ("-h", "--help")}
    assert documented == accepted


def test_overflowing_phase_exits_two(tmp_path, capsys):
    """A traveling_circle k whose phase k*x overflows is a config error, with
    no numpy warning."""
    rc = main(["simulate", "--param", "k=1e308", *SPIN_SIZE, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "w*x overflows" in err


@pytest.mark.parametrize("key,value", [("S", "0.5"), ("v", False)], ids=["S_string", "v_false"])
def test_wrong_typed_ic_array_entry_exits_two(tmp_path, capsys, key, value):
    """An array entry that is not a JSON number is not coerced: exit 2, one line."""
    doc = fio.to_jsonable(traveling_circle(circle_grid(9)))
    doc[key][4] = value
    (tmp_path / "ic.json").write_text(json.dumps(doc))
    rc = main(["simulate", "--ic", str(tmp_path / "ic.json"), "--n", "9",
               "--steps", "2", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"entries of {key} to float" in err


# Sizes no run can hold, and the words of the one error line each must give.
HUGE_SIZES = {
    "n_1e20": (["simulate", "--n", str(10 ** 20)], "n must be an int64 integer"),
    "n_1e400": (["simulate", "--n", str(10 ** 400)], "n must be an int64 integer"),
    "steps_1e20": (["simulate", "--steps", str(10 ** 20)], "steps must be an int64 integer"),
    "n_1e12": (["simulate", "--n", str(10 ** 12)], "n=1000000000000, steps=64 at level 0: "),
    "levels_70": (["convergence", "--scenario", "random_ct", "--levels", "70"],
                  "n=65, steps=64 at level 69: "),
}


@pytest.mark.parametrize("case", sorted(HUGE_SIZES))
def test_huge_sizes_exit_two_before_running(tmp_path, capsys, monkeypatch, case):
    argv, words = HUGE_SIZES[case]
    monkeypatch.setattr(cli, "evolve_series", lambda *a: pytest.fail("evolve_series ran"))
    monkeypatch.setattr(cli, "random_ct", lambda *a, **k: pytest.fail("random_ct ran"))
    rc = main([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert words in err


# Values no size key should reach a computation with, and some it may.
HOSTILE = [0, -1, 1e308, -1e308, 1e-160, 10 ** 20, -(10 ** 20), 10 ** 400, math.nan,
           math.inf, 2.5, True, "9"]
VALUES = st.sampled_from(HOSTILE) | st.sampled_from([2, 3, 5, 0.05, 0.5])
# JSON nested deeper than the decoder recurses.
DEEP_JSON = "[" * 5000 + "]" * 5000


def _strict_json(path: Path):
    """path's JSON document; ValueError on NaN, Infinity or a number that
    overflows to one."""
    def reject(token):
        raise ValueError(f"{path.name}: non-standard JSON constant {token}")

    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{path.name}: number {text} is not finite")
        return value
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject,
                      parse_float=finite)


# What an --ic document's grid must not be: documents of other kinds, a string.
WRONG_GRIDS = [fio.to_jsonable(ss.Grid2D(circle_grid(9), circle_grid(5))),
               fio.to_jsonable(traveling_circle(circle_grid(9))), "grid1d"]


def _wrong_typed_ic(tmp: Path, key: str, value) -> str:
    """An --ic file whose grid is value, or whose array key has value as entry 3."""
    doc = fio.to_jsonable(traveling_circle(circle_grid(9)))
    if key == "grid":
        doc[key] = value
    else:
        doc[key][3] = value
    path = tmp / "ic.json"
    path.write_text(json.dumps(doc))
    return str(path)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(command=st.sampled_from(["simulate", "check", "convergence", "surface"]),
       scenario=st.sampled_from(sorted(SCENARIOS)),
       which=st.sampled_from(sorted(cli.RESIDUALS)),
       keys=st.dictionaries(st.sampled_from(["n", "steps", "levels", "dx", "dt"]),
                            VALUES, max_size=2),
       as_flags=st.booleans(),
       param=st.none() | VALUES.map(json.dumps) | st.just(DEEP_JSON),
       ic=st.none() | st.tuples(st.sampled_from(["S", "u", "v"]),
                                st.sampled_from(["0.5", False, None, [0.5], {}]))
       | st.tuples(st.just("grid"), st.sampled_from(WRONG_GRIDS)))
def test_contract_fuzz(command, scenario, which, keys, as_flags, param, ic):
    """Hostile sizes, params, --ic entries and --ic grids, with any residual
    family, end in an exit code of the contract with at most one error line,
    never a traceback, and every JSON file the run leaves is strict JSON of
    finite numbers or null."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = {"n": 9, "steps": 3, "levels": 2, "scenario": scenario, "which": which,
                  **keys}
        argv = [command, "--out", str(tmp / "out"), "--format", "json"]
        if as_flags:
            # argparse takes an int flag as an int and a float flag as a float;
            # only convergence has a --levels flag
            for key, value in keys.items():
                kind = cli.KEYS[key][1]
                if ((kind is int and type(value) is int) or (
                        kind is float and type(value) in (int, float))) and (
                        key != "levels" or command == "convergence"):
                    argv.append(f"--{key}={value}")
                    del config[key]
        if param is not None and SCENARIOS[scenario].params:
            argv += ["--param", f"{min(SCENARIOS[scenario].params)}={param}"]
        if ic is not None:
            argv += ["--ic", _wrong_typed_ic(tmp, *ic)]
        (tmp / "config.json").write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([*argv, "--config", str(tmp / "config.json")])
        for path in sorted(tmp.glob("out/*.json")):
            _strict_json(path)
    assert rc in (0, 1, 2, 3)
    err = err.getvalue()
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err


@pytest.mark.parametrize("case", ["ic", "config", "param", "config_not_utf8"])
def test_undecodable_json_input_exits_two(tmp_path, capsys, case):
    """JSON too deep to decode, or a config that is not UTF-8: exit 2, one line."""
    path = tmp_path / "in.json"
    path.write_bytes(b"\xff{}" if case == "config_not_utf8" else DEEP_JSON.encode())
    argv = {"ic": ["--ic", str(path)], "config": ["--config", str(path)],
            "config_not_utf8": ["--config", str(path)], "param": ["--param", f"k={DEEP_JSON}"]}
    rc = main(["simulate", *SPIN_SIZE, *argv[case], "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command,scenario,flags", [
    ("simulate", "random_smooth", ["--dx", "1e-160"]),
    ("surface", "random_smooth", ["--dx", "1e-160"]),
    ("check", "random_smooth", ["--dx", "1e-160"]),
    *[("surface", scenario, ["--dx", "1e-200", "--steps", "8"])
      for scenario in ("sphere", "plane", "cylinder", "traveling_circle")],
])
def test_tiny_grid_spacing_exits_two(tmp_path, capsys, command, scenario, flags):
    """A dx whose square underflows is a grid error before any stencil runs."""
    rc = main([command, "--scenario", scenario, *flags, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: grid spacing {flags[1]} is too small: its square underflows\n"


def test_rough_ic_at_tiny_spacing_prints_only_the_error(tmp_path):
    """An --ic whose |S_x| overflows at one_sided boundary rows exits 3 with the
    march's error alone: level 0's curvature is taken with overflow silenced."""
    n = 9
    S = np.tile([1.0, 0.0, 0.0], (n, 1))
    S[1::2, 0] = -1.0
    S[:, 1] = np.linspace(0.0, 0.5, n)
    ic = ss.SpinField(S=S, u=np.zeros(n), v=np.zeros(n), grid=ss.Grid1D(0.0, 2e-154, n))
    fio.save_json(ic, tmp_path / "ic.json")
    proc = subprocess.run([sys.executable, "-m", "solsurf", "simulate", "--ic",
                           str(tmp_path / "ic.json"), "--steps", "2", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == "error: step 0: k contains non-finite values\n"


@pytest.mark.parametrize("command", ["simulate", "surface"])
def test_huge_dt_prints_only_the_error(tmp_path, command):
    """A dt that overflows the first RK4 stage exits 3 with one error line."""
    proc = subprocess.run([sys.executable, "-m", "solsurf", command, "--scenario",
                           "random_smooth", "--n", "9", "--steps", "2", "--dt", "1e308",
                           "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: step 0: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("flag,value,message", [
    ("--dt", "-1e-3", "dt must be > 0, got -0.001"),
    ("--dx", "-1e308", "dx must be > 0, got -1e+308"),
    ("--dt", "-inf", "dt must be a finite number"),
])
@pytest.mark.parametrize("joined", [False, True], ids=["separate", "joined"])
def test_negative_exponent_flag_values_reach_the_config_check(tmp_path, capsys, flag,
                                                              value, message, joined):
    """argparse takes -1e-3 for an option; both flag forms end in the config error."""
    argv = [f"{flag}={value}"] if joined else [flag, value]
    assert main(["simulate", "--scenario", "random_smooth", *SPIN_SIZE, *argv,
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ") and message in err
    assert err.count("\n") == 1


# Inputs that end in a usage or config error before any artifact, and the one
# error line each prints.  {file} is a JSON file the test writes: a grid1d
# document, or a list for config_list.
CONFIG_ERRORS = {
    "dt_zero": (["simulate", "--dt", "0", "--steps", "4"],
                "error: invalid config: dt must be > 0, got 0.0"),
    "check_no_steps": (["check", "--steps", "0"],
                       "error: check needs steps >= 2 for its t differences, got 0"),
    "check_one_step_sphere": (["check", "--scenario", "sphere", "--steps", "1"],
                              "error: check needs steps >= 2 for its t differences, got 1"),
    "check_one_step_random_smooth": (
        ["check", "--scenario", "random_smooth", "--steps", "1"],
        "error: check needs steps >= 2 for its t differences, got 1"),
    "surface_no_steps": (["surface", "--scenario", "random_smooth", "--steps", "0"],
                         "error: surface needs steps >= 3 for its second t difference, got 0"),
    "surface_two_steps": (["surface", "--scenario", "random_smooth", "--steps", "2"],
                          "error: surface needs steps >= 3 for its second t difference, got 2"),
    "ic_grid1d": (["simulate", "--ic", "{file}"],
                  "error: {file} does not hold a spin_field document"),
    "ic_grid2d_grid": (["simulate", "--ic", "{file}"],
                       "error: a spin_field's grid must be grid1d, got grid2d"),
    "config_list": (["simulate", "--config", "{file}"],
                    "error: config file {file} must hold a JSON object"),
    "param_no_value": (["simulate", "--param", "seed"],
                       "error: --param expects KEY=VALUE, got 'seed'"),
    "x0_not_a_number": (["simulate", "--x0", "-abc"],
                        "solsurf simulate: error: argument --x0: expected one argument"),
    "two_point_one_sided": (["simulate", "--n", "2", "--boundary", "one_sided",
                             "--steps", "0"],
                            "error: one_sided first derivative needs n >= 3"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_errors_exit_two_with_one_error_line(tmp_path, capsys, case):
    """Each ends in exit 2 and a single error: line (argparse's after its usage),
    and writes no file."""
    path = tmp_path / "in.json"
    ic = {**fio.to_jsonable(traveling_circle(circle_grid(9))), "grid": WRONG_GRIDS[0]}
    doc = {"config_list": [], "ic_grid2d_grid": ic}.get(
        case, fio.to_jsonable(ss.Grid1D(0.0, 0.5, 9)))
    path.write_text(json.dumps(doc))
    argv, line = CONFIG_ERRORS[case]
    out = tmp_path / "out"
    assert main([a.format(file=path) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.endswith(line.format(file=path) + "\n")
    assert [e for e in err.splitlines() if "error:" in e] == [line.format(file=path)]
    assert not list(out.glob("*"))
