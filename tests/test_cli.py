"""Command-line interface: config resolution, commands, exit codes, artifacts."""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import solsurf as ss
from solsurf import cli
from solsurf import fieldio as fio
from solsurf.cli import SCENARIOS, build_parser, main, resolve_config
from solsurf.fixtures import traveling_circle

from conftest import circle_grid


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
        cfg = resolve_config({"steps": 4, "seed": 9}, {"steps": 2})
        assert cfg.steps == 2
        assert cfg.seed == 9

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
        cfg = resolve_config({}, {"which": "m0"})
        assert cfg.which == "torsion"

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

    def test_m0_alias_maps_to_torsion(self, tmp_path):
        rc = main(["check", "--scenario", "traveling_circle", "--which", "m0",
                   "--n", "33", "--steps", "8", "--out", str(tmp_path)])
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
])
def test_overflowing_amplitude_prints_only_the_error(tmp_path, argv, code):
    """The overflow ends in the typed error; no numpy warning reaches stderr."""
    proc = subprocess.run([sys.executable, "-m", "solsurf", *argv,
                           "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_edge_param_values_still_run(tmp_path):
    """Integral radius, integral-valued float winding, negative theta_amp."""
    for value in ("2", "2.0"):
        assert main(["surface", "--scenario", "sphere", "--param",
                     f"radius={value}", "--out", str(tmp_path / value)]) == 0
    assert ((tmp_path / "2" / "mesh.json").read_bytes()
            == (tmp_path / "2.0" / "mesh.json").read_bytes())
    summary = json.loads((tmp_path / "2" / "surface_summary.json").read_text())
    assert summary["config"]["params"] == {"radius": 2}
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
        assert cfg.params[name] is value


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
