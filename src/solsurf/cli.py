"""Command-line front end: scenario runs, residual checks, surfaces.

Subcommands: simulate (evolve a spin scenario and write the trajectory),
check (residual suite at two grid resolutions with an order fit),
convergence (the same study at a configurable number of levels), and
surface (mesh reconstruction or analytic patch with curvature export).

Configuration is resolved in four layers: library defaults, then scenario
defaults, then a JSON config file (--config), then command-line flags.
The output directory is special: --out beats the SOLSURF_OUT environment
variable, which beats the config file.  Summaries embed the fully resolved
config and the toolkit version; nothing in any artifact depends on wall
time, so identical configs rerun to byte-identical files.

Exit codes: 0 success, 1 residual/threshold failure, 2 usage or config
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, GridError, ShapeError, SolsurfError
from .fieldio import (load_json, save_json, save_mesh_csv, save_scalars_csv,
                      save_series_csv)
from .fixtures import (cylinder_patch, plane_patch, random_ct,
                       random_smooth_spin, sphere_ct, sphere_frame_series,
                       sphere_gc, sphere_patch, traveling_circle)
from .frames import compatibility_residual, torsion_transport_residual
from .gauss_codazzi import gc_residual, metric_residual
from .lax import build_lax, zero_curvature_residual
from .numgrid import BOUNDARIES, Grid1D, Grid2D, diff_x, fit_order
from .spin import SpinField, ct_from_spin_series, evolve_series
from .surface import export_obj, mesh_curvatures, mesh_forms, reconstruct

ORDER_MIN = 1.7
RESIDUAL_FLOOR = 1e-11

SPIN_SCENARIOS = ("traveling_circle", "random_smooth")
SCENARIOS = ("traveling_circle", "random_smooth", "sphere", "random_ct",
             "plane", "cylinder")


def _numbered(residuals) -> dict:
    return {f"r{i + 1}": r for i, r in enumerate(residuals)}


# which -> (source it reads, residual).  A residual returns its named fields
# and, for the surface source (data, closed-form derivatives), also the
# residuals computed with the closed-form derivatives.
RESIDUALS = {
    "compat": ("ct", lambda ct: (_numbered(compatibility_residual(ct)), None)),
    "gc": ("surface", lambda s: (_numbered(gc_residual(s[0])), gc_residual(*s))),
    "metric": ("surface",
               lambda s: (_numbered(metric_residual(s[0])), metric_residual(*s))),
    "lax": ("ct", lambda ct: (
        {"lax_frobenius": zero_curvature_residual(build_lax(ct))}, None)),
    "torsion": ("frame", lambda fr: (
        {"torsion_residual": torsion_transport_residual(*fr)}, None)),
}
WHICH_CANONICAL = tuple(RESIDUALS)
WHICH_ALIASES = {"m0": "torsion"}
THRESHOLD_DEFAULTS = {"gc": 1e-6, "metric": 1e-6, "compat": 1e-2,
                      "lax": 1e-2, "torsion": 1e-2}

FORMATS = ("csv", "json", "obj")

DEFAULTS = {
    "scenario": "traveling_circle", "x0": 0.0, "dx": None, "n": 129,
    "boundary": "periodic", "t0": 0.0, "dt": None, "steps": 64, "seed": 0,
    "k_min": 1e-8, "clamp_slack": 1e-12, "renorm": True,
    "formats": ["csv", "json", "obj"], "which": "compat",
    "threshold": None, "levels": 3, "params": {}, "ic": None,
}

SCENARIO_DEFAULTS = {
    "traveling_circle": {"n": 129, "boundary": "periodic", "steps": 64,
                         "params": {"k": 1.0}},
    # Open boundary: a generic closed curve cannot satisfy the periodic
    # closure of the marched constraint field, so the anchored march would
    # leave a seam at the wrap.  Torsion transport is the default check
    # because it never differentiates the marched u in x.
    "random_smooth": {"n": 129, "boundary": "one_sided", "steps": 64,
                      "seed": 1, "which": "torsion", "params": {}},
    "sphere": {"n": 65, "boundary": "one_sided", "x0": 0.0,
               "dx": math.pi / 64, "t0": 0.3, "dt": (math.pi - 0.6) / 64,
               "steps": 64, "params": {"radius": 1.0}},
    "random_ct": {"n": 65, "boundary": "one_sided", "x0": 0.0,
                  "dx": 2 * math.pi / 64, "t0": 0.0, "dt": 2 * math.pi / 64,
                  "steps": 64, "params": {"amplitude": 0.5}},
    "plane": {"n": 33, "boundary": "one_sided", "x0": 0.0, "dx": 1.0 / 32,
              "t0": 0.0, "dt": 1.0 / 32, "steps": 32, "params": {}},
    "cylinder": {"n": 33, "boundary": "one_sided", "x0": 0.0, "dx": 1.0 / 32,
                 "t0": 0.0, "dt": 2 * math.pi / 64, "steps": 64,
                 "params": {"radius": 1.0}},
}

SCENARIO_PARAMS = {
    "traveling_circle": {"k"},
    "random_smooth": {"seed", "n_modes", "theta_amp", "v_amp", "winding"},
    "sphere": {"radius"},
    "random_ct": {"seed", "amplitude"},
    "plane": set(),
    "cylinder": {"radius"},
}

KNOWN_CONFIG_KEYS = frozenset(DEFAULTS) | {"out"}


@dataclasses.dataclass
class RunConfig:
    scenario: str
    x0: float
    dx: float
    n: int
    boundary: str
    t0: float
    dt: float
    steps: int
    seed: int
    k_min: float
    clamp_slack: float
    renorm: bool
    formats: list
    which: str
    threshold: float | None
    levels: int
    params: dict
    ic: str | None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _as_int(value, name, violations):
    if isinstance(value, bool):
        violations.append(f"{name} must be an integer, got {value!r}")
        return 0
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, float) and float(value).is_integer():
        return int(value)
    violations.append(f"{name} must be an integer, got {value!r}")
    return 0


def _as_float(value, name, violations):
    if isinstance(value, (bool, str)):
        violations.append(f"{name} must be a number, got {value!r}")
        return 0.0
    try:
        out = float(value)
    except (TypeError, ValueError):
        violations.append(f"{name} must be a number, got {value!r}")
        return 0.0
    if not math.isfinite(out):
        violations.append(f"{name} must be finite, got {value!r}")
        return 0.0
    return out


def resolve_config(file_cfg: dict, flag_cfg: dict) -> RunConfig:
    """Merge default, scenario, file, and flag layers into a RunConfig.

    Unknown config-file keys and unknown scenario parameters are errors; all
    violations are reported together in one message.
    """
    unknown = sorted(set(file_cfg) - KNOWN_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    scenario = flag_cfg.get("scenario", file_cfg.get("scenario",
                                                     DEFAULTS["scenario"]))
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}")
    merged = dict(DEFAULTS)
    params = dict(DEFAULTS["params"])
    for layer in (SCENARIO_DEFAULTS[scenario], file_cfg, flag_cfg):
        layer = dict(layer)
        layer.pop("out", None)
        extra = layer.pop("params", {})
        if not isinstance(extra, dict):
            raise ConfigError("params must be an object of key/value pairs")
        params.update(extra)
        merged.update(layer)
    merged["scenario"] = scenario
    merged["params"] = params

    violations = []
    merged["n"] = _as_int(merged["n"], "n", violations)
    merged["steps"] = _as_int(merged["steps"], "steps", violations)
    merged["levels"] = _as_int(merged["levels"], "levels", violations)
    merged["seed"] = _as_int(merged["seed"], "seed", violations)
    merged["x0"] = _as_float(merged["x0"], "x0", violations)
    merged["t0"] = _as_float(merged["t0"], "t0", violations)
    if merged["n"] < 2:
        violations.append(f"n must be >= 2, got {merged['n']}")
    if merged["steps"] < 0:
        violations.append(f"steps must be >= 0, got {merged['steps']}")
    if merged["levels"] < 2:
        violations.append(f"levels must be >= 2, got {merged['levels']}")
    if merged["dx"] is None:
        merged["dx"] = 2.0 * math.pi / max(merged["n"] - 1, 1)
    merged["dx"] = _as_float(merged["dx"], "dx", violations)
    if merged["dx"] <= 0:
        violations.append(f"dx must be > 0, got {merged['dx']}")
    if merged["dt"] is None:
        merged["dt"] = merged["dx"] / 4.0
    merged["dt"] = _as_float(merged["dt"], "dt", violations)
    if merged["dt"] < 0:
        violations.append(f"dt must be >= 0, got {merged['dt']}")
    if merged["boundary"] not in BOUNDARIES:
        violations.append(f"boundary must be one of {BOUNDARIES}, "
                          f"got {merged['boundary']!r}")
    for name in ("k_min", "clamp_slack"):
        merged[name] = _as_float(merged[name], name, violations)
        if merged[name] <= 0:
            violations.append(f"{name} must be > 0, got {merged[name]}")
    if not isinstance(merged["renorm"], bool):
        violations.append(f"renorm must be true or false, got {merged['renorm']!r}")
    formats = merged["formats"]
    if (not isinstance(formats, (list, tuple)) or not formats
            or any(f not in FORMATS for f in formats)):
        violations.append(f"formats must be a non-empty subset of {FORMATS}")
    else:
        merged["formats"] = sorted(set(formats))
    which = WHICH_ALIASES.get(merged["which"], merged["which"])
    if which not in WHICH_CANONICAL:
        violations.append(f"which must be one of {WHICH_CANONICAL}, "
                          f"got {merged['which']!r}")
    merged["which"] = which
    if merged["threshold"] is not None:
        merged["threshold"] = _as_float(merged["threshold"], "threshold",
                                        violations)
        if merged["threshold"] <= 0:
            violations.append("threshold must be > 0")
    if merged["ic"] is not None and not isinstance(merged["ic"], str):
        violations.append("ic must be a file path string")
    bad_params = sorted(set(merged["params"]) - SCENARIO_PARAMS[scenario])
    if bad_params:
        violations.append(f"unknown parameters for scenario {scenario!r}: "
                          f"{', '.join(bad_params)}")
    if violations:
        raise ConfigError("invalid config: " + "; ".join(violations))
    return RunConfig(**merged)


def _level_sizes(cfg: RunConfig, level: int):
    scale = 2 ** level
    return ((cfg.n - 1) * scale + 1, cfg.dx / scale, cfg.dt / scale,
            cfg.steps * scale)


def _grid1(cfg: RunConfig, level: int = 0) -> Grid1D:
    n, dx, _, _ = _level_sizes(cfg, level)
    return Grid1D(cfg.x0, dx, n, cfg.boundary)


def _grid2(cfg: RunConfig, level: int = 0) -> Grid2D:
    n, dx, dt, steps = _level_sizes(cfg, level)
    if steps < 1:
        raise ConfigError("steps must be >= 1 to build a 2-D grid")
    if dt <= 0:
        raise ConfigError("dt must be > 0 to build a 2-D grid")
    return Grid2D(Grid1D(cfg.x0, dx, n, cfg.boundary),
                  Grid1D(cfg.t0, dt, steps + 1, "one_sided"))


def _build_ic(cfg: RunConfig, grid: Grid1D) -> SpinField:
    p = cfg.params
    if cfg.scenario == "traveling_circle":
        return traveling_circle(grid, w=float(p.get("k", 1.0)))
    if cfg.scenario == "random_smooth":
        return random_smooth_spin(
            grid, seed=int(p.get("seed", cfg.seed)),
            n_modes=int(p.get("n_modes", 3)),
            theta_amp=float(p.get("theta_amp", 0.1)),
            v_amp=float(p.get("v_amp", 0.0)),
            winding=int(p.get("winding", 1)))
    raise ConfigError(f"scenario {cfg.scenario!r} has no spin initial condition")


def _initial_state(cfg: RunConfig) -> SpinField:
    """The --ic document if given, else the scenario's initial condition."""
    if cfg.ic is None:
        return _build_ic(cfg, _grid1(cfg))
    obj = load_json(cfg.ic)
    if not isinstance(obj, SpinField):
        raise ConfigError(f"{cfg.ic} does not hold a spin_field document")
    return obj


def _max_abs(*fields) -> float:
    return float(max(np.max(np.abs(f)) for f in fields))


def _spin_level(cfg: RunConfig, level: int):
    if cfg.ic is not None:
        raise ConfigError(
            "check rebuilds fields at several resolutions; --ic is only "
            "supported by simulate and surface")
    _, _, dt, steps = _level_sizes(cfg, level)
    if steps < 1:
        raise ConfigError("check needs steps >= 1")
    ic = _build_ic(cfg, _grid1(cfg, level))
    series = evolve_series(ic, dt, steps, renorm=cfg.renorm,
                           k_min=cfg.k_min, clamp_slack=cfg.clamp_slack)
    g2 = series.grid2
    return g2, {
        "ct": lambda: ct_from_spin_series(series, k_min=cfg.k_min,
                                          clamp_slack=cfg.clamp_slack),
        "frame": lambda: (series.S, series.v, g2),
    }


def _sphere_level(cfg: RunConfig, level: int):
    g2 = _grid2(cfg, level)

    def frame():
        frames, ct = sphere_frame_series(g2)
        return frames[..., 0, :], ct.tau, g2

    radius = float(cfg.params.get("radius", 1.0))
    return g2, {"ct": lambda: sphere_ct(g2), "frame": frame,
                "surface": lambda: sphere_gc(g2, radius)}


def _random_ct_level(cfg: RunConfig, level: int):
    g2 = _grid2(cfg, level)
    return g2, {"ct": lambda: random_ct(
        g2, seed=int(cfg.params.get("seed", cfg.seed)),
        amplitude=float(cfg.params.get("amplitude", 0.5)))}


# scenario -> builder of one level's source data: (grid, {name: thunk}).
# The thunks keep each source lazy, so a check builds only what it reads.
LEVEL_SOURCES = {"traveling_circle": _spin_level, "random_smooth": _spin_level,
                 "sphere": _sphere_level, "random_ct": _random_ct_level}


def _eval_level(cfg: RunConfig, which: str, level: int):
    if cfg.scenario not in LEVEL_SOURCES:
        raise ConfigError(
            f"scenario {cfg.scenario!r} has no residual checks; use one of "
            f"{tuple(LEVEL_SOURCES)}")
    source, residual = RESIDUALS[which]
    g2, sources = LEVEL_SOURCES[cfg.scenario](cfg, level)
    if source not in sources:
        raise ConfigError(
            f"which={which!r} is not defined for scenario {cfg.scenario!r}")
    fields, analytic = residual(sources[source]())
    n, dx, dt, steps = _level_sizes(cfg, level)
    numeric = _max_abs(*fields.values())
    report = {"n": n, "dx": dx, "dt": dt, "steps": steps,
              "residual": numeric, "residual_numeric": numeric}
    if analytic is not None:
        report["residual"] = report["residual_analytic"] = _max_abs(*analytic)
    return report, fields, g2


def _json_number(x: float):
    return float(x) if math.isfinite(x) else None


def _run_study(cfg: RunConfig, out_dir: str, command: str, n_levels: int) -> int:
    which = cfg.which
    threshold = (cfg.threshold if cfg.threshold is not None
                 else THRESHOLD_DEFAULTS[which])
    reports = []
    for level in range(n_levels):
        report, fields, g2 = _eval_level(cfg, which, level)
        reports.append(report)
    hs = [r["dx"] for r in reports]
    numerics = [r["residual_numeric"] for r in reports]
    order = fit_order(hs, numerics, floor=RESIDUAL_FLOOR)
    superconvergent = math.isinf(order)
    pass_order = order >= ORDER_MIN
    finest = reports[-1]["residual"]
    pass_residual = finest <= threshold
    ok = pass_order and pass_residual
    summary = {
        "command": command,
        "version": __version__,
        "config": cfg.as_dict(),
        "out": out_dir,
        "which": which,
        "threshold": threshold,
        "order_required": ORDER_MIN,
        "order": _json_number(order),
        "superconvergent": superconvergent,
        "levels": reports,
        "finest_residual": finest,
        "pass_order": pass_order,
        "pass_residual": pass_residual,
        "pass": ok,
    }
    save_json(summary, os.path.join(out_dir, f"{command}_{which}.json"))
    if "csv" in cfg.formats:
        save_scalars_csv(fields, g2,
                         os.path.join(out_dir, f"residuals_{which}.csv"))
    shown = "inf" if superconvergent else f"{order:.3f}"
    print(f"{command} {which}: order={shown} finest={finest:.6e} "
          f"threshold={threshold:.1e} {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    if cfg.scenario not in SPIN_SCENARIOS and cfg.ic is None:
        raise ConfigError(
            f"simulate needs a spin scenario {SPIN_SCENARIOS} or --ic FILE")
    series = evolve_series(_initial_state(cfg), cfg.dt, cfg.steps,
                           renorm=cfg.renorm, k_min=cfg.k_min,
                           clamp_slack=cfg.clamp_slack)
    artifacts = []
    if "json" in cfg.formats:
        save_json(series, os.path.join(out_dir, "series.json"))
        artifacts.append("series.json")
    if "csv" in cfg.formats:
        save_series_csv(series, os.path.join(out_dir, "series.csv"))
        artifacts.append("series.csv")
    # Measured after the writers: freed before them, the (n, nt, 3)
    # temporaries below left the heap larger and raised simulate's peak RSS
    # by about 6% at 513 x 256.
    drift = _max_abs(np.linalg.norm(series.S, axis=-1) - 1.0)
    k = np.linalg.norm(diff_x(series.S, series.grid), axis=-1)
    rad = np.maximum(k * k - series.u ** 2, 0.0)
    u_res = _max_abs(diff_x(series.u, series.grid) - series.v * np.sqrt(rad))
    summary = {
        "command": "simulate",
        "version": __version__,
        "config": cfg.as_dict(),
        "out": out_dir,
        "final_time": float(series.times[-1]),
        "steps": cfg.steps,
        "max_sphere_drift": drift,
        "max_u_residual": u_res,
        "artifacts": artifacts + ["simulate_summary.json"],
    }
    save_json(summary, os.path.join(out_dir, "simulate_summary.json"))
    label = f"ic:{cfg.ic}" if cfg.ic is not None else cfg.scenario
    print(f"simulate {label}: final_time={summary['final_time']:.6g} "
          f"sphere_drift={drift:.3e} u_residual={u_res:.3e}")
    return 0


def cmd_surface(cfg: RunConfig, out_dir: str) -> int:
    if cfg.ic is not None or cfg.scenario in SPIN_SCENARIOS:
        if cfg.steps < 1:
            raise ConfigError("surface needs steps >= 1 to sweep a mesh")
        series = evolve_series(_initial_state(cfg), cfg.dt, cfg.steps,
                               renorm=cfg.renorm, k_min=cfg.k_min,
                               clamp_slack=cfg.clamp_slack)
        mesh = reconstruct(series)
    elif cfg.scenario == "sphere":
        mesh = sphere_patch(_grid2(cfg),
                            radius=float(cfg.params.get("radius", 1.0)))
    elif cfg.scenario == "plane":
        mesh = plane_patch(_grid2(cfg))
    elif cfg.scenario == "cylinder":
        mesh = cylinder_patch(_grid2(cfg),
                              radius=float(cfg.params.get("radius", 1.0)))
    else:
        raise ConfigError(f"scenario {cfg.scenario!r} has no surface")
    forms = mesh_forms(mesh)
    K, H = mesh_curvatures(mesh)
    degenerate = ~np.isfinite(forms.L)
    good = ~degenerate
    artifacts = []
    if "obj" in cfg.formats:
        export_obj(mesh, os.path.join(out_dir, "mesh.obj"))
        artifacts.append("mesh.obj")
    if "json" in cfg.formats:
        save_json(mesh, os.path.join(out_dir, "mesh.json"))
        artifacts.append("mesh.json")
    if "csv" in cfg.formats:
        save_mesh_csv(mesh, os.path.join(out_dir, "mesh.csv"))
        save_scalars_csv({"K": K, "H": H,
                          "degenerate": degenerate.astype(float)},
                         mesh.grid, os.path.join(out_dir, "curvature.csv"))
        artifacts.extend(["mesh.csv", "curvature.csv"])
    n_good = int(np.count_nonzero(good))
    summary = {
        "command": "surface",
        "version": __version__,
        "config": cfg.as_dict(),
        "out": out_dir,
        "n_points": int(K.size),
        "degenerate_count": int(np.count_nonzero(degenerate)),
        "K_mean": _json_number(float(np.mean(K[good]))) if n_good else None,
        "K_min": _json_number(float(np.min(K[good]))) if n_good else None,
        "K_max": _json_number(float(np.max(K[good]))) if n_good else None,
        "H_mean": _json_number(float(np.mean(H[good]))) if n_good else None,
        "artifacts": artifacts + ["surface_summary.json"],
    }
    save_json(summary, os.path.join(out_dir, "surface_summary.json"))
    print(f"surface {cfg.scenario}: points={summary['n_points']} "
          f"degenerate={summary['degenerate_count']} "
          f"K_mean={summary['K_mean']}")
    return 0


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="JSON config file")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (beats SOLSURF_OUT, which "
                             "beats the config file)")
    common.add_argument("--scenario", choices=SCENARIOS)
    common.add_argument("--param", action="append", default=None,
                        metavar="KEY=VALUE",
                        help="scenario parameter; repeatable")
    common.add_argument("--format", action="append", choices=FORMATS,
                        dest="formats", default=None,
                        help="artifact format; repeatable")
    common.add_argument("--ic", metavar="FILE",
                        help="initial spin state (spin_field JSON)")
    common.add_argument("--n", type=int, help="grid points along x")
    common.add_argument("--x0", type=float)
    common.add_argument("--dx", type=float)
    common.add_argument("--boundary", choices=BOUNDARIES)
    common.add_argument("--t0", type=float)
    common.add_argument("--dt", type=float)
    common.add_argument("--steps", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--k-min", type=float, dest="k_min")
    common.add_argument("--clamp-slack", type=float, dest="clamp_slack")
    common.add_argument("--no-renorm", action="store_const", const=False,
                        dest="renorm", default=None,
                        help="skip per-step renormalization of S")

    parser = argparse.ArgumentParser(
        prog="solsurf",
        description="spin-chain dynamics, moving frames, and surface "
                    "reconstruction on finite-difference grids")
    parser.add_argument("--version", action="version",
                        version=f"solsurf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common],
                   help="evolve a spin scenario and write the trajectory")
    for name, brief in (("check", "residual suite at two resolutions"),
                        ("convergence",
                         "residual suite at several resolutions")):
        p = sub.add_parser(name, parents=[common], help=brief)
        p.add_argument("--which",
                       choices=WHICH_CANONICAL + tuple(WHICH_ALIASES),
                       help="residual family to evaluate")
        p.add_argument("--threshold", type=float,
                       help="finest-grid residual bound")
        if name == "convergence":
            p.add_argument("--levels", type=int, help="number of refinements")
    sub.add_parser("surface", parents=[common],
                   help="reconstruct or generate a mesh with curvatures")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        file_cfg = {}
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    file_cfg = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config file {args.config}: {e}") from e
            if not isinstance(file_cfg, dict):
                raise ConfigError(
                    f"config file {args.config} must hold a JSON object")
        flag_cfg = {k: v for k, v in vars(args).items()
                    if k in DEFAULTS and v is not None}
        flag_params = _parse_params(args.param)
        if flag_params:
            flag_cfg["params"] = flag_params
        cfg = resolve_config(file_cfg, flag_cfg)
        out_dir = (args.out or os.environ.get("SOLSURF_OUT")
                   or file_cfg.get("out") or ".")
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "check":
            return _run_study(cfg, out_dir, "check", 2)
        if args.command == "convergence":
            return _run_study(cfg, out_dir, "convergence", cfg.levels)
        return cmd_surface(cfg, out_dir)
    except (ConfigError, GridError, ShapeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SolsurfError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
