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
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError, GridError, ShapeError, SolsurfError
from .fieldio import (load_json, save_json, save_mesh_csv, save_scalars_csv,
                      save_series_csv)
from .fixtures import (cylinder_patch, plane_patch, random_ct, random_smooth_spin,
                       sphere_frame_series, sphere_gc, sphere_patch, traveling_circle)
from .frames import compatibility_residual, torsion_transport_residual
from .gauss_codazzi import curvatures, gc_residual, map_gc_to_frame, metric_residual
from .lax import build_lax, zero_curvature_residual
from .numgrid import BOUNDARIES, Grid1D, Grid2D, diff_x, fit_order
from .spin import (SpinField, SpinSeries, ct_from_spin_series, evolve_levels, evolve_series,
                   u_constraint_residual)
from .surface import export_obj, mesh_forms, reconstruct, vertex_text

ORDER_MIN = 1.7
RESIDUAL_FLOOR = 1e-11
# a study reads a spin level's residuals in time windows whose owned levels'
# S, u and v hold about this many values
BLOCK_VALUES = 1 << 14


def _numbered(residuals) -> dict:
    return {f"r{i + 1}": r for i, r in enumerate(residuals)}


# which -> (source it reads, default threshold, residual).  A residual returns its
# named fields and, for the surface source, the residuals of its exact derivatives.
RESIDUALS = {
    "compat": ("ct", 1e-2, lambda ct: (_numbered(compatibility_residual(ct)), None)),
    "gc": ("surface", 1e-6, lambda s: (_numbered(gc_residual(s[0])), gc_residual(*s))),
    "metric": ("surface", 1e-6,
               lambda s: (_numbered(metric_residual(s[0])), metric_residual(*s))),
    "lax": ("ct", 1e-2, lambda ct: (
        {"lax_frobenius": zero_curvature_residual(build_lax(ct))}, None)),
    "torsion": ("frame", 1e-2, lambda fr: (
        {"torsion_residual": torsion_transport_residual(*fr)}, None)),
}

FORMATS = ("csv", "json", "obj")


# key -> (default, kind, lower bound).  _coerce checks the int and float
# keys against their bound, an (operator, limit) pair; resolve_config checks
# the other kinds.  n precedes dx and dx precedes dt, because their None
# defaults are derived in this order.
KEYS = {
    "scenario": ("traveling_circle", str, None),
    "n": (129, int, (">=", 2)),
    "x0": (0.0, float, None),
    "dx": (None, float, (">", 0)),
    "boundary": ("periodic", str, None),
    "t0": (0.0, float, None),
    "dt": (None, float, (">", 0)),
    "steps": (64, int, (">=", 0)),
    "renorm": (True, bool, None),
    "formats": (["csv", "json", "obj"], list, None),
    "which": ("compat", str, None),
    "threshold": (None, float, (">", 0)),
    "levels": (3, int, (">=", 2)),
    "params": ({}, dict, None),
    "ic": (None, str, None),
}
DERIVED = {"dx": lambda c: 2.0 * math.pi / max(c["n"] - 1, 1),
           "dt": lambda c: c["dx"] / 4.0}
KNOWN_CONFIG_KEYS = frozenset(KEYS) | {"out"}
NUMBER_FLAGS = frozenset("--" + key.replace("_", "-")
                         for key, (_, kind, _) in KEYS.items() if kind in (int, float))

RunConfig = dataclasses.make_dataclass(
    "RunConfig", [(key, kind) for key, (_, kind, _) in KEYS.items()],
    namespace={"__module__": __name__, "as_dict": dataclasses.asdict})


class Scenario(NamedTuple):
    """A scenario: its config layer and its params' (kind, bound), then its
    builders.  They get the typed params by keyword, so the fixture
    signatures hold the param defaults the config layer leaves unset.  spin
    builds the initial SpinField on a Grid1D, patch the SurfaceMesh on a
    Grid2D.  sources maps each residual source (RESIDUALS) to a builder of
    (base, params), base being a time window of the level's evolved
    SpinSeries for a spin scenario (_eval_level), else its Grid2D.
    """

    defaults: dict
    params: dict
    spin: Callable | None = None
    patch: Callable | None = None
    sources: dict = {}


SPIN_SOURCES = {
    "ct": lambda series, p: ct_from_spin_series(series),
    "frame": lambda series, p: (series.S, series.v, series.grid2),
}


def _sphere_frame(g2, p):
    frames, ct = sphere_frame_series(g2)
    return frames[..., 0, :], ct.tau, g2


SCENARIOS = {
    "traveling_circle": Scenario(
        {"n": 129, "boundary": "periodic", "steps": 64, "params": {"k": 1.0}},
        {"k": (float, None)}, spin=lambda grid, k: traveling_circle(grid, w=k),
        sources=SPIN_SOURCES),
    # Open boundary: a generic closed curve cannot satisfy the periodic
    # closure of the marched constraint field, so the anchored march would
    # leave a seam at the wrap.  Torsion transport is the default check
    # because it never differentiates the marched u in x.
    "random_smooth": Scenario(
        {"n": 129, "boundary": "one_sided", "steps": 64,
         "which": "torsion", "params": {"seed": 1}},
        {"seed": (int, (">=", 0)), "n_modes": (int, (">=", 0)),
         "theta_amp": (float, None), "v_amp": (float, None),
         "winding": (int, None)},
        spin=random_smooth_spin, sources=SPIN_SOURCES),
    "sphere": Scenario(
        {"n": 65, "boundary": "one_sided", "x0": 0.0, "dx": math.pi / 64,
         "t0": 0.3, "dt": (math.pi - 0.6) / 64, "steps": 64,
         "params": {"radius": 1.0}},
        {"radius": (float, (">", 0))}, patch=sphere_patch,
        sources={"ct": lambda g2, p: map_gc_to_frame(sphere_gc(g2)[0]),
                 "frame": _sphere_frame,
                 "surface": lambda g2, p: sphere_gc(g2, **p)}),
    "random_ct": Scenario(
        {"n": 65, "boundary": "one_sided", "x0": 0.0, "dx": 2 * math.pi / 64,
         "t0": 0.0, "dt": 2 * math.pi / 64, "steps": 64,
         "params": {"amplitude": 0.5}},
        {"seed": (int, (">=", 0)), "amplitude": (float, None)},
        sources={"ct": lambda g2, p: random_ct(g2, **p)}),
    "plane": Scenario(
        {"n": 33, "boundary": "one_sided", "x0": 0.0, "dx": 1.0 / 32,
         "t0": 0.0, "dt": 1.0 / 32, "steps": 32, "params": {}},
        {}, patch=plane_patch),
    "cylinder": Scenario(
        {"n": 33, "boundary": "one_sided", "x0": 0.0, "dx": 1.0 / 32,
         "t0": 0.0, "dt": 2 * math.pi / 64, "steps": 64,
         "params": {"radius": 1.0}},
        {"radius": (float, (">", 0))}, patch=cylinder_patch),
}


def _coerce(value, kind, bound, name, violations):
    """value as kind (int or float), checked against bound.

    bool and str are not numbers, an int must be integral and fit an int64
    (as numpy indexes), a float finite.  On a violation it is recorded and
    kind() stands in.
    """
    try:
        if isinstance(value, (bool, str)):
            raise TypeError
        out = kind(value)
        exact = (out == value and abs(out) <= sys.maxsize if kind is int
                 else math.isfinite(out))
        if not exact:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        noun = "an int64 integer" if kind is int else "a finite number"
        violations.append(f"{name} must be {noun}, got {value!r}")
        return kind()
    if bound is not None:
        op, limit = bound
        if not (out > limit if op == ">" else out >= limit):
            violations.append(f"{name} must be {op} {limit}, got {out}")
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
                                                     KEYS["scenario"][0]))
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}")
    merged = {key: spec[0] for key, spec in KEYS.items()}
    params = {}
    for layer in (SCENARIOS[scenario].defaults, file_cfg, flag_cfg):
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
    for key, (default, kind, bound) in KEYS.items():
        if merged[key] is None and key in DERIVED:
            merged[key] = DERIVED[key](merged)
        if kind in (int, float) and not (merged[key] is None and default is None):
            merged[key] = _coerce(merged[key], kind, bound, key, violations)
    if merged["boundary"] not in BOUNDARIES:
        violations.append(f"boundary must be one of {BOUNDARIES}, "
                          f"got {merged['boundary']!r}")
    if not isinstance(merged["renorm"], bool):
        violations.append(f"renorm must be true or false, got {merged['renorm']!r}")
    formats = merged["formats"]
    if (not isinstance(formats, (list, tuple)) or not formats
            or any(f not in FORMATS for f in formats)):
        violations.append(f"formats must be a non-empty subset of {FORMATS}")
    else:
        merged["formats"] = sorted(set(formats))
    if not isinstance(merged["which"], str) or merged["which"] not in RESIDUALS:
        violations.append(f"which must be one of {tuple(RESIDUALS)}, "
                          f"got {merged['which']!r}")
    if merged["ic"] is not None and not isinstance(merged["ic"], str):
        violations.append("ic must be a file path string")
    schema = SCENARIOS[scenario].params
    bad_params = sorted(set(params) - set(schema))
    if bad_params:
        violations.append(f"unknown parameters for scenario {scenario!r}: "
                          f"{', '.join(bad_params)}")
    for name in sorted(set(params) & set(schema)):
        params[name] = _coerce(params[name], *schema[name], f"param {name}", violations)
    if violations:
        raise ConfigError("invalid config: " + "; ".join(violations))
    return RunConfig(**merged)


def _level_sizes(cfg: RunConfig, level: int):
    scale = 2 ** level
    return ((cfg.n - 1) * scale + 1, cfg.dx / scale, cfg.dt / scale,
            cfg.steps * scale)


def _check_size(cfg: RunConfig, level: int) -> None:
    """ConfigError unless the level's (n, steps + 1, 3) float arrays, a run's
    largest, fit in the 2**47 bytes a 64-bit process can address."""
    # from level 64 on no n >= 2 fits, so the clamp changes no verdict
    n, _, _, steps = _level_sizes(cfg, min(level, 64))
    if 24 * n * (steps + 1) > 2 ** 47:
        raise ConfigError(f"n={cfg.n}, steps={cfg.steps} at level {level}: the (n, steps"
                          f" + 1, 3) float arrays would need more than 2**47 bytes")


def _grid2(cfg: RunConfig, level: int = 0) -> Grid2D:
    n, dx, dt, steps = _level_sizes(cfg, level)
    return Grid2D(Grid1D(cfg.x0, dx, n, cfg.boundary),
                  Grid1D(cfg.t0, dt, steps + 1, "one_sided"))


def _initial_field(cfg: RunConfig, level: int = 0) -> SpinField:
    """The --ic document, else the scenario's field at t0 on the level's x grid."""
    if cfg.ic is None:
        n, dx, _, _ = _level_sizes(cfg, level)
        field = SCENARIOS[cfg.scenario].spin(Grid1D(cfg.x0, dx, n, cfg.boundary), **cfg.params)
        field.t = cfg.t0
        return field
    field = load_json(cfg.ic)
    if not isinstance(field, SpinField):
        raise ConfigError(f"{cfg.ic} does not hold a spin_field document")
    return field


def _trajectory(cfg: RunConfig) -> SpinSeries:
    """The initial field evolved over the run's steps."""
    return evolve_series(_initial_field(cfg), cfg.dt, cfg.steps, cfg.renorm)


def _summary(command: str, cfg: RunConfig, out_dir: str, name: str, fields: dict) -> dict:
    """Write the run's header and fields to out_dir/name; return the summary."""
    summary = {"command": command, "version": __version__,
               "config": cfg.as_dict(), "out": out_dir, **fields}
    save_json(summary, os.path.join(out_dir, name))
    return summary


def _label(cfg: RunConfig) -> str:
    """What a run's stdout line names: the --ic file, else the scenario."""
    return f"ic:{cfg.ic}" if cfg.ic is not None else cfg.scenario


def _max_abs(*fields) -> float:
    return float(max(np.max(np.abs(f)) for f in fields))


def _eval_level(cfg: RunConfig, which: str, level: int):
    """The level's report, residual fields and Grid2D.

    A field scenario's fields come from its Grid2D.  A spin scenario's are
    read off the level's RK4 steps as evolve_levels makes them, one time
    window at a time.  A window owns at least two levels (a single level
    left at the end joins the window before it) and holds a halo level each
    side, so at either end it holds the three levels of the edge stencil,
    and its owned levels get the whole series' bits, copied into whole-level
    fields.  The time grid rule: a window's SpinSeries takes the level's
    first m times, not its own, as grid2 reads dt off times[1] - times[0],
    which another pair can miss in the last bit (0.1*3 - 0.1*2 != 0.1); no
    spin source reads t values.  A source's failure names a flat index into
    its window's arrays.
    """
    scenario = SCENARIOS[cfg.scenario]
    source, _, residual = RESIDUALS[which]
    n, dx, dt, steps = _level_sizes(cfg, level)
    g2 = _grid2(cfg, level)
    analytic = None
    if scenario.spin is None:
        fields, analytic = residual(scenario.sources[source](g2, cfg.params))
    else:
        nt, times = g2.gt.n, g2.gt.points()  # evolve_series' times
        # the whole-level SpinSeries' grid2, whose dt is times[1] - times[0]
        g2 = Grid2D(g2.gx, Grid1D(float(times[0]), float(times[1] - times[0]), nt))
        _, levels = evolve_levels(_initial_field(cfg, level), dt, steps, cfg.renorm)
        # windows start every rows levels, none at the last level
        edges = [*range(0, nt - 1, max(2, BLOCK_VALUES // (5 * n))), nt]
        fields, held, start = {}, [], 0  # held: the (S, u, v) levels from start
        for a, b in zip(edges, edges[1:]):
            lo, hi = max(a - 1, 0), min(b + 1, nt)
            del held[:lo - start]
            held += islice(levels, hi - lo - len(held))
            start = lo
            S, u, v = (np.stack(arrays, axis=1) for arrays in zip(*held))
            series = SpinSeries(grid=g2.gx, times=times[:len(held)], S=S, u=u, v=v)
            window_fields, _ = residual(scenario.sources[source](series, cfg.params))
            fields = fields or {name: np.empty((n, nt)) for name in window_fields}
            for name, f in window_fields.items():
                fields[name][:, a:b] = f[:, a - lo:b - lo]
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
    if cfg.ic is not None:
        raise ConfigError(
            f"{command} rebuilds fields at several resolutions; --ic is only "
            "supported by simulate and surface")
    source = RESIDUALS[which][0]
    if source not in SCENARIOS[cfg.scenario].sources:
        defined = [name for name, s in SCENARIOS.items() if source in s.sources]
        raise ConfigError(
            f"which={which!r} is not defined for scenario {cfg.scenario!r}; "
            f"it is for {', '.join(defined)}")
    if cfg.steps < 2:
        raise ConfigError(f"{command} needs steps >= 2 for its t differences, "
                          f"got {cfg.steps}")
    _check_size(cfg, n_levels - 1)
    threshold = RESIDUALS[which][1] if cfg.threshold is None else cfg.threshold
    reports = []
    for level in range(n_levels):
        report, fields, g2 = _eval_level(cfg, which, level)
        reports.append(report)
        if "csv" not in cfg.formats:  # no residuals CSV: hold no level's fields past it
            fields = None
    hs = [r["dx"] for r in reports]
    numerics = [r["residual_numeric"] for r in reports]
    order = fit_order(hs, numerics, floor=RESIDUAL_FLOOR)
    superconvergent = math.isinf(order)
    pass_order = order >= ORDER_MIN
    finest = reports[-1]["residual"]
    pass_residual = finest <= threshold
    ok = pass_order and pass_residual
    _summary(command, cfg, out_dir, f"{command}_{which}.json", {
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
    })
    if "csv" in cfg.formats:
        save_scalars_csv(fields, g2,
                         os.path.join(out_dir, f"residuals_{which}.csv"))
    shown = "inf" if superconvergent else f"{order:.3f}"
    print(f"{command} {which}: order={shown} finest={finest:.6e} "
          f"threshold={threshold:.1e} {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    if SCENARIOS[cfg.scenario].spin is None and cfg.ic is None:
        spin = [name for name, s in SCENARIOS.items() if s.spin is not None]
        raise ConfigError(
            f"simulate needs a spin scenario ({', '.join(spin)}) or --ic FILE")
    series = _trajectory(cfg)
    # Measured before the writers, and k freed before them: the writers then
    # run over the smallest heap, and simulate's peak RSS at 513 x 256 is
    # 49.4 MB, against 51.2 MB measured after them.
    drift = _max_abs(np.linalg.norm(series.S, axis=-1) - 1.0)
    k = np.linalg.norm(diff_x(series.S, series.grid), axis=-1)
    u_res = _max_abs(u_constraint_residual(k, series.u, series.v, series.grid))
    del k
    artifacts = []
    if "json" in cfg.formats:
        save_json(series, os.path.join(out_dir, "series.json"))
        artifacts.append("series.json")
    if "csv" in cfg.formats:
        save_series_csv(series, os.path.join(out_dir, "series.csv"))
        artifacts.append("series.csv")
    summary = _summary("simulate", cfg, out_dir, "simulate_summary.json", {
        "final_time": float(series.times[-1]),
        "steps": cfg.steps,
        "max_sphere_drift": _json_number(drift),
        "max_u_residual": _json_number(u_res),
        "artifacts": artifacts + ["simulate_summary.json"],
    })
    print(f"simulate {_label(cfg)}: final_time={summary['final_time']:.6g} "
          f"sphere_drift={drift:.3e} u_residual={u_res:.3e}")
    return 0


def cmd_surface(cfg: RunConfig, out_dir: str) -> int:
    scenario = SCENARIOS[cfg.scenario]
    sweep = cfg.ic is not None or scenario.spin is not None
    if not sweep and scenario.patch is None:
        raise ConfigError(f"scenario {cfg.scenario!r} has no surface")
    # a sweep's own failure, as at a dt that overflows its first step, comes first
    series = _trajectory(cfg) if sweep else None
    if cfg.steps < 3:
        raise ConfigError(f"surface needs steps >= 3 for its second t difference, "
                          f"got {cfg.steps}")
    mesh = reconstruct(series) if sweep else scenario.patch(_grid2(cfg), **cfg.params)
    del series  # not held through the forms and the writers
    forms = mesh_forms(mesh)
    K, H = curvatures(forms)
    degenerate = ~np.isfinite(forms.L)
    good = ~degenerate
    artifacts = []
    # formatted once for both mesh writers
    verts = vertex_text(mesh) if {"obj", "csv"} & set(cfg.formats) else None
    if "obj" in cfg.formats:
        export_obj(mesh, os.path.join(out_dir, "mesh.obj"), verts)
        artifacts.append("mesh.obj")
    if "json" in cfg.formats:
        save_json(mesh, os.path.join(out_dir, "mesh.json"))
        artifacts.append("mesh.json")
    if "csv" in cfg.formats:
        save_mesh_csv(mesh, os.path.join(out_dir, "mesh.csv"), verts)
        save_scalars_csv({"K": K, "H": H,
                          "degenerate": degenerate.astype(float)},
                         mesh.grid, os.path.join(out_dir, "curvature.csv"))
        artifacts.extend(["mesh.csv", "curvature.csv"])
    n_good = int(np.count_nonzero(good))
    summary = _summary("surface", cfg, out_dir, "surface_summary.json", {
        "n_points": int(K.size),
        "degenerate_count": int(np.count_nonzero(degenerate)),
        "K_mean": _json_number(float(np.mean(K[good]))) if n_good else None,
        "K_min": _json_number(float(np.min(K[good]))) if n_good else None,
        "K_max": _json_number(float(np.max(K[good]))) if n_good else None,
        "H_mean": _json_number(float(np.mean(H[good]))) if n_good else None,
        "artifacts": artifacts + ["surface_summary.json"],
    })
    print(f"surface {_label(cfg)}: points={summary['n_points']} "
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
        except RecursionError as e:
            raise ConfigError(f"--param {key}: {e}") from e
    return out


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_numbers(argv) -> list:
    """argv with a number flag's negative value attached to it, as in
    --dt=-1e-3: argparse takes a token like -1e-3 or -inf for an option."""
    out = []
    for token in argv:
        if out and out[-1] in NUMBER_FLAGS and token.startswith("-") and _is_number(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="JSON config file")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (beats SOLSURF_OUT, which "
                             "beats the config file)")
    common.add_argument("--scenario", choices=tuple(SCENARIOS))
    common.add_argument("--param", action="append", default=None,
                        metavar="KEY=VALUE",
                        help="scenario parameter; repeatable")
    common.add_argument("--format", action="append", choices=FORMATS,
                        dest="formats", default=None,
                        help="artifact format; repeatable")
    common.add_argument("--ic", metavar="FILE",
                        help="initial spin state (spin_field JSON)")
    common.add_argument("--boundary", choices=BOUNDARIES)
    for key, (_, kind, _) in KEYS.items():
        # threshold and levels are flags of check/convergence only
        if kind in (int, float) and key not in ("threshold", "levels"):
            common.add_argument("--" + key.replace("_", "-"), dest=key, type=kind)
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
        p.add_argument("--which", choices=tuple(RESIDUALS),
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
        args = parser.parse_args(_join_numbers(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        file_cfg = {}
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    file_cfg = json.load(fh)
            except (ValueError, RecursionError) as e:  # not UTF-8 or JSON, or too deep
                raise ConfigError(f"config file {args.config}: {e}") from e
            if not isinstance(file_cfg, dict):
                raise ConfigError(
                    f"config file {args.config} must hold a JSON object")
        flag_cfg = {k: v for k, v in vars(args).items()
                    if k in KEYS and v is not None}
        flag_params = _parse_params(args.param)
        if flag_params:
            flag_cfg["params"] = flag_params
        cfg = resolve_config(file_cfg, flag_cfg)
        out_dir = args.out or os.environ.get("SOLSURF_OUT") or file_cfg.get("out")
        if not isinstance(out_dir, (str, type(None))):  # a file's null out is unset
            raise ConfigError(f"invalid config: out must be a directory path, got {out_dir!r}")
        out_dir = out_dir or "."
        _check_size(cfg, 0)
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "check":
            return _run_study(cfg, out_dir, "check", 2)
        if args.command == "convergence":
            return _run_study(cfg, out_dir, "convergence", cfg.levels)
        return cmd_surface(cfg, out_dir)
    except (SolsurfError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, (ConfigError, GridError, ShapeError, OSError)) else 3


if __name__ == "__main__":
    sys.exit(main())
