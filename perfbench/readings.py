"""One operation of the `readings` workload: read a trajectory four ways.

    python3 perfbench/readings.py INPUTS_DIR OUT_DIR

Loads the documents that perfbench/inputs.py wrote into INPUTS_DIR and reads
the trajectory as a Lax pair, as frame data, as surface data and as a swept
mesh.  It writes OUT_DIR/readings.json with each cross-check's measured value
and the number of grid cells read.  run.py judges the values.

solsurf functions are called through their modules (``lax.build_lax``), so
that the traced run's rebinding of module attributes reaches them.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from solsurf import (fieldio, fixtures, frames, gauss_codazzi, lax, spin,
                     surface)
from solsurf.numgrid import Grid1D, Grid2D


def _max_abs(*arrays) -> float:
    return max(float(np.max(np.abs(a))) for a in arrays)


def run(inputs: str, out: str) -> int:
    with open(os.path.join(inputs, "readings.json"), encoding="ascii") as fh:
        cfg = json.load(fh)
    series = fieldio.load_json(os.path.join(inputs, "series.json"))
    g2 = series.grid2
    nx, nt = g2.shape
    cells = 0

    # Lax pair against the frame compatibility residuals.
    ct = spin.ct_from_spin_series(series)
    L = lax.build_lax(ct)
    norm = lax.zero_curvature_residual(L)
    r1, r2, r3 = frames.compatibility_residual(ct)
    expected = np.sqrt((r1 ** 2 + r2 ** 2 + r3 ** 2) / 2.0)
    lax_identity = _max_abs(norm - expected) / max(_max_abs(expected), 1e-300)
    phi = lax.eigenfunction_field(L, np.eye(2, dtype=complex))
    size = int(cfg["loop"])
    defects = [lax.holonomy_defect(L, corner=(ix, it), sizes=(size, size))
               for ix in range(0, nx - size, size)
               for it in range(0, nt - size, size)]
    torsion = frames.torsion_transport_residual(series.S, series.v, g2)
    cells += 5 * nx * nt   # ct, lax, zero curvature, compatibility, torsion
    cells += phi.phi.shape[0] * phi.phi.shape[1]

    # Frame transport along x at several time levels.
    drift = 0.0
    for j in cfg["frame_levels"]:
        f = spin.build_frame(series.slice(int(j)))
        state = frames.transport_frame_x(f.triad(0), f.k, f.tau, series.grid,
                                         reorthonormalize=False)
        drift = max(drift, float(np.max(state.gram_drift)))
        cells += nx

    # Surface data of a sphere band on a grid of the trajectory's shape.
    radius = float(cfg["radius"])
    band = Grid2D(Grid1D(0.0, math.pi / (nx - 1), nx, "one_sided"),
                  Grid1D(0.3, (math.pi - 0.6) / (nt - 1), nt, "one_sided"))
    data, exact = fixtures.sphere_gc(band, radius)
    gc_numeric = _max_abs(*gauss_codazzi.gc_residual(data),
                          *gauss_codazzi.metric_residual(data))
    gc_analytic = _max_abs(*gauss_codazzi.gc_residual(data, derivs=exact),
                           *gauss_codazzi.metric_residual(data, derivs=exact))
    back = gauss_codazzi.map_frame_to_gc(
        gauss_codazzi.map_gc_to_frame(data), data.tpsi1, data.tpsi2,
        metric_derivs=(exact.tpsi1_x, exact.tpsi2_t))
    round_trip = _max_abs(*(getattr(back, name) - getattr(data, name)
                            for name in ("psi1", "psi2", "tpsi1", "tpsi2",
                                         "p", "q")))
    K, _ = gauss_codazzi.curvatures(gauss_codazzi.fundamental_forms(data))
    sphere_k_analytic = _max_abs(K * radius ** 2 - 1.0)
    K_mesh, _ = surface.mesh_curvatures(fixtures.sphere_patch(band, radius))
    sphere_k_mesh = float(np.mean(np.abs(K_mesh * radius ** 2 - 1.0)))
    cells += 5 * nx * nt   # gc, metric, map round trip, forms, sphere mesh

    # Swept mesh: forms, curvatures and the OBJ written at set-up.
    mesh = surface.reconstruct(series)
    forms = surface.mesh_forms(mesh)
    K_swept, H_swept = surface.mesh_curvatures(mesh)
    imported = surface.import_obj(os.path.join(inputs, "mesh.obj"), grid=g2)
    obj_round_trip = _max_abs(imported.r - mesh.r)
    good = np.isfinite(forms.L)
    cells += 3 * nx * nt   # mesh, forms, curvatures

    result = {
        "kind": "readings",
        "shape": [nx, nt],
        "cells": cells,
        "lax_identity_rel": lax_identity,
        "lax_residual_max": _max_abs(norm),
        "holonomy_loops": len(defects),
        "holonomy_defect_max": max(defects),
        "eigenfunction_det_dev": _max_abs(np.abs(np.linalg.det(phi.phi)) - 1.0),
        "torsion_residual_max": _max_abs(torsion),
        "gram_drift_max": drift,
        "gc_residual_numeric": gc_numeric,
        "gc_residual_analytic": gc_analytic,
        "gc_round_trip_max": round_trip,
        "sphere_k_analytic_rel": sphere_k_analytic,
        "sphere_k_mesh_rel": sphere_k_mesh,
        "swept_K_mean": float(np.mean(K_swept[good])),
        "swept_H_mean": float(np.mean(H_swept[good])),
        "obj_round_trip_max": obj_round_trip,
    }
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "readings.json"), "w", encoding="ascii") as fh:
        json.dump(result, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: readings.py INPUTS_DIR OUT_DIR")
    sys.exit(run(sys.argv[1], sys.argv[2]))
