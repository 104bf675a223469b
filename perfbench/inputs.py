"""Generate one workload's inputs from its seed: the benchmark's set-up step.

    python3 perfbench/inputs.py --workload NAME --seed N --dest DIR [--tiny]

Imports solsurf, writes the workload's generated inputs into DIR and prints
one JSON line naming the solsurf and numpy in use and the sha256 of every
file written.  The same seed always gives the same files.  The operations
that run.py times read nothing else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys

import numpy as np

import solsurf
from solsurf import fieldio, fixtures, spin, surface
from solsurf.cli import resolve_config
from solsurf.numgrid import Grid1D

# The marched constraint breaks down once |u| catches k (random_smooth_spin's
# docstring).  At full size every workload ends at t = pi/4.  With
# theta_amp = 0.05 none of seeds 0-39 broke down on any workload; the
# default 0.1 breaks down on about one seed in four at 513 x 256.
THETA_AMP = 0.05

SIZES = {
    # (n, steps) per operation.  dt defaults to dx/4.  The surface sweep uses
    # dx/8 so that its 256 steps also end at t = pi/4.
    "full": {"simulate": (513, 256), "surface": (257, 256),
             "convergence": (129, 64), "readings": (129, 64)},
    "tiny": {"simulate": (33, 8), "surface": (17, 8),
             "convergence": (33, 16), "readings": (129, 32)},
}
READINGS_LOOP = {"full": 8, "tiny": 2}
READINGS_FRAME_LEVELS = 9


def param_seed(workload: str, seed: int) -> int:
    """The scenario seed drawn from the workload seed."""
    return random.Random(f"{workload}:{seed}").randrange(1, 2 ** 31)


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _cli_config(command: str, n: int, steps: int, pseed: int) -> dict:
    cfg = {"scenario": "random_smooth", "n": n, "steps": steps,
           "params": {"seed": pseed, "theta_amp": THETA_AMP}}
    if command == "convergence":
        cfg.update(levels=3, formats=["json"])
    else:
        cfg["formats"] = ["csv", "json", "obj"]
    if command == "surface":
        cfg["dt"] = 2.0 * math.pi / (n - 1) / 8.0
    resolve_config(cfg, {})
    return cfg


def generate(workload: str, seed: int, dest: str, scale: str) -> list:
    sizes = SIZES[scale]
    pseed = param_seed(workload, seed)
    written = []
    if workload == "trajectory":
        commands = ("simulate", "surface")
    elif workload == "refine":
        commands = ("convergence",)
    else:
        commands = ()
    for command in commands:
        n, steps = sizes[command]
        name = f"{command}.json"
        _write_json(_cli_config(command, n, steps, pseed),
                    os.path.join(dest, name))
        written.append(name)
    if workload == "readings":
        n, steps = sizes["readings"]
        grid = Grid1D(0.0, 2.0 * math.pi / (n - 1), n, "one_sided")
        ic = fixtures.random_smooth_spin(grid, seed=pseed, theta_amp=THETA_AMP)
        series = spin.evolve_series(ic, grid.dx / 4.0, steps)
        fieldio.save_json(series, os.path.join(dest, "series.json"))
        surface.export_obj(surface.reconstruct(series),
                           os.path.join(dest, "mesh.obj"))
        rng = random.Random(f"readings-radius:{seed}")
        cfg = {"radius": round(rng.uniform(0.5, 2.0), 6),
               "loop": READINGS_LOOP[scale],
               "frame_levels": np.linspace(0, steps, READINGS_FRAME_LEVELS)
               .astype(int).tolist()}
        _write_json(cfg, os.path.join(dest, "readings.json"))
        written += ["series.json", "mesh.obj", "readings.json"]
    return written


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("trajectory", "refine", "readings"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dest", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(args.dest, exist_ok=True)
    names = generate(args.workload, args.seed, args.dest,
                     "tiny" if args.tiny else "full")
    print(json.dumps({
        "solsurf": os.path.abspath(solsurf.__file__),
        "numpy": np.__version__,
        "files": {name: _sha256(os.path.join(args.dest, name))
                  for name in names},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
