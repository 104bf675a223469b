"""solsurf benchmark runner: one workload, closed loop, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds nothing: the children import
solsurf from ./src.  Set-up runs perfbench/inputs.py several times, each in
a fresh interpreter, and reports the median as ``setup_s``.  The loop then
runs one unit of the workload at a time (one client, one operation at a
time; every CLI operation is its own ``python -m solsurf`` process with
BLAS/OpenMP threads pinned to 1) until about S seconds are spent.  Every
output is checked; a failed check counts the operation as failed.

Every process runs on one vCPU, beside perfbench/probe.py, which times a
small fixed chunk of work every 20 ms.  Times are reported at the reference
speed: each process's wall and CPU seconds are scaled by PROBE_REF_S over
the probe's mean chunk time during that process.  A shared host slows a
vCPU by up to about 1.6x for seconds to minutes at a time; the scaling
takes that out, and a change to solsurf still moves the scaled times one
for one.  Raw seconds are printed beside them.  perfbench/README.md,
"Reference speed", says what the scaling leaves in.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced units and prints the per-layer metrics read from the spans of
perfbench/traced.py.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  All files go under
.perfbench_work/ in the current directory; .perfbench_work/result.json keeps
the host record, every sample and every artifact digest of the last run.
See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"
PY = sys.executable

SETUP_REPS = 7
PROBE_PERIOD_S = 0.02
# The probe chunk's mean time on an uncontended vCPU of the host the
# benchmark was written on (Intel Xeon KVM guest, Python 3.11.7, numpy
# 2.4.6).  It only sets the scale: a time reported as 1 s took 1 s there.
PROBE_REF_S = 0.4e-3
PROBE_KEEP = 0.95         # share of an interval's chunks kept, fastest first
STOP_SLACK = 1.1          # a run may overrun --seconds by this factor
RUN_LIMIT_S = 170.0       # every process is killed after this much time
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOADS = {
    "trajectory": ("simulate", "surface"),
    "refine": ("convergence",),
    "readings": ("readings",),
}
ARTIFACTS = {
    "simulate": ("series.csv", "series.json", "simulate_summary.json"),
    "surface": ("curvature.csv", "mesh.csv", "mesh.json", "mesh.obj",
                "surface_summary.json"),
    "convergence": ("convergence_torsion.json",),
    "readings": ("readings.json",),
}
MAX_SPHERE_DRIFT = 1e-12
ORDER_MIN = 1.7
READINGS_LIMITS = {          # value must be <= limit
    "lax_identity_rel": 1e-10,
    "gc_round_trip_max": 0.0,
    "obj_round_trip_max": 0.0,
    "gc_residual_analytic": 1e-10,
    "gram_drift_max": 1e-6,
    "sphere_k_analytic_rel": 1e-12,
    "sphere_k_mesh_rel": 1e-2,
}

E2E_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s",
             "cells_per_s": "cells/s", "peak_rss_mb": "MB"}
# Per-layer metric -> (unit, how it is read from the aggregated spans).
# ("fn", name, field) reads one function; ("via", name, site, field) reads
# the calls made through one module's binding; ("layer", layer, field) sums
# a layer.
LAYER_METRICS = {
    "spin.solve_u_constraint.calls": ("count", ("fn", "spin.solve_u_constraint", "calls")),
    "spin.solve_u_constraint.s": ("s", ("fn", "spin.solve_u_constraint", "s")),
    "spin.solve_u_constraint.us_per_point": ("us", ("per_point", "spin.solve_u_constraint")),
    "spin.evolve_series.s": ("s", ("fn", "spin.evolve_series", "s")),
    "spin.ct_from_spin_series.s": ("s", ("fn", "spin.ct_from_spin_series", "s")),
    "numgrid.step_rk4.calls": ("count", ("fn", "numgrid.step_rk4", "calls")),
    "numgrid.step_rk4.self_s": ("s", ("fn", "numgrid.step_rk4", "self_s")),
    "numgrid.diff_x.calls": ("count", ("fn", "numgrid.diff_x", "calls")),
    "numgrid.diff_x.s": ("s", ("fn", "numgrid.diff_x", "s")),
    "numgrid.diff_t.calls": ("count", ("fn", "numgrid.diff_t", "calls")),
    "numgrid.diff_t.s": ("s", ("fn", "numgrid.diff_t", "s")),
    "numgrid.integrate_x.s": ("s", ("fn", "numgrid.integrate_x", "s")),
    "fieldio.save_json.s": ("s", ("fn", "fieldio.save_json", "s")),
    "fieldio.save_json.bytes": ("B", ("fn", "fieldio.save_json", "qty")),
    "fieldio.save_series_csv.s": ("s", ("fn", "fieldio.save_series_csv", "s")),
    "fieldio.save_mesh_csv.s": ("s", ("fn", "fieldio.save_mesh_csv", "s")),
    "fieldio.save_scalars_csv.s": ("s", ("fn", "fieldio.save_scalars_csv", "s")),
    "fieldio.write_mb_per_s": ("MB/s", ("rate", "fieldio.save_")),
    "fieldio.load_json.s": ("s", ("fn", "fieldio.load_json", "s")),
    "fieldio.read_mb_per_s": ("MB/s", ("rate", "fieldio.load_")),
    "surface.export_obj.s": ("s", ("fn", "surface.export_obj", "s")),
    "surface.export_obj.bytes": ("B", ("fn", "surface.export_obj", "qty")),
    "surface.faces.s": ("s", ("fn", "surface.SurfaceMesh.faces", "s")),
    "surface.import_obj.s": ("s", ("fn", "surface.import_obj", "s")),
    "surface.reconstruct.s": ("s", ("fn", "surface.reconstruct", "s")),
    "surface.mesh_forms.s": ("s", ("fn", "surface.mesh_forms", "s")),
    "surface.mesh_curvatures.s": ("s", ("fn", "surface.mesh_curvatures", "s")),
    "lax.eigenfunction_field.s": ("s", ("fn", "lax.eigenfunction_field", "s")),
    "lax.step_rk4.calls": ("count", ("via", "numgrid.step_rk4", "lax", "calls")),
    "lax.holonomy_defect.s": ("s", ("fn", "lax.holonomy_defect", "s")),
    "lax.zero_curvature_residual.s": ("s", ("fn", "lax.zero_curvature_residual", "s")),
    "lax.build_lax.s": ("s", ("fn", "lax.build_lax", "s")),
    "frames.transport_frame_x.s": ("s", ("fn", "frames.transport_frame_x", "s")),
    "frames.gram_drift_max": ("1", ("result", "gram_drift_max")),
    "frames.compatibility_residual.s": ("s", ("fn", "frames.compatibility_residual", "s")),
    "frames.torsion_transport_residual.s": ("s", ("fn", "frames.torsion_transport_residual", "s")),
    "gauss_codazzi.gc_residual.s": ("s", ("fn", "gauss_codazzi.gc_residual", "s")),
    "gauss_codazzi.metric_residual.s": ("s", ("fn", "gauss_codazzi.metric_residual", "s")),
    "gauss_codazzi.map_gc_to_frame.s": ("s", ("fn", "gauss_codazzi.map_gc_to_frame", "s")),
    "gauss_codazzi.map_frame_to_gc.s": ("s", ("fn", "gauss_codazzi.map_frame_to_gc", "s")),
    "gauss_codazzi.curvatures.s": ("s", ("fn", "gauss_codazzi.curvatures", "s")),
    "fixtures.s": ("s", ("layer", "fixtures", "s")),
    "cli.main.s": ("s", ("fn", "cli.main", "s")),
    "cli.self_s": ("s", ("layer", "cli", "self_s")),
    "cli.resolve_config.s": ("s", ("fn", "cli.resolve_config", "s")),
    "bench.startup_s": ("s", ("startup",)),
}
BENCH_METRICS = {"golden_mismatch": "count", "artifact_bytes": "B",
                 "trace_overhead_s": "s", "trace_run_s": "s",
                 "fail_share": "1", "host.slowdown": "1", "raw_run_s": "s"}
# Per-layer units whose values are scaled to the reference speed.
SCALED_UNITS = {"s": -1, "us": -1, "MB/s": 1}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------- host ----

def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except OSError:
        return ""


def load_sample() -> dict:
    """/proc/loadavg and the machine's steal ticks, read only."""
    cpu = _read("/proc/stat").split("\n", 1)[0].split()
    return {"time": time.time(), "loadavg": _read("/proc/loadavg").strip(),
            "steal_ticks": int(cpu[8]) if len(cpu) > 8 else None}


def host_record(numpy_version: str, cpus: set) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"cpu_model": model, "nproc": os.cpu_count(),
            "affinity": len(cpus), "pinned_cpu": min(cpus),
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform()}


# ---------------------------------------------------------------- probe ----

class Probe:
    """perfbench/probe.py on this process's vCPU, for the whole run."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([PY, str(HERE / "probe.py"),
                                      str(PROBE_PERIOD_S)], cwd=WORK, env=env,
                                     stdout=subprocess.PIPE, text=True)
        self.samples = []
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise BenchError("the contention probe did not start")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.samples = [tuple(map(float, line.split()))
                        for line in out.splitlines()]

    def slowdown(self, start: float, end: float) -> float:
        """Mean chunk time within [start, end] over PROBE_REF_S.

        The slowest 5% of chunks are dropped: there the probe waited for
        the CPU rather than ran slowly.
        """
        inside = sorted(e - s for s, e in self.samples if s >= start and e <= end)
        if not inside:
            raise BenchError(f"the contention probe ran no chunk in a "
                             f"{end - start:.3f} s process")
        kept = inside[:max(1, int(len(inside) * PROBE_KEEP))]
        return statistics.fmean(kept) / PROBE_REF_S


def apply_slowdown(probe: Probe, records) -> None:
    """Add each process record's slowdown and its reference-speed times."""
    for rec in records:
        rec["slowdown"] = probe.slowdown(rec["start"], rec["start"] + rec["wall_s"])
        rec["ref_wall_s"] = rec["wall_s"] / rec["slowdown"]
        rec["ref_cpu_s"] = rec["cpu_s"] / rec["slowdown"]


# ------------------------------------------------------------ processes ----

def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env.pop("SOLSURF_OUT", None)
    return env


def run_process(argv, log: Path, deadline: float, env: dict) -> dict:
    """Run argv in WORK and wait for it; wall, CPU and peak RSS of the child."""
    with open(log.with_suffix(".out"), "wb") as out, \
            open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "start": t0, "wall_s": t1 - t0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}


# --------------------------------------------------------------- set-up ----

def setup(workload: str, seed: int, tiny: bool, deadline: float, env: dict):
    """Generate the inputs SETUP_REPS times; the process records and inputs."""
    recs, info = [], None
    for rep in range(SETUP_REPS):
        dest = WORK / f"setup{rep}"
        argv = [PY, str(HERE / "inputs.py"), "--workload", workload,
                "--seed", str(seed), "--dest", dest.name]
        if tiny:
            argv.append("--tiny")
        log = WORK / "logs" / f"setup{rep}"
        rec = run_process(argv, log, deadline, env)
        if rec["rc"] != 0:
            raise BenchError(f"set-up exited {rec['rc']}; see {log}.err")
        out = json.loads(log.with_suffix(".out").read_text().splitlines()[-1])
        if not Path(out["solsurf"]).is_relative_to(SRC):
            raise BenchError(f"children import solsurf from {out['solsurf']}, "
                             f"not from {SRC}")
        if info is not None and out["files"] != info["files"]:
            raise BenchError("set-up wrote different inputs for one seed")
        info = out
        recs.append(rec)
    (WORK / "setup0").rename(WORK / "inputs")
    for rep in range(1, SETUP_REPS):
        shutil.rmtree(WORK / f"setup{rep}")
    return recs, info


# ----------------------------------------------------------- operations ----

def op_argv(op: str, traced: bool, spans: str) -> list:
    if op == "readings":
        args = ["inputs", "out/readings"]
        plain = [PY, str(HERE / "readings.py")]
    else:
        args = [op, "--config", f"inputs/{op}.json", "--out", f"out/{op}"]
        plain = [PY, "-m", "solsurf"]
    if not traced:
        return plain + args
    return ([PY, str(HERE / "traced.py"), "--spans", spans]
            + (["--readings"] if op == "readings" else []) + ["--"] + args)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def check_op(op: str, out_dir: Path):
    """(failure or None, facts) for one operation's artifacts.

    facts: cells computed, the step count of every evolve, the readings
    result, the artifact digests and their total size.
    """
    facts = {"cells": 0, "evolves": [], "result": {}, "digests": {}, "bytes": 0}
    present = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    for name in present:
        data = (out_dir / name).read_bytes()
        facts["digests"][name] = hashlib.sha256(data).hexdigest()
        facts["bytes"] += len(data)
    missing = [name for name in ARTIFACTS[op] if name not in present]
    if missing:
        return f"missing artifacts {missing}", facts
    docs = {}
    for name in present:
        if name.endswith(".json"):
            try:
                docs[name] = json.loads((out_dir / name).read_text("ascii"),
                                        parse_constant=_reject_constant)
            except ValueError as e:
                return f"{name} is not strict JSON: {e}", facts
    try:
        return check_summary(op, docs, facts), facts
    except (KeyError, TypeError) as e:
        return f"summary does not hold {e}", facts


def check_summary(op: str, docs: dict, facts: dict):
    """Failure or None from an operation's summary; fills facts."""
    if op == "simulate":
        doc = docs["simulate_summary.json"]
        facts["cells"] = doc["config"]["n"] * (doc["steps"] + 1)
        facts["evolves"] = [doc["steps"]]
        if not doc["max_sphere_drift"] <= MAX_SPHERE_DRIFT:
            return f"max_sphere_drift {doc['max_sphere_drift']}"
    elif op == "surface":
        doc = docs["surface_summary.json"]
        facts["cells"] = doc["n_points"]
        facts["evolves"] = [doc["config"]["steps"]]
        for key in ("K_mean", "H_mean"):
            if not isinstance(doc[key], float) or not math.isfinite(doc[key]):
                return f"{key} is {doc[key]!r}"
    elif op == "convergence":
        doc = docs["convergence_torsion.json"]
        facts["cells"] = sum(lv["n"] * (lv["steps"] + 1) for lv in doc["levels"])
        facts["evolves"] = [lv["steps"] for lv in doc["levels"]]
        if not doc["pass"] or doc["order"] is None or doc["order"] < ORDER_MIN:
            return f"verdict pass={doc['pass']} order={doc['order']}"
    else:
        doc = docs["readings.json"]
        facts["cells"] = doc["cells"]
        facts["result"] = doc
        for key, limit in READINGS_LIMITS.items():
            if not doc[key] <= limit:
                return f"{key} = {doc[key]!r} > {limit}"
    return None


def run_op(op: str, traced: bool, tag: str, deadline: float, env: dict) -> dict:
    out_dir = WORK / "out" / op
    shutil.rmtree(out_dir, ignore_errors=True)
    spans = f"spans/{tag}.json"
    argv = op_argv(op, traced, spans)
    rec = run_process(argv, WORK / "logs" / tag, deadline, env)
    rec.update(op=op, traced=traced, tag=tag, argv=argv, cwd=str(WORK))
    failure, facts = check_op(op, out_dir)
    if rec["rc"] != 0:
        failure = f"exit code {rec['rc']}; see logs/{tag}.err"
    rec.update(facts, failure=failure)
    if traced:
        rec["spans"] = spans
    return rec


# -------------------------------------------------------------- tracing ----

def aggregate_spans(path: Path, op_start: float, op_wall: float):
    """Per-function and per-layer totals of one traced operation.

    "s" counts a span only when no enclosing span has the same name (or,
    for a layer, the same layer), so recursion is not counted twice.
    Returns (per-function stats, per-layer stats, problems found).
    """
    trace = json.loads(path.read_text())
    sites, spans = trace["sites"], trace["spans"]
    names = [sites[s[0]][0] for s in spans]
    layers = [name.partition(".")[0] for name in names]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[3] - s[2]
    fn = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "qty": 0})
    layer = defaultdict(lambda: {"s": 0.0, "self_s": 0.0})
    for i, (site, parent, start, end, qty) in enumerate(spans):
        name, via = sites[site]
        dur = end - start
        self_s = dur - child_time[i]
        outer_same_fn = outer_same_layer = False
        p = parent
        while p >= 0:
            outer_same_fn |= names[p] == name
            outer_same_layer |= layers[p] == layers[i]
            p = spans[p][1]
        for key in (name, f"{name}@{via}"):
            st = fn[key]
            st["calls"] += 1
            st["self_s"] += self_s
            st["qty"] += qty
            if not outer_same_fn:
                st["s"] += dur
        layer[layers[i]]["self_s"] += self_s
        if not outer_same_layer:
            layer[layers[i]]["s"] += dur
    problems = []
    roots = [s for s in spans if s[1] < 0]
    if len(roots) != 1:
        problems.append(f"{path.name}: {len(roots)} top-level spans, expected 1")
    else:
        root_s = roots[0][3] - roots[0][2]
        total_self = sum(v["self_s"] for v in layer.values())
        if abs(total_self - root_s) > 1e-6 * max(root_s, 1.0):
            problems.append(f"{path.name}: self times sum to {total_self:.6f} s, "
                            f"root span is {root_s:.6f} s")
        startup = roots[0][2] - op_start
        teardown = op_start + op_wall - roots[0][3]
        if startup < 0 or teardown < 0:
            problems.append(f"{path.name}: root span lies outside the process")
        layer["bench"]["startup_s"] = startup + teardown
    if any(v["self_s"] < -1e-6 for v in fn.values()):
        problems.append(f"{path.name}: negative self time")
    return fn, layer, problems


def layer_metrics(unit: dict, problems: list) -> dict:
    """Per-layer metric values of one traced unit."""
    fn = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "qty": 0})
    layer = defaultdict(lambda: defaultdict(float))
    result = {}
    for rec in unit["ops"]:
        if not (WORK / rec["spans"]).is_file():
            problems.append(f"{rec['tag']}: no spans written")
            continue
        f, lay, probs = aggregate_spans(WORK / rec["spans"], rec["start"],
                                        rec["wall_s"])
        problems.extend(probs)
        for key, st in f.items():
            for field, value in st.items():
                fn[key][field] += value
        for key, st in lay.items():
            for field, value in st.items():
                layer[key][field] += value
        result.update(rec["result"])
    values = {}
    for metric, (_, how) in LAYER_METRICS.items():
        kind = how[0]
        if kind == "fn":
            value = fn[how[1]][how[2]] if how[1] in fn else 0
        elif kind == "via":
            key = f"{how[1]}@{how[2]}"
            value = fn[key][how[3]] if key in fn else 0
        elif kind == "layer":
            value = layer[how[1]][how[2]]
        elif kind == "per_point":
            st = fn.get(how[1])
            value = st["s"] / st["qty"] * 1e6 if st and st["qty"] else 0.0
        elif kind == "rate":
            sel = [st for key, st in fn.items()
                   if key.startswith(how[1]) and "@" not in key]
            secs = sum(st["s"] for st in sel)
            value = sum(st["qty"] for st in sel) / secs / 1e6 if secs else 0.0
        elif kind == "result":
            value = float(result.get(how[1], 0.0))
        else:
            value = layer["bench"]["startup_s"]
        values[metric] = value
    return values


# --------------------------------------------------------------- golden ----

def golden_mismatches(workload: str, seed: int, units: list, use_committed: bool):
    """Artifact digests that differ from the committed golden record of this
    workload and seed (when one exists) or from the first untraced run of
    the same operation in this run."""
    committed = {}
    if use_committed and GOLDEN.exists():
        committed = json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed), {})
    reference = dict(committed)
    count = 0
    ops = [rec for unit in units for rec in unit["ops"]]
    for rec in sorted(ops, key=lambda r: r["traced"]):
        ref = reference.setdefault(rec["op"], rec["digests"])
        names = set(ref) | set(rec["digests"])
        count += sum(ref.get(n) != rec["digests"].get(n) for n in names)
    return count, bool(committed)


def record_golden(workload: str, seed: int, unit: dict) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    entry = golden.setdefault(workload, {}).setdefault(str(seed), {})
    for rec in unit["ops"]:
        entry[rec["op"]] = rec["digests"]
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")


# ------------------------------------------------------------------ run ----

def run_loop(args, deadline: float, env: dict) -> list:
    """Closed loop of workload units until about args.seconds are spent.

    With tracing, units alternate traced, plain, traced, ... and at least
    three run, so that overhead and rerun counts can be compared.
    """
    min_units = 3 if args.trace else 1
    units = []
    t_loop = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(units) % 2 == 0
        t_unit = time.perf_counter()
        ops = [run_op(op, traced, f"u{len(units)}-{op}", deadline, env)
               for op in WORKLOADS[args.workload]]
        units.append({"traced": traced, "ops": ops,
                      "wall_s": sum(r["wall_s"] for r in ops),
                      "cells": sum(r["cells"] for r in ops),
                      "elapsed_s": time.perf_counter() - t_unit})
        elapsed = time.perf_counter() - t_loop
        typical = statistics.median(u["elapsed_s"] for u in units)
        if len(units) >= min_units and elapsed + typical > args.seconds * STOP_SLACK:
            return units


def add_reference_times(probe: Probe, setup_recs: list, units: list) -> None:
    """Reference-speed times of every process and unit, once the probe ended."""
    apply_slowdown(probe, setup_recs)
    for unit in units:
        apply_slowdown(probe, unit["ops"])
        for key in ("ref_wall_s", "ref_cpu_s"):
            unit[key] = sum(r[key] for r in unit["ops"])
        unit["slowdown"] = unit["wall_s"] / unit["ref_wall_s"]


def e2e_metrics(setup_recs: list, units: list) -> dict:
    walls = [u["ref_wall_s"] for u in units]
    return {
        "setup_s": statistics.median(r["ref_wall_s"] for r in setup_recs),
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(u["ref_cpu_s"] for u in units),
        "cells_per_s": sum(u["cells"] for u in units) / sum(walls),
        "peak_rss_mb": max(r["maxrss_kb"] for u in units for r in u["ops"]) / 1024.0,
    }


def traced_metrics(units: list, problems: list) -> dict:
    """Per-layer metrics: the median over traced units, counts checked."""
    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if not u["traced"]]
    per_unit = [layer_metrics(u, problems) for u in traced]
    metrics = {}
    for name, (unit, _) in LAYER_METRICS.items():
        values = [m[name] for m in per_unit]
        if unit in ("count", "B") and len(set(values)) > 1:
            problems.append(f"{name} differs between reruns: {values}")
        if unit in SCALED_UNITS:
            values = [v * u["slowdown"] ** SCALED_UNITS[unit]
                      for v, u in zip(values, traced)]
        metrics[name] = statistics.median(values)
    traced_run = statistics.median(u["ref_wall_s"] for u in traced)
    plain_run = statistics.median(u["ref_wall_s"] for u in plain)
    metrics.update(trace_overhead_s=traced_run - plain_run,
                   trace_run_s=traced_run,
                   artifact_bytes=sum(r["bytes"] for r in units[0]["ops"]),
                   **{"host.slowdown": statistics.median(u["slowdown"] for u in units),
                      "raw_run_s": statistics.median(u["wall_s"] for u in plain)})
    return metrics


def print_report(report: dict, metrics: dict, units_of: dict) -> None:
    before, after = report["load_before"], report["load_after"]
    print(f"host: {json.dumps(report['host'], sort_keys=True)}")
    print(f"load before: {before['loadavg']} steal={before['steal_ticks']}"
          f"  after: {after['loadavg']} steal={after['steal_ticks']}")
    q1, q2, q3 = report["run_s_quartiles"]
    print(f"run_s (reference speed): median {q2:.4f} s, quartiles {q1:.4f} .. "
          f"{q3:.4f} s, {report['run_s_samples']} samples; setup_s samples "
          + " ".join(f"{r['ref_wall_s']:.4f}" for r in report["setup"]))
    for unit in report["units"]:
        for rec in unit["ops"]:
            print(f"  {rec['tag']:<18} {'traced' if rec['traced'] else 'plain ':6} "
                  f"wall {rec['ref_wall_s']:8.4f} s (raw {rec['wall_s']:8.4f}, "
                  f"slowdown {rec['slowdown']:5.3f})  cpu {rec['ref_cpu_s']:8.4f} s  "
                  f"rss {rec['maxrss_kb'] / 1024:7.1f} MB  "
                  f"{rec['failure'] or 'ok'}")
    print(f"golden: {report['golden_mismatch']} mismatching digests "
          f"({'a' if report['golden_committed'] else 'no'} committed record "
          f"for seed {report['seed']})")
    for problem in report["trace_problems"]:
        print(f"trace check failed: {problem}")
    if "spin.solve_u_constraint.calls" in metrics:
        # Information, not a check: a change that saves marches moves it.
        print(f"spin.solve_u_constraint.calls: "
              f"{metrics['spin.solve_u_constraint.calls']:g}; sum over evolves "
              f"of 5*steps+2 (4 RK4 stages and 1 recording march per step, "
              f"the initial and final marches) = {report['marches_5s2']}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units_of[name]}")


def run(args) -> dict:
    t_begin = time.perf_counter()
    deadline = t_begin + RUN_LIMIT_S
    if not (SRC / "solsurf" / "__init__.py").is_file():
        raise BenchError(f"no solsurf package under {SRC}; run from the "
                         f"repository root")
    shutil.rmtree(WORK, ignore_errors=True)
    for sub in ("logs", "out", "spans"):
        (WORK / sub).mkdir(parents=True)
    env = child_env()
    # One vCPU for every process, so that the probe shares the operation's.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    load_before = load_sample()
    probe = Probe(env)
    try:
        setup_recs, inputs = setup(args.workload, args.seed, args.tiny,
                                   deadline, env)
        units = run_loop(args, deadline, env)
    finally:
        probe.stop()
    load_after = load_sample()
    add_reference_times(probe, setup_recs, units)

    all_ops = [rec for unit in units for rec in unit["ops"]]
    failed = sum(rec["failure"] is not None for rec in all_ops)
    plain = [u for u in units if not u["traced"]]
    mismatch, have_golden = golden_mismatches(args.workload, args.seed, units,
                                              not args.tiny)
    problems = []
    if args.trace:
        metrics = traced_metrics(units, problems)
        metrics.update(golden_mismatch=mismatch,
                       fail_share=failed / len(all_ops))
        units_of = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        units_of.update(BENCH_METRICS)
    else:
        metrics = e2e_metrics(setup_recs, plain)
        units_of = E2E_UNITS
    if args.record_golden and failed == 0 and not args.tiny:
        record_golden(args.workload, args.seed, plain[0])

    walls = [u["ref_wall_s"] for u in plain]
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "host": host_record(inputs["numpy"], cpus),
        "load_before": load_before, "load_after": load_after,
        "probe_ref_s": PROBE_REF_S, "probe_chunks": len(probe.samples),
        "setup": setup_recs, "inputs": inputs["files"],
        "golden_committed": have_golden, "golden_mismatch": mismatch,
        "trace_problems": problems,
        "run_s_quartiles": q, "run_s_samples": len(walls),
        "marches_5s2": sum(5 * steps + 2 for rec in units[0]["ops"]
                           for steps in rec["evolves"]),
        "total_s": time.perf_counter() - t_begin,
        "units": units,
    }
    (WORK / "result.json").write_text(json.dumps(report, indent=1) + "\n")
    print_report(report, metrics, units_of)
    return {"correct": failed == 0 and not problems,
            "attempted": len(all_ops), "failed": failed,
            "metrics": {name: {"value": value, "unit": units_of[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for perfbench/selftest.py")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this seed's artifact digests in golden.json")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
