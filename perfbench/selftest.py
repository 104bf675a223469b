"""Self-test of the benchmark at tiny sizes (under a minute).

    python3 perfbench/selftest.py

Run it from the repository root.  For every workload it runs run.py --tiny
once untraced and once traced, and asserts that

* the last line has exactly the keys correct, attempted, failed, metrics,
  no operation failed, and every metric BENCHMARK.json names is printed
  with the unit BENCHMARK.json gives it;
* every artifact is byte-identical with and without tracing;
* the program receives only generated inputs: each path on an operation's
  command line lies under inputs/ (written by set-up, with the digests set-up
  reported) or under out/ and spans/; no seed appears on it; the same seed
  gives the same inputs and another seed gives other inputs;
* in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKDIR = ROOT / ".perfbench_selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def run_checked(workload: str, seed: int, trace: int, spec: dict) -> dict:
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    emitted = result["metrics"]
    assert set(emitted) == {m["name"] for m in wanted}, \
        sorted(set(emitted) ^ {m["name"] for m in wanted})
    for metric in wanted:
        got = emitted[metric["name"]]
        assert got["unit"] == metric["unit"], (metric, got)
        assert isinstance(got["value"], (int, float)), (metric, got)
    report = json.loads((ROOT / ".perfbench_work" / "result.json").read_text())
    shutil.copy(ROOT / ".perfbench_work" / "result.json",
                WORKDIR / f"{workload}-{seed}-trace{trace}.json")
    check_inputs_only(report)
    return report


def check_inputs_only(report: dict) -> None:
    work = ROOT / ".perfbench_work"
    inputs = work / "inputs"
    on_disk = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in inputs.iterdir()}
    assert on_disk == report["inputs"], "inputs/ differs from what set-up wrote"
    words = {"solsurf", "simulate", "surface", "convergence"}
    scripts = {str(p) for p in HERE.glob("*.py")}
    for unit in report["units"]:
        for rec in unit["ops"]:
            argv = rec["argv"]
            assert argv[0] == sys.executable, argv
            for arg in argv[1:]:
                if arg.startswith("-") or arg in words or arg in scripts:
                    continue
                path = Path(arg)
                assert path.parts[0] in ("inputs", "out", "spans"), (arg, argv)
                if path.parts[0] == "inputs" and len(path.parts) > 1:
                    assert path.name in report["inputs"], (arg, argv)
            assert not {"--seed", "--param", "--ic"} & set(argv), argv


def check_traced_bytes(report: dict) -> None:
    digests = {}
    for unit in report["units"]:
        for rec in unit["ops"]:
            digests.setdefault(rec["op"], {})[rec["traced"]] = rec["digests"]
    for op, by_mode in digests.items():
        assert set(by_mode) == {False, True}, (op, by_mode.keys())
        assert by_mode[False] == by_mode[True], f"{op}: tracing changed bytes"
        assert by_mode[False], f"{op}: no artifacts"


def check_bare_directory() -> None:
    bare = WORKDIR / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("refine", 1, 0, cwd=bare)
    assert proc.returncode != 0, proc.stdout
    assert "correct" not in proc.stdout, proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run_checked(workload, 1, 0, spec)
        traced = run_checked(workload, 1, 1, spec)
        check_traced_bytes(traced)
        assert traced["inputs"] == plain["inputs"], \
            f"{workload}: one seed gave two sets of inputs"
        other = run_checked(workload, 2, 0, spec)
        assert other["inputs"] != plain["inputs"], \
            f"{workload}: seeds 1 and 2 gave the same inputs"
        print(f"{workload}: ok")
    check_bare_directory()
    print("bare directory: ok")
    shutil.rmtree(WORKDIR)
    return 0


if __name__ == "__main__":
    sys.exit(main())
