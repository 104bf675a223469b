"""Contention probe: time one small fixed chunk of work, over and over.

    python3 perfbench/probe.py PERIOD_S

run.py starts it on the vCPU it pins every operation to.  It prints "ready",
then runs the chunk every PERIOD_S seconds until SIGTERM, keeping each
chunk's start and end (``time.perf_counter``, CLOCK_MONOTONIC, so shared
with run.py) in memory.  On SIGTERM it prints one "start end" line per chunk
and exits.

The chunk does what solsurf's hot loops do: a Python loop over numpy
scalars (the shape of ``spin.solve_u_constraint``) and float formatting (the
shape of the text writers).  On a shared host the vCPU alternates between
an uncontended and a contended speed; the chunk's mean time during an
operation measures how much of that operation ran slowed.
"""

from __future__ import annotations

import signal
import sys
import time

import numpy as np

K = np.linspace(1.0, 2.0, 257)
V = np.cos(K)
OUT = np.empty(257)


def chunk() -> int:
    u = 0.0
    for i in range(256):
        u = u + 1e-3 * V[i] * np.sqrt(max(K[i] * K[i] - u * u, 0.0))
        OUT[i] = u
    return len(",".join(f"{x:.17g}" for x in OUT[:64]))


def main() -> int:
    period = float(sys.argv[1])
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    chunk()
    print("ready", flush=True)
    samples = []
    while not stop:
        chunk()           # refills the caches the operation took over
        t0 = time.perf_counter()
        chunk()
        samples.append((t0, time.perf_counter()))
        time.sleep(period)
    sys.stdout.write("".join(f"{s:.9f} {e:.9f}\n" for s, e in samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
