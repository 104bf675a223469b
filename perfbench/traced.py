"""Run one solsurf operation with every public solsurf function in a span.

    python3 perfbench/traced.py --spans FILE -- <solsurf CLI arguments>
    python3 perfbench/traced.py --spans FILE --readings -- INPUTS_DIR OUT_DIR

The tracer wraps, from outside, each public function and public method that
a solsurf module defines.  It rebinds the name in every solsurf module that
holds the function, so ``spin.step_rk4`` and ``lax.step_rk4`` each get their
own wrapper, and calls made through either are counted apart.  No source file
changes.  Spans stay in memory and are written to FILE as JSON when the
operation ends: for each span its name, its parent span, its start and end
(``time.perf_counter``, which is CLOCK_MONOTONIC and so shared with the
parent process), and one measured quantity (bytes of the file a function
with a ``path`` parameter wrote or read, points of a constraint march).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("numgrid", "spin", "frames", "gauss_codazzi", "lax", "surface",
          "fieldio", "fixtures", "cli")
ROOT_SPAN = "bench.op"


class Tracer:
    """In-memory span recorder; a span is [site_id, parent, start, end, qty]."""

    def __init__(self):
        self.sites = []   # (function name, module whose binding was called)
        self.spans = []
        self.stack = []

    def wrap(self, name: str, via: str, fn, quantity=None):
        site = len(self.sites)
        self.sites.append((name, via))
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [site, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if quantity is not None:
                rec[4] = quantity(args, kwargs)
            return out

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"sites": self.sites, "spans": self.spans}, fh)


def _quantity(name: str, fn):
    """What a span of fn measures besides time, or None."""
    params = list(inspect.signature(fn).parameters)
    if name == "spin.solve_u_constraint":
        return lambda args, kwargs: len(args[0] if args else kwargs["k"])
    if "path" in params:
        pos = params.index("path")

        def file_bytes(args, kwargs):
            path = args[pos] if len(args) > pos else kwargs["path"]
            # lax.propagate_phi's path is a list of grid moves, not a file
            return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0

        return file_bytes
    return None


def install(tracer: Tracer) -> None:
    """Wrap every public solsurf function and method."""
    import solsurf.cli  # noqa: F401  (imports every layer)
    modules = {name: mod for name, mod in list(sys.modules.items())
               if name == "solsurf" or name.startswith("solsurf.")}
    for layer in LAYERS:
        home = modules[f"solsurf.{layer}"]
        for attr, obj in list(vars(home).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != home.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                quantity = _quantity(name, obj)
                for mod_name, mod in modules.items():
                    for bound, value in list(vars(mod).items()):
                        if value is obj:
                            via = mod_name.rpartition(".")[2]
                            setattr(mod, bound,
                                    tracer.wrap(name, via, obj, quantity))
            elif inspect.isclass(obj):
                for meth_name, meth in list(vars(obj).items()):
                    if not meth_name.startswith("_") and inspect.isfunction(meth):
                        setattr(obj, meth_name, tracer.wrap(
                            f"{layer}.{attr}.{meth_name}", layer, meth))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--readings", action="store_true")
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest
    tracer = Tracer()
    install(tracer)
    if args.readings:
        import readings  # perfbench/ is sys.path[0] when run as a script
        op = functools.partial(readings.run, *rest)
    else:
        op = functools.partial(sys.modules["solsurf.cli"].main, rest)
    root = tracer.wrap(ROOT_SPAN, "bench", op)
    try:
        return root()
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
