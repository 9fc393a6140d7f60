"""Run one cold pass of a benchmark workload in this (fresh) interpreter.

``run.py`` starts this script once per pass, so the kernel result cache, the
marshal layout cache, the generated-module cache and the lru kernel tables
all start empty.  The pass prints one JSON line: its summary (see
``bench_workloads.PassLog.summary``) plus the interpreter's configuration.

With ``--traced`` the pass also wraps the done predicate and the serving
internals, and profiles its timed section with :mod:`cProfile`; the
profile's self time is attributed to the repository's layers by source
module (``self_time_by_layer``).

Usage::

    python perfbench/coldpass.py --workload cosim_link --seed 7 [--traced]
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

#: Source files of the foreign kernels and the fixed-point arithmetic they use.
KERNEL_FILES = {
    "core/kernelcompile.py",
    "core/fixedpoint.py",
    "apps/vorbis/kernels.py",
    "apps/raytracer/geometry.py",
}

#: Layer of each ``repro`` source file not matched above, by path prefix
#: (first match wins).
LAYER_PREFIXES = (
    ("core/pycodegen.py", "core.pycodegen"),
    ("core/scheduler.py", "core.scheduler"),
    ("core/", "core"),
    ("apps/", "apps"),
    ("analysis/", "analysis"),
    ("codegen/", "codegen"),
    ("platform/", "platform"),
    ("sim/cosim.py", "sim.cosim"),
    ("sim/serve.py", "sim.serve"),
    ("sim/distrib.py", "sim.distrib"),
    ("sim/", "sim.engines"),
)

#: Every layer ``self_time_by_layer`` reports.  ``other`` is this benchmark
#: (its wrappers around the done predicate included), library code it calls
#: directly, and any ``repro`` module outside the layers above.
SELF_LAYERS = ("kernels", "generated", "other") + tuple(
    dict.fromkeys(layer for _, layer in LAYER_PREFIXES)
)


def layer_of(filename: str, package: str) -> Optional[str]:
    """The layer a profiled function belongs to.

    ``None`` for library code and built-ins, which belong to their caller.
    """
    if filename.startswith("<repro-generated:"):
        return "generated"
    if filename.startswith(str(HERE) + os.sep):
        return "other"
    if not filename.startswith(package):
        return None
    rel = filename[len(package):].replace(os.sep, "/")
    if rel in KERNEL_FILES:
        return "kernels"
    for prefix, layer in LAYER_PREFIXES:
        if rel.startswith(prefix):
            return layer
    return "other"


def self_time_by_layer(profiler: cProfile.Profile) -> Dict[str, float]:
    """Profiled self time per layer, as ``self.<layer>_s`` metrics.

    Built-in functions and library code have no layer of their own: their
    self time is charged to the layer of the function that called them
    (one level up), so a kernel's NumPy calls count as kernel time.
    """
    import repro

    package = str(Path(repro.__file__).resolve().parent) + os.sep
    totals: Dict[str, float] = defaultdict(float)
    for (filename, _, _), (_, _, tt, _, callers) in pstats.Stats(profiler).stats.items():
        layer = layer_of(filename, package)
        if layer is not None:
            totals[layer] += tt
        elif callers:
            for (caller_file, _, _), caller_stats in callers.items():
                totals[layer_of(caller_file, package) or "other"] += caller_stats[2]
        else:
            totals["other"] += tt
    return {f"self.{layer}_s": totals.get(layer, 0.0) for layer in SELF_LAYERS}


def configuration() -> Dict[str, object]:
    """What this interpreter ran with: kernel and rule backends, NumPy version."""
    from bench_workloads import BACKEND
    from repro.core.kernelcompile import HAVE_NUMPY, kernel_backend

    numpy_version = None
    if HAVE_NUMPY:
        import numpy

        numpy_version = numpy.__version__
    return {"kernel_backend": kernel_backend(), "rule_backend": BACKEND, "numpy": numpy_version}


def main(argv=None) -> int:
    import bench_workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    profiler = cProfile.Profile() if args.traced else None
    rec = bench_workloads.Recorder(detailed=args.traced, profiler=profiler)
    summary = bench_workloads.run_pass(args.workload, args.seed, rec)
    if profiler is not None:
        summary["layers"].update(self_time_by_layer(profiler))
        summary["spans"] = rec.spans
    summary["config"] = configuration()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
