"""Cold-start benchmark of the build -> lint -> codegen -> co-simulate flow.

Runs one workload (see ``README.md``) for about ``--seconds`` seconds as a
series of *passes*, each in a fresh interpreter (``coldpass.py``), so no
cache survives from one pass to the next.  Prints a line of run details
(host, configuration, per-pass values) and, as the last line, one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones; it also writes the last traced
pass's spans to ``.perfbench/``.

Usage::

    python3 perfbench/run.py --workload cosim_link --seed 7 --seconds 32 --trace 0

Exits with status 2, printing no result, when the repository's sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A pass that has not finished after this long has hung.  Every round
#: starts within ``--seconds``, so at the default 32 s a hung pass is killed
#: and the run reports well inside three minutes.
PASS_TIMEOUT = 120.0
#: Untraced passes a ``--trace 0`` run makes at least, however long they take.
MIN_PASSES = 3


def host_details() -> Dict[str, Any]:
    """Host and environment; ``comparable`` is false under a ``REPRO_*`` override."""
    env = {key: value for key, value in os.environ.items() if key.startswith("REPRO_")}
    # The rule backend is pinned per design, so only this variable is harmless.
    overrides = sorted(key for key in env if key != "REPRO_RULE_BACKEND")
    sha = subprocess.run(
        ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else None,
        "repro_env": env,
        "comparable": not overrides,
        "overrides": overrides,
    }


def run_pass(workload: str, seed: int, traced: bool, timeout: float) -> Optional[Dict[str, Any]]:
    """One cold pass in a fresh interpreter; ``None`` if it failed outright."""
    cmd = [sys.executable, str(HERE / "coldpass.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Own session, so a hung pass is killed with every worker it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"pass timed out after {timeout:.0f}s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not stdout.strip():
        print(f"pass exited with status {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def run_passes(args, ops_per_pass: int) -> Tuple[List[dict], List[dict], int, int]:
    """Passes until ``--seconds`` is used up; returns (untraced, traced, attempted, failed).

    A ``--trace 1`` run alternates an untraced and a traced pass.  A new
    round starts only if the last one would still fit in the time left.
    """
    kinds = [False, True] if args.trace else [False]
    untraced: List[dict] = []
    traced: List[dict] = []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for kind in kinds:
            summary = run_pass(args.workload, args.seed, kind, PASS_TIMEOUT)
            if summary is None:
                return untraced, traced, attempted + ops_per_pass, failed + ops_per_pass
            attempted += len(summary["ops"])
            failed += sum(1 for op in summary["ops"] if not op["ok"])
            (traced if kind else untraced).append(summary)
        now = time.monotonic()
        enough = args.trace or len(untraced) >= MIN_PASSES
        if enough and (now - start) + (now - round_start) > args.seconds:
            return untraced, traced, attempted, failed


def count_mismatches(untraced: List[dict], traced: List[dict]) -> List[str]:
    """Counts that do not repeat exactly across passes of one seed."""
    problems = []
    for kind, passes in (("untraced", untraced), ("traced", traced)):
        for summary in passes[1:]:
            if summary["counts"] != passes[0]["counts"]:
                problems.append(f"{kind} pass counts differ: {passes[0]['counts']} vs {summary['counts']}")
    if untraced and traced:
        plain, deep = untraced[0]["counts"], traced[0]["counts"]
        differ = sorted(key for key in plain if plain[key] != deep.get(key))
        if differ:
            problems.append(f"traced and untraced counts differ on {differ}")
    return problems


def end_to_end(passes: List[dict]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The end-to-end metrics over untraced passes, and their sample counts.

    Latency: each operation's latency is its median over the passes (every
    pass replays the same operations), and p50/p95 are nearest-rank
    percentiles over the operations.
    """
    from repro.sim.serve import percentile

    median = statistics.median
    n_ops = min(len(p["ops"]) for p in passes)
    per_op = [median(p["ops"][i]["latency_s"] for p in passes) for i in range(n_ops)]
    metrics = {
        "setup_s": median(p["setup_s"] for p in passes),
        "time_to_result_s": median(p["time_to_result_s"] for p in passes),
        "sim_cycles_per_s": median(p["fpga_cycles"] / p["run_s"] for p in passes),
        "requests_per_s": median(len(p["ops"]) / p["stream_s"] for p in passes),
        "latency_p50_ms": percentile(per_op, 50) * 1e3,
        "latency_p95_ms": percentile(per_op, 95) * 1e3,
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }
    samples = {"passes": len(passes), "latency_operations": n_ops}
    return metrics, samples


def per_layer(untraced: List[dict], traced: List[dict], attempted: int, failed: int) -> Dict[str, float]:
    """The per-layer metrics: medians of the traced passes' layer timings."""
    from repro.sim.serve import safe_ratio

    median = statistics.median
    counts = traced[0]["counts"]
    values: Dict[str, float] = dict(counts)
    for name in traced[0]["layers"]:
        values[name] = median(p["layers"][name] for p in traced)
    values["sim.attempt_yield"] = safe_ratio(
        counts["sim.firings"], counts["sim.firings"] + counts["sim.guard_failures"]
    )
    values["kernels.cache_hit_ratio"] = safe_ratio(
        counts["kernels.cache_hits"], counts["kernels.cache_hits"] + counts["kernels.cache_misses"]
    )
    values["failed_ops_ratio"] = failed / attempted
    values["trace.overhead_ratio"] = (
        median(p["time_to_result_s"] for p in traced)
        / median(p["time_to_result_s"] for p in untraced)
    )
    return values


def write_trace(args, traced: List[dict]) -> Path:
    """Write the last traced pass's spans and layer timings under ``.perfbench/``."""
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    last = traced[-1]
    spans = [
        {"layer": layer, "op": op, "start_s": start, "end_s": end}
        for layer, op, start, end in last["spans"]
    ]
    path.write_text(json.dumps({"spans": spans, "layers": last["layers"]}, indent=1))
    return path


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repository sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench_workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    untraced, traced, attempted, failed = run_passes(
        args, bench_workloads.ops_per_pass(args.workload)
    )
    problems = count_mismatches(untraced, traced)
    details: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host_details(),
        "config": untraced[0]["config"] if untraced else None,
        "count_mismatches": problems,
        "passes": [
            {key: p[key] for key in ("setup_s", "time_to_result_s", "run_s", "stream_s",
                                     "fpga_cycles", "peak_rss_mb")}
            for p in untraced
        ],
        "failed_ops": [op for p in untraced + traced for op in p["ops"] if not op["ok"]][:20],
    }
    # BENCHMARK.json names the metrics each mode reports, with their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics: Dict[str, Dict[str, Any]] = {}
    complete = bool(untraced) and (bool(traced) or not args.trace)
    if complete:
        values, details["samples"] = end_to_end(untraced)
        if args.trace:
            values = per_layer(untraced, traced, attempted, failed)
            details["trace_file"] = str(write_trace(args, traced).relative_to(ROOT))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"details": details}))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": complete and failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
