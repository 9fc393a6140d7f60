"""The four benchmark workloads, each run as one cold pass through the public API.

A pass is everything one fresh interpreter does for a workload: it elaborates
every design it needs, simulates it, reads its results back, and only then --
outside the timed section -- checks every operation against an oracle that
sits outside the simulator.  The reference decoders call the same foreign
kernels as the designs, so running them first would warm the kernel result
cache that the timed section is meant to start without.

An *operation* is one design run (``cosim_*``), one served request
(``serve_mixed``) or one distributed run (``dist_domain2``).  An operation
that raises, does not complete, or disagrees with its oracle is a failed
operation; the pass carries on with the next one.

Every design runs with ``backend="source"`` pinned, so neither a change of
the repository's default rule backend nor the removal of another backend
changes what is measured.  Why each workload exists, and which layer
metrics each should move, is written down in ``README.md`` beside this file.
"""

from __future__ import annotations

import dataclasses
import random
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis import verify_design
from repro.apps.raytracer import partitions as rt_partitions
from repro.apps.raytracer import reference as rt_reference
from repro.apps.raytracer.params import RayTracerParams
from repro.apps.vorbis import kernels as vorbis_kernels
from repro.apps.vorbis import partitions as vorbis_partitions
from repro.apps.vorbis import reference as vorbis_reference
from repro.apps.vorbis.params import VorbisParams
from repro.codegen.interface import (
    build_interface_spec,
    generate_hw_arbiter,
    generate_sw_header,
    generate_sw_marshal_source,
    generate_transactors,
)
from repro.core.domains import SW
from repro.core.fixedpoint import FixedPoint
from repro.core.kernelcompile import kernel_cache_info
from repro.core.partition import partition_design
from repro.sim.cosim import CosimFabric, CosimResult, Cosimulator
from repro.sim.distrib import run_distributed
from repro.sim.serve import FabricServer, Request

#: The rule backend every design runs on.
BACKEND = "source"

#: Simulated-cycle budget of every run; no workload comes near it.
MAX_CYCLES = 500_000_000.0

WORKLOADS = ("cosim_link", "cosim_compute", "serve_mixed", "dist_domain2")

# -- sizes -------------------------------------------------------------------
#
# A different seed is a different ray-tracer scene, and a different amount
# of traversal work.  256 triangles halve that spread against the 96 of the
# Figure 14 benchmarks (simulated cycles of raytracer_A vary 3.7% between
# the quartiles of ten seeds, against 6.7%).  The Vorbis frame counts make
# the seed-independent Vorbis work a large share of each cosim pass.

RT_SCENE = dict(n_triangles=256, image_width=16, image_height=16)
LINK_VORBIS_FRAMES = 384
COMPUTE_VORBIS_FRAMES = 768

#: Serving: a long track and a large image, windows of a few frames/pixels.
SERVE_VORBIS_FRAMES = 512
SERVE_RT_SCENE = dict(n_triangles=256, image_width=32, image_height=32)
SERVE_REQUESTS = 200
#: 160 Vorbis windows and 40 ray-tracer tiles per pass, so p50 falls inside
#: the Vorbis class and p95 (the top 10 requests) inside the ray-tracer one.
SERVE_VORBIS_REQUESTS = 160
VORBIS_WINDOW = 2
RT_WINDOW = 8
#: Skewed popularity: this share of requests starts at one of a few hot
#: offsets (so some windows recur), the rest anywhere.  README.md records
#: how the cache hit ratio and latency move with HOT_SHARE.
HOT_STARTS = 8
HOT_SHARE = 0.3

#: Distributed: both designs have exactly two domains -> two members.
DIST_VORBIS_FRAMES = 192
DIST_RT_SCENE = dict(n_triangles=256, image_width=8, image_height=8)


def vorbis_params(seed: int, n_frames: int) -> VorbisParams:
    return VorbisParams(n_frames=n_frames, seed=seed)


def rt_params(seed: int, scene: Dict[str, int]) -> RayTracerParams:
    return RayTracerParams(seed=seed, **scene)


# -- one design through the flow ----------------------------------------------


@dataclass(frozen=True)
class DesignOp:
    """One design: how to build it, what runs it, and its reference checksum."""

    name: str
    builder: Callable[..., Any]
    args: Tuple[Any, ...]
    fabric: type
    expected: Callable[[Any], int]

    @property
    def params(self):
        return self.args[-1]


def cosim_designs(workload: str, seed: int) -> List[DesignOp]:
    rt = rt_params(seed, RT_SCENE)
    if workload == "cosim_link":
        return [
            DesignOp("raytracer_B", rt_partitions.build_partition, ("B", rt),
                     Cosimulator, rt_reference.expected_checksum),
            DesignOp("vorbis_H", vorbis_partitions.build_multi_partition,
                     ("H", vorbis_params(seed, LINK_VORBIS_FRAMES)),
                     CosimFabric, vorbis_reference.expected_checksum),
        ]
    if workload == "cosim_compute":
        return [
            DesignOp("vorbis_F", vorbis_partitions.build_partition,
                     ("F", vorbis_params(seed, COMPUTE_VORBIS_FRAMES)),
                     Cosimulator, vorbis_reference.expected_checksum),
            DesignOp("raytracer_A", rt_partitions.build_partition, ("A", rt),
                     Cosimulator, rt_reference.expected_checksum),
        ]
    raise ValueError(f"{workload!r} is not a cosim workload")


def dist_designs(seed: int) -> List[DesignOp]:
    return [
        DesignOp("vorbis_C", vorbis_partitions.build_partition,
                 ("C", vorbis_params(seed, DIST_VORBIS_FRAMES)),
                 CosimFabric, vorbis_reference.expected_checksum),
        DesignOp("raytracer_B", rt_partitions.build_partition,
                 ("B", rt_params(seed, DIST_RT_SCENE)),
                 CosimFabric, rt_reference.expected_checksum),
    ]


def generate_interfaces(design) -> int:
    """Run the interface generators over a design; returns bytes generated."""
    spec = build_interface_spec(partition_design(design, SW))
    texts = [generate_sw_header(spec, name) for name in spec.sw_domains]
    texts += [generate_sw_marshal_source(spec, name) for name in spec.sw_domains]
    texts += [generate_hw_arbiter(spec, name) for name in spec.hw_domains]
    texts += [text for pair in generate_transactors(spec).values() for text in pair.values()]
    return sum(len(text.encode()) for text in texts)


# -- recording -------------------------------------------------------------------


class Recorder:
    """Spans around the public calls a pass makes, kept in memory.

    A span is ``(layer, operation, start, end)``; spans of one operation
    share its name.  ``detailed`` (the traced pass) additionally wraps the
    done predicate and the serving internals reachable through public
    attributes, and enables ``profiler`` inside the timed section.  Done
    predicate calls are too many to keep one by one, so they are kept as a
    per-layer call count and total.
    """

    def __init__(self, detailed: bool = False, profiler=None):
        self.detailed = detailed
        self.profiler = profiler
        self.spans: List[Tuple[str, str, float, float]] = []
        self.calls: Dict[str, List[float]] = {}

    @contextmanager
    def span(self, layer: str, op: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((layer, op, start, time.perf_counter()))

    def wrap(self, layer: str, op: str, fn: Callable) -> Callable:
        """``fn`` with a span per call when detailed, else ``fn`` itself."""
        if not self.detailed:
            return fn

        def wrapped(*args, **kwargs):
            with self.span(layer, op):
                return fn(*args, **kwargs)

        return wrapped

    def counted(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with a call count and total time when detailed."""
        if not self.detailed:
            return fn
        tally = self.calls.setdefault(layer, [0, 0.0])
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[0] += 1
                tally[1] += clock() - start

        return wrapped

    def seconds(self, layer: str) -> float:
        return sum(end - start for name, _, start, end in self.spans if name == layer)

    @contextmanager
    def timed(self) -> Iterator[None]:
        """The timed section: asserts a cold kernel cache, then profiles it."""
        info = kernel_cache_info()
        if info["hits"] or info["misses"]:
            raise RuntimeError(f"timed section starts with a warm kernel cache: {info}")
        if self.profiler is not None:
            self.profiler.enable()
        try:
            yield
        finally:
            if self.profiler is not None:
                self.profiler.disable()

    @contextmanager
    def unprofiled(self) -> Iterator[None]:
        """Pause the profiler (forked workers would inherit it otherwise)."""
        if self.profiler is not None:
            self.profiler.disable()
        try:
            yield
        finally:
            if self.profiler is not None:
                self.profiler.enable()


@dataclass
class OpOutcome:
    """What one operation did, and whether its oracle accepted it."""

    name: str
    start: float
    end: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    fpga_cycles: float = 0.0
    error: Optional[str] = None
    ok: bool = False

    def fail(self, exc: BaseException) -> None:
        self.error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        traceback.print_exc(file=sys.stderr)

    def row(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ok": self.ok,
            "error": self.error,
            "latency_s": self.end - self.start,
        }


COUNT_KEYS = (
    "analysis.diagnostics",
    "codegen.bytes",
    "sim.fpga_cycles",
    "sim.firings",
    "sim.guard_failures",
    "platform.messages",
    "platform.words",
    "platform.credit_stalls",
    "kernels.cache_hits",
    "kernels.cache_misses",
    "serve.requests_vorbis",
    "serve.requests_raytracer",
    "distrib.records",
    "distrib.words",
)

#: Layer timings only some workloads have; the others report them as 0.
WORKLOAD_LAYERS = (
    "serve.elaborate_s",
    "serve.restore_s",
    "serve.run_s",
    "distrib.member_wall_max_s",
    "distrib.overhead_s",
    "distrib.full_retries",
    "distrib.worker_peak_rss_mb",
)


def add_result(counts: Dict[str, float], result: CosimResult) -> None:
    """Accumulate a run's simulated statistics into the pass counts."""
    counts["sim.fpga_cycles"] += result.fpga_cycles
    counts["sim.firings"] += result.sw_firings + result.hw_firings
    counts["sim.guard_failures"] += result.sw_guard_failures
    counts["platform.messages"] += result.channel_messages
    counts["platform.words"] += result.channel_words
    counts["platform.credit_stalls"] += sum(
        vc.get("credit_stalls", 0) for vc in result.vc_stats.values()
    )


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class PassLog:
    """Everything a pass reports: operations, counts and layer timings."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.ops: List[OpOutcome] = []
        self.counts: Dict[str, float] = {key: 0 for key in COUNT_KEYS}
        self.layers: Dict[str, float] = {key: 0.0 for key in WORKLOAD_LAYERS}
        self.start = 0.0
        self.setup_s = 0.0
        self.stream_start = 0.0
        self.end = 0.0
        self.peak_rss_mb = 0.0

    def op(self, name: str) -> OpOutcome:
        outcome = OpOutcome(name=name, start=time.perf_counter())
        self.ops.append(outcome)
        return outcome

    def close_timed(self) -> None:
        """Stamp the end of the timed section and read the cache counters."""
        self.end = time.perf_counter()
        info = kernel_cache_info()
        self.counts["kernels.cache_hits"] = info["hits"]
        self.counts["kernels.cache_misses"] = info["misses"]
        self.peak_rss_mb = peak_rss_mb()

    def summary(self) -> Dict[str, Any]:
        rec = self.rec
        layers = {
            "apps.build_s": rec.seconds("apps.build"),
            "analysis.lint_s": rec.seconds("analysis.lint"),
            "codegen.interface_s": rec.seconds("codegen.interface"),
            "sim.fabric_init_s": rec.seconds("sim.fabric_init"),
            "sim.run_s": rec.seconds("sim.run"),
        }
        layers.update(self.layers)
        counts = dict(self.counts)
        if rec.detailed:
            calls, seconds = rec.calls.get("sim.done", (0, 0.0))
            counts["sim.done_calls"] = calls
            layers["sim.done_s"] = seconds
        run_s = sum(op.run_s for op in self.ops)
        return {
            "ops": [op.row() for op in self.ops],
            "setup_s": self.setup_s,
            "time_to_result_s": self.end - self.start,
            "stream_s": self.end - self.stream_start,
            "run_s": run_s,
            "fpga_cycles": sum(op.fpga_cycles for op in self.ops),
            "peak_rss_mb": self.peak_rss_mb,
            "counts": counts,
            "layers": layers,
        }


# -- cosim_link / cosim_compute ------------------------------------------------


def set_up(rec: Recorder, log: PassLog, op: DesignOp):
    """Builder, lint and interface generation for one design."""
    with rec.span("apps.build", op.name):
        workload = op.builder(*op.args)
    with rec.span("analysis.lint", op.name):
        log.counts["analysis.diagnostics"] += len(verify_design(workload.design))
    with rec.span("codegen.interface", op.name):
        log.counts["codegen.bytes"] += generate_interfaces(workload.design)
    return workload


def cosim_pass(rec: Recorder, designs: List[DesignOp]) -> PassLog:
    """Each design: build -> lint -> interface generation -> run(done)."""
    log = PassLog(rec)
    checks = []
    with rec.timed():
        log.start = log.stream_start = time.perf_counter()
        for design in designs:
            out = log.op(design.name)
            try:
                diagnostics = log.counts["analysis.diagnostics"]
                workload = set_up(rec, log, design)
                with rec.span("sim.fabric_init", design.name):
                    sim = design.fabric(workload.design, backend=BACKEND)
                ready = time.perf_counter()
                out.setup_s = ready - out.start
                done = rec.counted("sim.done", workload.cosim_done)
                with rec.span("sim.run", design.name):
                    result = sim.run(done, max_cycles=MAX_CYCLES)
                checksum = sim.read(workload.checksum)
                out.end = time.perf_counter()
                out.run_s = out.end - ready
                out.fpga_cycles = result.fpga_cycles
                add_result(log.counts, result)
                clean = log.counts["analysis.diagnostics"] == diagnostics
                checks.append((out, design, result.completed and clean, checksum))
            except Exception as exc:
                out.end = time.perf_counter()
                out.fail(exc)
            log.setup_s += out.setup_s
        log.close_timed()
    for out, design, completed, checksum in checks:
        out.ok = completed and checksum == design.expected(design.params)
    return log


# -- serve_mixed -------------------------------------------------------------------


def request_stream(seed: int, n_frames: int, n_rays: int) -> List[Tuple[str, int]]:
    """The seeded closed-loop request stream: ``(class, start)`` pairs."""
    rng = random.Random(seed)
    limits = {"vorbis": n_frames - VORBIS_WINDOW + 1, "raytracer": n_rays - RT_WINDOW + 1}
    hot = {cls: [rng.randrange(limit) for _ in range(HOT_STARTS)] for cls, limit in limits.items()}
    classes = ["vorbis"] * SERVE_VORBIS_REQUESTS
    classes += ["raytracer"] * (SERVE_REQUESTS - SERVE_VORBIS_REQUESTS)
    rng.shuffle(classes)
    stream = []
    for cls in classes:
        if rng.random() < HOT_SHARE:
            stream.append((cls, rng.choice(hot[cls])))
        else:
            stream.append((cls, rng.randrange(limits[cls])))
    return stream


def window_request(name: str, cursor, counter, checksum, start: int, length: int) -> Request:
    """A window request: write the start cursor, run until ``length`` results."""
    return Request(
        name=name,
        writes={cursor.full_name: start},
        done_min={counter.full_name: length},
        outputs=(checksum.full_name, counter.full_name),
    )


def vorbis_window_checksum(params: VorbisParams, start: int, frames: int) -> int:
    """Hand-written decode of frames ``start..start+frames-1`` from a zeroed overlap.

    The same per-frame kernel sequence as :func:`repro.apps.vorbis.reference.decode`,
    restricted to the window, which is what a freshly reset pipeline emits.
    """
    n, ib, fb = params.n, params.int_bits, params.frac_bits
    k = vorbis_kernels
    stages_per_rule = (
        params.ifft_points.bit_length() - 1 + params.ifft_stages - 1
    ) // params.ifft_stages
    prev_half = tuple(FixedPoint.zero(ib, fb) for _ in range(n))
    checksum = 0
    for index in range(start, start + frames):
        spectrum = k.imdct_pre(k.backend_input(k.gen_frame(index, n, params.seed, ib, fb), ib, fb), ib, fb)
        for stage in range(params.ifft_stages):
            spectrum = k.ifft_rule_stage(stage, spectrum, stages_per_rule, ib, fb)
        pcm, prev_half = k.window_overlap(prev_half, k.imdct_post(spectrum, ib, fb), ib, fb)
        checksum = k.audio_checksum(pcm, checksum)
    return checksum


def rt_window_checksum(image: List[FixedPoint], start: int, pixels: int) -> int:
    """The image checksum folded over pixels ``start..start+pixels-1`` only."""
    checksum = 0
    for pixel in range(start, start + pixels):
        checksum = (checksum * 31 + image[pixel].to_bits() + pixel) & 0xFFFFFFFF
    return checksum


def serve_pass(rec: Recorder, seed: int) -> PassLog:
    """Two resident servers, one closed-loop client, a seeded window stream."""
    log = PassLog(rec)
    vparams = vorbis_params(seed, SERVE_VORBIS_FRAMES)
    rparams = rt_params(seed, SERVE_RT_SCENE)
    specs = {
        "vorbis": ("vorbis_B", vorbis_partitions.build_partition, ("B", vparams)),
        "raytracer": ("raytracer_C", rt_partitions.build_partition, ("C", rparams)),
    }
    served = []
    with rec.timed():
        log.start = time.perf_counter()
        servers = {}
        for cls, (name, builder, args) in specs.items():
            with rec.span("serve.elaborate", name):
                server = FabricServer(builder, args, backend=BACKEND)
            with rec.span("analysis.lint", name):
                log.counts["analysis.diagnostics"] += len(verify_design(server.workload.design))
            with rec.span("codegen.interface", name):
                log.counts["codegen.bytes"] += generate_interfaces(server.workload.design)
            log.layers["serve.elaborate_s"] += server.elaborate_seconds
            if rec.detailed:
                # Instance attributes shadow the methods serve() calls.
                server.reset = rec.wrap("serve.restore", name, server.reset)
                fabric_run = server.fabric.run

                def run(done, *args, _run=fabric_run, **kwargs):
                    return _run(rec.counted("sim.done", done), *args, **kwargs)

                server.fabric.run = rec.wrap("sim.run", name, run)
            servers[cls] = server
        log.stream_start = time.perf_counter()
        log.setup_s = log.stream_start - log.start
        stream = request_stream(seed, vparams.n_frames, rparams.n_rays)
        for index, (cls, start) in enumerate(stream):
            server = servers[cls]
            w = server.workload
            if cls == "vorbis":
                request = window_request(f"{index}:vorbis[{start}]", w.frame_idx,
                                         w.frames_out, w.checksum, start, VORBIS_WINDOW)
            else:
                request = window_request(f"{index}:raytracer[{start}]", w.pixel_idx,
                                         w.done_count, w.checksum, start, RT_WINDOW)
            out = log.op(request.name)
            try:
                with rec.span("serve.request", request.name):
                    response = server.serve(request)
                out.end = time.perf_counter()
                out.run_s = out.end - out.start
                out.fpga_cycles = response.result.fpga_cycles
                add_result(log.counts, response.result)
                log.counts[f"serve.requests_{cls}"] += 1
                served.append((out, cls, start, response))
            except Exception as exc:
                out.end = time.perf_counter()
                out.fail(exc)
        log.close_timed()
    log.layers["serve.run_s"] = rec.seconds("serve.request")
    log.layers["serve.restore_s"] = rec.seconds("serve.restore")
    clean = log.counts["analysis.diagnostics"] == 0
    image = rt_reference.render(rparams).image
    for out, cls, start, response in served:
        w = servers[cls].workload
        if cls == "vorbis":
            length, counter = VORBIS_WINDOW, w.frames_out
            expected = vorbis_window_checksum(vparams, start, length)
        else:
            length, counter = RT_WINDOW, w.done_count
            expected = rt_window_checksum(image, start, length)
        outputs = response.outputs
        out.ok = (
            clean
            and response.result.completed
            and outputs[counter.full_name] == length
            and outputs[w.checksum.full_name] == expected
        )
    return log


# -- dist_domain2 --------------------------------------------------------------------


def dist_pass(rec: Recorder, designs: List[DesignOp]) -> PassLog:
    """Each design: build -> lint -> interface generation -> run_distributed."""
    log = PassLog(rec)
    reports = []
    member_max = overhead = 0.0
    with rec.timed():
        log.start = log.stream_start = time.perf_counter()
        for design in designs:
            out = log.op(design.name)
            try:
                diagnostics = log.counts["analysis.diagnostics"]
                set_up(rec, log, design)
                ready = time.perf_counter()
                out.setup_s = ready - out.start
                with rec.unprofiled(), rec.span("sim.run", design.name):
                    report = run_distributed(
                        design.builder, design.args, backend=BACKEND, placement="domain",
                        carrier="shm", max_cycles=MAX_CYCLES,
                    )
                out.end = time.perf_counter()
                out.run_s = out.end - ready
                result = report.result
                out.fpga_cycles = result.fpga_cycles
                add_result(log.counts, result)
                log.counts["distrib.records"] += report.data_plane["records"]
                log.counts["distrib.words"] += report.data_plane["words"]
                # Not a count: ring-full retries depend on how the member
                # processes happen to be scheduled, so they need not repeat.
                log.layers["distrib.full_retries"] += report.data_plane["full_retries"]
                slowest = max(o.wall_seconds for o in report.outcomes)
                member_max += slowest
                overhead += report.wall_seconds - slowest
                clean = log.counts["analysis.diagnostics"] == diagnostics
                reports.append((out, design, report, clean))
            except Exception as exc:
                out.end = time.perf_counter()
                out.fail(exc)
            log.setup_s += out.setup_s
        log.close_timed()
    workers_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
    log.peak_rss_mb = max(log.peak_rss_mb, workers_mb)
    log.layers.update({
        "distrib.member_wall_max_s": member_max,
        "distrib.overhead_s": overhead,
        "distrib.worker_peak_rss_mb": workers_mb,
    })
    for out, design, report, clean in reports:
        # Oracle: the same design run in-process by the grouped scheduler
        # must give a bitwise-identical result, and its checksum must match
        # the hand-written reference.
        workload = design.builder(*design.args)
        fabric = design.fabric(workload.design, backend=BACKEND)
        grouped = fabric.run(workload.cosim_done, max_cycles=MAX_CYCLES, scheduler="grouped")
        out.ok = (
            clean
            and not report.fallback
            and report.processes == 2
            and report.result.completed
            and dataclasses.asdict(report.result) == dataclasses.asdict(grouped)
            and fabric.read(workload.checksum) == design.expected(design.params)
        )
    return log


def run_pass(workload: str, seed: int, rec: Recorder) -> Dict[str, Any]:
    """One cold pass of ``workload``; returns its plain-data summary."""
    if workload in ("cosim_link", "cosim_compute"):
        log = cosim_pass(rec, cosim_designs(workload, seed))
    elif workload == "serve_mixed":
        log = serve_pass(rec, seed)
    elif workload == "dist_domain2":
        log = dist_pass(rec, dist_designs(seed))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return log.summary()


def ops_per_pass(workload: str) -> int:
    """Operations one pass attempts, so a pass that dies can be charged for them."""
    return SERVE_REQUESTS if workload == "serve_mixed" else 2
