"""Self-tests of the benchmark: its oracles must catch wrong results.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import cProfile
import json
import shutil
import subprocess
import sys
from pathlib import Path

import bench_workloads as bw
import coldpass
import run as bench_run
from repro.apps.raytracer import reference as rt_reference
from repro.apps.raytracer.params import RayTracerParams
from repro.apps.vorbis import reference as vorbis_reference
from repro.apps.vorbis.params import VorbisParams
from repro.core.kernelcompile import clear_kernel_cache

TINY_VORBIS = VorbisParams(n_frames=2, seed=3)


def tiny_design(expected) -> bw.DesignOp:
    return bw.DesignOp(
        "vorbis_F", bw.vorbis_partitions.build_partition, ("F", TINY_VORBIS),
        bw.Cosimulator, expected,
    )


def test_wrong_checksum_counts_as_failed_operation():
    # Negative control: a wrong expected checksum fails that operation
    # only; the pass carries on and the next operation still passes.
    clear_kernel_cache()
    log = bw.cosim_pass(
        bw.Recorder(),
        [tiny_design(lambda params: 12345), tiny_design(vorbis_reference.expected_checksum)],
    )
    assert [op.ok for op in log.ops] == [False, True]
    assert log.counts["analysis.diagnostics"] == 0


def test_exception_counts_as_failed_operation():
    clear_kernel_cache()
    broken = bw.DesignOp("broken", bw.vorbis_partitions.build_partition, ("Z", TINY_VORBIS),
                         bw.Cosimulator, vorbis_reference.expected_checksum)
    log = bw.cosim_pass(bw.Recorder(), [broken, tiny_design(vorbis_reference.expected_checksum)])
    assert [op.ok for op in log.ops] == [False, True]
    assert "KeyError" in log.ops[0].error


def test_timed_section_refuses_a_warm_kernel_cache():
    clear_kernel_cache()
    vorbis_reference.expected_checksum(TINY_VORBIS)
    try:
        bw.cosim_pass(bw.Recorder(), [tiny_design(vorbis_reference.expected_checksum)])
    except RuntimeError as exc:
        assert "warm kernel cache" in str(exc)
    else:
        raise AssertionError("a warm kernel cache went unnoticed")
    finally:
        clear_kernel_cache()


def test_window_references_match_the_whole_track_references():
    # Over the whole track/image the window references are the shipped ones.
    params = VorbisParams(n_frames=3, seed=5)
    assert bw.vorbis_window_checksum(params, 0, 3) == vorbis_reference.expected_checksum(params)
    scene = RayTracerParams(n_triangles=8, image_width=3, image_height=2, seed=5)
    render = rt_reference.render(scene)
    assert bw.rt_window_checksum(render.image, 0, scene.n_rays) == render.checksum
    assert bw.rt_window_checksum(render.image, 1, 2) != bw.rt_window_checksum(render.image, 0, 2)


def test_request_stream_is_seeded_and_mixed_as_documented():
    stream = bw.request_stream(11, 64, 100)
    assert stream == bw.request_stream(11, 64, 100)
    assert stream != bw.request_stream(12, 64, 100)
    classes = [cls for cls, _ in stream]
    assert classes.count("vorbis") == bw.SERVE_VORBIS_REQUESTS
    assert len(stream) == bw.SERVE_REQUESTS


def test_count_mismatches_flags_unrepeatable_counts():
    same = {"counts": {"sim.firings": 3}}
    assert bench_run.count_mismatches([same, same], [same]) == []
    other = {"counts": {"sim.firings": 4}}
    assert bench_run.count_mismatches([same, other], [])
    assert bench_run.count_mismatches([same], [other])


def test_exits_without_result_when_sources_are_missing(tmp_path: Path):
    # A directory holding only BENCHMARK.json and the benchmark itself.
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench_run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cosim_link", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reports_exactly_the_metrics_benchmark_json_declares():
    spec = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text())
    clear_kernel_cache()
    profiler = cProfile.Profile()
    rec = bw.Recorder(detailed=True, profiler=profiler)
    summary = bw.cosim_pass(rec, [tiny_design(vorbis_reference.expected_checksum)]).summary()
    summary["layers"].update(coldpass.self_time_by_layer(profiler))
    e2e, _ = bench_run.end_to_end([summary])
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    layers = bench_run.per_layer([summary], [summary], attempted=1, failed=0)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert layers["sim.done_calls"] > 0
