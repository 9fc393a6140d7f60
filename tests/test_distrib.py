"""Tests for distributed co-simulation (``repro.sim.distrib``).

Five groups:

* **Differential matrix** -- ``run_distributed`` must be bitwise identical
  to ``scheduler="grouped"`` on a fresh elaboration, across backends
  (interp/compiled), placements (group/domain) and carriers (shm/socket),
  with real framed wire words crossing process boundaries whenever a cut
  link spans two members.
* **Scheduler dispatch** -- ``CosimFabric``/``Cosimulator``
  ``run(scheduler="distributed")`` with a bound builder spec, and the
  error when the spec is missing.
* **Faults** -- a worker that dies mid-run surfaces as a
  ``SimulationError`` naming the member and exit code; a full carrier ring
  backpressures without perturbing simulated timing (bitwise-equal result,
  ``full_retries`` counted, every sent message delivered); undersized
  rings are rejected up front; a member hung far past ``barrier_timeout``
  makes its waiting peer raise, naming itself and the barrier.
* **Lockstep decision** -- every member makes the end-of-iteration
  decision itself, so a budget overrun raises exactly the serial
  scheduler's error on both carriers; a done predicate that short-circuits
  across members fails at once on every member instead of stalling a
  barrier; four members pinned to one CPU still match
  ``scheduler="grouped"`` bit for bit.
* **Pool shutdown** -- ``_collect_pool_results`` regression: a cleanly
  exited pool with results still buffered in the queue's feeder pipe is
  not a dead pool.
"""

import multiprocessing
import os
import queue
import time
from dataclasses import asdict

import pytest

from repro.apps.vorbis import partitions as vp
from repro.apps.vorbis.params import VorbisParams
from repro.core.action import par
from repro.core.domains import SW, Domain
from repro.core.errors import SimulationError
from repro.core.expr import BinOp, Const, KernelCall, RegRead
from repro.core.module import Design, Module
from repro.core.synchronizers import SyncFifo
from repro.core.types import UIntT
from repro.sim.cosim import CosimFabric, Cosimulator
from repro.sim.distrib import run_distributed
from repro.sim.pool import _collect_pool_results

PARAMS = VorbisParams(n_frames=3)

#: name -> (module-level builder, args) -- the picklable spec contract.
WORKLOADS = {
    "vorbis_B": (vp.build_partition, ("B", PARAMS)),
    "vorbis_G": (vp.build_multi_partition, ("G", PARAMS)),
    "vorbis_H": (vp.build_multi_partition, ("H", PARAMS)),
    "vorbis_mg_BC": (vp.build_group_partition, ("BC", PARAMS)),
    "vorbis_mg_BCF": (vp.build_group_partition, ("BCF", PARAMS)),
}

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="distributed workers need the fork start method"
)

_GROUPED_CACHE = {}


def grouped_reference(name, backend):
    """Serial ``scheduler="grouped"`` result for a catalog workload (cached)."""
    key = (name, backend)
    if key not in _GROUPED_CACHE:
        builder, args = WORKLOADS[name]
        workload = builder(*args)
        fabric = CosimFabric(workload.design, backend=backend)
        result = fabric.run(workload.cosim_done, max_cycles=500_000_000)
        _GROUPED_CACHE[key] = asdict(result)
    return _GROUPED_CACHE[key]


def distributed(name, **kwargs):
    builder, args = WORKLOADS[name]
    return run_distributed(builder, args, **kwargs)


# --------------------------------------------------------------------------
# differential matrix: distributed == grouped, bit for bit
# --------------------------------------------------------------------------


class TestDistributedDifferential:
    @pytest.mark.parametrize("carrier", ["shm", "socket"])
    @pytest.mark.parametrize("placement", ["group", "domain"])
    @pytest.mark.parametrize("backend", ["interp", "compiled", "source"])
    def test_vorbis_B_full_matrix(self, backend, placement, carrier):
        report = distributed(
            "vorbis_B", backend=backend, placement=placement, carrier=carrier
        )
        assert asdict(report.result) == grouped_reference("vorbis_B", backend)
        assert report.result.completed
        if HAVE_FORK:
            assert not report.fallback
            if placement == "domain":
                # The SW<->HW cut really crossed a process boundary.
                assert report.data_plane["records"] > 0
                assert report.data_plane["words"] > 0

    # Multi-group / multi-domain legs sampling every axis value at least
    # twice without running the full 40-cell product on every CI pass.
    LEGS = [
        ("vorbis_G", "compiled", "domain", "shm"),
        ("vorbis_G", "interp", "group", "shm"),
        ("vorbis_H", "compiled", "domain", "socket"),
        ("vorbis_H", "interp", "domain", "shm"),
        ("vorbis_mg_BC", "compiled", "domain", "shm"),
        ("vorbis_mg_BC", "source", "domain", "shm"),
        ("vorbis_mg_BC", "interp", "group", "socket"),
        ("vorbis_mg_BCF", "compiled", "group", "shm"),
        ("vorbis_mg_BCF", "compiled", "domain", "socket"),
    ]

    @pytest.mark.parametrize("name,backend,placement,carrier", LEGS)
    def test_multigroup_legs(self, name, backend, placement, carrier):
        report = distributed(
            name, backend=backend, placement=placement, carrier=carrier
        )
        assert asdict(report.result) == grouped_reference(name, backend)
        assert report.result.completed
        if HAVE_FORK and placement == "domain":
            assert report.data_plane["words"] > 0

    @needs_fork
    def test_outcomes_report_worker_processes(self):
        report = distributed("vorbis_mg_BC", placement="domain")
        # Domain placement: one worker per member, none of them the parent.
        assert report.processes == len(report.outcomes)
        assert all(o.pid != os.getpid() for o in report.outcomes)
        assert {o.mode for o in report.outcomes} == {"lockstep"}
        assert "wire words crossed process boundaries" in report.table()


# --------------------------------------------------------------------------
# scheduler dispatch
# --------------------------------------------------------------------------


class TestSchedulerDispatch:
    def test_missing_builder_spec_raises(self):
        workload = vp.build_partition("B", PARAMS)
        fabric = CosimFabric(workload.design, backend="interp")
        with pytest.raises(SimulationError, match="bind_builder"):
            fabric.run(workload.cosim_done, scheduler="distributed")

    def test_fabric_distributed_scheduler_matches_grouped(self):
        builder, args = WORKLOADS["vorbis_G"]
        workload = builder(*args)
        fabric = CosimFabric(workload.design, backend="compiled")
        fabric.bind_builder(builder, args)
        result = fabric.run(
            workload.cosim_done, max_cycles=500_000_000, scheduler="distributed"
        )
        assert asdict(result) == grouped_reference("vorbis_G", "compiled")
        assert fabric.now == result.fpga_cycles

    def test_cosimulator_distributed_scheduler(self):
        builder, args = WORKLOADS["vorbis_B"]
        ref_workload = builder(*args)
        ref = Cosimulator(ref_workload.design, backend="compiled").run(
            ref_workload.cosim_done, max_cycles=500_000_000
        )
        workload = builder(*args)
        cosim = Cosimulator(workload.design, backend="compiled")
        cosim.bind_builder(builder, args)
        result = cosim.run(
            workload.cosim_done,
            max_cycles=500_000_000,
            scheduler="distributed",
            placement="domain",
        )
        assert asdict(result) == asdict(ref)
        assert cosim.now == result.fpga_cycles


# --------------------------------------------------------------------------
# faults: worker death, carrier backpressure, undersized rings
# --------------------------------------------------------------------------

HW_CRASH = Domain("HW_CRASH")
HW_BURST = Domain("HW_BURST")


class _TestWorkload:
    """Minimal workload object satisfying the ``cosim_done`` contract."""

    def __init__(self, design, done):
        self.design = design
        self._done = done

    def cosim_done(self, cosim):
        return self._done(cosim)


def build_crash_pipeline(n_items=6, crash_at=3, hang_seconds=None):
    """SW source -> HW stage whose kernel kills the process at ``crash_at``.

    With ``hang_seconds`` the kernel blocks that long instead of exiting:
    the HW member stops arriving at barriers while staying alive.
    """
    top = Module("top")
    src = top.add_submodule(Module("src", domain=SW))
    st = top.add_submodule(Module("st", domain=HW_CRASH))
    q = top.add_submodule(SyncFifo("q", UIntT(32), SW, HW_CRASH, depth=2))
    q_out = top.add_submodule(SyncFifo("q_out", UIntT(32), HW_CRASH, SW, depth=2))
    cnt = src.add_register("cnt", UIntT(32), 0)
    ndone = src.add_register("ndone", UIntT(32), 0)
    src.add_rule(
        "produce",
        par(
            q.call("enq", RegRead(cnt)),
            cnt.write(BinOp("+", RegRead(cnt), Const(1))),
        ).when(BinOp("<", RegRead(cnt), Const(n_items))),
    )

    def lethal(x):
        if x >= crash_at:
            if hang_seconds is not None:
                time.sleep(hang_seconds)
            else:
                os._exit(3)
        return x + 1

    step = KernelCall("lethal", lethal, [q.value("first")], sw_cycles=10, hw_cycles=2)
    st.add_rule("stage", par(q_out.call("enq", step), q.call("deq")))
    src.add_rule(
        "collect",
        par(q_out.call("deq"), ndone.write(BinOp("+", RegRead(ndone), Const(1)))),
    )
    design = Design(top, "crash_pipe")
    return _TestWorkload(design, lambda c: c.read(ndone) >= n_items)


def build_short_circuit_pipeline(n_items=6):
    """SW source -> HW counter, done when ``cnt >= n and got >= n``.

    The conjunction short-circuits: the HW member's ``got`` is read only
    once the SW member's ``cnt`` has reached ``n_items``, so the reset-state
    probe never records it and no member publishes it.
    """
    top = Module("top")
    src = top.add_submodule(Module("src", domain=SW))
    st = top.add_submodule(Module("st", domain=HW_CRASH))
    q = top.add_submodule(SyncFifo("q", UIntT(32), SW, HW_CRASH, depth=2))
    cnt = src.add_register("cnt", UIntT(32), 0)
    got = st.add_register("got", UIntT(32), 0)
    src.add_rule(
        "produce",
        par(
            q.call("enq", RegRead(cnt)),
            cnt.write(BinOp("+", RegRead(cnt), Const(1))),
        ).when(BinOp("<", RegRead(cnt), Const(n_items))),
    )
    st.add_rule(
        "consume",
        par(q.call("deq"), got.write(BinOp("+", RegRead(got), Const(1)))),
    )
    design = Design(top, "short_circuit")
    return _TestWorkload(
        design, lambda c: c.read(cnt) >= n_items and c.read(got) >= n_items
    )


def build_burst_pipeline(n_items=5, depth=3):
    """Two sync FIFOs on one HW->SW link: two records pumped per cycle.

    With a ring sized for a single framed record, the second route's record
    of each producing cycle must wait an iteration in the local pool --
    the backpressure path.  The channel's 50-cycle propagation latency
    dwarfs that deferral, so simulated timing is unaffected.
    """
    top = Module("top")
    src = top.add_submodule(Module("src", domain=HW_BURST))
    sink = top.add_submodule(Module("sink", domain=SW))
    q1 = top.add_submodule(SyncFifo("q1", UIntT(32), HW_BURST, SW, depth=depth))
    q2 = top.add_submodule(SyncFifo("q2", UIntT(32), HW_BURST, SW, depth=depth))
    cnt1 = src.add_register("cnt1", UIntT(32), 0)
    cnt2 = src.add_register("cnt2", UIntT(32), 0)
    acc1 = sink.add_register("acc1", UIntT(32), 0)
    acc2 = sink.add_register("acc2", UIntT(32), 0)
    ndone1 = sink.add_register("ndone1", UIntT(32), 0)
    ndone2 = sink.add_register("ndone2", UIntT(32), 0)
    src.add_rule(
        "produce1",
        par(
            q1.call("enq", RegRead(cnt1)),
            cnt1.write(BinOp("+", RegRead(cnt1), Const(1))),
        ).when(BinOp("<", RegRead(cnt1), Const(n_items))),
    )
    src.add_rule(
        "produce2",
        par(
            q2.call("enq", BinOp("*", RegRead(cnt2), Const(7))),
            cnt2.write(BinOp("+", RegRead(cnt2), Const(1))),
        ).when(BinOp("<", RegRead(cnt2), Const(n_items))),
    )
    sink.add_rule(
        "collect1",
        par(
            acc1.write(BinOp("+", RegRead(acc1), q1.value("first"))),
            q1.call("deq"),
            ndone1.write(BinOp("+", RegRead(ndone1), Const(1))),
        ),
    )
    sink.add_rule(
        "collect2",
        par(
            acc2.write(BinOp("+", RegRead(acc2), q2.value("first"))),
            q2.call("deq"),
            ndone2.write(BinOp("+", RegRead(ndone2), Const(1))),
        ),
    )
    design = Design(top, "burst_pipe")
    # min() reads both counters on every evaluation -- grouped/distributed
    # done predicates must not short-circuit across their register set.
    return _TestWorkload(
        design,
        lambda c: min(c.read(ndone1), c.read(ndone2)) >= n_items,
    )


@needs_fork
class TestFaults:
    def test_worker_crash_names_member(self):
        with pytest.raises(SimulationError, match="died with exit code 3"):
            run_distributed(build_crash_pipeline, backend="interp")

    def test_ring_backpressure_preserves_equality(self):
        workload = build_burst_pipeline()
        fabric = CosimFabric(workload.design, backend="interp")
        ref = fabric.run(workload.cosim_done, max_cycles=500_000_000)
        assert ref.completed

        # One UIntT(32) element frames to 2 words -> a 4-slot ring holds
        # exactly one record, but both routes pump each producing cycle.
        report = run_distributed(
            build_burst_pipeline,
            backend="interp",
            placement="domain",
            carrier="shm",
            ring_words=4,
        )
        assert asdict(report.result) == asdict(ref)
        assert report.data_plane["full_retries"] > 0
        # Credit conservation: every message the producers sent crossed the
        # wire and was delivered -- nothing lost to the full-ring deferrals.
        assert report.data_plane["records"] == ref.channel_messages

    def test_undersized_ring_rejected(self):
        with pytest.raises(ValueError, match="cannot hold one framed record"):
            distributed("vorbis_B", placement="domain", ring_words=4)

    def test_hung_member_times_out_at_barrier(self):
        # The HW member blocks in its kernel far past the barrier timeout;
        # the SW member's wait must give up on its slow path and name
        # itself and the barrier it was stuck at.
        t0 = time.monotonic()
        with pytest.raises(SimulationError) as err:
            run_distributed(
                build_crash_pipeline,
                kwargs={"hang_seconds": 600.0},
                backend="interp",
                placement="domain",
                barrier_timeout=2.0,
            )
        assert time.monotonic() - t0 < 30.0
        message = str(err.value)
        assert "distributed member crash_pipe[g0:SW] timed out after 2s" in message
        assert "barrier A (credit publish) from member" in message
        assert "(HW_CRASH)" in message


# --------------------------------------------------------------------------
# lockstep decision and wait policy: every member decides, any CPU count
# --------------------------------------------------------------------------


@needs_fork
class TestLockstepDecision:
    @pytest.mark.parametrize("carrier", ["shm", "socket"])
    @pytest.mark.parametrize(
        "budget", [{"max_iterations": 40}, {"max_cycles": 300.0}], ids=["iterations", "cycles"]
    )
    def test_budget_error_matches_grouped(self, budget, carrier):
        # Every member reaches the budget decision on its own; whichever
        # reports first, the error is the serial scheduler's, verbatim.
        builder, args = WORKLOADS["vorbis_B"]
        workload = builder(*args)
        fabric = CosimFabric(workload.design, backend="compiled")
        with pytest.raises(SimulationError) as ref:
            fabric.run(workload.cosim_done, scheduler="grouped", **budget)
        with pytest.raises(SimulationError) as got:
            distributed(
                "vorbis_B",
                backend="compiled",
                placement="domain",
                carrier=carrier,
                **budget,
            )
        assert "exceeded its cycle/iteration budget" in str(ref.value)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("carrier", ["shm", "socket"])
    def test_short_circuit_predicate_fails_fast(self, carrier):
        # Once cnt reaches n the predicate reads got, which no member
        # publishes.  Every member must raise the read-set contract error
        # together; one that carried on would strand the other at a barrier
        # until barrier_timeout.
        t0 = time.monotonic()
        with pytest.raises(SimulationError) as err:
            run_distributed(
                build_short_circuit_pipeline,
                backend="interp",
                placement="domain",
                carrier=carrier,
                barrier_timeout=120.0,
            )
        assert time.monotonic() - t0 < 30.0
        message = str(err.value)
        assert "no cross-group short-circuit" in message
        assert "top.st.got" in message
        assert "timed out" not in message

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity control"
    )
    def test_oversubscribed_members_match_grouped(self):
        # Pin the parent to one CPU; the forked members inherit the pin, so
        # four lockstep members share it and each waiting member must give
        # the CPU away for its peers to arrive.
        saved = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {min(saved)})
        except OSError as exc:  # pragma: no cover - affinity locked down
            pytest.skip(f"cannot pin to one CPU: {exc}")
        try:
            assert len(os.sched_getaffinity(0)) == 1
            report = distributed(
                "vorbis_H", backend="compiled", placement="domain", barrier_timeout=60.0
            )
        finally:
            os.sched_setaffinity(0, saved)
        assert report.processes == 4
        assert asdict(report.result) == grouped_reference("vorbis_H", "compiled")


# --------------------------------------------------------------------------
# pool shutdown regression (satellite of the distributed work: the sweep
# pool shares the "dead workers vs. buffered results" edge with distrib)
# --------------------------------------------------------------------------


class _FakeWorker:
    def __init__(self, exitcode):
        self.exitcode = exitcode

    def is_alive(self):
        return False


class _FakeQueue:
    """Queue whose first ``empties`` gets raise Empty, then drains ``items``.

    Models a multiprocessing queue whose feeder thread is still flushing
    when every worker has already exited.
    """

    def __init__(self, items, empties=1):
        self._items = list(items)
        self._empties = empties

    def get(self, timeout=None):
        if self._empties > 0:
            self._empties -= 1
            raise queue.Empty
        if self._items:
            return self._items.pop(0)
        raise queue.Empty


class TestPoolShutdown:
    def test_clean_exit_with_buffered_results_is_not_a_dead_pool(self):
        workers = [_FakeWorker(0), _FakeWorker(0)]
        results = _FakeQueue([(0, True, "a"), (1, True, "b")], empties=1)
        received, failure = _collect_pool_results(results, workers, 2)
        assert failure is None
        assert received == {0: (True, "a"), 1: (True, "b")}

    def test_crashed_worker_reports_exit_codes(self):
        workers = [_FakeWorker(0), _FakeWorker(1)]
        results = _FakeQueue([(0, True, "a")], empties=1)
        received, failure = _collect_pool_results(results, workers, 2)
        assert received == {0: (True, "a")}
        assert isinstance(failure, SimulationError)
        assert "worker exit codes [1]" in str(failure)

    def test_clean_exit_with_lost_results_still_fails(self):
        workers = [_FakeWorker(0)]
        results = _FakeQueue([], empties=1)
        received, failure = _collect_pool_results(results, workers, 1)
        assert received == {}
        assert isinstance(failure, SimulationError)
        assert "results are missing" in str(failure)
