"""Unit tests for the source-lowering tier's debuggability contract.

The generated modules are first-class debuggable artifacts: they can be
dumped to disk (``REPRO_DUMP_SOURCE`` or :meth:`GeneratedModule.dump`),
tracebacks through generated code show the real generated source lines
(linecache registration), and generation is deterministic -- the same
design elaborates to byte-identical source every time.  A node the
lowerer does not know is an ``ElaborationError`` when the engine is built.
"""

import linecache
import traceback

import pytest

from repro.core.errors import ElaborationError
from repro.core.expr import Const, Expr, KernelCall, RegRead
from repro.core.interpreter import Simulator
from repro.core.module import Design, Module
from repro.core.optimize import OptimizationConfig
from repro.core.types import UIntT
from repro.platform.platform import Platform
from repro.sim.cosim import CosimFabric
from repro.sim.hwsim import HwEngine
from repro.sim.swsim import SwEngine

from test_backend_parity import build_fifo_pipeline, build_kitchen_sink


def _source_sim(builder=build_fifo_pipeline):
    return Simulator(builder(), backend="source")


# --------------------------------------------------------------------------
# dumping generated source
# --------------------------------------------------------------------------


class TestDumpSource:
    def test_env_var_dumps_on_generation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DUMP_SOURCE", str(tmp_path))
        sim = _source_sim()
        dumped = sorted(p.name for p in tmp_path.iterdir())
        assert any(name.endswith(".py") for name in dumped)
        # The dumped text is exactly the module that was exec'd.
        expected = sim._gen.source
        assert any(
            p.read_text() == expected for p in tmp_path.iterdir() if p.suffix == ".py"
        )

    def test_explicit_dump_returns_sanitised_path(self, tmp_path):
        sim = _source_sim()
        path = sim._gen.dump(str(tmp_path))
        assert path.endswith(".py")
        with open(path) as fh:
            assert fh.read() == sim._gen.source
        # Only filename-safe characters survive sanitisation.
        name = path.rsplit("/", 1)[-1]
        assert all(c.isalnum() or c in "._-" for c in name)

    def test_no_dump_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_DUMP_SOURCE", raising=False)
        _source_sim()
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------
# tracebacks through generated code
# --------------------------------------------------------------------------


def build_exploding_design():
    top = Module("top")
    out = top.add_register("out", UIntT(32), 0)
    top.add_rule(
        "boom",
        out.write(KernelCall("explode", lambda: 1 // 0, [], 1, 1)).when(Const(True)),
    )
    return Design(top, name="exploding")


class TestTracebacks:
    def test_traceback_shows_generated_source_lines(self):
        sim = Simulator(build_exploding_design(), backend="source")
        try:
            sim.run(5)
            raise AssertionError("kernel should have raised")
        except ZeroDivisionError:
            tb = traceback.format_exc()
        # The generated frame is attributed to its pseudo-filename...
        assert 'File "<repro-generated:exploding.rules' in tb
        # ...and linecache resolves the actual generated line under it:
        # the source line shown in the traceback is real generated code.
        frame_lines = [
            line.strip()
            for line, prev in zip(tb.splitlines()[1:], tb.splitlines())
            if "<repro-generated:" in prev
        ]
        assert frame_lines
        assert all(line in sim._gen.source for line in frame_lines)

    def test_linecache_registration(self):
        sim = _source_sim(build_kitchen_sink)
        gen = sim._gen
        assert linecache.getlines(gen.filename) == gen.source.splitlines(True)


# --------------------------------------------------------------------------
# deterministic generation
# --------------------------------------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize(
        "builder", [build_fifo_pipeline, build_kitchen_sink], ids=lambda b: b.__name__
    )
    def test_same_design_generates_identical_source(self, builder):
        first = Simulator(builder(), backend="source")._gen
        second = Simulator(builder(), backend="source")._gen
        assert first.source == second.source
        assert first.filename == second.filename

    def test_fabric_supersteps_deterministic(self):
        from repro.apps.vorbis import partitions as vp
        from repro.apps.vorbis.params import VorbisParams
        from repro.sim.cosim import CosimFabric

        sources = []
        for _ in range(2):
            wl = vp.build_partition("B", VorbisParams(n_frames=2))
            fabric = CosimFabric(wl.design, backend="source", transport="source")
            per_engine = {}
            for domain in fabric.domains:
                engine = fabric.engine(domain.name)
                per_engine[domain.name] = (
                    engine._gen.source if engine._gen is not None else None,
                    engine._step_gen.source if engine._step_gen is not None else None,
                )
            sources.append(per_engine)
        assert sources[0] == sources[1]


# --------------------------------------------------------------------------
# nodes with no lowering
# --------------------------------------------------------------------------


class Foreign(Expr):
    """An expression class defined outside the core grammar."""

    _child_fields = ("operand",)

    def __init__(self, operand):
        self.operand = operand


def build_foreign_design():
    top = Module("top")
    out = top.add_register("out", UIntT(32), 0)
    top.add_rule("alien", out.write(Foreign(RegRead(out))))
    return Design(top, name="foreign")


class TestUnlowerableNode:
    MESSAGE = r"rule top\.alien: no Python lowering for node class Foreign"

    def test_simulator_raises_at_construction(self):
        with pytest.raises(ElaborationError, match=self.MESSAGE):
            Simulator(build_foreign_design(), backend="source")

    def test_engines_raise_at_construction(self):
        # The software optimisations rewrite only the core grammar, so the
        # software engines run the rule unoptimised.
        design = build_foreign_design()
        rules = list(design.all_rules())
        none = OptimizationConfig.none()
        with pytest.raises(ElaborationError, match=self.MESSAGE):
            SwEngine(
                rules, design.initial_store(), Platform.ml507(), none, backend="source"
            )
        with pytest.raises(ElaborationError, match=self.MESSAGE):
            HwEngine(rules, design.initial_store(), backend="source")
        with pytest.raises(ElaborationError, match=self.MESSAGE):
            CosimFabric(build_foreign_design(), config=none, backend="source")

    def test_interp_oracle_does_not_lower(self):
        # The tree walker generates nothing, so building it succeeds; the
        # node only fails once a rule is evaluated.
        Simulator(build_foreign_design(), backend="interp")
