"""Cross-representation consistency: op graphs vs compiled programs.

The analytical model consumes op graphs; the simulator consumes compiled
programs.  Their headline quantities (matmul FLOPs, streamed weight
bytes) must agree — otherwise the two timing paths could silently model
different workloads and the §VII validation analog would be meaningless.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerator import isa, timing_program
from repro.accelerator.compiler import batched_timing_program
from repro.llm import OPT_1_3B, tiny_config
from repro.llm.batching import batched_gen_stage_ops
from repro.llm.graph import gen_stage_ops, sum_stage_ops


def _program_matmul_flops(program):
    return sum(i.flops() for i in program
               if i.unit in (isa.Unit.PE_ARRAY, isa.Unit.ADDER_TREE))


def _graph_matmul_flops(ops):
    return sum(op.flops for op in ops if op.kind.is_matmul)


def _program_mem_elems(program):
    return sum(i.mem_elems() for i in program)


def _graph_weight_elems(ops, dtype_bytes=2):
    return sum(op.weight_bytes for op in ops) / dtype_bytes


class TestFlopConsistency:
    @pytest.mark.parametrize("config,batch,ctx_prev,batched", [
        (tiny_config(), 1, 7, False), (tiny_config(), 4, 0, False),
        (OPT_1_3B, 1, 575, False), (OPT_1_3B, 64, 0, False),
        (tiny_config(), 1, 7, True), (tiny_config(), 2, 7, True),
        (tiny_config(), 8, 7, True), (OPT_1_3B, 1, 575, True),
        (OPT_1_3B, 2, 575, True), (OPT_1_3B, 8, 575, True),
    ], ids=["config0-1-7", "config1-4-0", "config2-1-575", "config3-64-0",
            "tiny-step-b1", "tiny-step-b2", "tiny-step-b8",
            "opt1.3b-step-b1", "opt1.3b-step-b2", "opt1.3b-step-b8"])
    def test_matmul_flops_match(self, config, batch, ctx_prev, batched):
        if batched:
            # A batched decode step: one token from each of ``batch``
            # sequences.  Both sides build it from the gen stage, so the
            # FLOPs agree exactly.
            program = batched_timing_program(config, batch, ctx_prev)
            ops = batched_gen_stage_ops(config, ctx_prev + 1, batch)
            assert _program_matmul_flops(program) \
                == _graph_matmul_flops(ops)
            return
        program = timing_program(config, batch_tokens=batch,
                                 ctx_prev=ctx_prev)
        if batch == 1:
            ops = gen_stage_ops(config, ctx_prev + 1)
        else:
            ops = sum_stage_ops(config, batch)
        assert _program_matmul_flops(program) == pytest.approx(
            _graph_matmul_flops(ops), rel=1e-6)

    @pytest.mark.parametrize("config", [tiny_config(), OPT_1_3B])
    def test_batch_one_step_is_the_gen_stage(self, config):
        """Mirrors ``batched_gen_stage_ops(cfg, ctx, 1) ==
        gen_stage_ops(cfg, ctx)``: a one-sequence decode step compiles
        to the gen-stage program instruction for instruction."""
        assert batched_timing_program(config, 1, 7) \
            == timing_program(config, 1, 7)

    @settings(max_examples=10, deadline=None)
    @given(ctx_prev=st.integers(1, 40))
    def test_gen_flops_match_property(self, ctx_prev):
        config = tiny_config()
        program = timing_program(config, batch_tokens=1, ctx_prev=ctx_prev)
        ops = gen_stage_ops(config, ctx_prev + 1)
        assert _program_matmul_flops(program) == pytest.approx(
            _graph_matmul_flops(ops), rel=1e-6)


class TestTrafficConsistency:
    @pytest.mark.parametrize("ctx_prev,batch", [
        (15, None), (63, None), (511, None), (63, 2), (511, 8),
    ], ids=["15", "63", "511", "63-step-b2", "511-step-b8"])
    def test_gen_stage_memory_traffic_close(self, ctx_prev, batch):
        """Program mem elems (weights + KV + biases + norms + I/O) must
        cover the graph's weight traffic and not exceed it by much.
        ``batch`` selects a batched decode step of that many sequences."""
        config = OPT_1_3B
        if batch is None:
            program = timing_program(config, batch_tokens=1,
                                     ctx_prev=ctx_prev)
            ops = gen_stage_ops(config, ctx_prev + 1)
        else:
            program = batched_timing_program(config, batch, ctx_prev)
            ops = batched_gen_stage_ops(config, ctx_prev + 1, batch)
        program_elems = _program_mem_elems(program)
        graph_elems = _graph_weight_elems(ops)
        assert program_elems >= graph_elems * 0.98
        assert program_elems <= graph_elems * 1.10

    def test_instruction_count_independent_of_context(self):
        config = tiny_config()
        short = timing_program(config, batch_tokens=1, ctx_prev=3)
        long = timing_program(config, batch_tokens=1, ctx_prev=30)
        assert len(short) == len(long)
