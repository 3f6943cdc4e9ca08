"""Compiler: layouts, stage structure, capacity errors."""

import pytest

from repro.accelerator import (
    DeviceMemory,
    StageCompiler,
    isa,
    load_model,
    timing_program,
)
from repro.accelerator.compiler import batched_timing_program, matmul_instr
from repro.errors import CapacityError, ConfigurationError
from repro.llm import OPT_1_3B, random_weights, tiny_config
from repro.units import KiB, MiB


class TestLoadModel:
    def test_layout_has_all_weight_tensors(self, loaded_layout, tiny_cfg):
        for name in ("token_embedding", "lm_head", "layer0.w_qkv",
                     f"layer{tiny_cfg.num_layers - 1}.b_fc2"):
            assert loaded_layout.addr(name) >= 0

    def test_layout_has_kv_caches_and_buffers(self, loaded_layout,
                                              tiny_cfg):
        for i in range(tiny_cfg.num_layers):
            assert f"layer{i}.kcache" in loaded_layout.regions
            assert f"layer{i}.vcache" in loaded_layout.regions
        assert loaded_layout.input_region.nbytes > 0
        assert loaded_layout.output_region.nbytes > 0

    def test_missing_tensor_raises(self, loaded_layout):
        with pytest.raises(ConfigurationError):
            loaded_layout.addr("layer99.w_qkv")

    def test_model_too_big_for_memory(self, tiny_weights):
        with pytest.raises(Exception):
            load_model(DeviceMemory(4 * KiB), tiny_weights)


class TestStageStructure:
    def test_sum_stage_uses_pe_array(self, loaded_layout):
        code = StageCompiler(loaded_layout).compile_sum_stage([1, 2, 3, 4])
        opcodes = {instr.opcode for instr in code}
        assert "MPU_MM_PEA" in opcodes
        assert "MPU_MASKEDMM_REDUMAX_PEA" in opcodes
        assert "MPU_MV" in opcodes  # the LM head is single-row

    def test_gen_stage_uses_adder_trees(self, loaded_layout):
        code = StageCompiler(loaded_layout).compile_gen_stage(
            5, context_len=4)
        opcodes = {instr.opcode for instr in code}
        assert "MPU_MM_PEA" not in opcodes
        assert "MPU_MV" in opcodes
        assert "MPU_MASKEDMV" in opcodes

    def test_stage_ends_with_output_store_and_barrier(self, loaded_layout):
        code = StageCompiler(loaded_layout).compile_sum_stage([1])
        assert isinstance(code[-1], isa.Barrier)
        stores = [i for i in code if isinstance(i, isa.DmaStore)]
        assert stores[-1].addr == loaded_layout.output_region.addr

    def test_kv_append_addresses_advance_with_context(self, loaded_layout,
                                                      tiny_cfg):
        compiler = StageCompiler(loaded_layout)
        code_a = compiler.compile_gen_stage(1, context_len=3)
        code_b = compiler.compile_gen_stage(1, context_len=4)
        kaddr = loaded_layout.addr("layer0.kcache")

        def kv_store_addr(code):
            for instr in code:
                if isinstance(instr, isa.DmaStore) and \
                        kaddr <= instr.addr < kaddr + \
                        tiny_cfg.max_seq_len * tiny_cfg.d_model * 4:
                    return instr.addr
            raise AssertionError("no KV store found")

        assert kv_store_addr(code_b) - kv_store_addr(code_a) \
            == tiny_cfg.d_model * 4

    def test_instruction_count_linear_in_layers(self, tiny_cfg):
        deep_cfg = tiny_config(num_layers=4)
        mem = DeviceMemory(64 * MiB)
        layout = load_model(mem, random_weights(deep_cfg, seed=1))
        code = StageCompiler(layout).compile_gen_stage(1, context_len=2)
        shallow = timing_program(tiny_config(num_layers=2), 1, 1)
        assert len(code) > len(shallow)

    def test_programs_validate(self, loaded_layout):
        compiler = StageCompiler(loaded_layout)
        isa.validate_program(compiler.compile_sum_stage([1, 2]))
        isa.validate_program(compiler.compile_gen_stage(0, context_len=3))


class TestMatmulInstr:
    def test_datapath_follows_row_count(self):
        assert matmul_instr("m1", "m0", 0, 1, 8, 4) \
            == isa.MpuMv(dst="m1", act="m0", weight_addr=0, k=8, n=4)
        assert matmul_instr("m1", "m0", 0, 3, 8, 4) \
            == isa.MpuMmPea(dst="m1", act="m0", weight_addr=0, m=3, k=8,
                            n=4)

    @pytest.mark.parametrize("m", [1, 5])
    def test_scale_address_selects_int8(self, m):
        instr = matmul_instr("m1", "m0", 0, m, 8, 4, scale_addr=64,
                             bias_addr=128)
        assert (instr.dtype, instr.scale_addr, instr.bias_addr) \
            == ("int8", 64, 128)


class TestStageErrors:
    def test_empty_stage_rejected(self, loaded_layout):
        with pytest.raises(ConfigurationError):
            StageCompiler(loaded_layout).compile_stage([], ctx_prev=0)

    def test_context_overflow_rejected(self, loaded_layout, tiny_cfg):
        with pytest.raises(CapacityError):
            StageCompiler(loaded_layout).compile_stage(
                [1], ctx_prev=tiny_cfg.max_seq_len)

    @pytest.mark.parametrize("ctx_prev", [-1, -2])
    def test_negative_context_rejected(self, ctx_prev):
        """KV appends before the cache region, or a non-positive
        attention span, fail at compile time with the overflow error."""
        with pytest.raises(CapacityError):
            timing_program(tiny_config(), 4, ctx_prev=ctx_prev)
        with pytest.raises(CapacityError):
            batched_timing_program(tiny_config(), 4, ctx_prev=ctx_prev)

    def test_multi_sequence_stage_takes_one_token_each(self,
                                                       loaded_layout):
        """A batched decode step is one token per sequence; prefill
        batching is not supported."""
        with pytest.raises(ConfigurationError):
            StageCompiler(loaded_layout).compile_stage(
                [1, 2, 3, 4], ctx_prev=0, sequences=2)

    def test_gen_stage_needs_context(self, loaded_layout):
        with pytest.raises(ConfigurationError):
            StageCompiler(loaded_layout).compile_gen_stage(1, context_len=0)


class TestTimingProgram:
    def test_timing_program_without_real_memory(self):
        code = timing_program(OPT_1_3B, batch_tokens=1, ctx_prev=63)
        assert len(code) > OPT_1_3B.num_layers * 10
        isa.validate_program(code)

    def test_timing_program_matches_compiled_structure(self, loaded_layout,
                                                       tiny_cfg):
        real = StageCompiler(loaded_layout).compile_gen_stage(
            0, context_len=4)
        fake = timing_program(tiny_cfg, batch_tokens=1, ctx_prev=3)
        assert [i.opcode for i in real] == [i.opcode for i in fake]
