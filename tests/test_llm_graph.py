"""Stage op graphs: structure, totals, tensor-parallel scaling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, ParallelismError
from repro.llm import OPT_13B, StageShape, tiny_config
from repro.llm.graph import (
    decoder_layer_ops,
    gen_stage_ops,
    inference_op_count,
    lm_head_ops,
    sum_stage_ops,
)
from repro.llm.ops import OpKind, total_flops, total_weight_bytes


class TestStageShape:
    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            StageShape(batch_tokens=0, context_len=4)
        with pytest.raises(ConfigurationError):
            StageShape(batch_tokens=1, context_len=4, sequences=0)

    def test_multi_sequence_stage_is_one_token_each(self):
        """Batched decode only; prefill batching is not modelled."""
        with pytest.raises(ConfigurationError):
            StageShape(batch_tokens=2, context_len=4, sequences=2)

    def test_rejects_batch_beyond_context(self):
        with pytest.raises(ConfigurationError):
            StageShape(batch_tokens=8, context_len=4)


class TestGenStage:
    def test_gen_stage_is_gemv_dominated(self):
        ops = gen_stage_ops(OPT_13B, context_len=512)
        matmuls = [op for op in ops if op.kind.is_matmul]
        assert matmuls
        assert all(op.kind is OpKind.GEMV for op in matmuls)

    def test_gen_stage_streams_all_parameters(self):
        # A gen stage must read every layer weight plus the KV cache; the
        # weight-byte total should exceed the raw parameter bytes.
        ctx = 512
        ops = gen_stage_ops(OPT_13B, ctx)
        streamed = total_weight_bytes(ops)
        assert streamed > OPT_13B.param_bytes * 0.9
        # ... but not by more than params + KV + embeddings.
        bound = (OPT_13B.param_bytes + ctx * OPT_13B.kv_bytes_per_token()
                 + OPT_13B.embedding_params * 2)
        assert streamed < bound * 1.05

    def test_kv_traffic_grows_with_context(self):
        short = total_weight_bytes(gen_stage_ops(OPT_13B, 64))
        long = total_weight_bytes(gen_stage_ops(OPT_13B, 1024))
        expected_delta = (1024 - 64) * OPT_13B.kv_bytes_per_token()
        assert long - short == pytest.approx(expected_delta, rel=0.01)


class TestSumStage:
    def test_sum_stage_is_gemm_dominated(self):
        ops = sum_stage_ops(OPT_13B, input_len=64)
        matmuls = [op for op in ops if op.kind.is_matmul]
        gemms = [op for op in matmuls if op.kind is OpKind.GEMM]
        # All matmuls except the single-row LM head are GEMMs.
        assert len(matmuls) - len(gemms) == 1

    def test_sum_flops_scale_with_input_length(self):
        f32 = total_flops(sum_stage_ops(OPT_13B, 32))
        f64 = total_flops(sum_stage_ops(OPT_13B, 64))
        assert f64 / f32 == pytest.approx(2.0, rel=0.1)

    def test_sum_flops_approx_2_params_tokens(self):
        # Classic estimate: ~2 * N_params FLOPs per token.
        tokens = 64
        flops = total_flops(sum_stage_ops(OPT_13B, tokens))
        assert flops == pytest.approx(2 * OPT_13B.num_params * tokens,
                                      rel=0.1)


class TestTensorParallel:
    def test_tp_splits_matmul_weights(self):
        full = total_weight_bytes(gen_stage_ops(OPT_13B, 512))
        half = total_weight_bytes(gen_stage_ops(OPT_13B, 512,
                                                tensor_parallel=2))
        assert half < full * 0.6

    def test_tp_must_divide_heads(self):
        with pytest.raises(ParallelismError):
            gen_stage_ops(OPT_13B, 512, tensor_parallel=7)

    def test_tp_flops_conserved_across_group(self):
        cfg = tiny_config(num_heads=4)
        shape = StageShape(batch_tokens=2, context_len=8)
        full = total_flops(decoder_layer_ops(cfg, shape))
        split = total_flops(decoder_layer_ops(cfg, shape,
                                              tensor_parallel=2))
        # Matmul work halves; vector work (norms, residuals) replicates.
        assert full / 2 < split < full

    def test_tp_below_one_rejected(self):
        with pytest.raises(ParallelismError):
            decoder_layer_ops(tiny_config(),
                              StageShape(batch_tokens=1, context_len=1),
                              tensor_parallel=0)


class TestOpNaming:
    def test_layer_ops_have_qualified_names(self):
        ops = decoder_layer_ops(tiny_config(),
                                StageShape(batch_tokens=2, context_len=4),
                                layer_name="layer3")
        names = {op.name for op in ops}
        assert "layer3.qkv" in names
        assert "layer3.attn_score" in names
        assert "layer3.fc2" in names

    def test_lm_head_emits_single_row_gemv(self):
        cfg = tiny_config()
        ops = lm_head_ops(cfg, StageShape(batch_tokens=4, context_len=4))
        logits = [op for op in ops if op.name == "lm_head.logits"][0]
        assert logits.m == 1
        assert logits.n == cfg.vocab_size


@settings(max_examples=20, deadline=None)
@given(input_len=st.integers(1, 8), output_len=st.integers(1, 6))
def test_inference_op_count_linear_in_output(input_len, output_len):
    cfg = tiny_config()
    count = inference_op_count(cfg, input_len, output_len)
    per_stage = len(gen_stage_ops(cfg, input_len + 1))
    assert count == len(sum_stage_ops(cfg, input_len)) \
        + (output_len - 1) * per_stage
